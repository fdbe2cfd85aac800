"""Model layer: integrator, finite differences, costs, constraints."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    ConstraintSet,
    ModelError,
    QuadraticCost,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    sigma_y,
)
from dualmpc.model import psd_sqrt
from dualmpc.uncertainty import RolloutError
from dualmpc.unicycle import sigma_y_grad

from conftest import same_bits, standard_unicycle_params
from oracles import _jacobian_pullback, fd_jacobian, rk4_step, rk4_step_with_jacobian, rk4_three_chain_jacobians


# ---------------------------------------------------------------- fd_jacobian

def test_fd_jacobian_identity():
    J = fd_jacobian(lambda x: x, np.array([1.0, -2.0, 0.5]))
    assert_allclose(J, np.eye(3), atol=1e-9)


def test_fd_jacobian_affine_map_is_exact_to_rounding():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    J = fd_jacobian(lambda x: M @ x + b, rng.normal(size=3))
    assert_allclose(J, M, atol=1e-9)


def test_fd_jacobian_quadratic_map_second_order_accurate():
    f = lambda x: np.array([x[0] ** 3, np.sin(x[1])])
    at = np.array([0.7, 0.3])
    J = fd_jacobian(f, at)
    expected = np.array([[3 * 0.7**2, 0.0], [0.0, np.cos(0.3)]])
    assert_allclose(J, expected, rtol=1e-9, atol=1e-10)


def test_fd_jacobian_reports_offending_column():
    def f(x):
        if abs(x[1]) > 1e-8:
            return np.array([np.inf])
        return np.array([x[0]])

    with pytest.raises(ModelError, match="column 1"):
        fd_jacobian(f, np.array([0.0, 0.0]))


# ------------------------------------------------------------------- rk4_step

def _unicycle_ode(x, u, w):
    theta = x[..., 2]
    return np.stack([u[..., 0] * np.cos(theta), u[..., 0] * np.sin(theta), u[..., 1]], axis=-1) + w


def _rk4_steps(dt):
    """The noise-free unicycle step x+ = step(x, u) over dt, twice: the
    generic RK4 step of the test ODE and the model's cascade-form map."""
    model = make_unicycle_problem(standard_unicycle_params(dt=dt)).model
    return (lambda x, u: rk4_step(_unicycle_ode, x, u, np.zeros(3), dt=dt),
            lambda x, u: model.f(x, u, np.zeros(3)))


def test_rk4_straight_line_motion_is_exact():
    # omega = 0 keeps theta constant; the integral is then linear in t.
    for step in _rk4_steps(0.3):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=3)
            v = rng.normal()
            u = np.array([v, 0.0])
            out = step(x, u)
            expected = x + np.array([v * 0.3 * np.cos(x[2]), v * 0.3 * np.sin(x[2]), 0.0])
            assert_allclose(out, expected, atol=1e-12)


def test_rk4_unicycle_spec_points():
    for step in _rk4_steps(0.3):
        out = step(np.array([1.0, 1.0, np.pi]), np.array([1.0, 0.0]))
        assert_allclose(out, [0.7, 1.0, np.pi], atol=1e-12)
        out = step(np.zeros(3), np.array([0.0, 1.0]))
        assert_allclose(out, [0.0, 0.0, 0.3], atol=1e-15)


def test_rk4_fixed_point():
    ode = lambda x, u, w: np.zeros_like(x)
    x = np.array([2.0, -1.0])
    assert_allclose(rk4_step(ode, x, np.zeros(1), np.zeros(1), dt=1.7), x, atol=0)


def test_rk4_rejects_bad_inputs():
    """A non-finite state or control met while stepping is a numerical
    failure (RolloutError), which a solve or a run contains; a bad step
    size or parameter is an invalid model (ModelError)."""
    for step in _rk4_steps(0.3):
        for bad in (np.nan, np.inf):
            with pytest.raises(RolloutError):
                step(np.array([bad, 0, 0]), np.zeros(2))
            with pytest.raises(RolloutError):
                step(np.zeros(3), np.array([0.0, bad]))
    # The unicycle's whole-horizon rollout checks its inputs as f does.
    model = make_unicycle_problem(standard_unicycle_params()).model
    for bad in (np.nan, np.inf):
        u = np.zeros((model.horizon, 2))
        with pytest.raises(RolloutError):
            nominal_rollout(model, np.array([0.0, bad, 0.0]), u)
        u[7, 0] = bad
        with pytest.raises(RolloutError):
            nominal_rollout(model, np.zeros(3), u)
    with pytest.raises(ModelError):
        rk4_step(_unicycle_ode, np.zeros(3), np.zeros(2), np.zeros(3), dt=0.0)
    with pytest.raises(ModelError):
        standard_unicycle_params(dt=0.0)


def test_rk4_batch_matches_loop():
    for step in _rk4_steps(0.25):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(7, 3))
        us = rng.normal(size=(7, 2))
        batch = step(xs, us)
        for i in range(7):
            assert_allclose(batch[i], step(xs[i], us[i]), atol=0)


@pytest.mark.parametrize("shape", [(), (1,), (12,), (41,), (1000,), (2, 5, 10)])
def test_unicycle_step_matches_generic_rk4_bitwise(shape):
    """The unicycle's cascade-form step gives the generic RK4 step's bits,
    sign bits included: unbatched and batched, with zero-speed rows, heading
    pi, zero and nonzero held noise, and an unbatched state against batched
    controls."""
    params = standard_unicycle_params()
    model = make_unicycle_problem(params).model
    L_w = psd_sqrt(params.process_noise_cov)
    rng = np.random.default_rng(len(shape) + sum(shape))
    x = rng.normal(scale=3.0, size=shape + (3,))
    u = rng.uniform(-2.0, 2.0, size=shape + (2,))
    x.reshape(-1, 3)[::4, 2] = np.pi
    u.reshape(-1, 2)[::3, 0] = 0.0
    for w in (np.zeros(3), rng.normal(size=shape + (3,))):
        expected = rk4_step(_unicycle_ode, x, u, w @ L_w.T, params.dt, params.substeps)
        assert same_bits(model.f(x, u, w), expected)
    if shape:
        x0 = x.reshape(-1, 3)[0]
        expected = rk4_step(_unicycle_ode, x0, u, np.zeros(3), params.dt, params.substeps)
        assert same_bits(model.f(x0, u, np.zeros(3)), expected)


def test_overflowing_heading_rate_fails_the_rollout_at_stage_1():
    model = make_unicycle_problem(standard_unicycle_params()).model
    u = np.zeros((model.horizon, 2))
    u[:, 1] = 1e308  # the RK4 weights 1 + 2 + 2 + 1 overflow it
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(RolloutError, match="stage 1$"):
        nominal_rollout(model, np.zeros(3), u)


# --------------------------------------------------- rk4 sensitivity chaining

def _unicycle_ode_jac(x, u, w):
    """(d xdot/dx, [d xdot/du | d xdot/dw]) of ``_unicycle_ode``."""
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    theta = np.broadcast_to(x[..., 2], batch)
    v = np.broadcast_to(u[..., 0], batch)
    A = np.zeros(batch + (3, 3))
    A[..., 0, 2] = -v * np.sin(theta)
    A[..., 1, 2] = v * np.cos(theta)
    E = np.zeros(batch + (3, 5))
    E[..., 0, 0] = np.cos(theta)
    E[..., 1, 0] = np.sin(theta)
    E[..., 2, 1] = 1.0
    E[..., 2:] = np.eye(3)
    return A, E


def test_rk4_jacobians_match_finite_differences():
    x = np.array([0.4, -0.2, 0.9])
    u = np.array([1.3, -0.7])
    w = np.array([0.01, -0.02, 0.005])
    xn, A, B, G = rk4_step_with_jacobian(_unicycle_ode, _unicycle_ode_jac, x, u, w, dt=0.3)
    assert_allclose(xn, rk4_step(_unicycle_ode, x, u, w, dt=0.3), atol=0)
    A_fd = fd_jacobian(lambda p: rk4_step(_unicycle_ode, p, u, w, dt=0.3), x)
    B_fd = fd_jacobian(lambda p: rk4_step(_unicycle_ode, x, p, w, dt=0.3), u)
    G_fd = fd_jacobian(lambda p: rk4_step(_unicycle_ode, x, u, p, dt=0.3), w)
    assert_allclose(A, A_fd, atol=2e-9)
    assert_allclose(B, B_fd, atol=2e-9)
    assert_allclose(G, G_fd, atol=2e-9)


@pytest.mark.parametrize("batch", [1, 10, 100, 1000])
def test_rk4_jacobians_match_three_chain_reference(batch):
    """The unicycle model's closed-form dynamics Jacobians equal the
    three-chain RK4 formula at zero noise, with the noise block passed
    unbatched as L_w, to max|got - ref| <= 1e-14 max(1, max|ref|) per
    Jacobian; zero-speed rows included.  The two add the same terms in
    different orders (and at zero speed give zeros of either sign), so they
    agree to rounding, not bit for bit."""
    params = standard_unicycle_params()
    model = make_unicycle_problem(params).model
    L_w = psd_sqrt(params.process_noise_cov)

    def three_chain_ode_jac(x, u, w):
        A, E = _unicycle_ode_jac(x, u, w)
        return A, E[..., :2], L_w

    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 3))
    u = rng.uniform(-2.0, 2.0, size=(batch, 2))
    u[::3, 0] = 0.0
    expected = rk4_three_chain_jacobians(_unicycle_ode, three_chain_ode_jac, x, u, np.zeros(3),
                                         params.dt, params.substeps)
    for got, ref in zip(model.f_jac(x, u), expected, strict=True):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def _f_jac_points(shape, rng):
    """States and controls of the given batch shape, with headings +-pi
    and zero speeds among them."""
    x = rng.normal(scale=3.0, size=shape + (3,))
    u = rng.uniform(-2.0, 2.0, size=shape + (2,))
    x.reshape(-1, 3)[::4, 2] = np.pi
    x.reshape(-1, 3)[2::4, 2] = -np.pi
    u.reshape(-1, 2)[::3, 0] = 0.0
    return x, u


@pytest.mark.parametrize("substeps", [1, 4])
@pytest.mark.parametrize("shape", [(), (12,), (2, 5, 10)])
def test_unicycle_f_jac_matches_finite_differences(substeps, shape):
    """The model's own (A, B, G) against central differences of model.f in
    x, u and the standardized noise w, at zero noise."""
    model = make_unicycle_problem(standard_unicycle_params(substeps=substeps)).model
    rng = np.random.default_rng(7 + substeps + len(shape))
    x, u = _f_jac_points(shape, rng)
    point = (x, u, np.zeros(shape + (3,)))
    A, B, G = model.f_jac(x, u)
    if not shape:
        assert (A.shape, B.shape, G.shape) == ((3, 3), (3, 2), (3, 3))
    for arg, got in enumerate((A, B, G)):
        assert got.shape == shape + (3, point[arg].shape[-1])
        for j in range(point[arg].shape[-1]):
            step = 1e-6 * (1.0 + np.abs(point[arg][..., j]))
            plus, minus = [p.copy() for p in point], [p.copy() for p in point]
            plus[arg][..., j] += step
            minus[arg][..., j] -= step
            fd = (model.f(*plus) - model.f(*minus)) / (2.0 * step[..., None])
            assert_allclose(got[..., j], fd, rtol=0, atol=1e-8)


def test_unicycle_f_jac_rows_evaluate_as_alone():
    """Every row of a batched f_jac equals that point's one-point call bit
    for bit, sign bits included: the closed form sums its stage points in
    one fixed order whatever the batch."""
    model = make_unicycle_problem(standard_unicycle_params()).model
    rng = np.random.default_rng(410)
    for shape in ((410,), (2, 5, 10)):
        x, u = _f_jac_points(shape, rng)
        batch = model.f_jac(x, u)
        for i in np.ndindex(shape):
            for got, ref in zip(batch, model.f_jac(x[i], u[i]), strict=True):
                assert same_bits(got[i], ref)


def _pullback_points(rng, M=60):
    """M random points (x, u) with v = 0, omega = 0 and r_y = 0 among them,
    and random Jacobian derivatives (A_bar, B_bar, G_bar, C_bar, D_bar)."""
    x, u = rng.uniform(-2.0, 2.0, size=(M, 3)), rng.uniform(-2.0, 2.0, size=(M, 2))
    x[::5, 1] = 0.0
    u[1::5, 0] = 0.0
    u[2::5, 1] = 0.0
    bars = tuple(rng.normal(size=(M, 3, n)) for n in (3, 2, 3, 3, 3))
    return x, u, bars


@pytest.mark.parametrize("substeps", [1, 4])
def test_unicycle_jacobian_pullbacks_match_central_differences(substeps):
    """The closed-form pullbacks of f_jac and g_jac against central
    differences of the Jacobian providers (``oracles._jacobian_pullback``,
    step 1e-5 (1 + |z|)) at 60 random points, with v = 0, omega = 0 and
    r_y = 0 among them.  The tolerances sit above the differences' own
    truncation error: measured 1.4e-10 for f (max |ref| 1.0) and 2.7e-9
    for g, at r_y = -0.021, where sigma_y bends on the scale eps = 1e-2."""
    model = make_unicycle_problem(standard_unicycle_params(substeps=substeps)).model
    x, u, (A_bar, B_bar, G_bar, C_bar, D_bar) = _pullback_points(np.random.default_rng(430 + substeps))
    ref = _jacobian_pullback(lambda p: model.f_jac(p[..., :3], p[..., 3:]), np.concatenate([x, u], axis=-1),
                             (A_bar, B_bar, G_bar))
    assert_allclose(model.f_jac_pullback(x, u, A_bar, B_bar, G_bar), ref, rtol=0, atol=1e-9)
    assert np.all(model.f_jac_pullback(x, u, A_bar, B_bar, G_bar)[:, :2] == 0.0)
    ref = _jacobian_pullback(model.g_jac, x, (C_bar, D_bar))
    assert_allclose(model.g_jac_pullback(x, C_bar, D_bar), ref, rtol=0, atol=1e-8)


def test_unicycle_jacobian_pullback_rows_evaluate_as_alone():
    """Every row of a batched pullback equals that point's one-point call
    bit for bit, sign bits included."""
    model = make_unicycle_problem(standard_unicycle_params()).model
    x, u, (A_bar, B_bar, G_bar, C_bar, D_bar) = _pullback_points(np.random.default_rng(433))
    f_batch = model.f_jac_pullback(x, u, A_bar, B_bar, G_bar)
    g_batch = model.g_jac_pullback(x, C_bar, D_bar)
    for i in range(len(x)):
        assert same_bits(f_batch[i], model.f_jac_pullback(x[i], u[i], A_bar[i], B_bar[i], G_bar[i]))
        assert same_bits(g_batch[i], model.g_jac_pullback(x[i], C_bar[i], D_bar[i]))


def test_euler_substep_jacobian_hand_derived():
    """One explicit Euler substep has Jacobian I + h * df/dx with the
    -v*sin(theta)*h entry in the first row; FD on that substep must agree."""
    x = np.array([1.0, 2.0, 0.6])
    u = np.array([1.5, 0.3])
    h = 0.075
    euler = lambda p: p + h * _unicycle_ode(p, u, np.zeros(3))
    J_fd = fd_jacobian(euler, x)
    J_hand = np.eye(3)
    J_hand[0, 2] = -u[0] * np.sin(x[2]) * h
    J_hand[1, 2] = u[0] * np.cos(x[2]) * h
    assert_allclose(J_fd, J_hand, rtol=1e-6, atol=1e-9)


# -------------------------------------------------------------- QuadraticCost

def _cost_tables(H):
    """Zero gradient and constant tables that match the Hessian table H."""
    return dict(hessians=H, gradients=np.zeros(H.shape[:2]), constants=np.zeros(H.shape[0]))


def test_quadratic_cost_rejects_indefinite_hessian():
    H = np.zeros((1, 3, 3))
    H[0] = np.diag([1.0, -0.5, 1.0])
    with pytest.raises(ModelError, match="not positive semidefinite"):
        QuadraticCost(**_cost_tables(H))


def test_quadratic_cost_checks_the_symmetric_part():
    """eigvalsh reads one triangle only: [[1, 4], [0, 1]] looks PSD there,
    but its symmetric part [[1, 2], [2, 1]] has eigenvalue -1."""
    H = np.array([[[1.0, 4.0], [0.0, 1.0]]])
    with pytest.raises(ModelError, match="not positive semidefinite"):
        QuadraticCost(**_cost_tables(H))
    # an asymmetric PSD table is stored as its symmetric part
    H = np.array([[[2.0, 1.0], [0.0, 2.0]]])
    cost = QuadraticCost(**_cost_tables(H))
    assert np.array_equal(cost.hessians, [[[2.0, 0.5], [0.5, 2.0]]])
    assert cost.value(0, np.array([1.0, -1.0])) == 1.5


@pytest.mark.parametrize("field", ["hessians", "gradients", "constants"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadratic_cost_rejects_non_finite_entries(field, bad):
    tables = _cost_tables(np.repeat(np.eye(3)[None], 2, axis=0))
    tables[field] = tables[field].copy()
    tables[field].flat[0] = bad
    with pytest.raises(ModelError, match="cost tables must be finite"):
        QuadraticCost(**tables)


@pytest.mark.parametrize("field, shape", [
    ("hessians", (2, 3, 2)),
    ("hessians", (3, 3)),
    ("gradients", (2, 2)),
    ("gradients", (3, 3)),
    ("constants", (3,)),
    ("constants", ()),
])
def test_quadratic_cost_rejects_mismatched_shapes(field, shape):
    tables = _cost_tables(np.repeat(np.eye(3)[None], 2, axis=0))
    tables[field] = np.zeros(shape)
    with pytest.raises(ModelError, match=r"are not \(S, n_z, n_z\), \(S, n_z\), \(S,\)"):
        QuadraticCost(**tables)


def test_quadratic_cost_values_batched():
    rng = np.random.default_rng(5)
    L = rng.normal(size=(3, 3))
    H = np.repeat((L @ L.T)[None], 3, axis=0)
    H[2] = 0.0
    H[2, :2, :2] = np.eye(2)
    g = rng.normal(size=(3, 3))
    g[2] = 0.0
    cost = QuadraticCost(hessians=H, gradients=g, constants=np.array([0.5, -1.0, 0.0]))
    zs = np.concatenate([rng.normal(size=(4, 2)), rng.normal(size=(4, 1))], axis=-1)
    vals = cost.value(1, zs)
    for i in range(4):
        assert_allclose(vals[i], 0.5 * zs[i] @ H[1] @ zs[i] + g[1] @ zs[i] - 1.0, rtol=1e-12)
    assert_allclose(cost.value(2, np.array([1.0, 2.0, 0.0])), 2.5, rtol=1e-12)
    # several stages at once, along the last batch axis
    stages = cost.value(slice(None), zs[:3])
    assert stages.shape == (3,)
    for k in range(3):
        assert stages[k] == cost.value(k, zs[k])


def test_problem_rejects_cost_table_off_the_horizon():
    prob = make_linear_problem([[1.0]], [[1.0]], [[0.1]], [[1.0]], [[0.1]], [[1.0]], [[1.0]],
                               [[1.0]], horizon=2)
    assert prob.cost.hessians.shape == (3, 2, 2)
    with pytest.raises(ModelError, match=r"cost tables of shape \(2, 2\) do not match"):
        replace(prob, cost=QuadraticCost(**_cost_tables(np.zeros((2, 2, 2)))))
    with pytest.raises(ModelError, match=r"cost tables of shape \(3, 3\) do not match"):
        replace(prob, cost=QuadraticCost(**_cost_tables(np.zeros((3, 3, 3)))))


# -------------------------------------------------------------- ConstraintSet

def _one_row_set(weights, u_lower=(-1.0,), u_upper=(1.0,), matrix=((1.0, 0.0),), offset=(-0.5,)):
    return ConstraintSet(
        matrix=matrix, offset=offset, weights=weights,
        u_lower=np.array(u_lower), u_upper=np.array(u_upper),
    )


def test_constraint_weights_must_be_finite_and_nonnegative():
    _one_row_set([[0.0], [1.0]])  # a zero weight is allowed: the row drops
    for bad in ([[1.0], [-1.0]], [[1.0], [np.nan]], [[np.inf], [1.0]]):
        with pytest.raises(ModelError, match="finite and nonnegative"):
            _one_row_set(bad)
    for bad in ([1.0, 1.0], [[[1.0]], [[1.0]]]):
        with pytest.raises(ModelError, match="must be 2-D"):
            _one_row_set(bad)


@pytest.mark.parametrize("tables, message", [
    (dict(matrix=[1.0, 0.0]), "matrix must be 2-D"),
    (dict(offset=[-0.5, 0.0]), "do not match the 1 rows"),
    (dict(offset=-0.5), "do not match the 1 rows"),
    (dict(weights=[[1.0, 1.0], [1.0, 1.0]]), "do not match the 1 rows"),
    (dict(matrix=[[np.nan, 0.0]]), "must be finite"),
    (dict(matrix=[[np.inf, 0.0]]), "must be finite"),
    (dict(offset=[np.inf]), "must be finite"),
])
def test_constraint_tables_are_checked(tables, message):
    with pytest.raises(ModelError, match=message):
        _one_row_set(**{"weights": [[1.0], [1.0]], **tables})


@pytest.mark.parametrize("bounds", [((np.nan,), (1.0,)), ((-1.0,), (np.nan,))])
def test_constraint_box_rejects_nan_bounds(bounds):
    with pytest.raises(ModelError, match="NaN"):
        _one_row_set([[1.0], [1.0]], *bounds)


def test_constraint_box_compares_list_bounds_entrywise(unicycle_problem):
    """List bounds are stored as float arrays before the box check, so
    [0, 5] > [1, 2] in the second entry is an empty box, not a list that
    sorts first."""
    cs = replace(unicycle_problem.constraints, u_lower=[-1.0, -2.0], u_upper=[1.0, 2.0])
    assert isinstance(cs.u_lower, np.ndarray) and isinstance(cs.u_upper, np.ndarray)
    with pytest.raises(ModelError, match="control box is empty"):
        replace(unicycle_problem.constraints, u_lower=[0.0, 5.0], u_upper=[1.0, 2.0])


@pytest.mark.parametrize("lower, upper", [
    (np.zeros(2), np.ones(3)),
    (np.zeros((1, 2)), np.ones((1, 2))),
    (np.zeros((1, 2)), np.ones(2)),
    (0.0, 1.0),
])
def test_constraint_box_bounds_must_be_one_dimensional_and_of_one_length(lower, upper):
    """The box is checked for shape before its entries are compared, so
    bounds of different lengths or of another rank raise a ModelError that
    names the box, not NumPy's broadcast error, and a 2-D box does not wait
    for ``ControlProblem`` to be caught."""
    with pytest.raises(ModelError, match=r"control box bounds must be 1-D and of one length, got shapes"):
        _one_row_set([[1.0], [1.0]], lower, upper)


def test_constraint_values_of_a_batch_equal_each_point_alone(unicycle_problem):
    cs = unicycle_problem.constraints
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.normal(size=(7, 4, 3)), rng.normal(size=(7, 4, 2))], axis=-1)
    batch = cs.values(z)
    assert batch.shape == (7, 4, 5)
    for i in range(7):
        for j in range(4):
            assert np.array_equal(batch[i, j], cs.values(z[i, j]))


def test_problem_rejects_weight_table_off_the_horizon():
    prob = make_linear_problem([[1.0]], [[1.0]], [[0.1]], [[1.0]], [[0.1]], [[1.0]], [[1.0]],
                               [[1.0]], horizon=2)
    replace(prob, constraints=_one_row_set([[1.0], [1.0], [1.0]]))
    with pytest.raises(ModelError, match="has 2 stage rows, but horizon 2 needs 3"):
        replace(prob, constraints=_one_row_set([[1.0], [1.0]]))


@pytest.mark.parametrize("columns", [1, 3])
def test_problem_rejects_constraint_matrix_off_the_model(columns):
    prob = make_linear_problem([[1.0]], [[1.0]], [[0.1]], [[1.0]], [[0.1]], [[1.0]], [[1.0]],
                               [[1.0]], horizon=2)
    with pytest.raises(ModelError, match=rf"matrix has {columns} columns, but n_x \+ n_u = 2"):
        replace(prob, constraints=_one_row_set([[1.0]] * 3, matrix=np.ones((1, columns))))


@pytest.mark.parametrize("lower, upper", [((-1.0, -1.0), (1.0, 1.0)), ((-1.0,), (1.0, 1.0)), (-1.0, 1.0)])
def test_problem_rejects_control_box_of_the_wrong_length(lower, upper):
    prob = make_linear_problem([[1.0]], [[1.0]], [[0.1]], [[1.0]], [[0.1]], [[1.0]], [[1.0]],
                               [[1.0]], horizon=2)
    # a box that is not 1-D or whose bounds differ in length fails in ConstraintSet itself
    one_length = np.ndim(lower) == 1 and np.shape(lower) == np.shape(upper)
    message = r"need shape \(1,\)" if one_length else "must be 1-D and of one length"
    with pytest.raises(ModelError, match="control box bounds " + message):
        replace(prob, constraints=_one_row_set([[1.0]] * 3, u_lower=lower, u_upper=upper))


def test_empty_constraint_set_shapes():
    cs = ConstraintSet.empty(4, 2, 3)
    assert cs.weights.shape == (4, 0)
    assert cs.values(np.zeros((5, 6))).shape == (5, 0)
    assert cs.matrix.shape == (0, 6) and cs.offset.shape == (0,)
    assert np.all(np.isinf(cs.u_lower))


# -------------------------------------------------------- make_linear_problem

def test_linear_problem_dynamics_and_jacobians():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    G = rng.normal(size=(3, 1))
    C = rng.normal(size=(2, 3))
    D = rng.normal(size=(2, 2))
    prob = make_linear_problem(A, B, G, C, D, np.eye(3), np.eye(2), np.eye(3), horizon=4)
    x, u, w, v = rng.normal(size=3), rng.normal(size=2), rng.normal(size=1), rng.normal(size=2)
    assert_allclose(prob.model.f(x, u, w), A @ x + B @ u + G @ w, rtol=1e-14)
    assert_allclose(prob.model.g(x, v), C @ x + D @ v, rtol=1e-14)
    Aj, Bj, Gj = prob.model.f_jac(x, u)
    assert_allclose(Aj, A, atol=0)
    assert_allclose(Bj, B, atol=0)
    assert_allclose(Gj, G, atol=0)


# ------------------------------------------------------------------- unicycle

def test_sigma_y_on_axis_and_symmetry():
    assert sigma_y(np.array([5.0, 0.0, 1.0]), 1e-2) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=3)
        x_flip = x * np.array([1.0, -1.0, 1.0])
        assert sigma_y(x, 1e-2) == pytest.approx(sigma_y(x_flip, 1e-2), rel=1e-15)


def test_sigma_y_small_eps_limit():
    # eps -> 0+ gives 1 + 10*|r_y|.
    assert sigma_y(np.array([0.0, 1.0, 0.0]), 1e-9) == pytest.approx(11.0, abs=1e-6)
    assert sigma_y(np.array([0.0, -1.0, 0.0]), 1e-9) == pytest.approx(11.0, abs=1e-6)


def test_sigma_y_gradient_matches_fd():
    x = np.array([0.3, -0.8, 1.1])
    grad_fd = fd_jacobian(lambda p: np.atleast_1d(sigma_y(p, 1e-2)), x)[0]
    assert_allclose(sigma_y_grad(x, 1e-2), grad_fd, rtol=1e-7, atol=1e-10)


def test_unicycle_output_jacobians_match_fd(unicycle_problem):
    m = unicycle_problem.model
    rng = np.random.default_rng(8)
    x, v0 = rng.normal(size=3), np.zeros(3)
    C, D = m.g_jac(x)
    C_fd = fd_jacobian(lambda p: m.g(p, v0), x)
    D_fd = fd_jacobian(lambda p: m.g(x, p), v0)
    assert_allclose(C, C_fd, rtol=1e-6, atol=1e-9)
    assert_allclose(D, D_fd, rtol=1e-6, atol=1e-9)


def test_unicycle_constraints_and_jacobians(unicycle_problem):
    cs = unicycle_problem.constraints
    x = np.array([0.4, -1.0, 0.2])
    u = np.array([2.5, -2.5])
    z = np.concatenate([x, u])
    h = cs.values(z)
    # stage 0: only the control box, split as (u - u_max, -u - u_max)
    assert_allclose(h[cs.weights[0] > 0], [0.5, -4.5, -4.5, 0.5], atol=1e-15)
    assert_allclose(h[cs.weights[1] > 0], [-0.4, 0.5, -4.5, -4.5, 0.5], atol=1e-15)
    # the matrix rows via FD on the stacked (x, u) argument
    J_fd = fd_jacobian(cs.values, z, 1e-6)
    assert_allclose(cs.matrix, J_fd, atol=1e-9)
    # terminal stage: only r_x
    assert_allclose(cs.values(np.concatenate([x, np.zeros(2)]))[cs.weights[-1] > 0], [-0.4], atol=0)


def test_unicycle_stage_cost(unicycle_problem):
    cost = unicycle_problem.cost
    x = np.array([1.5, -2.0, 0.7])
    u = np.array([1.0, -2.0])
    expected = 1.5 + 1e-6 * (1.0 + 4.0)
    assert_allclose(cost.value(0, np.concatenate([x, u])), expected, rtol=1e-12)
    N = unicycle_problem.model.horizon
    assert_allclose(cost.value(N, np.concatenate([x, np.zeros(2)])), 1.5, rtol=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(dt=np.nan), dict(dt=np.inf), dict(smoothing_eps=np.nan), dict(smoothing_eps=np.inf),
    dict(u_max=np.nan), dict(u_max=np.inf), dict(substeps=0), dict(substeps=-2),
])
def test_unicycle_params_reject_non_finite_and_empty_settings(kwargs):
    with pytest.raises(ModelError):
        replace(standard_unicycle_params(), **kwargs)


def test_psd_sqrt_of_a_singular_covariance_reproduces_it():
    """A PSD but singular covariance (one noise-free coordinate) has no
    Cholesky factor; the eigendecomposition's root reproduces it exactly."""
    M = np.diag([0.0, 1e-4, 4e-4])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(M)
    L = psd_sqrt(M)
    assert np.array_equal(L @ L.T, M)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_sqrt_rejects_non_finite_covariances(bad):
    """A non-finite covariance has no square root: a NaN or inf in the
    process noise covariance fails when the unicycle is built."""
    M = 0.01 * np.eye(3)
    M[0, 1] = M[1, 0] = bad
    with pytest.raises(ModelError, match="non-finite"):
        psd_sqrt(M)
    with pytest.raises(ModelError, match="non-finite"):
        make_unicycle_problem(replace(standard_unicycle_params(), process_noise_cov=M))


def test_unicycle_dynamics_jacobians_match_fd():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=4))
    m = prob.model
    x = np.array([0.5, 1.2, 2.5])
    u = np.array([1.1, 0.4])
    w = np.zeros(3)
    A, B, G = m.f_jac(x, u)
    A_fd = fd_jacobian(lambda p: m.f(p, u, w), x)
    B_fd = fd_jacobian(lambda p: m.f(x, p, w), u)
    G_fd = fd_jacobian(lambda p: m.f(x, u, p), w)
    assert_allclose(A, A_fd, atol=2e-9)
    assert_allclose(B, B_fd, atol=2e-9)
    assert_allclose(G, G_fd, atol=2e-9)
