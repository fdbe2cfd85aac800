"""Rollout, linearization, Kalman recursion, covariance propagation."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    Policy,
    SystemModel,
    kalman_recursion,
    linearize_trajectory,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    propagate_covariance,
)
from dualmpc.uncertainty import (
    NominalTrajectory,
    RolloutError,
    SingularInnovationError,
    StageLinearization,
    estimate_spread,
    kalman_adjoint,
    lyapunov,
    lyapunov_adjoint,
    spread_adjoint,
    stage_gains,
    symmetrize,
)

from conftest import random_spd, same_bits, standard_unicycle_params
from oracles import (
    chol_solve_spd,
    covariance_adjoint,
    fd_jacobian,
    joint_covariance,
    luenberger_covariance,
    open_loop_policy,
    stagewise_kalman_adjoint,
)


def scalar_lin(A=1.0, G=1.0, C=1.0, D=1.0, N=1):
    """StageLinearization for a time-invariant scalar system."""
    from dualmpc.uncertainty import StageLinearization

    one = lambda v: np.full((N, 1, 1), float(v))
    return StageLinearization(A=one(A), B=np.full((N, 1, 1), 1.0), G=one(G), C=one(C), D=one(D))


# ------------------------------------------------------------ nominal rollout

def test_rollout_straight_line(unicycle_problem):
    traj = nominal_rollout(
        make_unicycle_problem(standard_unicycle_params(horizon=2)).model,
        np.array([1.0, 1.0, np.pi]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),
    )
    assert_allclose(traj.states[:, 0], [1.0, 0.7, 0.4], atol=1e-12)
    assert_allclose(traj.states[:, 1], [1.0, 1.0, 1.0], atol=1e-12)
    assert_allclose(traj.states[:, 2], np.pi, atol=1e-12)


def test_rollout_zero_horizon(unicycle_problem):
    m = unicycle_problem.model
    traj = nominal_rollout(m, np.array([1.0, 2.0, 3.0]), np.zeros((0, 2)))
    assert traj.states.shape == (1, 3)


def test_rollout_output_is_state_at_zero_noise():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=1))
    traj = nominal_rollout(prob.model, np.zeros(3), np.array([[0.0, 1.0]]))
    assert_allclose(traj.states[1], [0.0, 0.0, 0.3], atol=1e-15)
    assert_allclose(prob.model.g(traj.states[1], np.zeros(3)), traj.states[1], atol=0)


def test_rollout_resimulation_invariant(unicycle_problem):
    m = unicycle_problem.model
    rng = np.random.default_rng(4)
    u = rng.uniform(-2, 2, size=(10, 2))
    traj = nominal_rollout(m, np.array([1.0, 1.0, np.pi]), u)
    for k in range(10):
        assert_allclose(
            traj.states[k + 1], m.f(traj.states[k], u[k], np.zeros(3)), atol=1e-12
        )


def _overflowing_model(rollout=None):
    """Scalar toy model whose state grows by 1e200 per stage, so that it
    overflows to inf on the second stage."""
    def f(x, u, w):
        with np.errstate(over="ignore"):
            return x * 1e200

    def f_jac(x, u):
        one = np.ones(x.shape + (1,))
        return 1e200 * one, 0.0 * one, 0.0 * one

    def g_jac(x):
        one = np.ones(x.shape + (1,))
        return one, 0.0 * one

    return SystemModel(
        n_x=1, n_u=1, n_w=1, n_v=1, horizon=3,
        f=f, g=lambda x, v: x, f_jac=f_jac, g_jac=g_jac, state_names=("x",), rollout=rollout,
        f_jac_pullback=lambda x, u, A_bar, B_bar, G_bar: np.zeros(x.shape[:-1] + (2,)),
        g_jac_pullback=lambda x, C_bar, D_bar: np.zeros(x.shape),
    )


def test_rollout_names_diverging_stage():
    with pytest.raises(RolloutError, match="stage 2"):
        nominal_rollout(_overflowing_model(), np.array([1.0]), np.zeros((3, 1)))


def test_model_rollout_names_diverging_stage():
    """A model's own rollout is checked like the stage loop: the first
    non-finite stage is named."""
    def rollout(x0, u):
        with np.errstate(over="ignore"):
            return x0[..., None, :] * 1e200 ** np.arange(u.shape[-2] + 1.0)[:, None]

    with pytest.raises(RolloutError, match="stage 2$"):
        nominal_rollout(_overflowing_model(rollout), np.array([1.0]), np.zeros((3, 1)))


def test_rollout_batched_matches_loop(unicycle_problem):
    """The unicycle's whole-horizon rollout gives the bits, sign bits
    included, of the stage loop over its f(., ., 0): unbatched and batched,
    with zero-speed rows, heading pi, zero states and controls of either
    sign, an unbatched x0 against batched controls, and the one-stage
    rollout of the EKF step."""
    m = unicycle_problem.model
    loop = replace(m, rollout=None)
    for shape in ((), (1,), (12,), (2, 5, 10)):
        rng = np.random.default_rng(len(shape) + sum(shape))
        x0 = rng.normal(scale=3.0, size=shape + (3,))
        u = rng.uniform(-2.0, 2.0, size=shape + (m.horizon, 2))
        x0.reshape(-1, 3)[::4, 2] = np.pi
        x0.reshape(-1, 3)[1::5] = -0.0
        x0.reshape(-1, 3)[2::5] = 0.0
        u.reshape(-1, 2)[::3, 0] = 0.0
        u.reshape(-1, 2)[1::7] = -0.0
        cases = [(x0, u), (x0, u[..., :1, :])]
        if shape:
            cases.append((x0.reshape(-1, 3)[0], u))
        for x, controls in cases:
            got, expected = nominal_rollout(m, x, controls), nominal_rollout(loop, x, controls)
            assert same_bits(got.states, expected.states) and same_bits(got.controls, expected.controls)


# -------------------------------------------------------------- linearization

def test_linear_model_linearization_is_constant():
    rng = np.random.default_rng(1)
    A = 0.5 * rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    G = rng.normal(size=(3, 2))
    C = rng.normal(size=(3, 3))
    D = rng.normal(size=(3, 1))
    prob = make_linear_problem(A, B, G, C, D, np.eye(3), np.eye(2), np.eye(3), horizon=5)
    traj = nominal_rollout(prob.model, rng.normal(size=3), rng.normal(size=(5, 2)))
    lin = linearize_trajectory(prob.model, traj)
    for k in range(5):
        assert_allclose(lin.A[k], A, atol=1e-12)
        assert_allclose(lin.B[k], B, atol=1e-12)
        assert_allclose(lin.G[k], G, atol=1e-12)
        assert_allclose(lin.C[k], C, atol=1e-12)
        assert_allclose(lin.D[k], D, atol=1e-12)


def test_unicycle_linearization_leading_order_coupling():
    # At theta=0, v=1 the r_y row couples to theta with weight ~ v*dt.
    prob = make_unicycle_problem(standard_unicycle_params(horizon=1))
    traj = nominal_rollout(prob.model, np.zeros(3), np.array([[1.0, 0.0]]))
    lin = linearize_trajectory(prob.model, traj)
    assert lin.A[0, 1, 2] == pytest.approx(0.3, rel=1e-2)


def test_unicycle_output_linearization_on_axis():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=1))
    traj = nominal_rollout(prob.model, np.array([1.0, 0.0, np.pi]), np.array([[1.0, 0.0]]))
    lin = linearize_trajectory(prob.model, traj)
    assert_allclose(lin.C[0], np.eye(3), atol=1e-12)
    assert_allclose(lin.D[0], 0.01 * np.eye(3), atol=1e-12)  # sigma_y = 1 on the axis


@pytest.mark.parametrize("kind", ["unicycle", "linear"])
def test_folded_linearization_matches_stage_by_stage_jacobians(unicycle_problem, kind):
    rng = np.random.default_rng(17)
    if kind == "unicycle":
        model = unicycle_problem.model
        x0 = np.array([1.0, 1.0, np.pi])
    else:
        model = make_linear_problem(
            0.5 * rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2)),
            rng.normal(size=(2, 3)), rng.normal(size=(2, 2)),
            np.eye(3), np.eye(2), np.eye(3), horizon=10,
        ).model
        x0 = rng.normal(size=3)
    traj = nominal_rollout(model, x0, rng.uniform(-1, 1, size=(10, model.n_u)))
    lin = linearize_trajectory(model, traj)
    for k in range(10):
        A, B, G = model.f_jac(traj.states[k], traj.controls[k])
        C, D = model.g_jac(traj.states[k + 1])
        for name, ref in zip("ABGCD", (A, B, G, C, D)):
            assert_allclose(getattr(lin, name)[k], ref, atol=0, rtol=0, err_msg=f"{name}[{k}]")


def _stencil_controls(rng, N=10, n_u=2):
    """A centre control sequence followed by its central-difference rows."""
    centre = rng.uniform(-1, 1, size=(N, n_u))
    rows = [centre]
    for k in range(N):
        for j in range(n_u):
            for sign in (1.0, -1.0):
                row = centre.copy()
                row[k, j] += sign * 1e-6
                rows.append(row)
    return np.stack(rows)


def _counting_model(model):
    """The model with f_jac recording how many points each call receives."""
    seen = []

    def f_jac(x, u):
        seen.append(int(np.prod(x.shape[:-1])))
        return model.f_jac(x, u)

    return replace(model, f_jac=f_jac), seen


def _assert_rows_match(model, traj):
    """The batched linearization equals per-row calls bit for bit."""
    lin = linearize_trajectory(model, traj)
    for i in range(traj.states.shape[0]):
        row = linearize_trajectory(model, NominalTrajectory(states=traj.states[i], controls=traj.controls[i]))
        for name in "ABGCD":
            assert_allclose(getattr(lin, name)[i], getattr(row, name), atol=0, rtol=0)


def test_linearization_of_stencil_batch_matches_rows_in_one_call(unicycle_problem):
    model, seen = _counting_model(unicycle_problem.model)
    u = _stencil_controls(np.random.default_rng(31))
    traj = nominal_rollout(model, np.array([1.0, 1.0, np.pi]), u)
    _assert_rows_match(model, traj)
    # one call with every point, shared with the centre or not, then one per row
    assert seen == [41 * 10] + [10] * 41


def test_linearization_row_matching_row_zero_only_late(unicycle_problem):
    model, seen = _counting_model(unicycle_problem.model)
    rng = np.random.default_rng(32)
    traj = nominal_rollout(model, np.array([1.0, 1.0, np.pi]), rng.uniform(-1, 1, size=(3, 10, 2)))
    states = traj.states.copy()
    controls = traj.controls.copy()
    # row 1 differs from row 0 up to stage 6 and equals it from stage 7 on
    states[1, 7:] = states[0, 7:]
    controls[1, 7:] = controls[0, 7:]
    late = NominalTrajectory(states=states, controls=controls)
    _assert_rows_match(model, late)
    assert seen == [3 * 10] + [10] * 3


def test_linearization_batch_without_shared_points_calls_model_once(unicycle_problem):
    model, seen = _counting_model(unicycle_problem.model)
    u = np.random.default_rng(33).uniform(-1, 1, size=(5, 10, 2))
    traj = nominal_rollout(model, np.array([1.0, 1.0, np.pi]), u)
    _assert_rows_match(model, traj)
    assert seen == [5 * 10] + [10] * 5


# ----------------------------------------------------------- kalman recursion

def test_kalman_scalar_oracle():
    gains, covs = kalman_recursion(scalar_lin(), np.array([[1.0]]))
    # predict: 1*1*1 + 1 = 2; S = 2 + 1 = 3; K = 2/3; update: (1 - 2/3)*2 = 2/3
    assert gains[0, 0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert covs[1, 0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_kalman_batch_matches_rows(unicycle_problem):
    model = unicycle_problem.model
    u = _stencil_controls(np.random.default_rng(34))
    traj = nominal_rollout(model, np.array([1.0, 1.0, np.pi]), u)
    lin = linearize_trajectory(model, traj)
    P0 = 0.01 * np.eye(3)
    gains, covs = kalman_recursion(lin, P0)
    for i in range(u.shape[0]):
        row = StageLinearization(*(getattr(lin, name)[i] for name in "ABGCD"))
        row_gains, row_covs = kalman_recursion(row, P0)
        assert_allclose(gains[i], row_gains, atol=0, rtol=0)
        assert_allclose(covs[i], row_covs, atol=0, rtol=0)


def test_kalman_uninformative_measurement():
    gains, covs = kalman_recursion(scalar_lin(D=1e6), np.array([[1.0]]))
    assert abs(gains[0, 0, 0]) < 1e-9
    assert covs[1, 0, 0] == pytest.approx(2.0, rel=1e-6)


def test_kalman_perfect_measurement():
    gains, covs = kalman_recursion(scalar_lin(D=0.0), np.array([[1.0]]))
    assert gains[0, 0, 0] == pytest.approx(1.0, rel=1e-6)
    assert abs(covs[1, 0, 0]) < 1e-9


def test_kalman_zero_uncertainty_degenerates_gracefully():
    gains, covs = kalman_recursion(scalar_lin(G=0.0, D=0.0), np.array([[0.0]]))
    assert_allclose(gains, 0.0, atol=1e-12)
    assert_allclose(covs, 0.0, atol=1e-15)


def test_innovation_solver_jitter_and_failure():
    # the zero matrix is solvable only with jitter
    x = chol_solve_spd(np.zeros((1, 1)), np.array([[0.0]]))
    assert np.all(np.isfinite(x))
    with pytest.raises(SingularInnovationError, match="stage"):
        chol_solve_spd(np.array([[-1.0]]), np.array([[1.0]]), context="innovation covariance at stage 3")
    # non-finite entries are named, not solved: NaN would propagate, and
    # diag(inf, 1) would come back as the finite wrong answer diag(0, 1)
    for bad in (np.nan, np.inf):
        S = np.diag([bad, 1.0])
        with pytest.raises(SingularInnovationError, match="stage 2: matrix has non-finite entries"):
            chol_solve_spd(S, np.eye(2), context="innovation covariance at stage 2")


def test_innovation_solver_jitters_each_matrix_alone():
    """A batch with one rank-1 matrix: that matrix gets its jitter, and every
    other one is solved bit for bit as it is alone, without jitter."""
    rng = np.random.default_rng(31)
    good = random_spd(rng, 3)
    v = rng.normal(size=(3, 1))
    S = np.stack([good, v @ v.T, good + np.eye(3)])
    rhs = rng.normal(size=(3, 3, 2))
    X = chol_solve_spd(S, rhs)
    for i in range(3):
        assert np.array_equal(X[i], chol_solve_spd(S[i], rhs[i]))
    L = np.linalg.cholesky(good)
    assert np.array_equal(X[0], np.linalg.solve(L.T, np.linalg.solve(L, rhs[0])))
    with pytest.raises(SingularInnovationError, match="not positive definite at jitter"):
        chol_solve_spd(np.stack([good, -np.eye(3)]), rhs[:2])


def test_innovation_solver_jitter_stops_at_1e_6_alone():
    """The largest jitter tried is 1e-6: a matrix that needs a shift of
    5e-7 is solved with it, one that needs 5e-6 is refused."""
    X = chol_solve_spd(np.diag([1.0, 1.0, -5e-7]), np.eye(3))
    assert X[2, 2] == pytest.approx(1.0 / (1e-6 - 5e-7), rel=1e-6)
    with pytest.raises(SingularInnovationError, match=r"not positive definite at jitter 1e-06$"):
        chol_solve_spd(np.diag([1.0, 1.0, -5e-6]), np.eye(3))


def test_innovation_solver_jitter_stops_at_1e_6_in_a_batch():
    """A batch whose non-PD matrix needs more than the largest jitter fails
    naming that jitter, 1e-6."""
    S = np.stack([random_spd(np.random.default_rng(32), 3), -np.eye(3)])
    with pytest.raises(SingularInnovationError, match=r"not positive definite at jitter 1e-06$"):
        chol_solve_spd(S, np.broadcast_to(np.eye(3), S.shape))


def test_kalman_matches_luenberger_at_kalman_gains():
    rng = np.random.default_rng(7)
    from dualmpc.uncertainty import StageLinearization

    N = 6
    lin = StageLinearization(
        A=rng.normal(size=(N, 3, 3)) * 0.5,
        B=rng.normal(size=(N, 3, 2)),
        G=rng.normal(size=(N, 3, 2)) * 0.3,
        C=rng.normal(size=(N, 2, 3)),
        D=rng.normal(size=(N, 2, 2)) * 0.4,
    )
    P0 = random_spd(rng, 3, 0.2)
    gains, covs = kalman_recursion(lin, P0)
    covs_l = luenberger_covariance(lin, gains, P0)
    assert_allclose(covs_l, covs, atol=1e-10)


def test_kalman_gain_minimality():
    """Perturbed observer gains never beat the filter covariance (matrix sense)."""
    rng = np.random.default_rng(21)
    from dualmpc.uncertainty import StageLinearization

    N = 5
    lin = StageLinearization(
        A=rng.normal(size=(N, 3, 3)) * 0.6,
        B=rng.normal(size=(N, 3, 1)),
        G=rng.normal(size=(N, 3, 3)) * 0.4,
        C=rng.normal(size=(N, 3, 3)),
        D=rng.normal(size=(N, 3, 3)) * 0.3,
    )
    P0 = random_spd(rng, 3, 0.5)
    gains, covs = kalman_recursion(lin, P0)
    for _ in range(20):
        perturbed = gains + rng.normal(size=gains.shape) * rng.choice([1e-3, 0.1, 1.0])
        covs_p = luenberger_covariance(lin, perturbed, P0)
        diff = covs_p[N] - covs[N]
        assert np.min(np.linalg.eigvalsh(0.5 * (diff + diff.T))) >= -1e-9


def test_monotone_information_in_measurement_noise():
    traces = []
    for D in [0.1, 0.5, 1.0, 2.0, 10.0, 1e3]:
        _, covs = kalman_recursion(scalar_lin(D=D, N=8), np.array([[1.0]]))
        traces.append(covs[-1, 0, 0])
    assert np.all(np.diff(traces) >= -1e-12)


# ------------------------------------------------------ covariance propagation

def test_propagation_zero_noise_stays_zero():
    lin = scalar_lin(G=0.0, D=1.0, N=4)
    gains, _ = kalman_recursion(lin, np.array([[0.0]]))
    pol = Policy(u_nom=np.zeros((4, 1)), feedback=np.full((3, 1, 1), 0.7))
    aug = propagate_covariance(lin, pol, gains, np.array([[0.0]]))
    assert_allclose(aug.sigma, 0.0, atol=1e-15)


def test_propagation_open_loop_block_and_khat_independence():
    rng = np.random.default_rng(2)
    lin = scalar_lin(A=0.9, G=0.5, C=1.0, D=0.7, N=6)
    P0 = np.array([[0.3]])
    gains, _ = kalman_recursion(lin, P0)
    pol = open_loop_policy(np.zeros((6, 1)), n_x=1)
    aug = propagate_covariance(lin, pol, gains, P0)
    # P block follows the open-loop recursion when K = 0
    P = P0[0, 0]
    for k in range(6):
        P = 0.9 * P * 0.9 + 0.25
        assert aug.P[k + 1, 0, 0] == pytest.approx(P, rel=1e-12)
    # and is bitwise independent of the observer gains
    aug2 = propagate_covariance(lin, pol, rng.normal(size=gains.shape), P0)
    assert np.array_equal(aug.P, aug2.P)


def test_propagation_open_loop_block_khat_independence_unicycle(unicycle_problem):
    """The Khat independence above on a 3-state unicycle linearization: with
    zero feedback, zero filter gains and the Kalman gains give the same P
    block bit for bit, while the estimation-error blocks differ."""
    model = unicycle_problem.model
    u = np.random.default_rng(4).uniform(-1.5, 1.5, size=(model.horizon, model.n_u))
    lin = linearize_trajectory(model, nominal_rollout(model, np.array([0.05, 0.8, np.pi]), u))
    P0 = 0.01 * np.eye(3)
    gains, _ = kalman_recursion(lin, P0)
    pol = open_loop_policy(u, n_x=3)
    filtered = propagate_covariance(lin, pol, gains, P0)
    free = propagate_covariance(lin, pol, np.broadcast_to(0.0, gains.shape), P0)
    assert np.array_equal(free.P, filtered.P)
    assert not np.allclose(free.P_hat[1:], filtered.P_hat[1:])


def test_estimation_block_independent_of_feedback():
    rng = np.random.default_rng(3)
    lin = scalar_lin(A=1.1, G=0.4, C=1.0, D=0.5, N=5)
    P0 = np.array([[0.2]])
    gains, _ = kalman_recursion(lin, P0)
    base = propagate_covariance(lin, open_loop_policy(np.zeros((5, 1)), 1), gains, P0)
    for _ in range(10):
        fb = rng.normal(size=(4, 1, 1))
        aug = propagate_covariance(lin, Policy(u_nom=np.zeros((5, 1)), feedback=fb), gains, P0)
        assert np.array_equal(aug.P_hat, base.P_hat)


def test_propagation_feedback_batch_matches_loop():
    rng = np.random.default_rng(12)
    lin = scalar_lin(A=0.95, G=0.3, C=1.0, D=0.4, N=4)
    P0 = np.array([[0.5]])
    gains, _ = kalman_recursion(lin, P0)
    fbs = rng.normal(size=(7, 3, 1, 1))
    batch = propagate_covariance(lin, Policy(u_nom=np.zeros((4, 1)), feedback=fbs), gains, P0)
    for i in range(7):
        single = propagate_covariance(lin, Policy(u_nom=np.zeros((4, 1)), feedback=fbs[i]), gains, P0)
        assert_allclose(batch.sigma[i], single.sigma, atol=0)


def _simulate_filtered_deviations(lin, gains, feedback, P0, n_samples, seed):
    """Independent oracle: simulate the linear deviation dynamics and the
    filter state-update equations directly, returning samples of
    (x - x_nom, xhat - x) at every stage."""
    rng = np.random.default_rng(seed)
    N = lin.A.shape[0]
    n_x = lin.A.shape[-1]
    n_u = lin.B.shape[-1]
    n_w = lin.G.shape[-1]
    n_v = lin.D.shape[-1]
    L0 = np.linalg.cholesky(P0 + 1e-15 * np.eye(n_x))
    dx = rng.normal(size=(n_samples, n_x)) @ L0.T
    dxh = np.zeros((n_samples, n_x))  # estimate deviation starts at 0
    out = [np.concatenate([dx, dxh - dx], axis=1)]
    K_all = np.concatenate([np.zeros((1, n_u, n_x)), feedback], axis=0)
    for k in range(N):
        du = dxh @ K_all[k].T
        w = rng.normal(size=(n_samples, n_w))
        dx = dx @ lin.A[k].T + du @ lin.B[k].T + w @ lin.G[k].T
        dxh_pred = dxh @ lin.A[k].T + du @ lin.B[k].T
        v = rng.normal(size=(n_samples, n_v))
        y = dx @ lin.C[k].T + v @ lin.D[k].T
        dxh = dxh_pred + (y - dxh_pred @ lin.C[k].T) @ gains[k].T
        out.append(np.concatenate([dx, dxh - dx], axis=1))
    return out


def test_propagation_matches_monte_carlo_scalar():
    """Sample covariance of simulated (deviation, estimation error) pairs
    agrees with the propagated covariance within 3 standard errors."""
    lin = scalar_lin(A=1.0, G=1.0, C=1.0, D=1.0, N=2)
    P0 = np.array([[1.0]])
    gains, _ = kalman_recursion(lin, P0)
    feedback = np.array([[[-0.5]]])
    pol = Policy(u_nom=np.zeros((2, 1)), feedback=feedback)
    aug = propagate_covariance(lin, pol, gains, P0)
    n = 10**6
    samples = _simulate_filtered_deviations(lin, gains, feedback, P0, n, seed=123)
    for k in [1, 2]:
        S = samples[k]
        emp = (S.T @ S) / n  # mean is 0 by construction
        for i in range(2):
            for j in range(2):
                se = np.sqrt((emp[i, i] * emp[j, j] + emp[i, j] ** 2) / n)
                assert abs(emp[i, j] - aug.sigma[k, i, j]) < 3 * se + 1e-12


# ------------------------------------------------------------ joint covariance

def test_joint_covariance_trivials():
    rng = np.random.default_rng(6)
    P = random_spd(rng, 2)
    sigma = np.zeros((4, 4))
    sigma[:2, :2] = P
    out = joint_covariance(sigma, np.zeros((1, 2)))
    assert_allclose(out[:2, :2], P, atol=0)
    assert_allclose(out[2:], 0.0, atol=0)
    assert_allclose(joint_covariance(np.zeros((4, 4)), rng.normal(size=(1, 2))), 0.0, atol=0)


def test_joint_covariance_stays_psd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sigma = random_spd(rng, 6)
        K = rng.normal(size=(2, 3))
        out = joint_covariance(sigma, K)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_stage_gains_pin_first_and_terminal_to_zero():
    """K_0..K_N from the free gains K_1..K_{N-1}, batched over the gains."""
    K = stage_gains(np.ones((5, 3, 2, 4)))
    assert K.shape == (5, 5, 2, 4)
    assert np.all(K[:, 0] == 0.0) and np.all(K[:, -1] == 0.0)
    assert np.all(K[:, 1:-1] == 1.0)


# ------------------------------------------------------------- adjoints

def _random_lin(rng, N=5, n_x=3, n_u=2, n_w=2, n_y=2):
    return StageLinearization(
        A=rng.normal(size=(N, n_x, n_x)) * 0.5,
        B=rng.normal(size=(N, n_x, n_u)),
        G=rng.normal(size=(N, n_x, n_w)) * 0.3,
        C=rng.normal(size=(N, n_y, n_x)),
        D=rng.normal(size=(N, n_y, n_y)) * 0.4 + np.eye(n_y),
    )


def _fd(scalar, base):
    """Central differences of a scalar function of one array, shaped like it."""
    base = np.asarray(base, dtype=float)
    return fd_jacobian(lambda v: scalar(v.reshape(base.shape)), base.ravel()).reshape(base.shape)


def _sym_weights(rng, N, n_x):
    return symmetrize(rng.normal(size=(N, n_x, n_x)))


def _adjoint_cases(unicycle_problem):
    """(linearization, P0, covs_bar, U_bar) cases: a random linear
    system with n_y = 2, then the unicycle along three random 10-stage
    control sequences (n_y = 3); the bars are symmetric."""
    rng = np.random.default_rng(61)
    cases = [(_random_lin(rng), random_spd(rng, 3, 0.2), _sym_weights(rng, 5, 3), _sym_weights(rng, 5, 3))]
    model = unicycle_problem.model
    u = np.random.default_rng(64).uniform(-1, 1, size=(3, 10, 2))
    lin = linearize_trajectory(model, nominal_rollout(model, np.array([1.0, 0.5, np.pi]), u))
    for i in range(3):
        row = StageLinearization(*(getattr(lin, name)[i] for name in "ABGCD"))
        cases.append((row, 0.01 * np.eye(3), _sym_weights(rng, 10, 3), _sym_weights(rng, 10, 3)))
    return cases


def test_kalman_adjoint_matches_central_differences(unicycle_problem):
    """kalman_adjoint pulls the derivative of a scalar that reads the filter
    covariances P_hat_1..P_hat_N and the update covariances U back onto
    A, G, C, D: on a random linear system, and on a unicycle trajectory
    whose output Jacobians (n_y = 3) depend on the state."""
    for lin, P0, covs_bar, U_bar in _adjoint_cases(unicycle_problem)[:2]:

        def scalar(l):
            _, covs, U = kalman_recursion(l, P0, factors=True)
            return float(np.sum(covs_bar * covs[1:]) + np.sum(U_bar * U))

        gains, covs = kalman_recursion(lin, P0)
        adj = kalman_adjoint(lin, gains, covs, covs_bar, U_bar)
        for name, bar in zip("AGCD", adj, strict=True):
            fd = _fd(lambda M: scalar(replace(lin, **{name: M})), getattr(lin, name))
            assert_allclose(bar, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


def test_lyapunov_kernels_are_the_plain_loops():
    """The forward kernel is, bit for bit, the loop X_{k+1} = sym(F X F' + W)
    for each row of a batch that shares X0, and the reverse kernel the loop
    Lambda_{k-1} = bar_{k-1} + F_k' Lambda_k F_k."""
    rng = np.random.default_rng(66)
    F, W = 0.6 * rng.normal(size=(4, 7, 3, 3)), rng.normal(size=(4, 7, 3, 3))
    X0, bar = random_spd(rng, 3), rng.normal(size=(4, 7, 3, 3))
    X, lam = lyapunov(F, W, X0), lyapunov_adjoint(F, bar)
    assert X.shape == (4, 8, 3, 3) and lam.shape == (4, 7, 3, 3)
    for i in range(4):
        ref = [X0]
        for k in range(7):
            ref.append(symmetrize(F[i, k] @ ref[-1] @ F[i, k].T + W[i, k]))
        assert same_bits(X[i], np.stack(ref)) and same_bits(lyapunov(F[i], W[i], X0), X[i])
        ref = [bar[i, 6]]
        for k in range(6, 0, -1):
            ref.insert(0, bar[i, k - 1] + F[i, k].T @ ref[0] @ F[i, k])
        assert same_bits(lam[i], np.stack(ref))


def test_lyapunov_adjoint_matches_central_differences(unicycle_problem):
    """Read through the reverse kernel, a filter that only predicts,
    P_{k+1} = sym(A P A' + G G'), pulls the derivative of a scalar of its
    covariances back onto A (2 Lambda_k A_k P_k) and G (2 Lambda_k G_k):
    the open_loop gradient's step.  A random linear system and a unicycle
    trajectory."""
    for lin, P0, covs_bar, _ in _adjoint_cases(unicycle_problem)[:2]:

        def scalar(l):
            return float(np.sum(covs_bar * lyapunov(l.A, l.G @ l.G.mT, P0)[1:]))

        covs = lyapunov(lin.A, lin.G @ lin.G.mT, P0)
        lam = lyapunov_adjoint(lin.A, covs_bar)
        for name, bar in (("A", 2.0 * lam @ lin.A @ covs[:-1]), ("G", 2.0 * lam @ lin.G)):
            fd = _fd(lambda M: scalar(replace(lin, **{name: M})), getattr(lin, name))
            assert_allclose(bar, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


def test_kalman_adjoint_matches_stagewise_adjoint(unicycle_problem):
    """The Lyapunov form of kalman_adjoint, which rests on the Joseph
    identity dP+ = (I - Khat C) dP- (I - Khat C)', agrees with the
    stage-by-stage pass that keeps the gain as an intermediate to 1e-13 of
    the largest entry of each Jacobian, on a random linear system (n_y = 2)
    and on three unicycle trajectories (n_y = 3)."""
    for lin, P0, covs_bar, U_bar in _adjoint_cases(unicycle_problem):
        forward = kalman_recursion(lin, P0)
        got = kalman_adjoint(lin, *forward, covs_bar, U_bar)
        ref = stagewise_kalman_adjoint(lin, *forward, covs_bar=covs_bar, U_bar=U_bar)
        for bar, expected in zip(got, ref, strict=True):
            assert_allclose(bar, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


def test_kalman_factors_are_the_stages_the_adjoint_reads(unicycle_problem):
    """The update covariances U = Khat S Khat' that kalman_recursion keeps
    for the spread are symmetric, and each update is, bit for bit,
    P_hat = sym(P- - U) with P- = sym(A P A' + G G') re-derived from the
    filter covariances over all stages at once, for each row of a batch
    and for the row alone; the gains and covariances are those of the
    plain call.  U is Khat S Khat' at the filter's own gains to 1e-14 of
    its largest entry (measured: at most 4.7e-16)."""
    m = unicycle_problem.model
    rng = np.random.default_rng(63)
    traj = nominal_rollout(m, np.array([1.0, 0.5, np.pi]), rng.uniform(-1, 1, size=(4, 10, 2)))
    lin = linearize_trajectory(m, traj)
    gains, covs, U = kalman_recursion(lin, 0.01 * np.eye(3), factors=True)
    plain = kalman_recursion(lin, 0.01 * np.eye(3))
    assert np.array_equal(gains, plain[0]) and np.array_equal(covs, plain[1])
    assert np.array_equal(U, np.swapaxes(U, -1, -2))
    swap = lambda M: np.swapaxes(M, -1, -2)
    for i in range(4):
        row = StageLinearization(*(getattr(lin, name)[i] for name in "ABGCD"))
        assert all(np.array_equal(a, b) for a, b in zip(kalman_recursion(row, 0.01 * np.eye(3), factors=True),
                                                       (gains[i], covs[i], U[i]), strict=True))
        A, G, C, D = row.A, row.G, row.C, row.D
        P_minus = symmetrize(A @ covs[i, :-1] @ swap(A) + G @ swap(G))
        assert np.array_equal(covs[i, 1:], symmetrize(P_minus - U[i]))
        S = C @ P_minus @ swap(C) + D @ swap(D)
        assert_allclose(U[i], gains[i] @ S @ swap(gains[i]), rtol=0, atol=1e-14 * np.max(np.abs(U[i])))


def test_spread_adjoint_matches_central_differences():
    """spread_adjoint gives the derivatives of a scalar that reads every
    stage's spread Q_k and the stage gains with respect to the free gains,
    A and B, and with respect to the update covariances U through Lambda,
    with U held for the first three (random linear system, n_y = 2)."""
    rng = np.random.default_rng(65)
    lin = _random_lin(rng)
    N, n_x, n_u = 5, 3, 2
    U = kalman_recursion(lin, random_spd(rng, n_x, 0.2), factors=True)[2]
    fb = 0.3 * rng.normal(size=(N - 1, n_u, n_x))
    weights = _sym_weights(rng, N + 1, n_x)
    K_weights = rng.normal(size=(N, n_u, n_x))

    def scalar(l=lin, feedback=fb, updates=U):
        K = stage_gains(feedback)[:-1]
        return float(np.sum(weights * estimate_spread(l, K, updates)) + np.sum(K_weights * K))

    K = stage_gains(fb)[:-1]
    spread = estimate_spread(lin, K, U)
    K_bar, A_bar, B_bar, lam = spread_adjoint(lin, K, spread, weights, K_weights)
    cases = [(A_bar, lambda M: scalar(l=replace(lin, A=M)), lin.A), (B_bar, lambda M: scalar(l=replace(lin, B=M)), lin.B),
             (K_bar, lambda M: scalar(feedback=M), fb), (lam, lambda M: scalar(updates=M), U)]
    for bar, fn, base in cases:
        fd = _fd(fn, base)
        assert_allclose(bar, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))


def test_covariance_adjoint_matches_central_differences():
    """covariance_adjoint gives the derivatives of a scalar that reads every
    stage covariance and the gains with respect to the gains, the
    linearization and the filter gains."""
    rng = np.random.default_rng(62)
    lin = _random_lin(rng)
    N, n_x, n_u = 5, 3, 2
    P0 = random_spd(rng, n_x, 0.2)
    filter_gains = 0.3 * rng.normal(size=(N, n_x, 2))
    fb = 0.3 * rng.normal(size=(N - 1, n_u, n_x))
    weights = np.array([random_spd(rng, 2 * n_x) for _ in range(N + 1)])
    K_weights = rng.normal(size=(N, n_u, n_x))

    def scalar(l, gains=filter_gains, feedback=fb):
        policy = Policy(u_nom=np.zeros((N, n_u)), feedback=feedback)
        sigma = propagate_covariance(l, policy, gains, P0).sigma
        return float(np.sum(weights * sigma) + np.sum(K_weights * stage_gains(feedback)[:-1]))

    policy = Policy(u_nom=np.zeros((N, n_u)), feedback=fb)
    sigma = propagate_covariance(lin, policy, filter_gains, P0).sigma
    K_bar, lin_bar, gains_bar = covariance_adjoint(lin, policy, filter_gains, sigma, weights, K_weights)
    cases = [(getattr(lin_bar, name), lambda M, name=name: scalar(replace(lin, **{name: M})), getattr(lin, name))
             for name in "ABGCD"]
    cases += [(gains_bar, lambda M: scalar(lin, gains=M), filter_gains),
              (K_bar, lambda M: scalar(lin, feedback=M), fb)]
    for bar, fn, base in cases:
        fd = _fd(fn, base)
        assert_allclose(bar, fd, rtol=0, atol=1e-7 * np.max(np.abs(fd)))
