"""Rollout, linearization, Kalman recursion, covariance propagation."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    Policy,
    SystemModel,
    joint_covariance,
    kalman_recursion,
    linearize_trajectory,
    luenberger_covariance,
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
    chol_solve_spd,
)

from conftest import standard_unicycle_params, random_spd


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
    assert_allclose(prob.model.g(1, traj.states[1], np.zeros(3)), traj.states[1], atol=0)


def test_rollout_resimulation_invariant(unicycle_problem):
    m = unicycle_problem.model
    rng = np.random.default_rng(4)
    u = rng.uniform(-2, 2, size=(10, 2))
    traj = nominal_rollout(m, np.array([1.0, 1.0, np.pi]), u)
    for k in range(10):
        assert_allclose(
            traj.states[k + 1], m.f(k, traj.states[k], u[k], np.zeros(3)), atol=1e-12
        )


def test_rollout_names_diverging_stage():
    def f(k, x, u, w):
        with np.errstate(over="ignore"):
            return x * 1e200  # overflows to inf on the second step

    model = SystemModel(
        n_x=1, n_u=1, n_w=1, n_v=1, n_y=1, horizon=3,
        f=f, g=lambda k, x, v: x,
    )
    with pytest.raises(RolloutError, match="stage 2"):
        nominal_rollout(model, np.array([1.0]), np.zeros((3, 1)))


def test_rollout_batched_matches_loop(unicycle_problem):
    m = unicycle_problem.model
    rng = np.random.default_rng(9)
    u_batch = rng.uniform(-1, 1, size=(6, 10, 2))
    x0 = np.array([1.0, 0.5, 2.0])
    batch = nominal_rollout(m, x0, u_batch)
    for i in range(6):
        single = nominal_rollout(m, x0, u_batch[i])
        assert_allclose(batch.states[i], single.states, atol=0)


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

    def f_jac(k, x, u, w):
        seen.append(int(np.prod(x.shape[:-1])))
        return model.f_jac(k, x, u, w)

    return replace(model, f_jac=f_jac), seen


def _assert_rows_match(model, traj):
    """The batched linearization equals per-row calls bit for bit."""
    lin = linearize_trajectory(model, traj)
    for i in range(traj.states.shape[0]):
        row = linearize_trajectory(model, NominalTrajectory(states=traj.states[i], controls=traj.controls[i]))
        for name in "ABGCD":
            assert_allclose(getattr(lin, name)[i], getattr(row, name), atol=0, rtol=0)


def test_linearization_of_stencil_batch_matches_rows_and_skips_shared_prefix(unicycle_problem):
    model, seen = _counting_model(unicycle_problem.model)
    u = _stencil_controls(np.random.default_rng(31))
    traj = nominal_rollout(model, np.array([1.0, 1.0, np.pi]), u)
    _assert_rows_match(model, traj)
    # the rows perturbing u_k share stages 0..k-1 with the centre
    assert seen[0] == 41 * 10 - 4 * sum(range(10))


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
    assert seen[0] == 3 * 10 - 3


def test_linearization_batch_without_shared_points_calls_model_once(unicycle_problem):
    model, seen = _counting_model(unicycle_problem.model)
    u = np.random.default_rng(33).uniform(-1, 1, size=(5, 10, 2))
    traj = nominal_rollout(model, np.array([1.0, 1.0, np.pi]), u)
    _assert_rows_match(model, traj)
    assert seen[0] == 5 * 10


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
    x, jitter = chol_solve_spd(np.zeros((1, 1)), np.array([[0.0]]))
    assert jitter > 0
    with pytest.raises(SingularInnovationError, match="stage"):
        chol_solve_spd(np.array([[-1.0]]), np.array([[1.0]]), context="innovation covariance at stage 3")


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
    pol = Policy.open_loop(np.zeros((6, 1)), n_x=1)
    aug = propagate_covariance(lin, pol, gains, P0)
    # P block follows the open-loop recursion when K = 0
    P = P0[0, 0]
    for k in range(6):
        P = 0.9 * P * 0.9 + 0.25
        assert aug.P[k + 1, 0, 0] == pytest.approx(P, rel=1e-12)
    # and is bitwise independent of the observer gains
    aug2 = propagate_covariance(lin, pol, rng.normal(size=gains.shape), P0)
    assert np.array_equal(aug.P, aug2.P)


def test_estimation_block_independent_of_feedback():
    rng = np.random.default_rng(3)
    lin = scalar_lin(A=1.1, G=0.4, C=1.0, D=0.5, N=5)
    P0 = np.array([[0.2]])
    gains, _ = kalman_recursion(lin, P0)
    base = propagate_covariance(lin, Policy.open_loop(np.zeros((5, 1)), 1), gains, P0)
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


def test_policy_stage_gains_pins_first_to_zero():
    fb = np.ones((3, 2, 4))
    pol = Policy(u_nom=np.zeros((4, 2)), feedback=fb)
    K = pol.stage_gains()
    assert K.shape == (4, 2, 4)
    assert np.all(K[0] == 0.0)
    assert np.all(K[1:] == 1.0)
