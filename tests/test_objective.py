"""Expected costs and penalties: closed forms against Monte-Carlo oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    ObjectiveEvaluator,
    Policy,
    constraint_direction_variance,
    expected_quadratic,
    expected_relu,
    feedback_regularization,
    kalman_recursion,
    linearize_trajectory,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    penalty_total,
    total_objective,
)

from conftest import standard_unicycle_params, random_spd


# ---------------------------------------------------------------- expected_relu

def test_expected_relu_spot_values():
    assert expected_relu(0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-15)
    # pdf(1) - cdf(-1) evaluated to full precision
    assert expected_relu(-1.0, 1.0) == pytest.approx(0.08331547058768629, abs=1e-15)
    assert expected_relu(2.0, 0.0) == 2.0
    assert expected_relu(-2.0, 0.0) == 0.0


def test_expected_relu_rejects_negative_sigma():
    with pytest.raises(ValueError):
        expected_relu(0.0, -1e-12)


def test_expected_relu_dominates_relu_and_is_monotone():
    mus = np.linspace(-15, 15, 301)
    sigmas = np.array([1e-8, 1e-3, 0.1, 1.0, 3.0, 50.0])
    vals = expected_relu(mus[:, None], sigmas[None, :])
    assert np.all(vals >= np.maximum(mus, 0.0)[:, None])
    assert np.all(np.diff(vals, axis=0) >= 0)  # nondecreasing in mu
    assert np.all(np.diff(vals, axis=1) >= 0)  # nondecreasing in sigma


def test_expected_relu_sigma_to_zero_limit():
    for mu in [-2.0, -0.1, 0.0, 0.1, 2.0]:
        assert expected_relu(mu, 1e-14) == pytest.approx(max(mu, 0.0), abs=1e-14)


def test_expected_relu_tail_branch_is_continuous_and_positive():
    from scipy.special import ndtr

    from dualmpc.objective import _relu_tail

    # the two branch formulas agree at the seam to near machine precision
    direct = np.exp(-32.0) / np.sqrt(2 * np.pi) - 8.0 * ndtr(-8.0)
    assert _relu_tail(np.array([-8.0]))[0] == pytest.approx(direct, rel=1e-11)
    # straddling the switch changes the value only by ~slope * width
    lo = expected_relu(-8.0 + 1e-9, 1.0)
    hi = expected_relu(-8.0 - 1e-9, 1.0)
    assert abs(lo - hi) < 1e-20  # slope there is cdf(-8) ~ 6e-16
    lo = expected_relu(8.0 - 1e-9, 1.0)
    hi = expected_relu(8.0 + 1e-9, 1.0)
    assert abs(lo - hi) < 5e-9  # slope there is cdf(8) ~ 1
    deep = expected_relu(np.array([-30.0, -20.0, -10.0]), 1.0)
    assert np.all(deep > 0) and np.all(np.diff(deep) > 0)


def test_expected_relu_deep_tail_against_quadrature():
    """Integrate max(0, x) * pdf against high-resolution quadrature."""
    from scipy.integrate import quad

    for mu, sigma in [(-9.5, 1.0), (-2.0, 0.2), (12.0, 1.3), (0.3, 2.0)]:
        val, err = quad(
            lambda x: x * np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi)),
            max(0.0, mu - 12 * sigma),
            mu + 14 * sigma,
        )
        assert expected_relu(mu, sigma) == pytest.approx(val, rel=1e-9, abs=1e-300)


def test_expected_relu_monte_carlo():
    rng = np.random.default_rng(42)
    n = 10**6
    z = rng.standard_normal(n)
    for mu, sigma in [(0.5, 1.0), (-1.0, 2.0), (0.0, 0.3)]:
        samples = np.maximum(mu + sigma * z, 0.0)
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(expected_relu(mu, sigma) - samples.mean()) < 3 * se


# ----------------------------------------------------------- expected_quadratic

def test_expected_quadratic_trivials():
    H = np.eye(2)
    assert expected_quadratic(H, np.zeros(2), 0.0, np.zeros(2), np.eye(2)) == pytest.approx(1.0)
    z = np.array([1.0, 0.0])
    assert expected_quadratic(H, np.zeros(2), 0.0, z, np.zeros((2, 2))) == pytest.approx(0.5)
    val = expected_quadratic(H, np.zeros(2), 0.0, z, np.diag([0.25, 1.0]))
    assert val == pytest.approx(1.125)


def test_expected_quadratic_monte_carlo():
    rng = np.random.default_rng(7)
    n = 10**6
    H = random_spd(rng, 3)
    g = rng.normal(size=3)
    c = rng.normal()
    mean = rng.normal(size=3)
    cov = random_spd(rng, 3, 0.5)
    L = np.linalg.cholesky(cov)
    z = mean + rng.standard_normal((n, 3)) @ L.T
    samples = 0.5 * np.einsum("ni,ij,nj->n", z, H, z) + z @ g + c
    se = samples.std(ddof=1) / np.sqrt(n)
    assert abs(expected_quadratic(H, g, c, mean, cov) - samples.mean()) < 3 * se


# ------------------------------------------------- direction variance, penalty

def test_constraint_direction_variance():
    assert constraint_direction_variance(np.array([1.0, 0.0]), np.diag([4.0, 1.0])) == pytest.approx(4.0)
    assert constraint_direction_variance(np.array([1.0, 2.0]), np.zeros((2, 2))) == 0.0
    rng = np.random.default_rng(10)
    L = rng.normal(size=(4, 4))
    a = rng.normal(size=4)
    assert constraint_direction_variance(a, L @ L.T) == pytest.approx(np.sum((L.T @ a) ** 2), rel=1e-12)


def test_penalty_total_values():
    # deep feasible: each term underflows to zero
    val = penalty_total(np.full(3, -1e6), np.full(3, 1e-6), np.full(3, 1e3), 1e-3)
    assert val == 0.0
    val = penalty_total(np.array([0.0]), np.array([1.0]), np.array([1e3]), 1e-3)
    assert val == pytest.approx(1e3 / np.sqrt(2 * np.pi), rel=1e-12)
    # additivity
    h = np.array([0.2, -0.3])
    beta = np.array([0.5, 2.0])
    w = np.array([10.0, 20.0])
    total = penalty_total(h, beta, w, 1e-3)
    parts = sum(penalty_total(h[i : i + 1], beta[i : i + 1], w[i : i + 1], 1e-3) for i in range(2))
    assert total == pytest.approx(parts, rel=1e-14)


def test_penalty_total_applies_variance_floor():
    # beta below the floor behaves exactly like beta at the floor
    lo = penalty_total(np.array([0.01]), np.array([0.0]), np.array([1.0]), 1e-2)
    at = penalty_total(np.array([0.01]), np.array([1e-4]), np.array([1.0]), 1e-2)
    assert lo == at
    assert lo > 0.01  # smoothing adds mass above the plain hinge
    above = penalty_total(np.array([0.01]), np.array([4e-4]), np.array([1.0]), 1e-2)
    assert above > at  # beta above the floor is used as given


def test_feedback_regularization():
    assert feedback_regularization(np.zeros((3, 2, 4)), 0.5) == 0.0
    K = np.zeros((1, 2, 3))
    K[0, 0, 0] = 1.0
    K[0, 1, 1] = 1.0
    assert feedback_regularization(K, 0.5) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    K = rng.normal(size=(4, 2, 3))
    r1 = feedback_regularization(K, 1e-4)
    assert feedback_regularization(3.0 * K, 1e-4) == pytest.approx(9.0 * r1, rel=1e-12)


# ------------------------------------------------------------- total objective

def test_zero_uncertainty_collapses_to_deterministic_objective():
    params = standard_unicycle_params(horizon=5, process_std=0.0, measurement_std=0.0)
    prob = make_unicycle_problem(params)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, size=(5, 2))
    pol = Policy.open_loop(u, n_x=3)
    x0 = np.array([1.0, 0.5, np.pi])
    full = total_objective(prob, x0, np.zeros((3, 3)), pol, eps_K=0.0)
    nominal_only = total_objective(
        prob, x0, np.zeros((3, 3)), pol, eps_K=0.0, include_uncertainty=False
    )
    assert full.variance_cost == pytest.approx(0.0, abs=1e-15)
    assert full.total == pytest.approx(nominal_only.total, rel=1e-12)


def test_doubling_violation_weight_doubles_only_penalty():
    base = standard_unicycle_params(horizon=6)
    doubled = standard_unicycle_params(horizon=6, violation_weight=2e3)
    rng = np.random.default_rng(8)
    u = rng.uniform(-1.5, 1.5, size=(6, 2))
    fb = rng.normal(0, 0.2, size=(5, 2, 3))
    pol = Policy(u_nom=u, feedback=fb)
    x0 = np.array([0.05, 0.8, np.pi])  # close to the r_x wall so the penalty is live
    P0 = 0.01 * np.eye(3)
    b1 = total_objective(make_unicycle_problem(base), x0, P0, pol)
    b2 = total_objective(make_unicycle_problem(doubled), x0, P0, pol)
    assert b2.penalty == pytest.approx(2.0 * b1.penalty, rel=1e-12)
    assert b2.nominal_cost == pytest.approx(b1.nominal_cost, rel=1e-12)
    assert b2.variance_cost == pytest.approx(b1.variance_cost, rel=1e-12)
    assert b1.penalty > 1e-6


def test_total_invariant_under_resymmetrized_covariance_input():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=4))
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, size=(4, 2))
    fb = rng.normal(0, 0.1, size=(3, 2, 3))
    pol = Policy(u_nom=u, feedback=fb)
    x0 = np.array([1.0, 1.0, np.pi])
    P0 = random_spd(rng, 3, 0.01)
    skew = P0 + np.triu(1e-12 * np.ones((3, 3)), 1)  # slightly asymmetric input
    t1 = total_objective(prob, x0, P0, pol).total
    t2 = total_objective(prob, x0, skew, pol).total
    assert t1 == pytest.approx(t2, rel=1e-9)


def test_breakdown_parts_sum_to_total():
    prob = make_unicycle_problem(standard_unicycle_params())
    rng = np.random.default_rng(1)
    pol = Policy(
        u_nom=rng.uniform(-2, 2, size=(10, 2)), feedback=rng.normal(0, 0.1, size=(9, 2, 3))
    )
    bd = total_objective(prob, np.array([1.0, 1.0, np.pi]), 0.01 * np.eye(3), pol)
    assert bd.total == pytest.approx(
        bd.nominal_cost + bd.variance_cost + bd.penalty + bd.regularization, rel=1e-12
    )
    assert bd.variance_cost >= 0.0


def test_linear_quadratic_objective_matches_closed_loop_monte_carlo():
    """Full-pipeline oracle: for a linear system the predicted expected cost
    must equal the Monte-Carlo mean cost of actually running the
    estimate-feedback policy with the time-varying Kalman filter."""
    rng = np.random.default_rng(17)
    n_x, n_u, N = 2, 1, 4
    A = np.array([[0.9, 0.3], [0.0, 1.1]])
    B = np.array([[0.0], [0.5]])
    G = 0.3 * np.eye(2)
    C = np.array([[1.0, 0.0]])
    D = np.array([[0.5]])
    Q = np.diag([1.0, 0.5])
    R = np.array([[0.2]])
    Qf = np.eye(2)
    prob = make_linear_problem(A, B, G, C, D, Q, R, Qf, horizon=N)
    x0 = np.array([1.0, -0.5])
    P0 = 0.2 * np.eye(2)
    u_nom = rng.normal(0, 0.5, size=(N, n_u))
    fb = rng.normal(0, 0.3, size=(N - 1, n_u, n_x))
    pol = Policy(u_nom=u_nom, feedback=fb)
    predicted = total_objective(prob, x0, P0, pol, eps_K=0.0).total

    # closed-loop simulation of the true linear system + Kalman estimator
    traj = nominal_rollout(prob.model, x0, u_nom)
    lin = linearize_trajectory(prob.model, traj)
    gains, _ = kalman_recursion(lin, P0)
    n = 200_000
    x = x0 + rng.standard_normal((n, n_x)) @ np.linalg.cholesky(P0).T
    xh = np.tile(x0, (n, 1))
    K_all = np.concatenate([np.zeros((1, n_u, n_x)), fb], axis=0)
    cost = np.zeros(n)
    for k in range(N):
        u = u_nom[k] + (xh - traj.states[k]) @ K_all[k].T
        cost += 0.5 * np.einsum("ni,ij,nj->n", x, Q, x) + 0.5 * np.einsum("ni,ij,nj->n", u, R, u)
        w = rng.standard_normal((n, 2))
        x = x @ A.T + u @ B.T + w @ G.T
        xh_pred = xh @ A.T + u @ B.T
        y = x @ C.T + rng.standard_normal((n, 1)) @ D.T
        xh = xh_pred + (y - xh_pred @ C.T) @ gains[k].T
    cost += 0.5 * np.einsum("ni,ij,nj->n", x, Qf, x)
    se = cost.std(ddof=1) / np.sqrt(n)
    assert abs(predicted - cost.mean()) < 3 * se


def test_evaluator_batches_agree_with_scalar_calls():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=6))
    rng = np.random.default_rng(23)
    x0 = np.array([0.8, 0.9, 3.0])
    P0 = 0.005 * np.eye(3)
    ev = ObjectiveEvaluator(prob, x0, P0)
    u_batch = rng.uniform(-1, 1, size=(5, 6, 2))
    fb = rng.normal(0, 0.1, size=(5, 2, 3))
    totals = ev.totals(u_batch, fb)[0]
    for i in range(5):
        assert totals[i] == pytest.approx(ev.totals(u_batch[i], fb)[0], rel=1e-12)
    # feedback batch over a fixed prediction equals fresh evaluations
    pred = ev.prediction(u_batch[0])
    fb_batch = rng.normal(0, 0.1, size=(4, 5, 2, 3))
    parts = ev.parts_from_prediction(pred, fb_batch)
    tot = sum(parts)
    for i in range(4):
        assert tot[i] == pytest.approx(ev.totals(u_batch[0], fb_batch[i])[0], rel=1e-12)


def test_totals_of_line_search_batch_match_rows_bitwise():
    """12 line-search trials plus the 40 control rows of the stencil around
    the first one, as the solver batches them, against per-row calls."""
    prob = make_unicycle_problem(standard_unicycle_params())
    rng = np.random.default_rng(24)
    ev = ObjectiveEvaluator(prob, np.array([1.0, 1.0, np.pi]), 0.01 * np.eye(3))
    u0 = rng.uniform(-1, 1, size=(10, 2))
    step = rng.normal(size=(10, 2))
    trials = np.clip(u0 + 0.5 ** np.arange(12)[:, None, None] * step, -2.0, 2.0)
    stencil = np.repeat(trials[:1], 40, axis=0).reshape(40, 20)
    stencil[2 * np.arange(20), np.arange(20)] += 1e-6
    stencil[2 * np.arange(20) + 1, np.arange(20)] -= 1e-6
    u = np.concatenate([trials, stencil.reshape(40, 10, 2)])
    fb = rng.normal(0, 0.1, size=(52, 9, 2, 3))
    totals = ev.totals(u, fb)[0]
    rows = np.array([ev.totals(u[i], fb[i])[0] for i in range(52)])
    assert_allclose(totals, rows, atol=0, rtol=0)
