"""Expected costs and penalties: closed forms against Monte-Carlo oracles."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    ConstraintSet,
    ModelError,
    ObjectiveEvaluator,
    Policy,
    QuadraticCost,
    SolveOptions,
    constraint_direction_variance,
    expected_relu,
    feedback_regularization,
    kalman_recursion,
    linearize_trajectory,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    propagate_covariance,
    solve,
    total_objective,
)
from dualmpc import load_config, objective
from dualmpc.objective import _trace_sum
from dualmpc.ocp_solver import _gradient, _Variables
from dualmpc.uncertainty import stage_gains

from conftest import one_stage_terminal_problem, record_fields, standard_unicycle_params, random_spd
from oracles import (
    augmented_evaluation,
    augmented_gradient,
    expected_quadratic,
    fd_gradient,
    fd_pullbacks,
    joint_covariance,
    luenberger_covariance,
    open_loop_policy,
    passive_problem,
    penalty_total,
    replay_policy,
)


# ---------------------------------------------------------------- expected_relu

def test_expected_relu_spot_values():
    assert expected_relu(0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-15)
    # pdf(1) - cdf(-1) evaluated to full precision
    assert expected_relu(-1.0, 1.0) == pytest.approx(0.08331547058768629, abs=1e-15)
    assert expected_relu(2.0, 0.0) == 2.0
    assert expected_relu(-2.0, 0.0) == 0.0
    # NaN in gives NaN out, in every branch
    assert np.isnan(expected_relu(np.nan, 1.0))
    assert np.isnan(expected_relu(np.nan, 0.0))
    assert np.isnan(expected_relu(0.1, np.nan))
    out = expected_relu(np.array([0.1, np.nan, 0.1, -9.0, 9.0]), np.array([np.nan, 1.0, 1.0, 1.0, 1.0]))
    assert np.isnan(out[:2]).all() and np.isfinite(out[2:]).all()


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
    assert _relu_tail(np.array([8.0]))[1][0] == pytest.approx(direct, rel=1e-11)
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


def test_expected_relu_and_cdf_match_mpmath():
    """The hinge expectation pdf(z) + z cdf(z) and the cdf the forward
    record carries, at 3001 points z in [-30, 30] (sigma = 1), against
    40-digit mpmath.  Measured worst relative errors: hinge 6.6e-13 at
    z = -7.82, where pdf - t Q cancels in the middle branch; cdf 2.8e-14.
    The bounds are 10x those."""
    import mpmath

    from dualmpc.objective import _hinge

    z = np.linspace(-30.0, 30.0, 3001)
    with mpmath.workdps(40):
        ref = [(mpmath.ncdf(x), mpmath.npdf(x) + x * mpmath.ncdf(x)) for x in map(mpmath.mpf, z.tolist())]
    cdf_ref = np.array([float(c) for c, _ in ref])
    hinge_ref = np.array([float(h) for _, h in ref])
    hinge, cdf = _hinge(z, np.ones_like(z))
    assert np.array_equal(hinge, expected_relu(z, 1.0))
    assert np.max(np.abs(hinge - hinge_ref) / hinge_ref) <= 6.6e-12
    assert np.max(np.abs(cdf - cdf_ref) / cdf_ref) <= 2.8e-13


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
    # at h = 0 the expected hinge is sigma / sqrt(2 pi), sigma^2 = beta + eps^2
    val = penalty_total(np.array([0.0]), np.array([1.0]), np.array([1e3]), 1e-3)
    assert val == pytest.approx(1e3 * np.sqrt(1.0 + 1e-6) / np.sqrt(2 * np.pi), rel=1e-12)
    # additivity
    h = np.array([0.2, -0.3])
    beta = np.array([0.5, 2.0])
    w = np.array([10.0, 20.0])
    total = penalty_total(h, beta, w, 1e-3)
    parts = sum(penalty_total(h[i : i + 1], beta[i : i + 1], w[i : i + 1], 1e-3) for i in range(2))
    assert total == pytest.approx(parts, rel=1e-14)


def test_penalty_total_applies_variance_floor():
    # beta below zero (rounding on a PSD form) behaves exactly like beta = 0
    neg = penalty_total(np.array([0.01]), np.array([-1e-12]), np.array([1.0]), 1e-2)
    lo = penalty_total(np.array([0.01]), np.array([0.0]), np.array([1.0]), 1e-2)
    assert neg == lo == expected_relu(0.01, 1e-2)
    assert lo > 0.01  # smoothing adds mass above the plain hinge
    # every beta gains eps_sigma^2, also at and above the old floor eps_sigma^2
    at = penalty_total(np.array([0.01]), np.array([1e-4]), np.array([1.0]), 1e-2)
    assert at == expected_relu(0.01, np.sqrt(1e-4 + 1e-4))
    above = penalty_total(np.array([0.01]), np.array([4e-4]), np.array([1.0]), 1e-2)
    assert above > at > lo


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
    pol = open_loop_policy(u, n_x=3)
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


@pytest.mark.parametrize("uncertainty", [True, False], ids=["uncertainty", "nominal"])
@pytest.mark.parametrize("case", ["linear", "unicycle"])
def test_batch_rows_evaluate_as_alone(case, uncertainty):
    """Every row of a 12-row ``totals`` batch, its total and every field of
    its forward record (prediction, covariances, direction variances and parts),
    equals that row evaluated alone, as a one-row batch and unbatched, bit
    for bit, and so does the gradient read from it.  The line search relies
    on this: its chunking cannot change which trial passes, nor the record
    and gradient it continues from."""
    prob, x0, P0, _ = _assembly_cases()[0 if case == "linear" else 1]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    rng = np.random.default_rng(45)
    u = rng.uniform(-1.5, 1.5, size=(12, N, n_u))
    fb = rng.normal(0.0, 0.2, size=(12, N - 1, n_u, n_x))
    ev = ObjectiveEvaluator(prob, x0, P0, mode="output_feedback" if uncertainty else "nominal")
    totals, batch = ev.totals(u, fb)
    for i in range(12):
        one_total, one_row = ev.totals(u[i : i + 1], fb[i : i + 1])
        alone_total, alone = ev.totals(u[i], fb[i])
        assert totals[i] == one_total[0] == alone_total
        row = batch.take(i)
        for got, one, expected in zip(record_fields(row), record_fields(one_row.take(0)), record_fields(alone),
                                      strict=True):
            assert np.array_equal(got, expected) and np.array_equal(one, expected)
        for got, expected in zip(ev.gradient(row), ev.gradient(alone)):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("mode", ["nominal", "open_loop", "output_feedback"])
@pytest.mark.parametrize("case", [0, 1])
def test_stacked_beliefs_evaluate_as_alone(case, mode):
    """An evaluator over 4 stacked beliefs (x0, P_hat_0), each P_hat_0
    slightly asymmetric, scores row i as the evaluator of belief i alone
    does, bit for bit: its total, its forward record and the gradient read
    from that record."""
    prob, x0, P0, u0 = _assembly_cases()[case]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    rng = np.random.default_rng(57)
    x0s = x0 + 0.05 * rng.normal(size=(4, n_x))
    P0s = np.array([P0 + random_spd(rng, n_x, 1e-3) + 1e-4 * rng.normal(size=(n_x, n_x)) for _ in range(4)])
    u = u0 + 0.1 * rng.normal(size=(4,) + u0.shape)
    scale = 0.2 if mode == "output_feedback" else 0.0
    fb = scale * rng.normal(size=(4, N - 1, n_u, n_x))
    totals, record = ObjectiveEvaluator(prob, x0s, P0s, mode=mode).totals(u, fb)
    for i in range(4):
        ev = ObjectiveEvaluator(prob, x0s[i], P0s[i], mode=mode)
        alone_total, alone = ev.totals(u[i], fb[i])
        row = record.take(i)
        assert totals[i] == alone_total
        for got, expected in zip(record_fields(row), record_fields(alone), strict=True):
            assert np.array_equal(got, expected)
        for got, expected in zip(ev.gradient(row), ev.gradient(alone)):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("case", ["linear", "unicycle"])
def test_filter_free_evaluation_matches_filtered(case, monkeypatch):
    """With zero feedback gains the objective cannot read the filter: on a
    12-row batch with shared zero gains, the open_loop evaluator, whose
    filter only predicts (no filter gains, no update covariances) and
    which runs no spread recursion, gives the
    filtered evaluator's totals, direction variances, parts and control
    gradients to rounding (<= 1e-12 relative).  The filtered evaluator
    forms the state-deviation covariance as Q + P_hat, the open_loop one
    as the predicted covariance P, so the two agree to rounding only."""
    prob, x0, P0, _ = _assembly_cases()[0 if case == "linear" else 1]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    u = np.random.default_rng(48).uniform(-1.5, 1.5, size=(12, N, n_u))
    fb = np.zeros((N - 1, n_u, n_x))
    filtered = ObjectiveEvaluator(prob, x0, P0)
    totals, record = filtered.totals(u, fb)
    free = ObjectiveEvaluator(prob, x0, P0, mode="open_loop")
    with monkeypatch.context() as patch:
        for name in ("estimate_spread", "spread_adjoint"):
            patch.setattr(objective, name, _unexpected_call(name))
        free_totals, free_record = free.totals(u, fb)
        free_grads = [free.gradient(free_record.take(i))[0] for i in range(12)]
    assert_allclose(free_totals, totals, rtol=1e-12, atol=0)
    for got, expected in zip([free_record.beta, *free_record.parts], [record.beta, *record.parts], strict=True):
        assert_allclose(got, expected, rtol=1e-12, atol=0)
    for i in range(12):
        expected = filtered.gradient(record.take(i))[0]
        assert_allclose(free_grads[i], expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
    if case == "unicycle":
        assert np.any(free_record.parts[2] > 1e-6)  # the penalty is live
    pred = free_record.prediction
    assert pred.filter_gains is None and pred.filter_updates is None and free_record.spread is None


@pytest.mark.parametrize("case", [0, 1])
def test_open_loop_filter_covariances_are_the_augmented_state_block(case):
    """The open_loop evaluator's filter covariances, P_{k+1} = sym(A P A'
    + G G'), are bit for bit the state-deviation block of the augmented
    recursion with zero filter gains and zero feedback, the block the
    objective read before the separated form."""
    prob, x0, P0, u = _assembly_cases()[case]
    n_x = prob.model.n_x
    pred = ObjectiveEvaluator(prob, x0, P0, mode="open_loop").prediction(u)
    zero_gains = np.zeros(np.swapaxes(pred.lin.C, -1, -2).shape)
    aug = propagate_covariance(pred.lin, open_loop_policy(u, n_x), zero_gains, P0)
    assert np.array_equal(pred.filter_covs, aug.P)


def test_trace_sum_adds_in_one_fixed_order():
    """``_trace_sum`` equals a plain loop that adds the products of each row
    (k, i) over j, then the row sums in turn, every sum from +0.0, bit for
    bit, for a batch and for each of its rows alone."""
    rng = np.random.default_rng(46)
    for n in (2, 3, 5):
        H = rng.normal(size=(7, n, n))
        joint = rng.normal(size=(4, 7, n, n))
        batch = _trace_sum(H, joint)
        for b in range(4):
            total = 0.0
            for k in range(7):
                for i in range(n):
                    row = 0.0
                    for j in range(n):
                        row += H[k, i, j] * joint[b, k, j, i]
                    total += row
            assert batch[b] == total == _trace_sum(H, joint[b])
    assert not np.signbit(_trace_sum(np.zeros((2, 2, 2)), -np.ones((2, 2, 2))))


@pytest.mark.parametrize("stages", [3, 0])
def test_prediction_rejects_control_sequence_off_the_horizon(stages):
    prob = make_unicycle_problem(standard_unicycle_params())
    ev = ObjectiveEvaluator(prob, np.array([1.0, 1.0, np.pi]), 0.01 * np.eye(3))
    with pytest.raises(ModelError, match=rf"has {stages} stages, but the model horizon is 10"):
        ev.prediction(np.zeros((stages, 2)))


def test_solved_policies_replay_to_their_predicted_objective():
    """On a linear-Gaussian problem the prediction is exact: executing a
    solved policy, u_k = u_nom_k + K_k (xhat_k - x_nom_k) with the filter
    in the loop and the realized non-smooth hinge, costs on average what
    the solve predicts without its feedback regularization, within 3
    standard errors of 20000 replays, for an open_loop and an
    output_feedback plan.  The hinge rows x_0 >= 0.5 at stages 1..6 are
    live (penalty 0.90 and 0.48), and the two predictions lie more than 10
    standard errors apart, so the agreement is not loose."""
    prob = make_linear_problem([[1.0, 0.2], [0.0, 0.9]], [[0.0], [0.2]], 0.1 * np.eye(2), [[1.0, 0.0]], [[0.1]],
                               np.eye(2), [[0.1]], np.eye(2), 6)
    bound = ConstraintSet(matrix=np.array([[-1.0, 0.0, 0.0]]), offset=np.array([0.5]),
                          weights=np.array([[0.0]] + [[20.0]] * 6), u_lower=np.array([-5.0]), u_upper=np.array([5.0]))
    prob = replace(prob, constraints=bound)
    x0, P0 = np.array([1.0, 0.0]), 0.05 * np.eye(2)
    predicted, errors = [], []
    for mode in ("open_loop", "output_feedback"):
        res = solve(prob, x0, P0, SolveOptions(mode=mode, max_iterations=200))
        assert res.converged and res.objective.penalty > 0.1
        predicted.append(res.objective.total - res.objective.regularization)
        costs = replay_policy(prob, x0, P0, res.policy, 20000, seed=5)
        errors.append(np.std(costs, ddof=1) / np.sqrt(costs.size))
        assert abs(np.mean(costs) - predicted[-1]) <= 3.0 * errors[-1]
    assert np.any(res.policy.feedback != 0.0)
    assert predicted[0] - predicted[1] > 10.0 * max(errors)


def test_unicycle_plan_replays_on_its_linearization_to_its_predicted_objective():
    """The paper's approximation is exact on the linearization: the shipped
    unicycle output_feedback plan (500 iterations, live hinge rows, penalty
    0.076, gain entries up to 6.9), executed with f, g and the filter
    replaced by their linearizations along the nominal, costs on average
    what the solve predicts without its feedback regularization, within 3
    standard errors of 100000 replays (measured: 2.2672 +- 0.0053 against
    2.2719 predicted).  The eps_sigma smoothing of the predicted hinge
    leaves a bias of -0.0024 +- 0.0014 (2 million replays), under half a
    standard error here."""
    config = load_config(SHIPPED_CONFIG)
    x0, P0 = config.sim_config.init_mean, config.sim_config.init_cov
    res = solve(config.problem, x0, P0, config.solver_options)
    assert res.objective.penalty > 0.05 and np.max(np.abs(res.policy.feedback)) > 1.0
    predicted = res.objective.total - res.objective.regularization
    costs = replay_policy(config.problem, x0, P0, res.policy, 100000, seed=0, linearized=True)
    assert abs(np.mean(costs) - predicted) <= 3.0 * np.std(costs, ddof=1) / np.sqrt(costs.size)


def test_shipped_plan_gains_from_the_dual_effect():
    """The dual effect in isolation.  The passive problem freezes the output
    Jacobians at the shipped initial mean, so its plan cannot steer toward
    better measurements; both output_feedback plans, at the shipped belief
    and [solver] budget, are scored by the real evaluator.  The dual plan
    has the lower objective (measured 2.2982 against 2.8872), and it gets
    there by moving toward the r_y = 0 axis, where the measurements are
    sharp: its mean |r_y| over stages 1..N is 0.198 against 1.000, and its
    mean tr P_hat 0.00261 against 0.00699."""
    config = load_config(SHIPPED_CONFIG)
    x0, P0, opts = config.sim_config.init_mean, config.sim_config.init_cov, config.solver_options
    ev = ObjectiveEvaluator(config.problem, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K)
    scores = []
    for problem in (config.problem, passive_problem(config.problem, x0)):
        policy = solve(problem, x0, P0, opts).policy
        record = ev.evaluate(ev.prediction(policy.u_nom), policy.feedback)
        pred = record.prediction
        scores.append((sum(record.parts), np.mean(np.abs(pred.traj.states[1:, 1])),
                       np.mean(np.trace(pred.filter_covs[1:], axis1=-2, axis2=-1))))
    (f_dual, r_y_dual, tr_dual), (f_passive, r_y_passive, tr_passive) = scores
    assert f_passive - f_dual > 0.3
    assert r_y_dual < 0.5 * r_y_passive
    assert tr_dual < 0.5 * tr_passive


# ------------------------------------------------- constraint tables as given

def _row_by_row_values(problem, xs, us):
    """Constraint values of stages 0..N built one row at a time from
    ``values``: every row in row order, stage N at u = 0."""
    cs = problem.constraints
    N, n_u = us.shape
    h = np.empty((N + 1, cs.matrix.shape[0]))
    for k in range(N + 1):
        z = np.concatenate([xs[k], us[k] if k < N else np.zeros(n_u)])
        for i in range(h.shape[1]):
            h[k, i] = cs.values(z)[i]
    return h


@pytest.mark.parametrize("case", ["unicycle", "unicycle_every_row", "terminal_only"])
def test_packed_tables_match_row_by_row_reference(case):
    """The evaluator scores the constraint table as the problem gives it:
    the prediction's h equals, bit for bit, a table built row by row,
    every row at every stage, unbatched and as rows of a 12-row batch.
    The record's direction variances come in the same rows, and the rows
    with nonzero weight are the ones that apply: the unicycle's stage 0
    drops row 0, its stage N keeps row 0 alone, and the terminal-only
    problem's stage 0 has none."""
    if case.startswith("unicycle"):
        prob, x0 = make_unicycle_problem(standard_unicycle_params()), np.array([0.05, 0.8, np.pi])
        if case == "unicycle_every_row":
            prob = _every_row(prob)
    else:
        prob, x0 = one_stage_terminal_problem(), np.array([1.0])
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    ev = ObjectiveEvaluator(prob, x0, 0.01 * np.eye(x0.size))
    rng = np.random.default_rng(61)
    u = rng.uniform(-1.5, 1.5, size=(12, N, n_u))
    batch = ev.prediction(u)
    for i in range(12):
        for pred in (ev.prediction(u[i]), batch.take(i)):
            assert np.array_equal(pred.h, _row_by_row_values(prob, pred.traj.states, u[i]))
    fb = 0.1 * rng.normal(size=(N - 1, n_u, n_x))
    record = ev.evaluate(ev.prediction(u[0]), fb)
    assert record.beta.shape == record.prediction.h.shape == (N + 1, prob.constraints.matrix.shape[0])
    sizes = list(np.sum(prob.constraints.weights > 0, axis=1))
    expected = {"unicycle": [4] + [5] * (N - 1) + [1], "unicycle_every_row": [5] * (N + 1), "terminal_only": [0, 1]}
    assert sizes == expected[case]


# ------------------------------------------------- stage-N assembly reference

def _reference_parts(problem, x0, P0, policy, eps_sigma, eps_K):
    """Objective parts and direction variances of one policy, summed stage by
    stage from the public pipeline, with the terminal stage as a separate term.
    Each stage's cost comes from its table entries, 0.5 z'H_k z + g_k'z + c_k,
    and each stage takes the constraint rows its weights select; the terminal
    stage evaluates both at u = 0 and keeps the x block and x columns."""
    model, cost, cs = problem.model, problem.cost, problem.constraints
    N = model.horizon
    eps2 = eps_sigma**2
    traj = nominal_rollout(model, x0, policy.u_nom)
    lin = linearize_trajectory(model, traj)
    gains, _ = kalman_recursion(lin, P0)
    aug = propagate_covariance(lin, policy, gains, P0)
    K_all = stage_gains(policy.feedback)
    n_x = model.n_x
    H, g, c = cost.hessians, cost.gradients, cost.constants
    nominal, variance, penalty, betas = 0.0, 0.0, 0.0, []
    for k in range(N):
        x, u = traj.states[k], traj.controls[k]
        joint = joint_covariance(aug.sigma[k], K_all[k])
        z = np.concatenate([x, u])
        nominal += 0.5 * z @ H[k] @ z + g[k] @ z + c[k]
        variance += 0.5 * np.trace(H[k] @ joint)
        used = cs.weights[k] > 0
        beta = np.clip(constraint_direction_variance(cs.matrix[used], joint), 0.0, None) + eps2
        penalty += np.sum(cs.weights[k][used] * expected_relu(cs.values(z)[used], np.sqrt(beta)))
        betas.append(beta)
    x_N, P_N, u_N = traj.states[N], aug.P[N], np.zeros(model.n_u)
    H_N = H[N, :n_x, :n_x]
    nominal += 0.5 * x_N @ H_N @ x_N + g[N, :n_x] @ x_N + c[N]
    variance += 0.5 * np.trace(H_N @ P_N)
    used = cs.weights[N] > 0
    grads = cs.matrix[used][:, : model.n_x]
    beta = np.clip(constraint_direction_variance(grads, P_N), 0.0, None) + eps2
    penalty += np.sum(cs.weights[N][used] * expected_relu(cs.values(np.concatenate([x_N, u_N]))[used], np.sqrt(beta)))
    betas.append(beta)
    reg = eps_K * np.sum(np.asarray(policy.feedback) ** 2)
    return (nominal, variance, penalty, reg), betas


def _every_row(problem):
    """``problem`` with every constraint row at weight 1 at every stage, so
    rows that read u apply at stage N, too."""
    cs = problem.constraints
    return replace(problem, constraints=replace(cs, weights=np.ones(cs.weights.shape)))


def _reads_u_at_stage_n(problem) -> bool:
    """Whether a row with nonzero u columns has nonzero weight at stage N."""
    cs, n_x = problem.constraints, problem.model.n_x
    return bool(np.any(cs.weights[-1][np.any(cs.matrix[:, n_x:] != 0.0, axis=1)] > 0.0))


def _assembly_cases():
    """A linear problem with a nonzero terminal Hessian, the unicycle near
    its r_x wall so that stage and terminal penalties are live, and that
    unicycle with every row applying at every stage."""
    rng = np.random.default_rng(41)
    lin_prob = make_linear_problem(
        np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.005], [0.1]]), 0.15 * np.eye(2),
        np.eye(2), 0.3 * np.eye(2), np.diag([1.0, 0.5]), np.array([[0.4]]),
        np.array([[2.0, 0.3], [0.3, 1.0]]), horizon=5,
    )
    uni_prob = make_unicycle_problem(standard_unicycle_params(horizon=6))
    lin_case = (lin_prob, np.array([1.0, -0.5]), 0.2 * np.eye(2), rng.normal(0, 0.5, size=(5, 1)))
    uni_case = (uni_prob, np.array([0.05, 0.8, np.pi]), 0.01 * np.eye(3), rng.uniform(-1.5, 1.5, size=(6, 2)))
    return [lin_case, uni_case, (_every_row(uni_prob), *uni_case[1:])]


@pytest.mark.parametrize("case", [0, 1, 2])
@pytest.mark.parametrize("mode", ["open_loop", "output_feedback"])
def test_stage_n_assembly_matches_stage_by_stage_reference(case, mode):
    """The evaluator's parts and direction variances against a stage-by-stage
    sum whose stage N keeps the x block and the rows' x columns; in case 2
    rows that read u apply at stage N."""
    prob, x0, P0, u = _assembly_cases()[case]
    assert _reads_u_at_stage_n(prob) == (case == 2)
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    rng = np.random.default_rng(43)
    scale = 0.0 if mode == "open_loop" else 0.2
    fb_batch = scale * rng.normal(size=(3, N - 1, n_u, n_x))
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=1e-3, eps_K=1e-4)
    parts = ev.parts_from_prediction(ev.prediction(u), fb_batch)
    for i, fb in enumerate(fb_batch):
        policy = Policy(u_nom=u, feedback=fb)
        ref_parts, ref_betas = _reference_parts(prob, x0, P0, policy, 1e-3, 1e-4)
        assert_allclose([p[i] for p in parts], ref_parts, rtol=1e-12, atol=0)
        beta = ev.evaluate(ev.prediction(u), fb).beta
        assert len(ref_betas) == N + 1
        for k, ref in enumerate(ref_betas):
            assert_allclose(beta[k, prob.constraints.weights[k] > 0], ref, rtol=1e-12, atol=0)
    if case > 0:
        assert np.all(parts[2] > 1e-6)  # the penalty is live


@pytest.mark.parametrize("case", [0, 1])
def test_nominal_cost_is_terminal_first_sequential_sum(case):
    """The nominal cost adds the stage values in one fixed order, terminal
    stage first and then stages 0..N-1, one add at a time, unbatched and in
    every row of a batch; a pairwise sum differs in the last bits."""
    prob, x0, P0, _ = _assembly_cases()[case]
    n_u, N = prob.model.n_u, prob.model.horizon
    # a dense cost with every table entry live, stage N's x block included
    rng = np.random.default_rng(45)
    n_z = prob.model.n_x + n_u
    L = rng.normal(size=(N + 1, n_z, n_z))
    cost = QuadraticCost(
        hessians=L @ np.swapaxes(L, -1, -2), gradients=rng.normal(size=(N + 1, n_z)),
        constants=rng.normal(size=N + 1),
    )
    prob = replace(prob, cost=cost)
    ev = ObjectiveEvaluator(prob, x0, P0, mode="nominal")
    u = rng.uniform(-1.5, 1.5, size=(12, N, n_u))
    batch = ev.prediction(u)
    for i in range(12):
        for pred in (ev.prediction(u[i]), batch.take(i)):
            xs = pred.traj.states
            expected = cost.value(N, np.concatenate([xs[N], np.zeros(n_u)]))
            for k in range(N):
                expected = expected + cost.value(k, np.concatenate([xs[k], u[i, k]]))
            assert pred.nominal_cost == expected


@pytest.mark.parametrize("case", [0, 1])
def test_nominal_assembly_has_zero_variance_and_floored_beta(case):
    prob, x0, P0, u = _assembly_cases()[case]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    fb = 0.2 * np.random.default_rng(44).normal(size=(N - 1, n_u, n_x))
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=1e-3, eps_K=1e-4, mode="nominal")
    record = ev.evaluate(ev.prediction(u), fb)
    _, variance_cost, _, regularization = record.parts
    assert variance_cost == 0.0 and regularization == 0.0
    assert record.beta.shape == record.prediction.h.shape
    assert np.all(record.beta == 1e-3**2)



@pytest.mark.parametrize("scale", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("case", [0, 1])
def test_gain_gradient_matches_central_differences(case, scale):
    """The gain half of the reverse-mode gradient against central-difference
    gain rows through ``parts_from_prediction``.  The linear problem has a
    nonzero terminal Hessian and eps_K > 0.  On the unicycle next to its r_x
    wall live constraint rows have direction variances H both above and
    below eps_sigma^2 (where the old floor max(H, eps_sigma^2) had its
    kink), among the latter the box rows of the last stage, whose small gain
    keeps H under eps_sigma^2 while their first control presses on its
    bound, so their expected hinge is live and its gain derivative is
    small but not cut to 0."""
    prob, x0, P0, u = _assembly_cases()[case]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    fb = scale * np.random.default_rng(47).normal(size=(N - 1, n_u, n_x))
    if case == 1:
        u = u.copy()
        u[N - 1, 0] = prob.constraints.u_upper[0] - 2e-4
        fb[-1] *= 1e-2
    eps_sigma = 1e-3
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=eps_sigma, eps_K=1e-4)
    pred = ev.prediction(u)
    record = ev.evaluate(pred, fb)
    g_fd = fd_gradient(ev, u, fb)[1]
    g = ev.gradient(record)[1]
    assert g.shape == fb.shape
    assert_allclose(g, g_fd, rtol=0, atol=1e-6 * np.max(np.abs(g_fd)))
    if case == 1:
        beta = record.beta
        used = prob.constraints.weights > 0
        H = beta - eps_sigma**2
        below = used & (H > 0.0) & (H < eps_sigma**2)
        live = used & (np.abs(pred.h / np.sqrt(beta)) < 3)
        assert (used & (H > eps_sigma**2) & live).any()
        assert (below & live)[N - 1].any()


def test_objective_is_c1_across_the_old_variance_floor():
    """The objective is continuously differentiable where a row's direction
    variance H passes eps_sigma^2, the kink of the old floor
    max(H, eps_sigma^2).  On the unicycle with a live box row at stage N-1,
    scaling the first row of the last gain by s moves that row's H = s^2 H_1
    through eps_sigma^2 at s*; the left and right difference quotients of
    ``totals`` at s* agree with each other and with the sweep's directional
    derivative."""
    prob, x0, P0, u = _assembly_cases()[1]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    fb = 0.05 * np.random.default_rng(47).normal(size=(N - 1, n_u, n_x))
    u = u.copy()
    u[N - 1, 0] = prob.constraints.u_upper[0] - 2e-4  # the row u_0 - u_max is live
    eps_sigma, row = 1e-3, 1  # row 1 of stage N-1 is u_0 - u_max
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=eps_sigma, eps_K=1e-4)
    k = fb[-1, 0].copy()

    def gains(s):
        out = fb.copy()
        out[-1, 0] = s * k
        return out

    def direction_variance(s):
        joint = augmented_evaluation(ev, ev.prediction(u), gains(s))[1]
        return constraint_direction_variance(prob.constraints.matrix[row], joint[N - 1])

    s_star = np.sqrt(eps_sigma**2 / direction_variance(1.0))
    delta = 1e-5 * s_star
    assert direction_variance(s_star - delta) < eps_sigma**2 < direction_variance(s_star + delta)
    J = [ev.totals(u, gains(s))[0] for s in (s_star - delta, s_star, s_star + delta)]
    left, right = (J[1] - J[0]) / delta, (J[2] - J[1]) / delta
    record = ev.totals(u, gains(s_star))[1]
    assert abs(record.prediction.h[N - 1, row]) < 3 * np.sqrt(record.beta[N - 1, row])  # live
    sweep = np.sum(ev.gradient(record)[1][-1, 0] * k)
    tol = 1e-5 * abs(sweep)
    assert abs(right - left) < tol
    assert abs(left - sweep) < tol and abs(right - sweep) < tol


# ------------------------------------------- separated form vs augmented reference

def _separation_cases():
    """(name, problem, x0, P0, u (3, N, n_u), feedback (3, N-1, n_u, n_x)):
    three random linear-Gaussian systems, each also from P_hat_0 = 0, and
    the shipped-size unicycle (10 stages) along three control rows, also
    with every row applying at every stage (rows that read u at stage N
    included)."""
    rng = np.random.default_rng(440)
    cases = []
    for i in range(3):
        n_x, n_u, n_w, n_y, N = 3, 2, 2, 2, 6
        A = rng.normal(size=(n_x, n_x))
        A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
        prob = make_linear_problem(A, rng.normal(size=(n_x, n_u)), 0.3 * rng.normal(size=(n_x, n_w)),
                                   rng.normal(size=(n_y, n_x)), 0.3 * np.eye(n_y) + 0.1 * rng.normal(size=(n_y, n_y)),
                                   np.eye(n_x), 0.1 * np.eye(n_u), 2.0 * np.eye(n_x), N)
        x0, u = rng.normal(size=n_x), rng.normal(size=(3, N, n_u))
        fb = 0.3 * rng.normal(size=(3, N - 1, n_u, n_x))
        cases.append((f"linear-{i}", prob, x0, random_spd(rng, n_x, 0.2), u, fb))
        cases.append((f"linear-{i}-P0=0", prob, x0, np.zeros((n_x, n_x)), u, fb))
    uni = make_unicycle_problem(standard_unicycle_params())
    cases.append(("unicycle", uni, np.array([0.05, 0.8, np.pi]), 0.01 * np.eye(3),
                  rng.uniform(-1.5, 1.5, size=(3, 10, 2)), 0.1 * rng.normal(size=(3, 9, 2, 3))))
    cases.append(("unicycle_every_row", _every_row(uni), *cases[-1][2:]))
    return cases


def _separated_joint(ev, record):
    """[[Q + P_hat, Q K'], [K Q, K Q K']] of stages 0..N from a forward record
    (Q = 0 without measurements)."""
    P_hat, K = record.prediction.filter_covs, stage_gains(record.feedback)
    Q = np.zeros(K.shape[:-2] + P_hat.shape[-2:]) if record.spread is None else record.spread
    KQ = K @ Q
    return np.concatenate([np.concatenate([Q + P_hat, KQ.mT], axis=-1),
                           np.concatenate([KQ, KQ @ K.mT], axis=-1)], axis=-2)


def _assert_relative(got, ref, tol):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref), initial=0.0) <= tol * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("mode", ["open_loop", "output_feedback"])
@pytest.mark.parametrize("case", range(8), ids=[c[0] for c in _separation_cases()])
def test_separated_evaluation_matches_augmented_reference(case, mode):
    """With the Kalman gains of the linearization, the separated n_x form
    (the estimate's spread Q plus the filter covariance) gives the joint
    covariances, direction variances, objective parts and gradient of the
    2n_x augmented recursion and its adjoint (``tests/oracles.py``) to
    1e-12 relative (measured: at most 6.0e-15, the gradient relative to
    its largest entry); without measurements the reference runs with zero
    filter gains.  Each row of the 3-row batch is
    the same row evaluated alone, bit for bit."""
    _, prob, x0, P0, u, fb = _separation_cases()[case]
    ev = ObjectiveEvaluator(prob, x0, P0, mode=mode)
    totals, batch = ev.totals(u, fb)
    for i in range(3):
        alone_total, record = ev.totals(u[i], fb[i])
        assert totals[i] == alone_total
        for got, expected in zip(record_fields(batch.take(i)), record_fields(record), strict=True):
            assert np.array_equal(got, expected)
        _, joint, beta, parts = augmented_evaluation(ev, record.prediction, fb[i])
        _assert_relative(_separated_joint(ev, record), joint, 1e-12)
        _assert_relative(record.beta, beta, 1e-12)
        scale = sum(np.abs(parts))  # an open_loop variance part is zero, its reference ~1e-26
        for got, expected in zip(record.parts, parts, strict=True):
            assert abs(got - expected) <= 1e-12 * scale
        expected = augmented_gradient(ev, record.prediction, fb[i])
        scale = max(np.max(np.abs(e)) for e in expected)  # the open_loop dJ/dK is eps_K-small
        for got, e in zip(ev.gradient(record), expected, strict=True):
            assert np.max(np.abs(got - e)) <= 1e-12 * scale


def test_separated_evaluation_under_jitter_matches_augmented_reference():
    """With D = 0 and two equal outputs every innovation covariance S is
    singular, and the filter factors S + 1e-12 I, of condition 1e12.  The
    filter takes its gain and its update from that one factor, so its
    covariance P_hat is the Joseph form at its own gains, the estimation
    error that the augmented recursion propagates, to 2e-11 of max |P_hat|
    (measured: 1.5e-12).  The separated form then gives the augmented
    reference's joint covariances to 1e-12 relative (measured: 4.2e-14),
    its objective parts to 1e-12 of the sum of their magnitudes (measured:
    the variance costs are 5.1e-14 apart, of 2.31) and its dJ/dK to 2e-12
    of the largest entry (measured: 1.3e-13)."""
    prob = make_linear_problem([[0.9, 0.2], [0.1, 0.8]], [[1.0], [0.5]], 0.3 * np.eye(2), [[1.0, 0.5], [1.0, 0.5]],
                               np.zeros((2, 2)), np.eye(2), [[0.1]], np.eye(2), 6)
    rng = np.random.default_rng(1)
    u, fb = rng.normal(size=(6, 1)), 0.3 * rng.normal(size=(5, 1, 2))
    ev = ObjectiveEvaluator(prob, np.array([1.0, -0.5]), 0.2 * np.eye(2))
    record = ev.totals(u, fb)[1]
    pred = record.prediction
    lin, P_hat = pred.lin, pred.filter_covs
    P_minus = lin.A @ P_hat[:-1] @ lin.A.mT + lin.G @ lin.G.mT
    for S in lin.C @ P_minus @ lin.C.mT:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(S)
    _assert_relative(P_hat, luenberger_covariance(lin, pred.filter_gains, ev.P_hat_0), 2e-11)
    _, joint, _, parts = augmented_evaluation(ev, pred, fb)
    _assert_relative(_separated_joint(ev, record), joint, 1e-12)
    scale = sum(np.abs(parts))
    for got, expected in zip(record.parts, parts, strict=True):
        assert abs(got - expected) <= 1e-12 * scale
    expected = augmented_gradient(ev, pred, fb)[1]
    assert np.max(np.abs(ev.gradient(record)[1] - expected)) <= 2e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("mode", ["open_loop", "output_feedback"])
def test_gradient_with_closed_form_pullbacks_matches_central_differences(mode):
    """The unicycle's closed-form Jacobian pullbacks and central differences
    of its Jacobian providers (the model with the oracle's pullbacks,
    :func:`oracles.fd_pullbacks`) give the same gradient to 1e-8 of max |g|."""
    prob, x0, P0, u = _assembly_cases()[1]
    model = prob.model
    fd_prob = replace(prob, model=fd_pullbacks(model))
    fb = 0.1 * np.random.default_rng(441).normal(size=(model.horizon - 1, model.n_u, model.n_x))

    def gradient(problem):
        ev = ObjectiveEvaluator(problem, x0, P0, mode=mode)
        return ev.gradient(ev.totals(u, fb)[1])

    expected = gradient(fd_prob)
    scale = max(np.max(np.abs(e)) for e in expected)
    for got, e in zip(gradient(prob), expected, strict=True):
        assert np.max(np.abs(got - e)) <= 1e-8 * scale


SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg"


@pytest.mark.parametrize("mode", ["open_loop", "output_feedback"])
def test_gradient_matches_fourth_order_directional_differences(mode):
    """The solver's gradient g on the shipped unicycle config, at three
    seeded points (controls in [-1, 1], gains ~ N(0, 0.1)) and four seeded
    unit directions d each, against the fourth-order difference
    (8 (f(t) - f(-t)) - (f(2t) - f(-2t))) / 12t with t = 1e-3:
    |g'd - difference| <= 1e-10 ||g||.  Measured worst: 5.9e-12 (open_loop)
    and 1.6e-12 (output_feedback), so the bound is 17x above; criterion 7's
    step-1e-6 central difference cannot see a change below about 3e-9."""
    config = load_config(SHIPPED_CONFIG)
    prob, opts = config.problem, config.solver_options
    ev = ObjectiveEvaluator(prob, config.sim_config.init_mean, config.sim_config.init_cov,
                            eps_sigma=opts.eps_sigma, eps_K=opts.eps_K, mode=mode)
    var = _Variables(prob, mode)
    t = 1e-3
    steps = np.array([t, -t, 2 * t, -2 * t])
    for seed in range(3):
        rng = np.random.default_rng(seed)
        theta = np.concatenate([rng.uniform(-1, 1, var.n_u_vars), rng.normal(0, 0.1, var.n_k_vars)])
        g = _gradient(ev, var, ev.totals(*var.unpack_batch(theta[None]))[1].take(0))
        d = rng.normal(size=(4, var.size))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        f = ev.totals(*var.unpack_batch(theta + (steps[None, :, None] * d[:, None, :]).reshape(-1, var.size)))[0]
        f = f.reshape(4, 4)
        difference = (8.0 * (f[:, 0] - f[:, 1]) - (f[:, 2] - f[:, 3])) / (12.0 * t)
        assert np.max(np.abs(d @ g - difference)) <= 1e-10 * np.linalg.norm(g)


def _unexpected_call(name):
    def raises(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return raises


@pytest.mark.parametrize("case", [0, 1])
def test_gradient_reads_the_forward_innovation_factors(case, monkeypatch):
    """The Kalman adjoint reads what the forward pass took from the
    innovation factors, the gains and the covariances: with every
    factorization and every matrix inverse raising, each row of a 12-row
    record gives the same gradient bits."""
    prob, x0, P0, u0 = _assembly_cases()[case]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    ev = ObjectiveEvaluator(prob, x0, P0)
    rng = np.random.default_rng(54)
    u = u0 + 0.1 * rng.normal(size=(12,) + u0.shape)
    fb = 0.2 * rng.normal(size=(N - 1, n_u, n_x))
    record = ev.totals(u, fb)[1]
    expected = [ev.gradient(record.take(i)) for i in range(12)]
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", _unexpected_call("np.linalg.cholesky"))
        patch.setattr(np.linalg, "inv", _unexpected_call("np.linalg.inv"))
        got = [ev.gradient(record.take(i)) for i in range(12)]
    for (g_u, g_k), (e_u, e_k) in zip(got, expected, strict=True):
        assert np.array_equal(g_u, e_u) and np.array_equal(g_k, e_k)


@pytest.mark.parametrize("mode", ["nominal", "open_loop", "output_feedback"])
@pytest.mark.parametrize("case", [0, 1])
def test_gradient_matches_fd_gradient(case, mode, monkeypatch):
    """The reverse-mode gradient (dJ/du_nom, dJ/dK) against central
    differences of the objective at random points, to 1e-6 of max|g|: the
    linear problem with terminal Hessian [[2, 0.3], [0.3, 1]], and the
    unicycle next to its r_x wall, where the dual effect (the state
    dependence of the measurement noise) and live penalties enter.  The
    sweep reads the forward record: with every forward-pipeline function
    raising, it returns the same gradient bit for bit."""
    prob, x0, P0, u0 = _assembly_cases()[case]
    n_x, n_u, N = prob.model.n_x, prob.model.n_u, prob.model.horizon
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=1e-3, eps_K=1e-4, mode=mode)
    rng = np.random.default_rng(53)
    for _ in range(2):
        u = u0 + 0.1 * rng.normal(size=u0.shape)
        scale = 0.2 if mode == "output_feedback" else 0.0
        fb = scale * rng.normal(size=(N - 1, n_u, n_x))
        record = ev.totals(u, fb)[1]
        g_u, g_k = ev.gradient(record)
        fd_u, fd_k = fd_gradient(ev, u, fb)
        atol = 1e-6 * max(np.max(np.abs(fd_u)), np.max(np.abs(fd_k)))
        assert_allclose(g_u, fd_u, rtol=0, atol=atol)
        if mode == "nominal":
            assert np.all(g_k == 0.0)
        else:
            assert_allclose(g_k, fd_k, rtol=0, atol=atol)
        with monkeypatch.context() as patch:
            for name in ("nominal_rollout", "linearize_trajectory", "kalman_recursion", "estimate_spread"):
                patch.setattr(objective, name, _unexpected_call(name))
            again_u, again_k = ev.gradient(record)
        assert np.array_equal(again_u, g_u) and np.array_equal(again_k, g_k)
