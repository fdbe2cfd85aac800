"""Solver behavior against brute-force, Riccati and self-consistency oracles."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    ObjectiveBreakdown,
    ObjectiveEvaluator,
    Policy,
    SolveOptions,
    expected_relu,
    load_config,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    smoothed_variance,
    solve,
    total_objective,
)
from dualmpc import objective, ocp_solver
from dualmpc.uncertainty import RolloutError
from dualmpc.ocp_solver import _FD_STEP, _armijo_search, _gradient, _stencil, _Variables

from conftest import one_stage_terminal_problem, record_fields, same_bits, standard_unicycle_params
from oracles import open_loop_policy


# ------------------------------------------------------------- slack elimination

def test_eliminate_beta_applies_floor_and_passthrough():
    """smoothed_variance returns one array, clip(H, 0) + eps_sigma^2: a
    negative input (rounding on a PSD form) counts as 0, and every variance,
    also one below the old floor eps_sigma^2, gains eps_sigma^2."""
    assert smoothed_variance(0.0, 1e-3) == 1e-6
    assert smoothed_variance(4.0, 1e-3) == 4.0 + 1e-6
    H = np.array([-3e-17, 0.0, 2.5e-7, 1e-6, 0.3])
    out = smoothed_variance(H, 1e-3)
    assert isinstance(out, np.ndarray) and out.shape == H.shape
    assert out.tolist() == [1e-6, 1e-6, 2.5e-7 + 1e-6, 1e-6 + 1e-6, 0.3 + 1e-6]
    np.testing.assert_allclose(out, [1e-6, 1e-6, 1.25e-6, 2e-6, 0.300001], rtol=1e-15, atol=0)


def test_explicit_slack_brute_force_matches_eliminated_formulation():
    # Brute-force the one-stage problem over (u, beta) with beta kept as an
    # explicit decision variable (bounded below by the terminal direction
    # variance plus eps_sigma^2); the reduced solver must match the best
    # grid value and report beta at its lower bound.
    rho, eps_sigma = 50.0, 1e-3
    prob = one_stage_terminal_problem(rho)
    x0 = np.array([1.0])
    P0 = np.array([[0.04]])
    res = solve(prob, x0, P0, SolveOptions(mode="output_feedback", eps_sigma=eps_sigma))
    assert res.converged

    P1 = 0.9 * 0.04 * 0.9 + 0.2**2  # terminal state variance: a P0 a' + g g'

    def explicit_total(u, beta):
        x1 = 0.9 * x0[0] + 0.5 * u
        nominal = 0.5 * (x0[0] ** 2 + 0.5 * u**2) + 0.5 * 2.0 * x1**2
        variance = 0.5 * 1.0 * 0.04 + 0.5 * 2.0 * P1
        return nominal + variance + rho * expected_relu(x1 - 0.5, np.sqrt(beta))

    beta_min = P1 + eps_sigma**2
    betas = beta_min * np.linspace(1.0, 4.0, 121)
    lo, hi = -5.0, 5.0
    for _ in range(4):  # refine the control grid around the incumbent
        us = np.linspace(lo, hi, 401)
        U, B = np.meshgrid(us, betas, indexing="ij")
        vals = explicit_total(U, B)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best_u, best_beta, best_val = us[i], betas[j], vals[i, j]
        span = (hi - lo) / 40
        lo, hi = best_u - span, best_u + span

    assert best_beta == pytest.approx(beta_min, rel=1e-12)  # monotone in beta
    assert res.objective.total == pytest.approx(best_val, rel=1e-6)
    # the slacks in the result's record: the one row applies at the terminal
    # stage alone, where its entry sits at H + eps^2
    assert np.array_equal(prob.constraints.weights > 0, [[False], [True]])
    assert res.record.beta[-1] == pytest.approx([beta_min], rel=1e-12)


# ------------------------------------------------------------------ solve: oracles

def test_zero_uncertainty_unicycle_presses_to_the_constraint_wall():
    # No noise anywhere: the stochastic objective collapses to the nominal
    # one.  Starting at r_x = 1 facing +x, the cheapest plan reverses at
    # (almost) full speed and parks just inside the r_x >= 0 penalty wall.
    # The box rows are penalized with smoothing eps_sigma, so the optimal
    # speed stands off the hard bound by a few multiples of eps_sigma.
    params = standard_unicycle_params(horizon=6, process_std=0.0, measurement_std=0.0)
    prob = make_unicycle_problem(params)
    x0 = np.array([1.0, 0.0, 0.0])
    P0 = np.zeros((3, 3))
    res = solve(prob, x0, P0, SolveOptions(mode="open_loop"))
    assert res.converged
    v = res.policy.u_nom[:, 0]
    assert np.all(np.abs(res.policy.u_nom) <= 2.0)
    assert -2.0 <= v[0] <= -1.98  # pressed against the speed bound
    traj = nominal_rollout(prob.model, x0, res.policy.u_nom)
    assert -1e-3 <= traj.states[-1, 0] <= 0.02  # parked at the wall

    # no constant-control policy can do better than the solver's plan
    ev = ObjectiveEvaluator(prob, x0, P0)
    vv, ww = np.meshgrid(np.linspace(-2, 2, 81), np.linspace(-2, 2, 21), indexing="ij")
    const = np.stack([vv.ravel(), ww.ravel()], axis=-1)
    u_batch = np.repeat(const[:, None, :], params.horizon, axis=1)
    totals = ev.totals(u_batch, np.zeros((params.horizon - 1, 2, 3)))[0]
    assert res.objective.total <= totals.min() + 1e-9


def _riccati_gains(A, B, Q, R, Qf, N):
    S = np.asarray(Qf, dtype=float).copy()
    gains = [None] * N
    for k in reversed(range(N)):
        M = R + B.T @ S @ B
        gains[k] = -np.linalg.solve(M, B.T @ S @ A)
        Acl = A + B @ gains[k]
        S = Q + gains[k].T @ R @ gains[k] + Acl.T @ S @ Acl
    return np.array(gains)


def test_linear_quadratic_solution_matches_riccati_separation_oracle():
    # Unconstrained linear-quadratic-Gaussian instance: the optimal policy
    # in the estimate-feedback class is the time-varying LQR gain on the
    # Kalman estimate, and the nominal plan is the deterministic LQ optimum.
    # Full observation keeps the estimate-deviation covariance full rank at
    # every stage, so each gain is identified uniquely.
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q = np.diag([1.0, 0.5])
    R = np.array([[0.4]])
    Qf = np.diag([2.0, 1.0])
    N = 5
    prob = make_linear_problem(A, B, 0.15 * np.eye(2), np.eye(2), 0.3 * np.eye(2), Q, R, Qf, N)
    x0 = np.array([1.0, -0.5])
    P0 = 0.2 * np.eye(2)

    gains = _riccati_gains(A, B, Q, R, Qf, N)
    xbar = x0.copy()
    u_lq = np.zeros((N, 1))
    for k in range(N):
        u_lq[k] = gains[k] @ xbar
        xbar = A @ xbar + B @ u_lq[k]

    res = solve(prob, x0, P0, SolveOptions(mode="output_feedback", eps_K=0.0))
    assert res.converged
    np.testing.assert_allclose(res.policy.feedback, gains[1:], atol=1e-4)
    np.testing.assert_allclose(res.policy.u_nom, u_lq, atol=1e-4)
    oracle = total_objective(prob, x0, P0, Policy(u_nom=u_lq, feedback=gains[1:]), eps_K=0.0)
    assert res.objective.total == pytest.approx(oracle.total, rel=1e-6)
    assert res.objective.total <= oracle.total + 1e-8


def test_open_loop_mode_pins_feedback_to_zero():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([0.8, 0.6, np.pi])
    P0 = 1e-4 * np.eye(3)
    res = solve(prob, x0, P0, SolveOptions(mode="open_loop"))
    assert np.all(res.policy.feedback == 0.0)
    replayed = total_objective(prob, x0, P0, open_loop_policy(res.policy.u_nom, 3))
    assert res.objective.total == pytest.approx(replayed.total, rel=1e-12)


# --------------------------------------------------------------- solve: invariants

def test_objective_nonincreasing_with_iteration_budget():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=4))
    x0 = np.array([1.0, 0.5, np.pi])
    P0 = 1e-4 * np.eye(3)
    cold = total_objective(prob, x0, P0, open_loop_policy(np.zeros((4, 2)), 3)).total
    totals = [
        solve(prob, x0, P0, SolveOptions(mode="open_loop", max_iterations=m)).objective.total
        for m in (1, 3, 7, 15)
    ]
    assert totals[0] <= cold
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_hard_control_bounds_hold_at_solution():
    params = standard_unicycle_params(horizon=5, u_max=0.5)
    prob = make_unicycle_problem(params)
    res = solve(prob, np.array([2.0, 0.0, 0.0]), 1e-4 * np.eye(3), SolveOptions(mode="open_loop"))
    v = res.policy.u_nom[:, 0]
    assert np.all(res.policy.u_nom >= -0.5) and np.all(res.policy.u_nom <= 0.5)
    assert v.min() <= -0.49  # far from the wall, so the speed bound binds


def test_output_feedback_warm_started_dominates_open_loop():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=8))
    x0 = np.array([1.0, 1.0, np.pi])
    P0 = 1e-4 * np.eye(3)
    res_ol = solve(prob, x0, P0, SolveOptions(mode="open_loop", eps_K=0.0))
    assert res_ol.converged
    warm = Policy(u_nom=res_ol.policy.u_nom, feedback=np.zeros((7, 2, 3)))
    res_of = solve(
        prob, x0, P0,
        SolveOptions(mode="output_feedback", eps_K=0.0, max_iterations=200),
        warm_start=warm,
    )
    assert res_of.objective.total <= res_ol.objective.total + 1e-8


def test_fd_gradient_matches_secondary_directional_differences():
    """The solver's gradient (one reverse-mode pass) against secondary
    directional central differences of the objective."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([1.0, 0.5, 2.0])
    P0 = 1e-4 * np.eye(3)
    ev = ObjectiveEvaluator(prob, x0, P0)
    var = _Variables(prob, "output_feedback")
    rng = np.random.default_rng(3)
    theta = np.concatenate([
        rng.uniform(-1.0, 1.0, size=var.n_u_vars),
        rng.normal(0.0, 0.1, size=var.n_k_vars),
    ])
    def scalar(th):
        pol = var.unpack(th)
        return float(ev.totals(pol.u_nom, pol.feedback)[0])

    g = _gradient(ev, var, ev.totals(var.unpack(theta).u_nom, var.unpack(theta).feedback)[1])

    t = 1e-6
    for _ in range(5):
        d = rng.normal(size=var.size)
        d /= np.linalg.norm(d)
        secondary = (scalar(theta + t * d) - scalar(theta - t * d)) / (2 * t)
        assert g @ d == pytest.approx(secondary, rel=1e-4)


_SEARCH_CASES = [(mode, False) for mode in ocp_solver.MODES] + [(mode, True) for mode in ocp_solver.MODES]


@pytest.mark.parametrize(
    "mode, failing_full_step", _SEARCH_CASES,
    ids=[mode + ("-failing_full_step" if failing else "") for mode, failing in _SEARCH_CASES],
)
def test_fused_line_search_gradient_equals_fd_gradient(mode, failing_full_step):
    """The gradient that ``_armijo_search`` returns at an accepted trial, from
    the trial's row of the line-search batch's forward record, is the
    stand-alone reverse sweep at that trial, bit for bit; so is the trial's
    record, and a metric seed at the trial evaluates to the trial's value and
    record.  Evaluating the full step alone first gives the same trial,
    value, index and gradient as 12-trial chunks.  Checked at an accepted full step and at a backtracked
    one, and on a problem whose full step fails to evaluate."""
    if failing_full_step:
        prob, x0, P0 = _nan_above_half_problem(), np.array([-3.0]), 0.01 * np.eye(1)
    else:
        prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
        x0, P0 = np.array([1.0, 0.5, 2.0]), 1e-4 * np.eye(3)
    opts = SolveOptions(mode=mode)
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K, mode=mode)
    var = _Variables(prob, mode)
    rng = np.random.default_rng(11)
    theta = np.concatenate([
        np.zeros(var.n_u_vars) if failing_full_step else rng.uniform(-1.0, 1.0, size=var.n_u_vars),
        rng.normal(0.0, 0.1, size=var.n_k_vars),
    ])
    pol = var.unpack(theta)
    f, record = ev.totals(pol.u_nom, pol.feedback)
    f = float(f)
    g = _gradient(ev, var, record)
    scales = ((4.0, True),) if failing_full_step else ((1e-3, False), (1e2, True))
    for scale, backtracked in scales:
        direction = -scale * g / np.linalg.norm(g)
        if failing_full_step:
            with pytest.raises(RolloutError):
                ev.totals(*var.unpack_batch(var.project(theta + direction)[None]))
        results = [_armijo_search(ev, var, theta, f, g, direction, first) for first in (False, True)]
        for trial, f_trial, index, accepted in results:
            assert accepted is not None
            assert (index > 0) == backtracked
            trial_pol = var.unpack(trial)
            center = ev.totals(trial_pol.u_nom, trial_pol.feedback)[1]
            for got, expected in zip(record_fields(accepted[1]), record_fields(center), strict=True):
                assert np.array_equal(got, expected)
            assert np.array_equal(accepted[0], _gradient(ev, var, center))
        (trial, f_trial, index, accepted), (trial_1, f_trial_1, index_1, accepted_1) = results
        assert np.array_equal(trial, trial_1) and f_trial == f_trial_1 and index == index_1
        assert np.array_equal(accepted[0], accepted_1[0])
        f_seed, center_seed, _ = ocp_solver._seed(ev, var, trial)
        assert f_seed == f_trial
        for got, expected in zip(record_fields(center_seed), record_fields(accepted[1]), strict=True):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("mode", ocp_solver.MODES)
def test_solve_result_is_the_breakdown_of_the_returned_policy(mode):
    """The result's record is the last accepted trial's row of its
    line-search batch; it equals a fresh unbatched evaluation of the
    returned policy in the solve's mode bit for bit, every array of it,
    and the result's objective is its breakdown.  An open_loop solve keeps
    zero gains, so the filtered evaluation of its policy gives the same
    objective and slacks to rounding."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0, P0 = np.array([1.0, 0.5, 2.0]), 1e-4 * np.eye(3)
    opts = SolveOptions(mode=mode, max_iterations=20)
    res = solve(prob, x0, P0, opts)
    assert res.iterations > 0
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K, mode=mode)
    fresh = ev.evaluate(ev.prediction(res.policy.u_nom), res.policy.feedback)
    got, expected = record_fields(res.record), record_fields(fresh)
    assert len(got) == len(expected)
    assert all(same_bits(a, b) for a, b in zip(got, expected))
    assert res.objective == ObjectiveBreakdown.assemble(*fresh.parts)
    if mode == "open_loop":
        assert np.all(res.policy.feedback == 0.0)
        filtered = ObjectiveEvaluator(prob, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K)
        record = filtered.evaluate(filtered.prediction(res.policy.u_nom), res.policy.feedback)
        assert ObjectiveBreakdown.assemble(*record.parts).total == pytest.approx(res.objective.total, rel=1e-12, abs=0)
        assert_allclose(record.beta, res.record.beta, rtol=1e-12, atol=0)


def test_metric_reseed_after_first_iteration_uses_fd_curvature(monkeypatch):
    """Failing the quasi-Newton line search of the third iteration forces a
    reseed there, and the curvature it gets is, bit for bit, the central
    second difference of the objective along every control coordinate at
    that iterate, through ``totals``, and zero along every gain coordinate,
    which seeds the gains at the metric's floor."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([1.0, 0.5, 2.0])
    P0 = 1e-4 * np.eye(3)
    opts = SolveOptions(mode="output_feedback", max_iterations=6)
    events = []
    search, seed = ocp_solver._armijo_search, ocp_solver._diag_metric

    def failing_third_search(ev, var, theta, f, g, direction, full_step_first=False):
        events.append(("search", theta.copy(), f))
        if [e[0] for e in events].count("search") == 3:
            return theta, f, -1, None
        return search(ev, var, theta, f, g, direction, full_step_first)

    def recorded_seed(curv, gnorm):
        events.append(("seed", curv.copy()))
        return seed(curv, gnorm)

    monkeypatch.setattr(ocp_solver, "_armijo_search", failing_third_search)
    monkeypatch.setattr(ocp_solver, "_diag_metric", recorded_seed)
    solve(prob, x0, P0, opts)

    kinds = [e[0] for e in events]
    assert kinds[:5] == ["seed", "search", "search", "search", "seed"]
    _, theta, f = events[3]
    curv = events[4][1]
    assert not np.array_equal(theta, np.zeros_like(theta))

    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K)
    var = _Variables(prob, opts.mode)
    rows_u, h_u = _stencil(theta, _FD_STEP, slice(0, var.n_u_vars))
    totals = ev.totals(*var.unpack_batch(np.concatenate([theta[None], rows_u])))[0]
    fd = totals[1:]
    assert np.array_equal(curv[: var.n_u_vars], (fd[0::2] - 2.0 * f + fd[1::2]) / h_u**2)
    assert curv.size == var.size and np.all(curv[var.n_u_vars :] == 0.0)
    f_seed, _, curv_seed = ocp_solver._seed(ev, var, theta)
    assert f_seed == f and np.array_equal(curv_seed, curv)


def _shipped_config():
    return load_config(Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg")


def test_open_loop_solve_runs_about_one_prediction_per_iteration(monkeypatch):
    config = _shipped_config()
    calls = []
    prediction = ObjectiveEvaluator.prediction

    def counted(self, u_nom):
        calls.append(1)
        return prediction(self, u_nom)

    monkeypatch.setattr(ObjectiveEvaluator, "prediction", counted)
    res = solve(config.problem, config.sim_config.init_mean, config.sim_config.init_cov,
                replace(config.solver_options, mode="open_loop"))
    assert res.iterations > 0
    assert len(calls) <= 1.3 * res.iterations


def test_shipped_solve_line_search_rows(monkeypatch):
    """In every mode, a search after an accepted full step tries that step
    alone first, so a solve evaluates few trial rows per iteration: every
    line-search batch holds that one step or a 12-trial chunk.  With
    uncertainty the filter runs once per ``totals`` batch and its adjoint
    once per gradient sweep, never in the final breakdown, and not at all
    without uncertainty: in output_feedback the Kalman filter and the
    spread recursion, in open_loop its predict step alone, the forward
    Lyapunov kernel, with the reverse kernel for the adjoint.  No search
    fails, so the metric is seeded once per solve and never reseeded."""
    config = _shipped_config()
    rows, calls = [], {}
    totals = ObjectiveEvaluator.totals

    def counted(self, u_nom, feedback):
        rows.append(u_nom.shape[0])
        return totals(self, u_nom, feedback)

    def counting(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(ObjectiveEvaluator, "totals", counted)
    counted_names = ("estimate_spread", "kalman_recursion", "kalman_adjoint", "lyapunov", "lyapunov_adjoint")
    for name in counted_names:
        monkeypatch.setattr(objective, name, counting(name, getattr(objective, name)))
    monkeypatch.setattr(ocp_solver, "_diag_metric", counting("_diag_metric", ocp_solver._diag_metric))
    for mode in ("open_loop", "nominal", "output_feedback"):
        rows.clear()
        calls.update(dict.fromkeys(counted_names, 0), _diag_metric=0)
        res = solve(config.problem, config.sim_config.init_mean, config.sim_config.init_cov,
                    replace(config.solver_options, mode=mode))
        assert res.iterations > 0
        assert calls.pop("_diag_metric") == 1
        if mode != "output_feedback":  # the first batch is the initial point and its curvature stencil
            assert set(rows[1:]) == {1, 12}
        none = dict.fromkeys(counted_names, 0)
        if mode == "open_loop":
            assert sum(rows) <= 4 * res.iterations
            assert calls == dict(none, lyapunov=len(rows), lyapunov_adjoint=res.iterations + 1)
        elif mode == "nominal":
            assert sum(rows[1:]) <= 8 * res.iterations
            assert calls == none
        else:  # one sweep per iteration plus the initial point's
            assert calls == dict(none, estimate_spread=len(rows), kalman_recursion=len(rows),
                                 kalman_adjoint=res.iterations + 1)


def test_failed_steepest_descent_search_skips_the_metric_reseed(monkeypatch):
    """When both directions fail, the solve stops: the metric is reseeded
    once, for the steepest-descent search, and not again after it."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0, P0 = np.array([1.0, 0.5, 2.0]), 1e-4 * np.eye(3)
    warm = Policy(u_nom=np.full((5, 2), 0.3), feedback=np.zeros((4, 2, 3)))
    seeds, searches, seed = [], [], ocp_solver._diag_metric

    def failing_search(ev, var, theta, f, g, direction, full_step_first=False):
        searches.append(theta.copy())
        return theta, f, -1, None

    def recorded_seed(curv, gnorm):
        seeds.append(1)
        return seed(curv, gnorm)

    monkeypatch.setattr(ocp_solver, "_armijo_search", failing_search)
    monkeypatch.setattr(ocp_solver, "_diag_metric", recorded_seed)
    res = solve(prob, x0, P0, SolveOptions(mode="output_feedback"), warm_start=warm)
    assert len(searches) == 2
    assert len(seeds) == 2  # the initial seed and the reseed before steepest descent
    assert res.status == "line_search_failure"
    assert res.iterations == 1
    assert np.array_equal(res.policy.u_nom, warm.u_nom)
    assert np.array_equal(res.policy.feedback, warm.feedback)


def test_three_skipped_updates_reseed_the_metric(monkeypatch):
    """The damped BFGS update skips pairs without usable curvature.  After
    three skips in a row the metric is reseeded at the current iterate; every
    seed after the initial one follows either that or a failed search.  This
    horizon-5 solve reaches the skip-limit reseed once and converges; with a
    metric left frozen by the skips it skipped 68 updates and ran out of its
    200 iterations."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0, P0 = np.array([0.8, 0.9, 3.0]), 1e-4 * np.eye(3)
    events = []
    search, seed, update = ocp_solver._armijo_search, ocp_solver._diag_metric, ocp_solver._bfgs_update

    def recorded_search(*args):
        result = search(*args)
        events.append(("search", result[2] >= 0))
        return result

    def recorded_seed(curv, gnorm):
        events.append(("seed", None))
        return seed(curv, gnorm)

    def recorded_update(H, s, y):
        result = update(H, s, y)
        events.append(("update", result[1]))
        return result

    monkeypatch.setattr(ocp_solver, "_armijo_search", recorded_search)
    monkeypatch.setattr(ocp_solver, "_diag_metric", recorded_seed)
    monkeypatch.setattr(ocp_solver, "_bfgs_update", recorded_update)
    res = solve(prob, x0, P0, SolveOptions(mode="output_feedback", max_iterations=200))
    assert res.status == "converged"
    assert events[0] == ("seed", None)
    skip_reseeds = 0
    for i, event in enumerate(events[1:], start=1):
        if event[0] != "seed":
            continue
        if events[i - 1] == ("search", False):
            continue
        updates = [updated for kind, updated in events[:i] if kind == "update"]
        assert updates[-3:] == [False] * 3 and events[i - 1][0] == "update"
        skip_reseeds += 1
    assert skip_reseeds == 1


def test_stencil_rows_run_only_for_metric_seeds(monkeypatch):
    """Line-search batches hold at most 12 trials and the gradient comes from
    the reverse-mode pass, so every wider ``totals`` batch is a curvature
    stencil, and each one feeds a metric seed."""
    config = _shipped_config()
    widths, seeds = [], []
    totals, seed = ObjectiveEvaluator.totals, ocp_solver._diag_metric

    def counted_totals(self, u_nom, feedback):
        widths.append(u_nom.shape[0])
        return totals(self, u_nom, feedback)

    def counted_seed(curv, gnorm):
        seeds.append(1)
        return seed(curv, gnorm)

    monkeypatch.setattr(ObjectiveEvaluator, "totals", counted_totals)
    monkeypatch.setattr(ocp_solver, "_diag_metric", counted_seed)
    res = solve(config.problem, config.sim_config.init_mean, config.sim_config.init_cov,
                replace(config.solver_options, mode="output_feedback", max_iterations=25))
    assert res.iterations == 25
    assert len(widths) >= res.iterations
    assert sum(w > 12 for w in widths) == len(seeds)


def _nan_above_half_problem(jacobian_too=False):
    """Scalar linear problem whose f (and with ``jacobian_too`` also f_jac)
    turns NaN for controls above 0.5, inside the box |u| <= 2; from x0 = -3
    the unconstrained optimum lies beyond 0.5."""
    prob = make_linear_problem(
        A=[[1.0]], B=[[1.0]], G=[[0.1]], C=[[1.0]], D=[[0.1]],
        Q=[[1.0]], R=[[1e-3]], Q_terminal=[[1.0]], horizon=3,
        u_lower=[-2.0], u_upper=[2.0],
    )
    f, f_jac = prob.model.f, prob.model.f_jac

    def f_nan_above(x, u, w):
        return np.where(np.asarray(u)[..., :1] > 0.5, np.nan, f(x, u, w))

    def f_jac_nan_above(x, u, w):
        above = (np.asarray(u)[..., :1] > 0.5)[..., None]
        return tuple(np.where(above, np.nan, J) for J in f_jac(x, u, w))

    model = replace(prob.model, f=f_nan_above, f_jac=f_jac_nan_above if jacobian_too else f_jac)
    return replace(prob, model=model)


def test_failing_trial_is_rejected_not_fatal():
    """The first full step crosses the NaN threshold, so the first
    line-search batch fails as a whole; its trials are re-scored one by one,
    up to the first that passes, and the failing ones rejected."""
    problem = _nan_above_half_problem()
    for mode in ("nominal", "open_loop"):
        res = solve(problem, np.array([-3.0]), 0.01 * np.eye(1), SolveOptions(mode=mode, max_iterations=3))
        assert res.iterations > 0
        assert np.isfinite(res.objective.total)
        assert np.all(res.policy.u_nom <= 0.5)


@pytest.mark.parametrize("mode, total", [("nominal", 12.010898156715514), ("open_loop", 12.060898156715515)])
def test_failed_chunk_is_scored_up_to_the_first_passing_trial(monkeypatch, mode, total):
    """Next to the NaN threshold whole line-search chunks fail.  Each trial
    of such a chunk is then scored alone, and scoring stops at the first
    that passes: no trial after the accepted one is evaluated, so a
    successful search ends with the ``totals`` call that holds its
    accepted trial."""
    problem = _nan_above_half_problem()
    calls, totals, search = [], ObjectiveEvaluator.totals, ocp_solver._armijo_search

    def recorded_totals(self, u_nom, feedback):
        try:
            out = totals(self, u_nom, feedback)
        except RolloutError:
            calls.append(("fail", u_nom.copy()))
            raise
        calls.append(("ok", u_nom.copy()))
        return out

    def checked_search(ev, var, theta, f, g, direction, full_step_first=False):
        result = search(ev, var, theta, f, g, direction, full_step_first)
        if result[2] >= 0:
            outcome, u_nom = calls[-1]
            assert outcome == "ok"
            assert any(np.array_equal(row, var.unpack(result[0]).u_nom) for row in u_nom)
        return result

    monkeypatch.setattr(ObjectiveEvaluator, "totals", recorded_totals)
    monkeypatch.setattr(ocp_solver, "_armijo_search", checked_search)
    res = solve(problem, np.array([-3.0]), 0.01 * np.eye(1), SolveOptions(mode=mode, max_iterations=30))
    assert (res.status, res.iterations, res.objective.total) == ("line_search_failure", 19, total)
    outcomes = [outcome for outcome, _ in calls]
    assert outcomes.count("ok") == 19 and outcomes.count("fail") == 580


def test_stencil_crossing_failure_boundary_ends_solve_not_fatal():
    """With a larger budget the iterates creep up to u_0 just below 0.5.  In
    open_loop mode the gradient pass differentiates f_jac at points a step
    away from the accepted trial; once those cross the threshold, where f_jac
    is NaN too, the pass fails and the solve stops with the best iterate.
    nominal mode evaluates f_jac on the trajectory only; there the
    curvature stencils of the metric reseeds next to the threshold fail,
    which falls back to a steepest-descent seed, and the solve has to stay
    finite and inside the good region."""
    problem = _nan_above_half_problem(jacobian_too=True)
    for mode in ("nominal", "open_loop"):
        res = solve(problem, np.array([-3.0]), 0.01 * np.eye(1), SolveOptions(mode=mode, max_iterations=30))
        if mode == "open_loop":
            assert res.status == "line_search_failure"
        assert np.isfinite(res.objective.total)
        assert np.all(res.policy.u_nom <= 0.5)


def test_initial_stencil_crossing_failure_boundary_is_contained(monkeypatch):
    """A warm start just below the NaN threshold: the objective there is
    finite, but the +h curvature row of u_0 crosses 0.5 inside the first
    batch.  So every control coordinate gets infinite curvature, the gain
    coordinates keep theirs, and the first metric is scaled steepest
    descent; the solve goes on.  A warm start above the threshold still
    raises its named error."""
    problem = _nan_above_half_problem()
    x0, P0 = np.array([-3.0]), 0.01 * np.eye(1)
    warm = Policy(u_nom=np.array([[0.5 - 1e-7], [0.0], [0.0]]), feedback=np.zeros((2, 1, 1)))
    nominal = total_objective(problem, x0, P0, warm, include_uncertainty=False)
    assert nominal.total == pytest.approx(13.875, rel=1e-4)
    seeds, seed = [], ocp_solver._diag_metric

    def recorded_seed(curv, gnorm):
        seeds.append((curv.copy(), seed(curv, gnorm)))
        return seeds[-1][1]

    monkeypatch.setattr(ocp_solver, "_diag_metric", recorded_seed)
    for mode in ocp_solver.MODES:
        seeds.clear()
        opts = SolveOptions(mode=mode, max_iterations=5)
        res = solve(problem, x0, P0, opts, warm_start=warm)
        assert np.isfinite(res.objective.total)
        assert np.all(res.policy.u_nom <= 0.5)
        var = _Variables(problem, mode)
        curv, metric = seeds[0]
        assert np.all(curv[: var.n_u_vars] == np.inf) and np.all(np.isfinite(curv[var.n_u_vars :]))
        ev = ObjectiveEvaluator(problem, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K, mode=mode)
        theta = var.pack(warm)
        gnorm = np.linalg.norm(_gradient(ev, var, ev.totals(*var.unpack_batch(theta[None]))[1].take(0)))
        assert np.array_equal(metric, np.eye(var.size) / gnorm)
        bad = Policy(u_nom=np.array([[0.6], [0.0], [0.0]]), feedback=np.zeros((2, 1, 1)))
        with pytest.raises(RolloutError):
            solve(problem, x0, P0, SolveOptions(mode=mode, max_iterations=5), warm_start=bad)


def test_resolve_from_solution_converges_immediately():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([1.0, 0.5, np.pi])
    P0 = 1e-4 * np.eye(3)
    first = solve(prob, x0, P0, SolveOptions(mode="open_loop"))
    assert first.converged
    again = solve(prob, x0, P0, SolveOptions(mode="open_loop"), warm_start=first.policy)
    assert again.converged
    assert again.iterations == 0
    assert again.objective.total == first.objective.total


def test_solver_is_deterministic():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([0.8, 0.9, 3.0])
    P0 = 1e-4 * np.eye(3)
    opts = SolveOptions(mode="output_feedback", max_iterations=30)
    r1 = solve(prob, x0, P0, opts)
    r2 = solve(prob, x0, P0, opts)
    assert np.array_equal(r1.policy.u_nom, r2.policy.u_nom)
    assert np.array_equal(r1.policy.feedback, r2.policy.feedback)
    assert r1.objective.total == r2.objective.total


def test_solve_options_rejects_bad_settings():
    with pytest.raises(ValueError, match="mode"):
        SolveOptions(mode="stochastic")
    with pytest.raises(ValueError):
        SolveOptions(tolerance=0.0)
    for setting in ("tolerance", "eps_sigma", "eps_K"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                SolveOptions(**{setting: value})
    prob = one_stage_terminal_problem()
    for setting in ("eps_sigma", "eps_K"):
        with pytest.raises(ValueError, match="finite"):
            ObjectiveEvaluator(prob, np.zeros(1), np.eye(1), **{setting: np.nan})
    with pytest.raises(ValueError, match="mode"):
        ObjectiveEvaluator(prob, np.zeros(1), np.eye(1), mode="stochastic")
