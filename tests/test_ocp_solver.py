"""Solver behavior against brute-force, Riccati and self-consistency oracles."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dualmpc import (
    ConstraintSet,
    ObjectiveEvaluator,
    Policy,
    SolveOptions,
    expected_relu,
    floored_variance,
    load_config,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    solve,
    total_objective,
)
from dualmpc.ocp_solver import _armijo_search, _fd_gradient, _Variables

from conftest import standard_unicycle_params


# ------------------------------------------------------------- slack elimination

def test_eliminate_beta_applies_floor_and_passthrough():
    assert floored_variance(0.0, 1e-3) == pytest.approx(1e-6, abs=0)
    assert floored_variance(4.0, 1e-3) == pytest.approx(4.0, abs=0)
    # negative inputs (FD noise on a PSD form) are clamped before flooring
    out = floored_variance(np.array([-1e-9, 0.0, 2.5e-7, 0.3]), 1e-3)
    np.testing.assert_allclose(out, [1e-6, 1e-6, 1e-6, 0.3], atol=0)


def _one_stage_problem(rho=50.0):
    """Scalar system, one stage, one terminal inequality x - 0.5 <= 0."""
    prob = make_linear_problem(
        A=[[0.9]], B=[[0.5]], G=[[0.2]], C=[[1.0]], D=[[0.25]],
        Q=[[1.0]], R=[[0.5]], Q_terminal=[[2.0]], horizon=1,
        u_lower=[-10.0], u_upper=[10.0],
    )
    cs = ConstraintSet(
        stage_fn=None, stage_jac=None,
        stage_counts=(0,), stage_weights=(np.zeros(0),),
        terminal_fn=lambda x: x - 0.5,
        terminal_jac=lambda x: np.ones(x.shape[:-1] + (1, 1)),
        terminal_count=1, terminal_weights=np.array([rho]),
        u_lower=np.array([-10.0]), u_upper=np.array([10.0]),
    )
    return replace(prob, constraints=cs)


def test_explicit_slack_brute_force_matches_eliminated_formulation():
    # Brute-force the one-stage problem over (u, beta) with beta kept as an
    # explicit decision variable (bounded below by the floor and by the
    # terminal direction variance); the reduced solver must match the best
    # grid value and report beta at its lower bound.
    rho, eps_sigma = 50.0, 1e-3
    prob = _one_stage_problem(rho)
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

    floor = max(eps_sigma**2, P1)
    betas = floor * np.linspace(1.0, 4.0, 121)
    lo, hi = -5.0, 5.0
    for _ in range(4):  # refine the control grid around the incumbent
        us = np.linspace(lo, hi, 401)
        U, B = np.meshgrid(us, betas, indexing="ij")
        vals = explicit_total(U, B)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        best_u, best_beta, best_val = us[i], betas[j], vals[i, j]
        span = (hi - lo) / 40
        lo, hi = best_u - span, best_u + span

    assert best_beta == pytest.approx(floor, rel=1e-12)  # monotone in beta
    assert res.objective.total == pytest.approx(best_val, rel=1e-6)
    # reported slacks: no stage rows, one terminal entry at max(eps^2, H)
    assert res.beta[0].shape == (0,)
    assert res.beta[-1] == pytest.approx([floor], rel=1e-12)


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
    replayed = total_objective(prob, x0, P0, Policy.open_loop(res.policy.u_nom, 3))
    assert res.objective.total == pytest.approx(replayed.total, rel=1e-12)


# --------------------------------------------------------------- solve: invariants

def test_objective_nonincreasing_with_iteration_budget():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=4))
    x0 = np.array([1.0, 0.5, np.pi])
    P0 = 1e-4 * np.eye(3)
    cold = total_objective(prob, x0, P0, Policy.open_loop(np.zeros((4, 2)), 3)).total
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

    g, _ = _fd_gradient(ev, var, theta, 1e-6, scalar(theta))

    t = 1e-6
    for _ in range(5):
        d = rng.normal(size=var.size)
        d /= np.linalg.norm(d)
        secondary = (scalar(theta + t * d) - scalar(theta - t * d)) / (2 * t)
        assert g @ d == pytest.approx(secondary, rel=1e-4)


@pytest.mark.parametrize("mode", ["nominal", "open_loop", "output_feedback"])
def test_fused_line_search_gradient_equals_fd_gradient(mode):
    """At an accepted full step, the gradient built from the stencil rows
    that rode in the line-search batch is the stand-alone one, bit for bit."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([1.0, 0.5, 2.0])
    P0 = 1e-4 * np.eye(3)
    opts = SolveOptions(mode=mode)
    ev = ObjectiveEvaluator(prob, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K,
                            include_uncertainty=mode != "nominal")
    var = _Variables(prob, mode)
    rng = np.random.default_rng(11)
    theta = np.concatenate([
        rng.uniform(-1.0, 1.0, size=var.n_u_vars),
        rng.normal(0.0, 0.1, size=var.n_k_vars),
    ])
    pol = var.unpack(theta)
    f = float(ev.totals(pol.u_nom, pol.feedback)[0])
    g, _ = _fd_gradient(ev, var, theta, opts.fd_step, f)
    direction = -1e-3 * g / np.linalg.norm(g)

    trial, f_trial, index, gradient = _armijo_search(ev, var, theta, f, g, direction, opts,
                                                     opts.fd_step)
    assert index == 0 and gradient is not None
    g_ref, curv_ref = _fd_gradient(ev, var, trial, opts.fd_step, f_trial)
    assert np.array_equal(gradient[0], g_ref)
    assert np.array_equal(gradient[1], curv_ref)


def test_open_loop_solve_runs_about_one_prediction_per_iteration(monkeypatch):
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg")
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


def _nan_above_half_problem():
    """Scalar linear problem whose f turns NaN for controls above 0.5, inside
    the box |u| <= 2; from x0 = -3 the unconstrained optimum lies beyond 0.5."""
    prob = make_linear_problem(
        A=[[1.0]], B=[[1.0]], G=[[0.1]], C=[[1.0]], D=[[0.1]],
        Q=[[1.0]], R=[[1e-3]], Q_terminal=[[1.0]], horizon=3,
        u_lower=[-2.0], u_upper=[2.0],
    )
    f = prob.model.f

    def f_nan_above(k, x, u, w):
        return np.where(np.asarray(u)[..., :1] > 0.5, np.nan, f(k, x, u, w))

    return replace(prob, model=replace(prob.model, f=f_nan_above))


def test_failing_trial_is_rejected_not_fatal():
    """The first full step crosses the NaN threshold, so the first
    line-search batch fails as a whole; its trials are re-scored one by one
    and the failing ones rejected."""
    problem = _nan_above_half_problem()
    for mode in ("nominal", "open_loop"):
        res = solve(problem, np.array([-3.0]), 0.01 * np.eye(1), SolveOptions(mode=mode, max_iterations=3))
        assert res.iterations > 0
        assert np.isfinite(res.objective.total)
        assert np.all(res.policy.u_nom <= 0.5)


def test_stencil_crossing_failure_boundary_ends_solve_not_fatal():
    """With a larger budget the iterates creep up to u_0 just below 0.5,
    until the +h row of the gradient stencil around an accepted trial
    crosses the threshold: the solve stops there with the best iterate."""
    problem = _nan_above_half_problem()
    for mode in ("nominal", "open_loop"):
        res = solve(problem, np.array([-3.0]), 0.01 * np.eye(1), SolveOptions(mode=mode, max_iterations=20))
        assert res.status == "line_search_failure"
        assert np.isfinite(res.objective.total)
        assert np.all(res.policy.u_nom <= 0.5)


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
    with pytest.raises(ValueError):
        SolveOptions(backtrack_factor=1.0)
