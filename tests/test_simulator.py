"""Closed-loop simulator tests: seeding, determinism, metrics, divergence."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    ConstraintSet,
    SolveOptions,
    make_linear_problem,
    make_unicycle_problem,
)
from dualmpc.controllers import RecedingHorizonController
from dualmpc.uncertainty import LinearizationError, linearize_trajectory, nominal_rollout
from dualmpc.simulator import (
    SimConfig,
    noise_stream,
    run_batch,
    simulate_run,
    summarize_records,
)

from conftest import standard_unicycle_params


class _Diag:
    status = "scripted"


class _ScriptedController:
    """Deterministic stand-in controller: returns a fixed control every step."""

    mode = "scripted"

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def reset(self):
        pass

    def step(self, belief):
        return self.u.copy(), _Diag()


def _drift_problem(a=1.0, noise=0.0, horizon=6):
    """2-state single-input linear problem, optionally unstable or noisy."""
    A = a * np.eye(2)
    B = np.eye(2)[:, :1]
    G = noise * np.eye(2)
    C = np.eye(2)
    D = 0.05 * np.eye(2)
    return make_linear_problem(A, B, G, C, D, np.eye(2), 0.1 * np.eye(1), np.eye(2),
                               horizon=horizon)


def _with_state_bound(problem, bound, weight=10.0):
    """Add one penalized row h = x[0] - bound <= 0 at every stage."""
    n_x, n_u = problem.model.n_x, problem.model.n_u
    horizon = problem.model.horizon

    def h(k, x, u):
        return x[..., :1] - bound

    def jac(k, x, u):
        batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1])
        J = np.zeros(batch + (1, n_x + n_u))
        J[..., 0, 0] = 1.0
        return J

    cs = ConstraintSet(
        stage_fn=h,
        stage_jac=jac,
        stage_counts=(1,) * horizon,
        stage_weights=tuple(np.array([weight]) for _ in range(horizon)),
        terminal_fn=None,
        terminal_jac=None,
        terminal_count=0,
        terminal_weights=np.zeros(0),
        u_lower=np.full(n_u, -np.inf),
        u_upper=np.full(n_u, np.inf),
    )
    return dataclasses.replace(problem, constraints=cs)


# -------------------------------------------------------------- noise streams

def test_noise_stream_is_reproducible_and_key_sensitive():
    a = noise_stream(7, 3, 2, 1).standard_normal(4)
    b = noise_stream(7, 3, 2, 1).standard_normal(4)
    assert np.array_equal(a, b)
    for other in ((8, 3, 2, 1), (7, 4, 2, 1), (7, 3, 1, 1), (7, 3, 2, 0)):
        assert not np.array_equal(a, noise_stream(*other).standard_normal(4))


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(init_mean=np.zeros(2), init_cov=np.eye(3))
    with pytest.raises(ValueError):
        SimConfig(init_mean=np.zeros(2), init_cov=np.eye(2), steps=0)
    with pytest.raises(ValueError):
        SimConfig(init_mean=np.zeros(2), init_cov=np.eye(2), runs=0)


# ------------------------------------------------------------ single-run loop

def test_noiseless_run_keeps_belief_on_true_state():
    params = standard_unicycle_params(horizon=5, process_std=0.0, measurement_std=0.0)
    prob = make_unicycle_problem(params)
    cfg = SimConfig(
        init_mean=[1.0, 0.6, np.pi], init_cov=np.zeros((3, 3)), steps=6, runs=1,
        master_seed=11,
    )
    ctrl = RecedingHorizonController(
        prob, SolveOptions(mode="open_loop", tolerance=1e-4, max_iterations=25)
    )
    rec = simulate_run(prob, ctrl, cfg, 0)
    assert not rec.diverged
    assert_allclose(rec.belief_means, rec.states, atol=1e-9)
    assert_allclose(rec.belief_covs, 0.0, atol=1e-12)


def test_same_seed_reproduces_record_bitwise():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    cfg = SimConfig(init_mean=[0.8, 0.5, 3.0], init_cov=1e-2 * np.eye(3), steps=4, runs=1)
    opts = SolveOptions(mode="output_feedback", tolerance=1e-4, max_iterations=15)
    rec1 = simulate_run(prob, RecedingHorizonController(prob, opts), cfg, 0)
    rec2 = simulate_run(prob, RecedingHorizonController(prob, opts), cfg, 0)
    assert np.array_equal(rec1.states, rec2.states)
    assert np.array_equal(rec1.controls, rec2.controls)
    assert np.array_equal(rec1.belief_covs, rec2.belief_covs)
    assert rec1.solver_statuses == rec2.solver_statuses


def test_initial_state_draw_honors_mean_and_covariance():
    prob = _drift_problem()
    mean = np.array([2.0, -1.0])
    cov = np.array([[0.5, 0.2], [0.2, 0.4]])
    cfg = SimConfig(init_mean=mean, init_cov=cov, steps=1, runs=400, master_seed=5)
    draws = np.array([
        simulate_run(prob, _ScriptedController([0.0]), cfg, i).states[0]
        for i in range(cfg.runs)
    ])
    assert_allclose(draws.mean(axis=0), mean, atol=0.15)
    assert_allclose(np.cov(draws.T), cov, atol=0.15)


def test_recorded_cost_and_flags_follow_true_state():
    # Known constraint row (x[0] <= 0.8) lets every realized metric be
    # recomputed by hand from the recorded trajectory.
    prob = _with_state_bound(_drift_problem(), bound=0.8)
    cfg = SimConfig(init_mean=[1.0, 1.0], init_cov=0.04 * np.eye(2), steps=3, runs=1,
                    master_seed=2)
    u_fix = np.array([0.3])
    rec = simulate_run(prob, _ScriptedController(u_fix), cfg, 0)
    assert not rec.diverged
    for t in range(cfg.steps):
        x = rec.states[t]
        h = prob.constraints.stage_values(1, x, u_fix)
        expected = float(prob.cost.stage_value(0, x, u_fix))
        expected += float(np.sum(prob.constraints.stage_weights[1] * np.maximum(h, 0.0)))
        assert rec.stage_costs[t] == pytest.approx(expected, rel=1e-12)
        assert bool(rec.violation_flags[t]) == bool(np.any(h > 0.0))
        assert_allclose(rec.constraint_values[t], h)
    assert rec.total_cost == pytest.approx(float(np.sum(rec.stage_costs)), rel=1e-12)


def test_divergence_is_flagged_and_padded_with_nan():
    # Unstable autonomous system: ||x_t|| grows 8x per step and crosses the
    # divergence threshold mid-run.
    prob = _drift_problem(a=8.0)
    cfg = SimConfig(init_mean=[1e3, 1e3], init_cov=np.zeros((2, 2)), steps=12, runs=1)
    rec = simulate_run(prob, _ScriptedController([0.0]), cfg, 0)
    assert rec.diverged
    assert np.isnan(rec.states[-1]).all()
    assert np.isnan(rec.stage_costs[-1])
    finite_steps = int(np.sum(np.all(np.isfinite(rec.states), axis=1)))
    assert 1 < finite_steps < cfg.steps + 1


def _growing_problem_with_bad_jacobian(limit=5.0):
    """x[1] grows 1.5x per step out of the control's reach; the analytic
    dynamics Jacobian turns NaN once x[1] exceeds ``limit``."""
    prob = make_linear_problem(np.diag([0.5, 1.5]), np.eye(2)[:, :1], np.zeros((2, 2)),
                               np.eye(2), 0.05 * np.eye(2), np.eye(2), 0.1 * np.eye(1),
                               np.eye(2), horizon=2)
    good_jac = prob.model.f_jac

    def f_jac(k, x, u, w):
        A, B, G = good_jac(k, x, u, w)
        if np.any(np.asarray(x)[..., 1] > limit):
            A = np.full(A.shape, np.nan)
        return A, B, G

    return dataclasses.replace(prob, model=dataclasses.replace(prob.model, f_jac=f_jac))


def test_bad_linearization_flags_the_run_not_the_batch():
    prob = _growing_problem_with_bad_jacobian()
    traj = nominal_rollout(prob.model, np.array([0.0, 4.0]), np.zeros((2, 1)))
    with pytest.raises(LinearizationError, match="non-finite"):
        linearize_trajectory(prob.model, traj)

    # The solve at step t linearizes at x_{t+1}, with x[1] = 1.5^(t+1) > 5
    # first at t = 3.
    opts = SolveOptions(mode="open_loop", max_iterations=5)
    cfg = SimConfig(init_mean=[0.0, 1.0], init_cov=np.zeros((2, 2)), steps=6, runs=2)
    rec = simulate_run(prob, RecedingHorizonController(prob, opts), cfg, 0)
    assert rec.diverged
    assert np.isfinite(rec.states[:4]).all()
    assert np.isnan(rec.states[4:]).all()
    summary, recs = run_batch(prob, lambda: RecedingHorizonController(prob, opts), cfg)
    assert summary.diverged_runs == 2
    assert all(r.diverged for r in recs)


# ----------------------------------------------------------------- batch runs

def test_run_records_do_not_depend_on_batch_size():
    prob = _drift_problem(noise=0.1)
    cfg_small = SimConfig(init_mean=[1.0, 0.0], init_cov=0.1 * np.eye(2), steps=5, runs=2,
                          master_seed=9)
    cfg_large = dataclasses.replace(cfg_small, runs=6)
    _, recs_small = run_batch(prob, lambda: _ScriptedController([0.1]), cfg_small)
    _, recs_large = run_batch(prob, lambda: _ScriptedController([0.1]), cfg_large)
    for small, large in zip(recs_small, recs_large[:2]):
        assert small.run_index == large.run_index
        assert np.array_equal(small.states, large.states)
        assert np.array_equal(small.stage_costs, large.stage_costs)


def test_single_run_summary_equals_record_statistics():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    cfg = SimConfig(init_mean=[1.0, 0.8, np.pi], init_cov=1e-2 * np.eye(3), steps=6, runs=1)
    opts = SolveOptions(mode="nominal", tolerance=1e-4, max_iterations=20)
    summary, recs = run_batch(
        prob, lambda: RecedingHorizonController(prob, opts), cfg, "nominal"
    )
    rec = recs[0]
    assert summary.runs == 1 and summary.steps == cfg.steps
    assert summary.mean_total_cost == pytest.approx(rec.total_cost)
    assert summary.std_total_cost == pytest.approx(0.0, abs=1e-12)
    assert summary.mean_stage_cost == pytest.approx(rec.total_cost / cfg.steps)
    assert summary.violation_frequency == pytest.approx(rec.violation_count / cfg.steps)
    assert summary.mean_boundary_distance == pytest.approx(float(np.mean(rec.states[:, 0])))
    assert summary.mean_abs_lateral == pytest.approx(float(np.mean(np.abs(rec.states[5:, 1]))))
    assert summary.mean_estimate_cov_trace == pytest.approx(
        float(np.mean(np.trace(rec.belief_covs[1:], axis1=-2, axis2=-1)))
    )


def test_violation_frequency_is_weighted_mean_over_run_subsets():
    prob = _with_state_bound(_drift_problem(noise=0.3), bound=0.8)
    cfg4 = SimConfig(init_mean=[0.5, 0.0], init_cov=0.2 * np.eye(2), steps=4, runs=4,
                     master_seed=3)
    cfg2 = dataclasses.replace(cfg4, runs=2)
    summary4, recs4 = run_batch(prob, lambda: _ScriptedController([0.25]), cfg4, "c")
    summary2, _ = run_batch(prob, lambda: _ScriptedController([0.25]), cfg2, "c")
    flags4 = np.array([r.violation_flags for r in recs4])
    assert 0.0 < summary4.violation_frequency < 1.0  # both outcomes observed
    freq_tail = float(np.mean(flags4[2:]))
    combined = 0.5 * summary2.violation_frequency + 0.5 * freq_tail
    assert summary4.violation_frequency == pytest.approx(combined, abs=1e-12)


def test_diverged_runs_counted_and_excluded_from_means():
    prob = _drift_problem(a=8.0)
    cfg = SimConfig(init_mean=[1e3, 1e3], init_cov=np.eye(2), steps=10, runs=3)
    summary, recs = run_batch(prob, lambda: _ScriptedController([0.0]), cfg, "unstable")
    assert summary.diverged_runs == 3
    assert all(r.diverged for r in recs)
    assert np.isnan(summary.mean_total_cost)
    assert np.isnan(summary.violation_frequency)


def test_summarize_records_sorts_by_run_index():
    prob = _drift_problem(noise=0.1)
    cfg = SimConfig(init_mean=[1.0, 0.0], init_cov=0.1 * np.eye(2), steps=3, runs=3,
                    master_seed=1)
    recs = [simulate_run(prob, _ScriptedController([0.1]), cfg, i) for i in (2, 0, 1)]
    summary = summarize_records("c", cfg, recs)
    _, batch_recs = run_batch(prob, lambda: _ScriptedController([0.1]), cfg, "c")
    batch_summary = summarize_records("c", cfg, batch_recs)
    assert summary == batch_summary
