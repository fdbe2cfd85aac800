"""Closed-loop simulator tests: seeding, determinism, metrics, divergence."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    ConstraintSet,
    ModelError,
    SolveOptions,
    make_linear_problem,
    make_unicycle_problem,
)
from dualmpc import simulator
from dualmpc.controllers import RecedingHorizonController
from dualmpc.estimation import ekf_step
from dualmpc.uncertainty import (
    LinearizationError,
    RolloutError,
    SingularInnovationError,
    linearize_trajectory,
    nominal_rollout,
)
from dualmpc.simulator import (
    ClosedLoopRecord,
    SimConfig,
    noise_stream,
    paired_differences,
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
    """Add one penalized row h = x[0] - bound <= 0 at stages 0..N-1."""
    n_x, n_u = problem.model.n_x, problem.model.n_u
    horizon = problem.model.horizon
    weights = np.full((horizon + 1, 1), weight)
    weights[horizon] = 0.0
    cs = ConstraintSet(
        matrix=np.eye(1, n_x + n_u),
        offset=np.array([-bound]),
        weights=weights,
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


@pytest.mark.parametrize("init_cov, message", [
    ([[1.0, 2.0], [2.0, 1.0]], "not positive semidefinite"),
    ([[np.nan, 0.0], [0.0, 1.0]], "non-finite"),
])
def test_sim_config_rejects_an_initial_covariance_without_a_square_root(init_cov, message):
    """An indefinite or non-finite init_cov has no square root to draw the
    initial states with, so the experiment is rejected when it is built,
    before any run starts."""
    with pytest.raises(ModelError, match=message):
        SimConfig(init_mean=np.zeros(2), init_cov=init_cov)


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
        z = np.concatenate([rec.states[t], u_fix])
        h = prob.constraints.values(z)
        expected = float(prob.cost.value(0, z))
        expected += float(np.sum(prob.constraints.weights[1] * np.maximum(h, 0.0)))
        assert rec.stage_costs[t] == pytest.approx(expected, rel=1e-12)
        assert bool(rec.violation_flags[t]) == bool(np.any(h > 0.0))
        assert_allclose(rec.constraint_values[t], h)
    assert rec.total_cost == pytest.approx(float(np.sum(rec.stage_costs)), rel=1e-12)


def test_horizon_one_metric_keeps_state_and_control_rows():
    """At horizon 1 the unicycle's stage 0 drops its r_x row and stage 1 =
    N its control rows, so the realized metric takes each row's larger
    weight of the two: a scripted run from behind the r_x wall records the
    same rows, costs and flags as at horizon 2, and every step is flagged."""
    cfg = SimConfig(init_mean=[-0.5, 0.5, 0.0], init_cov=1e-6 * np.eye(3), steps=3, runs=1, master_seed=3)
    recs = [simulate_run(make_unicycle_problem(standard_unicycle_params(horizon=N)),
                         _ScriptedController([0.5, 0.1]), cfg, 0) for N in (1, 2)]
    one, two = recs
    assert one.constraint_values.shape == (3, 5)
    for field in ("states", "constraint_values", "stage_costs", "violation_flags"):
        assert np.array_equal(getattr(one, field), getattr(two, field))
    assert np.all(one.violation_flags) and np.all(one.stage_costs > 100.0)


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

    def f_jac(x, u):
        A, B, G = good_jac(x, u)
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


def test_non_finite_control_flags_the_run_not_the_batch():
    """A controller that returns a NaN control makes the unicycle's step
    raise ModelError: that run is flagged diverged from the step on, and the
    next run of the batch completes."""
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    cfg = SimConfig(init_mean=[1.0, 0.5, np.pi], init_cov=0.01 * np.eye(3), steps=4, runs=2)
    controllers = iter([_ScriptedController([np.nan, 0.0]), _ScriptedController([0.5, 0.0])])
    summary, (bad, good) = run_batch(prob, lambda: next(controllers), cfg, "scripted")
    assert summary.diverged_runs == 1
    assert bad.diverged and np.isfinite(bad.states[0]).all() and np.isnan(bad.states[1:]).all()
    assert not good.diverged and np.isfinite(good.states).all()


@pytest.mark.parametrize("error", [RolloutError, SingularInnovationError])
def test_filter_failure_flags_the_run_not_the_batch(monkeypatch, error):
    """A filter step that raises at step 2 of run 1 flags that run diverged
    from that step on, NaN-padded, and runs 0 and 2 of the batch keep the
    records they have alone, bit for bit."""
    prob = _with_state_bound(_drift_problem(noise=0.1), bound=1.2)
    cfg = SimConfig(init_mean=[1.0, 0.0], init_cov=0.1 * np.eye(2), steps=5, runs=3, master_seed=3)
    alone = {i: simulate_run(prob, _ScriptedController([0.1]), cfg, i) for i in (0, 2)}
    failing_steps = iter(range(cfg.steps))

    def failing_ekf_step(model, belief, u, y):
        if u[0] == 0.3 and next(failing_steps) == 2:  # run 1's controller, at step 2
            raise error("injected")
        return ekf_step(model, belief, u, y)

    monkeypatch.setattr(simulator, "ekf_step", failing_ekf_step)
    controllers = iter([_ScriptedController([0.1]), _ScriptedController([0.3]), _ScriptedController([0.1])])
    summary, records = run_batch(prob, lambda: next(controllers), cfg, "scripted")
    assert summary.diverged_runs == 1
    bad = records[1]
    assert bad.diverged and bad.solver_statuses == ["scripted"] * 2
    assert np.isfinite(bad.states[:3]).all() and np.isnan(bad.states[3:]).all()
    assert np.isfinite(bad.belief_covs[:3]).all() and np.isnan(bad.belief_covs[3:]).all()
    assert np.isfinite(bad.controls[:2]).all() and np.isnan(bad.controls[2:]).all()
    assert np.isfinite(bad.stage_costs[:2]).all() and np.isnan(bad.stage_costs[2:]).all()
    for i, expected in alone.items():
        got = records[i]
        assert not got.diverged and got.solver_statuses == expected.solver_statuses
        for name in ("states", "belief_means", "belief_covs", "controls", "stage_costs", "constraint_values",
                     "violation_flags"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name


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


def _scripted_record(run, stage_cost, lateral, cov_trace, steps=6, diverged=False):
    """A record whose per-run readings are the given mean stage cost, mean
    |second state| from step 5 on and mean filter-covariance trace."""
    states = np.zeros((steps + 1, 2))
    states[5:, 1] = -lateral
    return ClosedLoopRecord(
        run_index=run, states=states, belief_means=states.copy(),
        belief_covs=np.broadcast_to(0.5 * cov_trace * np.eye(2), (steps + 1, 2, 2)),
        controls=np.zeros((steps, 1)), stage_costs=np.full(steps, stage_cost),
        constraint_values=np.zeros((steps, 0)), violation_flags=np.zeros(steps, dtype=bool), diverged=diverged,
    )


def test_paired_differences_compare_output_feedback_run_by_run():
    """Per reading, the mean and standard error of the per-run differences
    output_feedback - controller and the count of runs where output_feedback
    is lower, paired by run index whatever the record order, over the runs
    that diverged under neither controller; nothing without output_feedback
    or with fewer than two such runs."""
    cfg = SimConfig(init_mean=[0.0, 0.0], init_cov=np.eye(2), steps=6, runs=4)
    ref = [_scripted_record(i, c, 2.0 * c, 0.5 * c) for i, c in enumerate((1.0, 2.0, 3.0, 4.0))]
    other = [_scripted_record(i, c, 2.0 * c, 0.5 * c, diverged=i == 3)
             for i, c in reversed(list(enumerate((2.0, 2.0, 5.0, 1.0))))]
    out = paired_differences(cfg, {"nominal": other, "output_feedback": ref})
    assert list(out) == ["nominal"] and out["nominal"]["runs"] == 3
    for reading, scale in zip(simulator.PAIRED_READINGS, (1.0, 2.0, 0.5), strict=True):
        stats = out["nominal"][reading]  # differences (-1, 0, -2) times the scale
        assert stats["mean"] == pytest.approx(-scale)
        assert stats["std_error"] == pytest.approx(scale / np.sqrt(3.0))
        assert stats["output_feedback_lower"] == 2
    assert paired_differences(cfg, {"nominal": other}) == {}
    assert paired_differences(cfg, {"output_feedback": ref}) == {}
    assert paired_differences(cfg, {"nominal": other[:2], "output_feedback": ref}) == {}
