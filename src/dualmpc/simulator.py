"""Seeded closed-loop Monte-Carlo harness.

Simulates the true stochastic system with a receding-horizon controller and
the EKF in the loop, on splittable counter-based noise streams: every draw
is keyed by (master seed, run, step, slot), so run i's record does not
depend on how many runs the batch contains or on execution order.

The realized closed-loop metric is the original nonsmooth penalized stage
cost on the true trajectory (not the smoothed surrogate the solver
minimizes), evaluated at the applied control and the state it was applied
to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .controllers import RecedingHorizonController
from .estimation import BeliefState, ekf_step
from .model import Array, ControlProblem, ModelError, psd_sqrt
from .uncertainty import NumericalError

# Draw slots within a (run, step) key.  The initial-state draw uses step 0.
SLOT_INIT = 0
SLOT_PROCESS = 1
SLOT_MEASUREMENT = 2

_DIVERGENCE_NORM = 1e9


def noise_stream(master_seed: int, run: int, step: int, slot: int) -> np.random.Generator:
    """Independent generator for one (run, step, slot) draw.

    Philox keyed through a spawn key, so streams are stable under any
    batch size or execution order.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(run, step, slot))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop experiment configuration.

    The true initial state is drawn consistently with the belief handed to
    the controller: x_0 = mean + L zeta with L a square root of cov.
    """

    init_mean: Array
    init_cov: Array
    steps: int = 20
    runs: int = 20
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "init_mean", np.asarray(self.init_mean, dtype=float))
        object.__setattr__(self, "init_cov", np.asarray(self.init_cov, dtype=float))
        if self.steps < 1 or self.runs < 1 or self.master_seed < 0:
            raise ValueError("SimConfig needs steps >= 1, runs >= 1 and master_seed >= 0")
        if self.init_cov.shape != (self.init_mean.size, self.init_mean.size):
            raise ValueError("init_cov shape does not match init_mean")
        psd_sqrt(self.init_cov)  # raises ModelError unless finite and PSD


@dataclass
class ClosedLoopRecord:
    """One closed-loop trajectory and its realized metrics.

    Arrays hold ``steps`` entries (states and beliefs one more for the
    initial point); after a divergence the remaining entries are NaN and
    ``diverged`` is set.
    """

    run_index: int
    states: Array  # (steps+1, n_x) true states
    belief_means: Array  # (steps+1, n_x)
    belief_covs: Array  # (steps+1, n_x, n_x)
    controls: Array  # (steps, n_u)
    stage_costs: Array  # (steps,) nonsmooth penalized cost at (x_t, u_t)
    constraint_values: Array  # (steps, n_h) stage constraints at (x_t, u_t)
    violation_flags: Array  # (steps,) bool, any constraint > 0
    solver_statuses: list = field(default_factory=list)
    diverged: bool = False

    @property
    def total_cost(self) -> float:
        return float(np.nansum(self.stage_costs))

    @property
    def violation_count(self) -> int:
        return int(np.sum(self.violation_flags))


@dataclass(frozen=True)
class MetricsSummary:
    """Batch aggregates for comparing controllers in closed loop.

    ``mean_boundary_distance`` is the signed distance to the first state
    bound (negative inside the violated region); ``mean_abs_lateral`` is
    the mean |second state| from step 5 on (how tightly the controller
    hugs the measurement-friendly axis); both are unicycle-oriented
    readings of generic state components.
    """

    controller: str
    runs: int
    steps: int
    mean_total_cost: float
    std_total_cost: float
    mean_stage_cost: float
    violation_frequency: float
    mean_boundary_distance: float
    mean_abs_lateral: float
    mean_estimate_cov_trace: float
    diverged_runs: int

    def __post_init__(self):
        if not (np.isnan(self.violation_frequency) or 0.0 <= self.violation_frequency <= 1.0):
            raise ValueError("violation frequency must lie in [0, 1]")


def _realized_stage_cost(problem: ControlProblem, h: Array, weights: Array, z: Array) -> float:
    """True penalized stage cost at z = (x, u): l(z) + sum_i w_i max(0, h_i)."""
    value = float(problem.cost.value(0, z))
    if h.size:
        value += float(np.sum(weights * np.maximum(h, 0.0)))
    return value


def _metric_weights(problem: ControlProblem) -> Array:
    """The constraint weights of the realized metric: the rows that apply
    to a free state and a control.

    Stage 0 of the planning problem may drop state rows (its state is
    given) and stage N has no control, so the generic per-step constraint
    is the one from stage 1 when N > 1.  At N = 1 each row takes the larger
    of its stage-0 (control) and stage-1 (state) weights.
    """
    w = problem.constraints.weights
    return w[1] if problem.model.horizon > 1 else np.maximum(w[0], w[1])


def simulate_run(
    problem: ControlProblem,
    controller: RecedingHorizonController,
    config: SimConfig,
    run_index: int,
) -> ClosedLoopRecord:
    """Run one seeded closed-loop trajectory.

    The controller sees only the EKF belief; the true system evolves with
    freshly drawn standardized noises.  A diverged state or a failed
    filter/solve linear algebra step flags the run and stops it early
    instead of aborting the batch.
    """
    model = problem.model
    cs = problem.constraints
    weights = _metric_weights(problem)
    rows = weights > 0.0
    w_h = weights[rows]
    steps = config.steps

    controller.reset()
    zeta = noise_stream(config.master_seed, run_index, 0, SLOT_INIT).standard_normal(model.n_x)
    x = config.init_mean + psd_sqrt(config.init_cov) @ zeta
    belief = BeliefState(mean=config.init_mean, cov=config.init_cov)

    states = np.full((steps + 1, model.n_x), np.nan)
    belief_means = np.full((steps + 1, model.n_x), np.nan)
    belief_covs = np.full((steps + 1, model.n_x, model.n_x), np.nan)
    controls = np.full((steps, model.n_u), np.nan)
    stage_costs = np.full(steps, np.nan)
    h_values = np.full((steps, w_h.size), np.nan)
    violations = np.zeros(steps, dtype=bool)
    statuses: list[str] = []

    states[0] = x
    belief_means[0] = belief.mean
    belief_covs[0] = belief.cov
    diverged = False

    for t in range(steps):
        try:
            u, diag = controller.step(belief)
            w = noise_stream(config.master_seed, run_index, t, SLOT_PROCESS).standard_normal(model.n_w)
            x_next = model.f(x, u, w)
            v = noise_stream(config.master_seed, run_index, t, SLOT_MEASUREMENT).standard_normal(model.n_v)
            y = model.g(x_next, v)
            belief = ekf_step(model, belief, u, y)
        except (NumericalError, ModelError):
            diverged = True
            break

        z = np.concatenate([x, u])
        h = cs.values(z)[rows]
        controls[t] = u
        h_values[t] = h
        violations[t] = bool(np.any(h > 0.0))
        stage_costs[t] = _realized_stage_cost(problem, h, w_h, z)
        statuses.append(diag.status)
        states[t + 1] = x_next
        belief_means[t + 1] = belief.mean
        belief_covs[t + 1] = belief.cov
        x = x_next
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > _DIVERGENCE_NORM:
            diverged = True
            break

    return ClosedLoopRecord(
        run_index=run_index,
        states=states,
        belief_means=belief_means,
        belief_covs=belief_covs,
        controls=controls,
        stage_costs=stage_costs,
        constraint_values=h_values,
        violation_flags=violations,
        solver_statuses=statuses,
        diverged=diverged,
    )


def run_readings(record: ClosedLoopRecord, steps: int) -> tuple[float, Array, Array]:
    """The readings of one run of ``steps`` steps: its stage cost
    total/steps, the series |r_y| from step min(5, steps) on, and the series
    tr P_hat of the beliefs after each step."""
    return (record.total_cost / steps, np.abs(record.states[min(5, steps):, 1]),
            np.trace(record.belief_covs[1:], axis1=-2, axis2=-1))


def summarize_records(controller_name: str, config: SimConfig, records: list) -> MetricsSummary:
    """Aggregate per-run records (diverged runs counted, excluded from means),
    pooling the series of :func:`run_readings` over the runs."""
    records = sorted(records, key=lambda r: r.run_index)
    live = [r for r in records if not r.diverged]
    diverged = len(records) - len(live)
    if not live:
        nan = float("nan")
        return MetricsSummary(
            controller=controller_name, runs=len(records), steps=config.steps,
            mean_total_cost=nan, std_total_cost=nan, mean_stage_cost=nan,
            violation_frequency=nan, mean_boundary_distance=nan,
            mean_abs_lateral=nan, mean_estimate_cov_trace=nan,
            diverged_runs=diverged,
        )
    totals = np.array([r.total_cost for r in live])
    violation_freq = float(np.mean([r.violation_flags for r in live]))
    boundary = float(np.mean([r.states[:, 0] for r in live]))
    _, lateral, cov_trace = zip(*(run_readings(r, config.steps) for r in live))
    return MetricsSummary(
        controller=controller_name,
        runs=len(records),
        steps=config.steps,
        mean_total_cost=float(np.mean(totals)),
        std_total_cost=float(np.std(totals)),
        mean_stage_cost=float(np.mean(totals)) / config.steps,
        violation_frequency=violation_freq,
        mean_boundary_distance=boundary,
        mean_abs_lateral=float(np.mean(lateral)),
        mean_estimate_cov_trace=float(np.mean(cov_trace)),
        diverged_runs=diverged,
    )


# The per-run readings that paired_differences compares, named as in MetricsSummary.
PAIRED_READINGS = ("mean_stage_cost", "mean_abs_lateral", "mean_estimate_cov_trace")


def paired_differences(config: SimConfig, records: dict) -> dict:
    """Run-paired comparisons of ``output_feedback`` with each other
    controller of ``records`` (name -> run records): per reading of
    PAIRED_READINGS, the per-run mean of :func:`run_readings`, the mean of
    the differences ``output_feedback - controller``, its standard error and
    the number of runs where ``output_feedback`` is lower, over the runs
    that diverged under neither.  A controller with fewer than 2 such runs
    is left out."""

    def readings(r: ClosedLoopRecord) -> Array:
        return np.array([np.mean(series) for series in run_readings(r, config.steps)])

    reference = {r.run_index: readings(r) for r in records.get("output_feedback", ()) if not r.diverged}
    out = {}
    for name, runs in records.items():
        d = np.array([reference[r.run_index] - readings(r) for r in sorted(runs, key=lambda r: r.run_index)
                      if not r.diverged and r.run_index in reference])
        if name == "output_feedback" or len(d) < 2:
            continue
        out[name] = {"runs": len(d)}
        for reading, column in zip(PAIRED_READINGS, d.T):
            out[name][reading] = {"mean": float(np.mean(column)),
                                  "std_error": float(np.std(column, ddof=1) / np.sqrt(len(d))),
                                  "output_feedback_lower": int(np.sum(column < 0.0))}
    return out


def run_batch(
    problem: ControlProblem,
    controller_factory: Callable[[], RecedingHorizonController],
    config: SimConfig,
    controller_name: str = "",
) -> tuple[MetricsSummary, list]:
    """Simulate all runs and aggregate.

    Each run gets its own controller instance, so warm-start state never
    crosses runs, and every noise draw is keyed by (seed, run, step, slot),
    so run i's record does not depend on the other runs.
    """
    name = controller_name or controller_factory().mode
    records = [simulate_run(problem, controller_factory(), config, i) for i in range(config.runs)]
    return summarize_records(name, config, records), records
