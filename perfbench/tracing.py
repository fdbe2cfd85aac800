"""Span tracing at the layer boundaries of the dualmpc package.

The tracer replaces, for the duration of a traced run, the public names each
caller module imports (for example ``dualmpc.objective.nominal_rollout`` and
``dualmpc.cli.nominal_rollout``) and the public methods of the evaluator and
controller classes with wrappers that record one span per call: name, start,
end, parent span and the id of the solve or closed-loop run it belongs to.
Spans stay in memory until the run ends.  A boundary whose name no longer
exists is skipped and reported as absent, so fusing or removing a function
later does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np


def _rows(shape, core: int) -> int:
    """Number of batch rows of an array whose last ``core`` axes are one item."""
    shape = tuple(shape)
    return int(math.prod(shape[: len(shape) - core]))


def _solve_info(args, kwargs, result) -> dict:
    options = args[3] if len(args) > 3 else kwargs.get("options")
    return {
        "mode": getattr(options, "mode", "output_feedback"),
        "iterations": result.iterations,
        "status": result.status,
        "stationarity": result.stationarity,
    }


# (owner, attribute, span name, info hook).  The owner is a module, or
# "module:Class" for a method.  Each span name belongs to the layer named by
# its first dotted component.
BOUNDARIES = (
    ("dualmpc.cli", "main", "cli.main", None),
    ("pathlib:Path", "write_text", "cli.write", None),
    ("dualmpc.cli", "load_config", "config.load_config", None),
    ("dualmpc.cli", "solve", "ocp_solver.solve", _solve_info),
    ("dualmpc.controllers", "solve", "ocp_solver.solve", _solve_info),
    ("dualmpc.cli", "run_batch", "simulator.run_batch", None),
    ("dualmpc.simulator", "simulate_run", "simulator.run", None),
    ("dualmpc.simulator", "ekf_predict", "estimation.ekf", None),
    ("dualmpc.simulator", "ekf_update", "estimation.ekf", None),
    ("dualmpc.controllers:RecedingHorizonController", "step", "controllers.step",
     lambda a, k, r: {"status": r[1].status}),
    ("dualmpc.objective:ObjectiveEvaluator", "prediction", "objective.prediction",
     lambda a, k, r: _rows(r.traj.states.shape, 2)),
    ("dualmpc.objective:ObjectiveEvaluator", "parts_from_prediction", "objective.parts",
     lambda a, k, r: _rows(np.shape(r[0]), 0)),
    ("dualmpc.objective:ObjectiveEvaluator", "totals", "objective.totals", None),
    ("dualmpc.objective:ObjectiveEvaluator", "totals_and_prediction", "objective.totals_and_prediction",
     lambda a, k, r: list(np.shape(r[0]))),
    ("dualmpc.objective:ObjectiveEvaluator", "breakdown", "objective.breakdown", None),
    ("dualmpc.objective:ObjectiveEvaluator", "constraint_variances", "objective.constraint_variances", None),
    ("dualmpc.objective", "expected_relu", "objective.expected_relu", None),
    ("dualmpc.objective", "nominal_rollout", "uncertainty.rollout",
     lambda a, k, r: _rows(r.states.shape, 2)),
    ("dualmpc.cli", "nominal_rollout", "uncertainty.rollout",
     lambda a, k, r: _rows(r.states.shape, 2)),
    ("dualmpc.objective", "linearize_trajectory", "uncertainty.linearize",
     lambda a, k, r: _rows(r.A.shape, 3)),
    ("dualmpc.cli", "linearize_trajectory", "uncertainty.linearize",
     lambda a, k, r: _rows(r.A.shape, 3)),
    ("dualmpc.objective", "kalman_recursion", "uncertainty.kalman",
     lambda a, k, r: _rows(r[0].shape, 3)),
    ("dualmpc.cli", "kalman_recursion", "uncertainty.kalman",
     lambda a, k, r: _rows(r[0].shape, 3)),
    ("dualmpc.objective", "propagate_covariance", "uncertainty.propagate",
     lambda a, k, r: _rows(r.sigma.shape, 3)),
    ("dualmpc.cli", "propagate_covariance", "uncertainty.propagate",
     lambda a, k, r: _rows(r.sigma.shape, 3)),
    ("dualmpc.unicycle", "rk4_step", "model.rk4", None),
    ("dualmpc.unicycle", "rk4_step_with_jacobian", "model.rk4_jacobian", None),
)

# Spans that start a new operation id: one CLI call (a plan solve) and one
# closed-loop run.
OPERATION_SPANS = {"cli.main", "simulator.run"}

_NAME, _START, _END, _PARENT, _OP, _INFO = range(6)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Records nested spans; install() wraps the boundaries, uninstall() restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack
        starts_op = name in OPERATION_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            op = index if starts_op or parent < 0 else spans[parent][_OP]
            record = [name, 0.0, 0.0, parent, op, None]
            spans.append(record)
            stack.append(index)
            record[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = time.perf_counter()
                stack.pop()
            if info is not None:
                record[_INFO] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, info in BOUNDARIES:
            target = _resolve(owner)
            original = getattr(target, attr, None)
            if original is None:
                self.absent.append(f"{owner}.{attr}")
                continue
            own = attr in vars(target)
            self._saved.append((target, attr, original, own))
            setattr(target, attr, self.wrap(name, original, info))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original, own = self._saved.pop()
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def write(self, path: Path) -> None:
        t0 = self.spans[0][_START] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op", "info"],
            "absent": self.absent,
            "spans": [[s[_NAME], s[_START] - t0, s[_END] - t0, s[_PARENT], s[_OP], s[_INFO]] for s in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span, for the tracing overhead estimate."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", noop)
    best_wrapped = best_plain = math.inf
    for _ in range(3):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        best_wrapped = min(best_wrapped, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        best_plain = min(best_plain, time.perf_counter() - t0)
    return max(best_wrapped - best_plain, 0.0) / samples


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer counts and self times from one traced run's spans.

    A span's self time is its duration minus the durations of its direct
    children.  Layers that the workload does not use report their self time
    as a share of the traced time (zero when idle) instead of in seconds.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[_PARENT] >= 0:
            child_time[s[_PARENT]] += s[_END] - s[_START]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[_NAME]
        self_s[name] = self_s.get(name, 0.0) + (s[_END] - s[_START]) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(s[_INFO], int):
            rows[name] = rows.get(name, 0) + s[_INFO]
    traced_s = sum(s[_END] - s[_START] for s in spans if s[_PARENT] < 0)

    def parent_name(s):
        return spans[s[_PARENT]][_NAME] if s[_PARENT] >= 0 else None

    solves = [s[_INFO] for s in spans if s[_NAME] == "ocp_solver.solve"]
    solve_s = sum(s[_END] - s[_START] for s in spans if s[_NAME] == "ocp_solver.solve")
    iterations = sum(info["iterations"] for info in solves)
    accepted = sum(info["iterations"] - (info["status"] == "line_search_failure") for info in solves)
    trial_rows = sum(
        math.prod(s[_INFO]) for s in spans
        if s[_NAME] == "objective.totals_and_prediction" and s[_INFO]
    )
    gain_rows = sum(
        s[_INFO] for s in spans if s[_NAME] == "objective.parts" and parent_name(s) == "ocp_solver.solve"
    )
    steps = [s[_INFO] for s in spans if s[_NAME] == "controllers.step"]
    # The CLI stage table re-runs the prediction outside any solve.
    table = [s for s in spans if s[_NAME].startswith("uncertainty.") and parent_name(s) == "cli.main"]

    def share(seconds: float) -> float:
        return seconds / traced_s if traced_s > 0 else 0.0

    metrics = {
        "uncertainty.rollout.self_s": (self_s.get("uncertainty.rollout", 0.0), "s"),
        "uncertainty.rollout.rows": (rows.get("uncertainty.rollout", 0), "count"),
        "uncertainty.linearize.self_s": (self_s.get("uncertainty.linearize", 0.0), "s"),
        "uncertainty.kalman.self_s": (self_s.get("uncertainty.kalman", 0.0), "s"),
        "uncertainty.propagate.self_s": (self_s.get("uncertainty.propagate", 0.0), "s"),
        "uncertainty.propagate.rows": (rows.get("uncertainty.propagate", 0), "count"),
        "model.rk4.self_s": (self_s.get("model.rk4", 0.0), "s"),
        "model.rk4_jacobian.self_s": (self_s.get("model.rk4_jacobian", 0.0), "s"),
        "objective.prediction.self_s": (self_s.get("objective.prediction", 0.0), "s"),
        "objective.prediction.calls": (calls.get("objective.prediction", 0), "count"),
        "objective.parts.self_s": (self_s.get("objective.parts", 0.0), "s"),
        "objective.expected_relu.self_s": (self_s.get("objective.expected_relu", 0.0), "s"),
        "ocp_solver.self_s": (self_s.get("ocp_solver.solve", 0.0), "s"),
        "ocp_solver.solves": (len(solves), "count"),
        "ocp_solver.iterations": (iterations, "count"),
        "ocp_solver.ms_per_iteration": (1e3 * solve_s / iterations if iterations else 0.0, "ms"),
        "ocp_solver.full_eval_rows": (rows.get("objective.prediction", 0), "count"),
        "ocp_solver.gain_eval_rows": (gain_rows, "count"),
        "ocp_solver.ls_useful_ratio": (accepted / trial_rows if trial_rows else 0.0, "ratio"),
        "ocp_solver.stationarity_max": (max((i["stationarity"] for i in solves), default=0.0), "1"),
        "ocp_solver.max_iter_frac": (
            sum(i["status"] == "max_iter" for i in solves) / len(solves) if solves else 0.0, "frac"),
        "controllers.step.self_frac": (share(self_s.get("controllers.step", 0.0)), "frac"),
        "controllers.steps": (len(steps), "count"),
        "controllers.capped_frac": (
            sum(i["status"] == "max_iter" for i in steps) / len(steps) if steps else 0.0, "frac"),
        "estimation.ekf.self_frac": (share(self_s.get("estimation.ekf", 0.0)), "frac"),
        "estimation.ekf.calls": (calls.get("estimation.ekf", 0), "count"),
        "simulator.self_frac": (
            share(self_s.get("simulator.run", 0.0) + self_s.get("simulator.run_batch", 0.0)), "frac"),
        "config.load_s": (
            statistics.median([s[_END] - s[_START] for s in spans if s[_NAME] == "config.load_config"] or [0.0]),
            "s"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
        "cli.write_s": (self_s.get("cli.write", 0.0), "s"),
        "cli.stage_table_frac": (share(sum(s[_END] - s[_START] for s in table)), "frac"),
        "cli.stage_table_rows": (sum(s[_INFO] for s in table if s[_NAME] == "uncertainty.rollout"), "count"),
    }
    for mode in ("nominal", "open_loop", "output_feedback"):
        mode_s = sum(s[_END] - s[_START] for s in spans
                     if s[_NAME] == "ocp_solver.solve" and s[_INFO]["mode"] == mode)
        mode_it = sum(i["iterations"] for i in solves if i["mode"] == mode)
        metrics[f"ocp_solver.ms_per_iteration.{mode}"] = (1e3 * mode_s / mode_it if mode_it else 0.0, "ms")
    return metrics
