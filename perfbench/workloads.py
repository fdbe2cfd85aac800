"""Workload bodies, correctness checks and layer microbenchmarks.

run.py starts this file in a fresh interpreter, with BLAS pinned to one
thread and the checkout's ``src`` on the import path, and reads the JSON
result it writes.  The workloads go through the package's public entry
points only: ``dualmpc.cli.main``, ``ObjectiveEvaluator`` and the
``uncertainty`` functions.  No ``--threads`` flag is passed, so the
simulator runs with its library default of one thread.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import dualmpc.cli
from dualmpc import (
    MODES,
    ObjectiveEvaluator,
    Policy,
    RecedingHorizonController,
    kalman_recursion,
    linearize_trajectory,
    load_config,
    nominal_rollout,
    propagate_covariance,
    total_objective,
)

from tracing import Tracer, layer_metrics, span_cost_s

CONFIG = Path("configs") / "unicycle.cfg"
# The seeded belief's mean is drawn around the shipped initial mean with this
# share of the shipped initial standard deviation.
PERTURBATION_SCALE = 0.5
MICRO_BATCHES = (1, 40, 108)  # the solver's control and gain FD batch widths
REL_TOL = 1e-9
# A job hands the turn over once it has held it this long (see Turns).
QUANTUM_S = 0.2
# In the plan body, each solve's quantum is PLAN_QUANTUM_S times its mode's
# share: about its solve time over that of an output_feedback solve.  Then
# all solves of the body progress at one pace and end together, so that each
# one's time, however short, is spread over the whole body.  On a shared
# 2-vCPU Xeon virtual machine, back-to-back nominal solves vary by up to 40%
# from one to the next; solved one after another, the interquartile range of
# a run's median nominal solve time over ten runs reached 28% of its median.
PLAN_QUANTUM_S = 0.5
PLAN_SHARE = {"output_feedback": 1.0, "open_loop": 0.14, "nominal": 0.05}


class Turns:
    """Runs jobs in threads that take turns: one thread runs at a time.

    The running thread hands over to the next, in a fixed rotation, at the
    first ``ObjectiveEvaluator.totals`` call (one per solver iteration) after
    it has held the turn for its quantum (``QUANTUM_S`` unless ``run`` is
    given another).  Operations are timed with ``active_s()``, the time their
    thread has held the turn, so that none counts the turns of the others.
    If that method no longer exists, each job runs to its end before the next
    one starts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._wake: dict[str, threading.Condition] = {}  # one per job, on the shared lock
        self._order: list[str] = []  # names of the jobs still running, in turn order
        self._turn = 0
        self._since = 0.0  # when the current turn began
        self._active: dict[str, float] = {}
        self._quantum: dict[str, float] = {}

    def run(self, jobs: list[tuple[str, object]], quantum: dict[str, float] | None = None) -> None:
        """Run each ``(name, fn)`` job in its own thread until all have returned.

        ``quantum`` maps a job's name to its quantum in seconds.
        """
        self._order, self._turn = [name for name, _ in jobs], 0
        self._active = dict.fromkeys(self._order, 0.0)
        self._quantum = {name: (quantum or {}).get(name, QUANTUM_S) for name in self._order}
        self._wake = {name: threading.Condition(self._lock) for name in self._order}
        original = vars(ObjectiveEvaluator).get("totals")
        if original is not None:
            @functools.wraps(original)
            def totals(*args, **kwargs):
                self._handover()
                return original(*args, **kwargs)

            ObjectiveEvaluator.totals = totals
        threads = [threading.Thread(target=self._job, args=job, name=job[0]) for job in jobs]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            if original is not None:
                ObjectiveEvaluator.totals = original

    def active_s(self) -> float:
        """Seconds the calling job has held the turn so far."""
        return self._active[threading.current_thread().name] + time.perf_counter() - self._since

    def _pass(self, turn: int) -> None:
        """Give the turn to the job at ``turn``; the caller holds the lock."""
        self._turn = turn
        if self._order:
            self._wake[self._order[turn]].notify()

    def _wait(self, name: str) -> None:
        """Wait, holding the lock, until the turn is ``name``'s, then start it."""
        self._wake[name].wait_for(lambda: self._order[self._turn] == name)
        self._since = time.perf_counter()

    def _job(self, name: str, fn) -> None:
        with self._lock:
            self._wait(name)
        try:
            fn()
        finally:
            with self._lock:
                self._active[name] += time.perf_counter() - self._since
                i = self._order.index(name)
                del self._order[i]
                self._pass(i % len(self._order) if self._order else 0)

    def _handover(self) -> None:
        name = threading.current_thread().name
        if name not in self._order or time.perf_counter() - self._since < self._quantum[name]:
            return
        with self._lock:
            self._active[name] += time.perf_counter() - self._since
            self._pass((self._order.index(name) + 1) % len(self._order))
            self._wait(name)


class Run:
    """Operation counts, correctness failures and latency samples of one run."""

    def __init__(self, work: Path, seconds: float, tracer: Tracer | None):
        self.work = work
        self.seconds = seconds
        self.tracer = tracer
        self.turns = Turns()
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.latency_ms: dict[str, list[float]] = {mode: [] for mode in MODES}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def body(self, jobs: list[tuple[str, object]], quantum: dict[str, float] | None = None) -> float:
        """Run the timed body and return its wall seconds.

        The jobs take turns, so that every operation's samples spread over the
        whole body: the machine's speed drifts over seconds.  The body then
        runs again while another fits in the time budget.  The traced run
        wraps the layer boundaries and runs the jobs one after another, once,
        so that spans nest.
        """
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.install()
            try:
                for job in jobs:
                    self.turns.run([job])
            finally:
                self.tracer.uninstall()
            return time.perf_counter() - start
        self.turns.run(jobs, quantum)
        wall_s = time.perf_counter() - start
        while time.perf_counter() - start + wall_s <= self.seconds:
            self.turns.run(jobs, quantum)
        return wall_s


def call_cli(args: list[str]) -> int | None:
    """One ``dualmpc`` CLI call: its exit code, or None if it raised."""
    try:
        return dualmpc.cli.main(args)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc()
        return None


def percentile_metrics(samples_ms: dict[str, list[float]]) -> dict:
    out = {}
    for quantile, index in (("p50", 1), ("p75", 2)):
        for mode, samples in samples_ms.items():
            if not samples:
                raise RuntimeError(f"no latency samples for {mode}")
            value = (statistics.quantiles(samples, n=4, method="inclusive")[index]
                     if len(samples) > 1 else samples[0])
            out[f"step_ms_{quantile}.{mode}"] = (value, "ms")
    return out


# ------------------------------------------------------------------ plan

def belief_config(path: Path, text: str, mean: np.ndarray) -> Path:
    """Copy of the shipped config with another initial belief mean."""
    line = "init_mean = " + " ".join(repr(float(v)) for v in mean)
    new_text, count = re.subn(r"(?m)^init_mean\s*=.*$", line, text)
    if count != 1:
        raise RuntimeError(f"expected one init_mean line in {CONFIG}, found {count}")
    path.write_text(new_text)
    return path


def predicted_cov_trace(stage_csv: Path) -> float:
    """Mean trace of the predicted estimation-error covariance over stages 1..N."""
    with stage_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    traces = [sum(float(v) for k, v in row.items() if k.startswith("Phat_diag_")) for row in rows[1:]]
    return float(np.mean(traces))


def check_repeats(run: Run, outputs: list, what: str) -> None:
    """Every repeat of an operation must write byte-identical output."""
    first = {}
    for key, raw in outputs:
        if raw is not None:
            run.check(first.setdefault(key, raw) == raw, f"repeated {what} {key} wrote different output")


def plan_solve(run: Run, config_path: Path, mode: str, out_dir: Path) -> bytes | None:
    """One ``dualmpc solve`` call: its JSON output, or None if it failed."""
    run.attempted += 1
    t0 = run.turns.active_s()
    code = call_cli(["solve", str(config_path), "--controller", mode, "--out", str(out_dir)])
    seconds = run.turns.active_s() - t0
    raw = (out_dir / f"solve_{mode}.json").read_bytes() if code in (0, 3) else None
    # Exit code 3 means not converged, which is no failure.
    if raw is None or not math.isfinite(json.loads(raw)["objective"]["total"]):
        run.failed += 1
        return None
    run.latency_ms[mode].append(1e3 * seconds)
    return raw


def check_plan(run: Run, config_path: Path, mode: str, payload: dict) -> None:
    """The written policy re-evaluates to the reported objective and respects the bounds."""
    config = load_config(config_path)
    opts = config.solver_options
    policy = Policy(u_nom=np.array(payload["u_nom"]), feedback=np.array(payload["feedback_gains"]))
    total = payload["objective"]["total"]
    again = total_objective(
        config.problem, config.sim_config.init_mean, config.sim_config.init_cov, policy,
        eps_sigma=opts.eps_sigma, eps_K=opts.eps_K, include_uncertainty=mode != "nominal",
    ).total
    run.check(abs(again - total) <= REL_TOL * max(1.0, abs(total)),
              f"{config_path.name} {mode}: reported objective {total!r} != re-evaluated {again!r}")
    cs = config.problem.constraints
    run.check(bool(np.all((policy.u_nom >= cs.u_lower) & (policy.u_nom <= cs.u_upper))),
              f"{config_path.name} {mode}: u_nom leaves the control bounds")


def plan(run: Run, rng: np.random.Generator) -> dict:
    base = load_config(CONFIG)
    text = CONFIG.read_text()
    mean0 = base.sim_config.init_mean
    sd = np.sqrt(np.diag(base.sim_config.init_cov))
    seeded_mean = mean0 + PERTURBATION_SCALE * sd * rng.standard_normal(sd.size)
    configs = [belief_config(run.work / f"belief{i}.cfg", text, m) for i, m in enumerate((mean0, seeded_mean))]
    horizon = base.problem.model.horizon

    # Nominal and open-loop solve times change several-fold when the belief
    # mean moves by 1%, while the output-feedback solve runs to its iteration
    # cap; so only output_feedback is solved at the seeded belief.  Every
    # solve is a job of its own, and all of them take turns (see PLAN_SHARE).
    outputs = []

    def do(index: int, belief: int, mode: str) -> None:
        outputs.append(((belief, mode), plan_solve(run, configs[belief], mode, run.work / f"solve{index}")))

    solves = [(0, "output_feedback"), (1, "output_feedback")]
    solves += [(0, mode) for mode in ("nominal", "open_loop", "nominal") * 4]
    jobs = [(f"{i}:{belief}:{mode}", lambda i=i, b=belief, m=mode: do(i, b, m))
            for i, (belief, mode) in enumerate(solves)]
    quantum = {name: PLAN_QUANTUM_S * PLAN_SHARE[name.rsplit(":", 1)[1]] for name, _ in jobs}
    wall_s = run.body(jobs, quantum)
    check_repeats(run, outputs, "solve")

    done = {}
    for key, raw in outputs:
        if raw is None:
            raise RuntimeError("a plan solve failed; no quality metrics")
        done.setdefault(key, json.loads(raw))
    for (i, mode), payload in done.items():
        check_plan(run, configs[i], mode, payload)
    # Quality is read at the shipped belief, so that it does not move with the seed.
    shipped = {mode: done[(0, mode)] for mode in MODES}
    of = shipped["output_feedback"]["objective"]
    metrics = {
        "wall_s": (wall_s, "s"),
        "converged_frac": (float(np.mean([p["status"] == "converged" for p in shipped.values()])), "frac"),
        "stage_cost.output_feedback": ((of["nominal_cost"] + of["variance_cost"] + of["penalty"]) / horizon, "1"),
        "cov_trace.output_feedback": (predicted_cov_trace(run.work / "solve0" / "solve_output_feedback_stages.csv"), "1"),
    }
    for mode in MODES:
        metrics[f"objective.{mode}"] = (shipped[mode]["objective"]["total"], "1")
    return metrics


# ------------------------------------------------------------ closed loop

def closed_loop(run: Run, rng: np.random.Generator) -> dict:
    base = load_config(CONFIG)
    anchor = base.sim_config.master_seed
    seeded = int(rng.integers(1, 2**31 - 1))
    steps: dict[str, list] = {}  # controller -> (ms, diagnostics) per step
    original_step = RecedingHorizonController.step

    def timed_step(self, belief):
        t0 = run.turns.active_s()
        result = original_step(self, belief)
        steps.setdefault(self.mode, []).append((1e3 * (run.turns.active_s() - t0), result[1]))
        return result

    def simulate(master: int, controller: str, out_dir: Path):
        """One closed-loop run of one controller: (run CSV bytes or None, summary)."""
        run.attempted += 1
        code = call_cli(["simulate", str(CONFIG), "--controller", controller, "--runs", "1",
                         "--seed", str(master), "--out", str(out_dir)])
        if code not in (0, 3):  # 3 means the run diverged, counted below
            run.failed += 1
            return None, None
        summary = json.loads((out_dir / "summary.json").read_text())["controllers"][controller]
        if summary["diverged_runs"]:
            run.failed += 1
            return None, None
        run.check(all(math.isfinite(v) for v in summary.values() if isinstance(v, float)),
                  f"seed {master} {controller}: non-finite closed-loop summary")
        return (out_dir / f"{controller}_run000.csv").read_bytes(), summary

    # The timed body is run 0 of the shipped experiment, one CLI call per
    # controller on the same noise.  With the one or two runs a benchmark run
    # can afford, seeded noise moves step latency and closed-loop cost by
    # 10-20% from seed to seed, more than the bounds allow.
    outputs, summaries = [], {}

    def do(index: int, controller: str) -> None:
        raw, summary = simulate(anchor, controller, run.work / f"anchor{index}")
        outputs.append((controller, raw))
        summaries.setdefault(controller, summary)

    body = ["nominal", "open_loop", "output_feedback", "nominal", "open_loop"]
    jobs = [(f"{i}:{c}", lambda i=i, c=c: do(i, c)) for i, c in enumerate(body)]
    RecedingHorizonController.step = timed_step
    try:
        wall_s = run.body(jobs)
    finally:
        RecedingHorizonController.step = original_step
    check_repeats(run, outputs, "closed-loop run of")
    # A run on fresh noise from the workload seed, with the controller that
    # violates the state bound most.
    simulate(seeded, "nominal", run.work / "seeded")

    if any(summaries.get(c) is None for c in MODES):
        raise RuntimeError("a closed-loop run failed; no quality metrics")
    for controller, samples in steps.items():
        run.latency_ms[controller].extend(ms for ms, _ in samples)
    diagnostics = {c: [diag for _, diag in samples] for c, samples in steps.items()}
    of = summaries["output_feedback"]
    metrics = {
        "wall_s": (wall_s, "s"),
        "converged_frac": (float(np.mean([d.converged for c in MODES for d in diagnostics[c]])), "frac"),
        "stage_cost.output_feedback": (of["mean_stage_cost"], "1"),
        "cov_trace.output_feedback": (of["mean_estimate_cov_trace"], "1"),
    }
    for mode in MODES:
        metrics[f"objective.{mode}"] = (float(np.mean([d.objective_total for d in diagnostics[mode]])), "1")
    return metrics


WORKLOADS = {"plan": plan, "closed_loop": closed_loop}


# -------------------------------------------------------- microbenchmarks

def best_ms(kernels: dict, seconds: float = 8.0, max_rounds: int = 500) -> dict:
    """Best-of-k wall time in ms of each ``kernels[name]()``, after two warm-up calls.

    The kernels take turns, one call each per round, for ``seconds``: the
    machine's speed drifts over seconds, and taking turns spreads every
    kernel's samples over the whole interval instead of one stretch of it.
    """
    for fn in kernels.values():
        fn()
        fn()
    best = dict.fromkeys(kernels, math.inf)
    start, rounds = time.perf_counter(), 0
    while rounds < 5 or (time.perf_counter() - start < seconds and rounds < max_rounds):
        for name, fn in kernels.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
        rounds += 1
    return {name: (1e3 * t, "ms") for name, t in best.items()}


def microbenchmarks(rng: np.random.Generator) -> dict:
    """Prediction pipeline, propagation and gain-batch objective at fixed batch sizes."""
    config = load_config(CONFIG)
    problem, model = config.problem, config.problem.model
    x0, P0 = config.sim_config.init_mean, config.sim_config.init_cov
    opts = config.solver_options
    evaluator = ObjectiveEvaluator(problem, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K)
    n = max(MICRO_BATCHES)
    cs = problem.constraints
    u = cs.u_lower + (cs.u_upper - cs.u_lower) * rng.uniform(0.25, 0.75, (n, model.horizon, model.n_u))
    gains_fb = 0.1 * rng.standard_normal((n, model.horizon - 1, model.n_u, model.n_x))
    lin0 = linearize_trajectory(model, nominal_rollout(model, x0, u[0]))
    filter0, _ = kalman_recursion(lin0, P0)
    pred0 = evaluator.prediction(u[0])

    def pipeline(b):
        lin = linearize_trajectory(model, nominal_rollout(model, x0, u[:b]))
        filter_gains, _ = kalman_recursion(lin, P0)
        return propagate_covariance(lin, Policy(u_nom=u[:b], feedback=gains_fb[0]), filter_gains, P0)

    kernels = {}
    for b in MICRO_BATCHES:
        kernels[f"uncertainty.pipeline_ms.b{b}"] = lambda b=b: pipeline(b)
        kernels[f"uncertainty.propagate_ms.b{b}"] = lambda b=b: propagate_covariance(
            lin0, Policy(u_nom=u[0], feedback=gains_fb[:b]), filter0, P0)
        kernels[f"objective.gain_batch_ms.b{b}"] = lambda b=b: evaluator.parts_from_prediction(pred0, gains_fb[:b])
    return best_ms(kernels)


# ------------------------------------------------------------------ main

def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in Path("src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    run = Run(args.work_dir, args.seconds, Tracer() if args.trace else None)
    metrics = WORKLOADS[args.workload](run, rng)
    metrics.update(percentile_metrics(run.latency_ms))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_frac"] = (1.0 - run.failed / run.attempted if run.attempted else 0.0, "frac")

    if run.tracer is not None:
        spans = run.tracer.spans
        traced_wall_s = metrics["wall_s"][0]
        metrics = layer_metrics(spans)
        metrics["trace.wall_s"] = (traced_wall_s, "s")
        metrics["trace.spans"] = (len(spans), "count")
        metrics["trace.overhead_s"] = (len(spans) * span_cost_s(), "s")
        metrics["trace.absent"] = (len(run.tracer.absent), "count")
        metrics.update(microbenchmarks(rng))
        if args.trace_file is not None:
            run.tracer.write(args.trace_file)

    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "check_failures": run.check_failures,
        "metrics": {name: [float(value), unit] for name, (value, unit) in metrics.items()},
        "info": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "src_lines": src_line_count(),
            "absent_boundaries": run.tracer.absent if run.tracer else [],
        },
    }
    args.result.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
