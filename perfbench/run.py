#!/usr/bin/env python3
"""Benchmark of the dualmpc planning solve and closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 35 --trace 0

The workloads, metrics and bounds are listed in BENCHMARK.json.  Each run
measures set-up time in fresh interpreters, then runs the workload in one
fresh worker process with BLAS pinned to one thread.  It prints every metric
by name and unit, the machine facts, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` repeats the workload with spans recorded at
the layer boundaries and reports the per-layer metrics, writing the spans to
``.perfbench_out/trace_<workload>.json`` (the latest traced run).

All outputs of the program go to a temporary directory under
``.perfbench_out`` in the current directory, which is removed at the end.
Exit codes: 0 success, 1 a correctness check failed (the result is still
printed), 2 the checkout or the arguments are unusable (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG = Path("configs") / "unicycle.cfg"
OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES = 6
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Import the package and load the shipped config, as every CLI call does.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import dualmpc\n"
    "dualmpc.load_config(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("DUALMPC_THREADS", None)  # library default: one simulation thread
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_samples(env: dict, deadline: float, count: int) -> list[float]:
    """Import-plus-config-load times of ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(CONFIG)],
            env=env, capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    parser = argparse.ArgumentParser(description="dualmpc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src") / "dualmpc" / "__init__.py").is_file() or not CONFIG.is_file():
        return fail("run from the root of a dualmpc checkout (src/dualmpc and configs/ not found)")
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    reasons = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in reasons:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(reasons)}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    env = worker_env()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run_", dir=OUT_DIR))
    try:
        # Set-up samples are split around the worker, so that they do not all
        # fall into one slow or fast stretch of the machine; the first
        # interpreter only warms the file and bytecode caches.
        setup = [] if args.trace else setup_samples(env, deadline, 1 + SETUP_SAMPLES // 2)[1:]
        result_path = work / "result.json"
        command = [
            sys.executable, str(BENCH_DIR / "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work), "--result", str(result_path),
        ]
        if args.trace:
            command += ["--trace-file", str(OUT_DIR / f"trace_{args.workload}.json")]
        # The program's own prints go to stderr; stdout carries the report.
        proc = subprocess.run(command, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not result_path.is_file():
            print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        if not args.trace:
            setup += setup_samples(env, deadline, SETUP_SAMPLES - len(setup))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: set-up probe failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    if setup:
        metrics["setup_s"] = [statistics.median(setup), "s"]
    wanted = {m["name"]: m["unit"] for m in expected}
    got = {name: unit for name, (_, unit) in metrics.items() if name in wanted}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        wrong = sorted(n for n in got if got[n] != wanted[n])
        print(f"perfbench: metrics do not match BENCHMARK.json (missing {missing}, wrong unit {wrong})",
              file=sys.stderr)
        return 1

    print(f"workload: {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print(f"why: {reasons[args.workload]}")
    for key, value in result["info"].items():
        print(f"{key}: {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value!r} {unit}")
    for message in result["check_failures"]:
        print(f"check failed: {message}")
    correct = not result["check_failures"] and result["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
