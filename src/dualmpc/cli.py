"""Command-line experiment driver.

Three subcommands:

``solve``
    Solve one finite-horizon instance from a config file and write the
    optimized policy (JSON) plus a stage-wise table of the predicted
    nominal trajectory, covariances and constraint backoffs (CSV), both
    read from the solve's own forward record.

``simulate``
    Run the seeded closed-loop Monte-Carlo batch for one or all
    controllers; write per-run trajectory CSVs and a metrics summary JSON.

``phi-table``
    Tabulate the expected positive part of a Gaussian on a (mu, sigma)
    grid as CSV, for external plotting.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure
(outputs are still written with the best-so-far iterate and its status).
All outputs are deterministic functions of (config, flags); numbers are
written in full-precision scientific notation and no timestamps are
embedded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .controllers import RecedingHorizonController
from .model import ControlProblem
from .objective import Evaluation, expected_relu
from .ocp_solver import MODES, SolveResult, solve
from .simulator import paired_differences, run_batch


def _fmt(value: float) -> str:
    return format(float(value), ".17e")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n")


# ------------------------------------------------------------------ solve

def _stages(problem: ControlProblem, record: Evaluation):
    """A solve's forward record stage by stage, k = 0..N: the nominal state,
    the covariances the solve planned with, P = Q + P_hat (the estimate's
    spread plus the filter covariance) and P_hat, and the values h and beta
    of the constraint rows that apply at stage k (nonzero weight), in row
    order.  P and P_hat are zero in ``nominal``; in ``open_loop`` P_hat is
    the prediction without measurements and P = P_hat."""
    pred = record.prediction
    xs = pred.traj.states
    P_hat = np.zeros(xs.shape + xs.shape[-1:]) if pred.filter_covs is None else pred.filter_covs
    P = P_hat if record.spread is None else record.spread + P_hat
    for k, applies in enumerate(problem.constraints.weights > 0.0):
        yield xs[k], P[k], P_hat[k], pred.h[k, applies], record.beta[k, applies]


def _stage_table(problem: ControlProblem, record: Evaluation) -> tuple[list[str], list[list[str]]]:
    """Stage-wise planning quantities of :func:`_stages`, one row per stage:
    nominal state, covariance diagonals, nominal constraint values and
    their direction variances plus eps_sigma^2."""
    stages = list(_stages(problem, record))
    n_h_max = max(h.size for *_, h, _ in stages)

    names = problem.model.state_names
    header = ["stage"]
    header += [f"x_nom_{n}" for n in names]
    header += [f"P_diag_{n}" for n in names]
    header += [f"Phat_diag_{n}" for n in names]
    header += [f"h_{i}" for i in range(n_h_max)]
    header += [f"beta_{i}" for i in range(n_h_max)]

    rows = []
    for k, (x, P, P_hat, h, beta) in enumerate(stages):
        row = [str(k)]
        row += [_fmt(v) for v in x]
        row += [_fmt(v) for v in np.diag(P)]
        row += [_fmt(v) for v in np.diag(P_hat)]
        row += [_fmt(v) for v in h] + [""] * (n_h_max - h.size)
        row += [_fmt(v) for v in beta] + [""] * (n_h_max - beta.size)
        rows.append(row)
    return header, rows


def _solution_payload(problem: ControlProblem, mode: str, result: SolveResult) -> dict:
    betas = [beta.tolist() for *_, beta in _stages(problem, result.record)]
    beta = {f"stage_{k}": b for k, b in enumerate(betas[:-1])}
    beta["terminal"] = betas[-1]
    return {
        "controller": mode,
        "status": result.status,
        "iterations": result.iterations,
        "stationarity": result.stationarity,
        "objective": dataclasses.asdict(result.objective),
        "u_nom": np.asarray(result.policy.u_nom).tolist(),
        "feedback_gains": np.asarray(result.policy.feedback).tolist(),
        "beta": beta,
    }


def cmd_solve(config: ExperimentConfig, controller: str | None, out_dir: Path) -> int:
    mode = controller or config.solver_options.mode
    options = dataclasses.replace(config.solver_options, mode=mode)
    result = solve(
        config.problem,
        config.sim_config.init_mean,
        config.sim_config.init_cov,
        options,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / f"solve_{mode}.json", _solution_payload(config.problem, mode, result))
    header, rows = _stage_table(config.problem, result.record)
    _write_csv(out_dir / f"solve_{mode}_stages.csv", header, rows)
    print(
        f"solve[{mode}]: status={result.status} iterations={result.iterations} "
        f"objective={result.objective.total:.9g}"
    )
    return 0 if result.converged else 3


# --------------------------------------------------------------- simulate

def _run_rows(record, steps: int) -> tuple[list[str], list[list[str]]]:
    return [
        [
            str(t),
            *(_fmt(v) for v in record.states[t]),
            *(_fmt(v) for v in record.belief_means[t]),
            *(_fmt(v) for v in record.controls[t]),
            _fmt(record.stage_costs[t]),
            str(int(record.violation_flags[t])),
            _fmt(np.trace(record.belief_covs[t + 1])),
        ]
        for t in range(steps)
    ]


def cmd_simulate(config: ExperimentConfig, controller: str | None, out_dir: Path) -> int:
    if controller and controller != "all":
        names = (controller,)
    else:
        names = config.controllers
    out_dir.mkdir(parents=True, exist_ok=True)

    state_names = config.problem.model.state_names
    header = ["step"]
    header += state_names
    header += [f"xhat_{n}" for n in state_names]
    header += [f"u_{i}" for i in range(config.problem.model.n_u)]
    header += ["cost", "violation_flag", "tr_Phat"]

    summaries, records_by_name = {}, {}
    any_diverged = False
    for name in names:
        options = dataclasses.replace(config.sim_solver_options, mode=name)
        summary, records = run_batch(
            config.problem,
            lambda: RecedingHorizonController(config.problem, options),
            config.sim_config,
            controller_name=name,
        )
        summaries[name] = dataclasses.asdict(summary)
        records_by_name[name] = records
        any_diverged = any_diverged or summary.diverged_runs > 0
        for record in records:
            path = out_dir / f"{name}_run{record.run_index:03d}.csv"
            _write_csv(path, header, _run_rows(record, config.sim_config.steps))
        print(
            f"simulate[{name}]: runs={summary.runs} violation_frequency="
            f"{summary.violation_frequency:.6g} mean_stage_cost={summary.mean_stage_cost:.6g}"
        )
    payload = {
        "runs": config.sim_config.runs,
        "steps": config.sim_config.steps,
        "master_seed": config.sim_config.master_seed,
        "controllers": summaries,
    }
    comparisons = paired_differences(config.sim_config, records_by_name)
    if comparisons:
        payload["output_feedback_minus"] = comparisons
    _write_json(out_dir / "summary.json", payload)
    return 3 if any_diverged else 0


# --------------------------------------------------------------- phi-table

def cmd_phi_table(mu_range: tuple[float, float, float], sigmas: list[float], out: Path) -> int:
    if not np.isfinite([*mu_range, *sigmas]).all():
        raise ConfigError("--mu-range and --sigma-list entries must be finite")
    lo, hi, count = mu_range
    if count < 2 or count != int(count) or hi <= lo:
        raise ConfigError("--mu-range expects MIN MAX COUNT with MIN < MAX and an integer COUNT >= 2")
    if any(s < 0 for s in sigmas):
        raise ConfigError("--sigma-list entries must be nonnegative")
    mus = np.linspace(lo, hi, int(count))
    header = ["sigma"] + [f"mu={_fmt(m)}" for m in mus]
    rows = [
        [_fmt(s)] + [_fmt(expected_relu(m, s)) for m in mus]
        for s in sigmas
    ]
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, header, rows)
    print(f"phi-table: {len(sigmas)} sigma rows x {len(mus)} mu columns -> {out}")
    return 0


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualmpc",
        description="Output-feedback stochastic MPC experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one finite-horizon instance")
    p_solve.add_argument("config", help="experiment config file")
    p_solve.add_argument("--controller", choices=MODES, default=None,
                         help="override the solver mode from the config")
    p_solve.add_argument("--out", default=None, help="output directory")

    p_sim = sub.add_parser("simulate", help="closed-loop Monte-Carlo batch")
    p_sim.add_argument("config", help="experiment config file")
    p_sim.add_argument("--controller", choices=[*MODES, "all"], default="all",
                       help="which controller(s) to simulate")
    p_sim.add_argument("--runs", type=int, default=None, help="override run count")
    p_sim.add_argument("--seed", type=int, default=None, help="override master seed")
    p_sim.add_argument("--out", default=None, help="output directory")

    p_phi = sub.add_parser("phi-table", help="tabulate the expected positive part")
    p_phi.add_argument("--mu-range", nargs=3, type=float, required=True,
                       metavar=("MIN", "MAX", "COUNT"))
    p_phi.add_argument("--sigma-list", nargs="+", type=float, required=True,
                       metavar="SIGMA")
    p_phi.add_argument("--out", required=True, help="output CSV file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "phi-table":
            return cmd_phi_table(tuple(args.mu_range), args.sigma_list, Path(args.out))

        config = load_config(args.config)
        if args.command == "simulate":
            overrides = {}
            if args.runs is not None:
                overrides["runs"] = args.runs
            if args.seed is not None:
                overrides["master_seed"] = args.seed
            if overrides:
                try:
                    sim_config = dataclasses.replace(config.sim_config, **overrides)
                except ValueError as exc:
                    raise ConfigError(f"invalid override: {exc}") from exc
                config = dataclasses.replace(config, sim_config=sim_config)
            out_dir = Path(args.out) if args.out else Path(config.output_dir)
            return cmd_simulate(config, args.controller, out_dir)

        out_dir = Path(args.out) if args.out else Path(config.output_dir)
        return cmd_solve(config, args.controller, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
