"""CLI behavior: outputs, schemas, determinism, exit codes."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualmpc.cli import _fmt, _stage_table, main
from dualmpc.config import load_config
from dualmpc.ocp_solver import solve
from dualmpc.uncertainty import (
    kalman_recursion,
    linearize_trajectory,
    nominal_rollout,
    propagate_covariance,
)

FAST_UNICYCLE = """\
[model]
type = unicycle
horizon_steps = 5
dt_s = 0.3
u_max = 2.0
process_noise_std = 0.02
measurement_noise_std = 0.01

[solver]
mode = output_feedback
tolerance = 1e-4
max_iterations = 12

[simulation]
steps = 3
runs = 2
master_seed = 1
init_mean = 1.0 0.8 3.0
init_cov_diag = 0.01 0.01 0.01
solver_tolerance = 1e-4
solver_max_iterations = 10
"""

# Unconstrained linear-quadratic instance: the solver converges quickly, so
# the solve command exits 0 with a converged status.
LINEAR_LQG = """\
[model]
type = linear
horizon_steps = 5
dynamics_matrix = 1.0 0.1 0.0 1.0
input_matrix = 0.005 0.1
process_noise_matrix = 0.15 0.0 0.0 0.15
output_matrix = 1.0 0.0 0.0 1.0
measurement_noise_matrix = 0.3 0.0 0.0 0.3
state_cost_diag = 1.0 0.5
control_cost_diag = 0.4
terminal_cost_diag = 2.0 1.0

[solver]
mode = output_feedback
tolerance = 1e-6
max_iterations = 200
eps_feedback = 0.0

[simulation]
init_mean = 1.0 -0.5
init_cov_diag = 0.2 0.2
"""

# Unstable drift with weak bounded control: the true state blows up within
# the horizon of the batch, exercising the divergence exit code.
UNSTABLE_LINEAR = """\
[model]
type = linear
horizon_steps = 3
dynamics_matrix = 3.0 0.0 0.0 3.0
input_matrix = 0.1 0.1
process_noise_matrix = 0.1 0.0 0.0 0.1
output_matrix = 1.0 0.0 0.0 1.0
measurement_noise_matrix = 0.1 0.0 0.0 0.1
state_cost_diag = 1.0 1.0
control_cost_diag = 1.0
terminal_cost_diag = 1.0 1.0
u_lower = -0.1
u_upper = 0.1

[solver]
mode = nominal
tolerance = 1e-3
max_iterations = 3

[simulation]
steps = 25
runs = 1
init_mean = 5.0 5.0
init_cov_diag = 0.0 0.0
"""


def _cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -------------------------------------------------------------------- solve

def test_solve_writes_solution_and_stage_table(tmp_path):
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out = tmp_path / "out"
    code = main(["solve", cfg, "--out", str(out)])
    assert code == 3  # 12-iteration budget does not converge on this instance
    payload = json.loads((out / "solve_output_feedback.json").read_text())
    assert payload["status"] in ("max_iter", "line_search_failure")
    parts = payload["objective"]
    assert parts["total"] == pytest.approx(
        parts["nominal_cost"] + parts["variance_cost"] + parts["penalty"]
        + parts["regularization"]
    )
    assert np.array(payload["u_nom"]).shape == (5, 2)
    assert np.array(payload["feedback_gains"]).shape == (4, 2, 3)
    assert np.all(np.abs(np.array(payload["u_nom"])) <= 2.0 + 1e-12)
    rows = _read_rows(out / "solve_output_feedback_stages.csv")
    assert len(rows) == 6  # stages 0..N
    assert rows[0]["x_nom_r_x"] == format(1.0, ".17e")
    # stage 0 has control-box rows only; stage 1 adds the state bound
    assert rows[1]["h_0"] != "" and rows[1]["beta_0"] != ""
    for row in rows:
        for i in range(3):
            assert float(row[f"P_diag_{['r_x','r_y','theta'][i]}"]) >= 0.0


@pytest.mark.parametrize("mode", ["nominal", "output_feedback"])
def test_stage_table_matches_public_pipeline_bitwise(tmp_path, mode):
    """The stage table reuses ObjectiveEvaluator.prediction; its rows equal,
    digit for digit, rows built from the four public pipeline functions."""
    config = load_config(_cfg(tmp_path, FAST_UNICYCLE))
    options = dataclasses.replace(config.solver_options, mode=mode)
    x0, P0 = config.sim_config.init_mean, config.sim_config.init_cov
    result = solve(config.problem, x0, P0, options)
    _, rows = _stage_table(config, result)

    model, cs = config.problem.model, config.problem.constraints
    traj = nominal_rollout(model, x0, result.policy.u_nom)
    lin = linearize_trajectory(model, traj)
    gains, _ = kalman_recursion(lin, P0)
    aug = propagate_covariance(lin, result.policy, gains, P0)
    N = model.horizon
    n_h_max = max([cs.terminal_count, *cs.stage_counts])
    expected = []
    for k in range(N + 1):
        x = traj.states[k]
        h = cs.stage_values(k, x, traj.controls[k]) if k < N else cs.terminal_values(x)
        beta = np.asarray(result.beta[k])
        expected.append(
            [str(k)]
            + [_fmt(v) for v in x]
            + [_fmt(v) for v in np.diag(aug.P[k])]
            + [_fmt(v) for v in np.diag(aug.P_hat[k])]
            + [_fmt(v) for v in h] + [""] * (n_h_max - h.size)
            + [_fmt(v) for v in beta] + [""] * (n_h_max - beta.size)
        )
    assert rows == expected


def test_solve_converged_linear_instance_exits_zero(tmp_path):
    cfg = _cfg(tmp_path, LINEAR_LQG)
    out = tmp_path / "out"
    code = main(["solve", cfg, "--out", str(out)])
    payload = json.loads((out / "solve_output_feedback.json").read_text())
    assert payload["status"] == "converged"
    assert code == 0


def test_solve_open_loop_gains_are_zero(tmp_path):
    cfg = _cfg(tmp_path, LINEAR_LQG)
    out = tmp_path / "out"
    code = main(["solve", cfg, "--controller", "open_loop", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "solve_open_loop.json").read_text())
    assert np.all(np.array(payload["feedback_gains"]) == 0.0)


def test_solve_rerun_is_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", cfg, "--out", str(out1)])
    main(["solve", cfg, "--out", str(out2)])
    for name in ("solve_output_feedback.json", "solve_output_feedback_stages.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ----------------------------------------------------------------- simulate

def test_simulate_single_controller_writes_runs_and_summary(tmp_path):
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out = tmp_path / "out"
    code = main(["simulate", cfg, "--controller", "nominal", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["controllers"]) == ["nominal"]
    assert summary["runs"] == 2 and summary["steps"] == 3
    rows = _read_rows(out / "nominal_run000.csv")
    assert len(rows) == 3
    expected_cols = [
        "step", "r_x", "r_y", "theta", "xhat_r_x", "xhat_r_y", "xhat_theta",
        "u_0", "u_1", "cost", "violation_flag", "tr_Phat",
    ]
    assert list(rows[0].keys()) == expected_cols
    assert {row["violation_flag"] for row in rows} <= {"0", "1"}


def test_simulate_all_controllers_keyed_summary(tmp_path):
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out = tmp_path / "out"
    code = main(["simulate", cfg, "--runs", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary["controllers"]) == ["nominal", "open_loop", "output_feedback"]
    for name in summary["controllers"]:
        assert (out / f"{name}_run000.csv").exists()
        assert summary["controllers"][name]["runs"] == 1


def test_simulate_same_seed_reruns_identically(tmp_path):
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", cfg, "--controller", "output_feedback", "--runs", "1", "--seed", "0"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "output_feedback_run000.csv").read_bytes() == \
        (out2 / "output_feedback_run000.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = ["simulate", cfg, "--controller", "nominal", "--runs", "1"]
    main(base + ["--seed", "0", "--out", str(out1)])
    main(base + ["--seed", "1", "--out", str(out2)])
    assert (out1 / "nominal_run000.csv").read_bytes() != \
        (out2 / "nominal_run000.csv").read_bytes()


def test_simulate_summary_matches_recount_from_csvs(tmp_path):
    # Start violated (r_x < 0): the nominal controller keeps heading left, so
    # violation flags are exercised and the recount is non-trivial.
    text = FAST_UNICYCLE.replace("init_mean = 1.0 0.8 3.0", "init_mean = -0.05 0.3 3.0")
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--controller", "nominal", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    flags, costs = [], []
    for run in range(2):
        rows = _read_rows(out / f"nominal_run{run:03d}.csv")
        flags += [int(r["violation_flag"]) for r in rows]
        costs += [float(r["cost"]) for r in rows]
    stats = summary["controllers"]["nominal"]
    assert stats["violation_frequency"] == pytest.approx(np.mean(flags))
    assert stats["mean_stage_cost"] == pytest.approx(np.mean(costs))
    assert np.mean(flags) > 0.0


def test_simulate_diverged_run_exits_three_but_writes(tmp_path):
    cfg = _cfg(tmp_path, UNSTABLE_LINEAR)
    out = tmp_path / "out"
    code = main(["simulate", cfg, "--controller", "nominal", "--out", str(out)])
    assert code == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["controllers"]["nominal"]["diverged_runs"] == 1
    rows = _read_rows(out / "nominal_run000.csv")
    assert len(rows) == 25  # NaN-padded rows for the post-divergence steps
    assert any(r["x_0"] == "nan" for r in rows)


# ---------------------------------------------------------------- phi-table

def test_phi_table_grid_properties(tmp_path):
    out = tmp_path / "phi.csv"
    code = main([
        "phi-table", "--mu-range", "-2", "2", "9",
        "--sigma-list", "0", "0.5", "1", "--out", str(out),
    ])
    assert code == 0
    rows = _read_rows(out)
    mus = np.array([float(c.split("=", 1)[1]) for c in rows[0] if c != "sigma"])
    table = np.array([[float(r[c]) for c in r if c != "sigma"] for r in rows])
    sigmas = np.array([float(r["sigma"]) for r in rows])
    assert sigmas[0] == 0.0
    np.testing.assert_allclose(table[0], np.maximum(mus, 0.0), atol=1e-15)
    mu_zero = int(np.flatnonzero(mus == 0.0)[0])
    np.testing.assert_allclose(
        table[:, mu_zero], sigmas / math.sqrt(2 * math.pi), rtol=1e-12
    )
    assert np.all(np.diff(table, axis=1) >= 0.0)  # nondecreasing in mu


def test_phi_table_bad_range_exits_two(tmp_path):
    out = tmp_path / "phi.csv"
    code = main(["phi-table", "--mu-range", "2", "-2", "5", "--sigma-list", "1",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


# -------------------------------------------------------------- exit code 2

def test_config_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\ntype = hovercraft\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["simulate", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 2
