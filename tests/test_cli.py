"""CLI behavior: outputs, schemas, determinism, exit codes."""

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualmpc import cli, objective
from dualmpc.cli import _fmt, _stage_table, main
from dualmpc.config import load_config
from dualmpc.objective import ObjectiveEvaluator
from dualmpc.ocp_solver import MODES, solve
from dualmpc.uncertainty import (
    SingularInnovationError,
    estimate_spread,
    kalman_recursion,
    linearize_trajectory,
    lyapunov,
    nominal_rollout,
    stage_gains,
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


@pytest.mark.parametrize("mode", MODES)
def test_stage_table_matches_public_pipeline_bitwise(tmp_path, mode):
    """The stage table reads the solve's forward record; its rows equal,
    digit for digit, rows built from the public pipeline functions with
    the covariances the solve planned with: in output_feedback P = Q + P_hat
    with the estimate's spread Q, and P_hat from the Kalman filter; in
    open_loop P = P_hat, the prediction without measurements; in nominal
    both zero."""
    config = load_config(_cfg(tmp_path, FAST_UNICYCLE))
    options = dataclasses.replace(config.solver_options, mode=mode)
    x0, P0 = config.sim_config.init_mean, config.sim_config.init_cov
    result = solve(config.problem, x0, P0, options)
    _, rows = _stage_table(config.problem, result.record)

    model, cs = config.problem.model, config.problem.constraints
    traj = nominal_rollout(model, x0, result.policy.u_nom)
    lin = linearize_trajectory(model, traj)
    N = model.horizon
    if mode == "output_feedback":
        _, P_hat, U = kalman_recursion(lin, P0, factors=True)
        P = estimate_spread(lin, stage_gains(result.policy.feedback)[:-1], U) + P_hat
    elif mode == "open_loop":
        P = P_hat = lyapunov(lin.A, lin.G @ lin.G.mT, P0)
    else:
        P = P_hat = np.zeros((N + 1, model.n_x, model.n_x))
    used = cs.weights > 0
    n_h_max = max(used.sum(axis=1))
    expected = []
    for k in range(N + 1):
        x = traj.states[k]
        u = traj.controls[k] if k < N else np.zeros(model.n_u)
        h = cs.values(np.concatenate([x, u]))[used[k]]
        beta = result.record.beta[k, used[k]]
        expected.append(
            [str(k)]
            + [_fmt(v) for v in x]
            + [_fmt(v) for v in np.diag(P[k])]
            + [_fmt(v) for v in np.diag(P_hat[k])]
            + [_fmt(v) for v in h] + [""] * (n_h_max - h.size)
            + [_fmt(v) for v in beta] + [""] * (n_h_max - beta.size)
        )
    assert rows == expected


def test_open_loop_stage_table_reports_the_prediction_without_measurements(tmp_path):
    """An open_loop solve runs no measurement update, and its stage table
    shows the covariances it planned with: the Phat_diag_* columns are,
    digit for digit, the diagonals of lyapunov(A, G G', P0) along the
    solved controls, and the P_diag_* columns equal them."""
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out = tmp_path / "out"
    main(["solve", cfg, "--controller", "open_loop", "--out", str(out)])
    config = load_config(cfg)
    model, x0, P0 = config.problem.model, config.sim_config.init_mean, config.sim_config.init_cov
    u = np.array(json.loads((out / "solve_open_loop.json").read_text())["u_nom"])
    lin = linearize_trajectory(model, nominal_rollout(model, x0, u))
    P_hat = lyapunov(lin.A, lin.G @ lin.G.mT, P0)
    rows = _read_rows(out / "solve_open_loop_stages.csv")
    assert len(rows) == model.horizon + 1
    for k, row in enumerate(rows):
        assert [row[f"Phat_diag_{n}"] for n in model.state_names] == [_fmt(v) for v in np.diag(P_hat[k])]
        assert [row[f"P_diag_{n}"] for n in model.state_names] == [row[f"Phat_diag_{n}"] for n in model.state_names]


@pytest.mark.parametrize("mode", MODES)
def test_solve_command_predicts_nothing_after_the_solver_returns(tmp_path, monkeypatch, mode):
    """The JSON and the stage table read the solve's own forward record, so
    a solve command runs the prediction pipeline only inside the solver."""
    calls = {"solving": 0, "after": 0}
    stage = ["solving"]
    prediction, solver = ObjectiveEvaluator.prediction, cli.solve

    def counted(self, u_nom):
        calls[stage[0]] += 1
        return prediction(self, u_nom)

    def solve_then_mark(*args, **kwargs):
        result = solver(*args, **kwargs)
        stage[0] = "after"
        return result

    monkeypatch.setattr(ObjectiveEvaluator, "prediction", counted)
    monkeypatch.setattr(cli, "solve", solve_then_mark)
    out = tmp_path / "out"
    assert main(["solve", _cfg(tmp_path, FAST_UNICYCLE), "--controller", mode, "--out", str(out)]) in (0, 3)
    assert (out / f"solve_{mode}.json").is_file() and (out / f"solve_{mode}_stages.csv").is_file()
    assert calls["solving"] > 0 and calls["after"] == 0


@pytest.mark.parametrize("mode", ["nominal", "open_loop"])
def test_solve_without_measurements_never_runs_the_kalman_filter(tmp_path, monkeypatch, mode):
    """A nominal or open_loop solve uses no Kalman filter, so one that
    raises cannot fail the command after the solve succeeded."""

    def singular(*args, **kwargs):
        raise SingularInnovationError("the Kalman filter must not run")

    monkeypatch.setattr(objective, "kalman_recursion", singular)
    out = tmp_path / "out"
    assert main(["solve", _cfg(tmp_path, LINEAR_LQG), "--controller", mode, "--out", str(out)]) == 0
    assert (out / f"solve_{mode}.json").is_file() and (out / f"solve_{mode}_stages.csv").is_file()


def test_solve_converged_linear_instance_exits_zero(tmp_path):
    cfg = _cfg(tmp_path, LINEAR_LQG)
    out = tmp_path / "out"
    code = main(["solve", cfg, "--out", str(out)])
    payload = json.loads((out / "solve_output_feedback.json").read_text())
    assert payload["status"] == "converged"
    assert code == 0


def test_solve_reaching_the_tolerance_on_its_last_allowed_step_exits_zero(tmp_path):
    """With max_iterations set to the iterations the converged linear solve
    takes, its last allowed step reaches the tolerance: the solve reports
    converged and the command exits 0, not 3."""
    out = tmp_path / "free"
    assert main(["solve", _cfg(tmp_path, LINEAR_LQG), "--out", str(out)]) == 0
    free = json.loads((out / "solve_output_feedback.json").read_text())
    capped_cfg = LINEAR_LQG.replace("max_iterations = 200", f"max_iterations = {free['iterations']}")
    out = tmp_path / "capped"
    assert main(["solve", _cfg(tmp_path, capped_cfg, "capped.cfg"), "--out", str(out)]) == 0
    assert json.loads((out / "solve_output_feedback.json").read_text()) == free


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
    assert "output_feedback_minus" not in summary  # one run has no standard error


def test_simulate_summary_pairs_output_feedback_with_each_controller(tmp_path):
    """With two or more runs of output_feedback and another controller,
    summary.json holds the paired differences of the records under their
    own key, next to the per-controller aggregates; a single controller
    gets none."""
    cfg = _cfg(tmp_path, FAST_UNICYCLE)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["runs", "steps", "master_seed", "controllers", "output_feedback_minus"]
    paired = summary["output_feedback_minus"]
    assert list(paired) == ["nominal", "open_loop"]
    for stats in paired.values():
        assert stats["runs"] == 2
        for reading in ("mean_stage_cost", "mean_abs_lateral", "mean_estimate_cov_trace"):
            assert math.isfinite(stats[reading]["mean"]) and math.isfinite(stats[reading]["std_error"])
            assert 0 <= stats[reading]["output_feedback_lower"] <= 2
    single = tmp_path / "single"
    assert main(["simulate", cfg, "--controller", "output_feedback", "--out", str(single)]) == 0
    assert "output_feedback_minus" not in json.loads((single / "summary.json").read_text())


def test_shipped_config_with_a_noise_free_coordinate_solves_and_simulates(tmp_path):
    """The shipped config with no process noise on r_x and an exactly known
    initial r_x, whose covariances are PSD but singular, loads, solves and
    simulates with finite outputs."""
    shipped = (Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg").read_text()
    text = shipped.replace("process_noise_std = 0.02 0.02 0.02", "process_noise_std = 0 0.02 0.02")
    text = text.replace("init_cov_diag = 0.01 0.01 0.01", "init_cov_diag = 0 0.01 0.01")
    assert text.count(" = 0 0.0") == 2
    cfg = _cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) in (0, 3)
    assert math.isfinite(json.loads((out / "solve_output_feedback.json").read_text())["objective"]["total"])
    assert main(["simulate", cfg, "--controller", "output_feedback", "--runs", "2", "--out", str(out)]) == 0
    stats = json.loads((out / "summary.json").read_text())["controllers"]["output_feedback"]
    assert all(math.isfinite(v) for v in stats.values() if isinstance(v, float))


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


def test_phi_table_bad_range_exits_two(tmp_path, capsys):
    out = tmp_path / "phi.csv"
    code = main(["phi-table", "--mu-range", "2", "-2", "5", "--sigma-list", "1",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    # a fractional COUNT: one error line, no file; 5.0 is the integer 5
    capsys.readouterr()
    code = main(["phi-table", "--mu-range", "0", "1", "2.9", "--sigma-list", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "integer COUNT" in err and err.count("\n") == 1
    assert not out.exists()
    assert main(["phi-table", "--mu-range", "0", "1", "5.0", "--sigma-list", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].count("mu=") == 5
    out.unlink()
    # non-finite entries: one error line, no file
    for mu_range, sigmas in ((["-1", "1", "3"], ["nan", "1"]), (["-1", "1", "3"], ["inf"]),
                             (["nan", "1", "3"], ["1"]), (["-1", "inf", "3"], ["1"]),
                             (["-1", "1", "nan"], ["1"]), (["-1", "1", "inf"], ["1"])):
        capsys.readouterr()
        code = main(["phi-table", "--mu-range", *mu_range, "--sigma-list", *sigmas, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --mu-range and --sigma-list entries must be finite\n"
        assert not out.exists()
    # a negative sigma: one error line, no file
    capsys.readouterr()
    assert main(["phi-table", "--mu-range", "-1", "1", "3", "--sigma-list", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --sigma-list entries must be nonnegative\n"
    assert not out.exists()


# -------------------------------------------------------------- exit code 2

def test_linear_box_bounds_off_the_control_count_exit_two_at_their_line(tmp_path, capsys):
    """u_lower/u_upper entry counts are checked against the number of
    controls (1 here) before the model is built, so the error names the key
    and its line, not NumPy's broadcast error."""
    text = LINEAR_LQG.replace("terminal_cost_diag = 2.0 1.0\n",
                              "terminal_cost_diag = 2.0 1.0\nu_lower = -1 -1\nu_upper = 1 1 1\n")
    cfg = _cfg(tmp_path, text)
    line = text.splitlines().index("u_lower = -1 -1") + 1
    assert main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:{line}: u_lower needs 1 entries, one per control (got 2)"]
    assert not (tmp_path / "out").exists()


def test_config_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\ntype = hovercraft\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["simulate", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.cfg")]) == 2


def _fresh_python(*args: str, check: bool = True):
    """``python *args`` in a fresh interpreter, with this checkout's package
    first on its import path; the finished process."""
    import os
    import subprocess
    import sys

    import dualmpc

    src = str(Path(dualmpc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=check,
                          timeout=300)


def test_a_cli_run_imports_no_scipy(tmp_path):
    """A fresh interpreter that imports the package and runs one shipped
    ``nominal`` solve through the CLI holds no ``scipy`` module afterwards:
    the package needs NumPy and the standard library only, and no deferred
    import moves SciPy's start-up cost into the run."""
    script = (
        "import json, sys\n"
        "import dualmpc, dualmpc.cli\n"
        "code = dualmpc.cli.main(['solve', sys.argv[1], '--controller', 'nominal', '--out', sys.argv[2]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))\n"
    )
    shipped = Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg"
    out = _fresh_python("-c", script, str(shipped), str(tmp_path))
    code, scipy_modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert code == 0 and (tmp_path / "solve_nominal.json").is_file()
    assert scipy_modules == []


def test_python_dash_m_runs_the_cli(tmp_path):
    """``python -m dualmpc`` is the console script: a ``phi-table`` run
    exits 0 and writes the bytes that ``cli.main`` writes for the same
    arguments, and a ``solve`` of a missing config exits 2, the CLI's
    error code, with the error on stderr."""
    args = ["phi-table", "--mu-range", "-2", "2", "9", "--sigma-list", "0", "0.5", "1", "--out"]
    assert main([*args, str(tmp_path / "in_process.csv")]) == 0
    run = _fresh_python("-m", "dualmpc", *args, str(tmp_path / "module.csv"))
    assert run.returncode == 0
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()
    missing = tmp_path / "missing.cfg"
    run = _fresh_python("-m", "dualmpc", "solve", str(missing), "--out", str(tmp_path / "out"), check=False)
    assert run.returncode == 2 and "missing.cfg" in run.stderr
    assert not (tmp_path / "out").exists()
