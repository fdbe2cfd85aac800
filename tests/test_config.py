"""Config parsing: schema validation, line-precise errors, typed access."""

import re
from pathlib import Path

import numpy as np
import pytest

from dualmpc import MODES, ConfigError, SolveOptions, load_config
from dualmpc.cli import main
from dualmpc.config import _SCHEMA

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_CONFIG = REPO_ROOT / "configs" / "unicycle.cfg"

MINIMAL_UNICYCLE = """\
[model]
type = unicycle
horizon_steps = 4
dt_s = 0.25
u_max = 1.5
process_noise_std = 0.02
measurement_noise_std = 0.01 0.01 0.02

[simulation]
init_mean = 1.0 0.5 3.0
init_cov_diag = 0.01 0.01 0.01
"""

LINEAR = """\
[model]
type = linear
horizon_steps = 6
dynamics_matrix = 1.0 0.1 0.0 1.0
input_matrix = 0.005 0.1
process_noise_matrix = 0.15 0.0 0.0 0.15
output_matrix = 1.0 0.0 0.0 1.0
measurement_noise_matrix = 0.3 0.0 0.0 0.3
state_cost_diag = 1.0 0.5
control_cost_diag = 0.4
terminal_cost_diag = 2.0 1.0

[simulation]
init_mean = 1.0 -0.5
init_cov_diag = 0.2 0.2
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_shipped_unicycle_config_loads():
    cfg = load_config(REPO_CONFIG)
    assert cfg.problem.model.state_names == ("r_x", "r_y", "theta")
    assert cfg.problem.model.horizon == 10
    assert cfg.sim_config.steps == 20 and cfg.sim_config.runs == 20
    assert cfg.controllers == ("nominal", "open_loop", "output_feedback")
    assert cfg.solver_options.mode == "output_feedback"
    # in-loop solves use their own budget
    assert cfg.sim_solver_options.tolerance == pytest.approx(1e-4)
    assert cfg.sim_solver_options.max_iterations == 30
    assert cfg.solver_options.max_iterations == 500


def test_minimal_unicycle_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_UNICYCLE))
    assert cfg.problem.model.horizon == 4
    assert cfg.solver_options.mode == "output_feedback"
    assert cfg.sim_config.steps == 20 and cfg.sim_config.master_seed == 0
    assert cfg.output_dir == "results"
    # keys left out take the defaults of the dataclasses that receive them
    assert cfg.solver_options == cfg.sim_solver_options == SolveOptions()
    assert cfg.controllers == MODES
    np.testing.assert_allclose(cfg.sim_config.init_mean, [1.0, 0.5, 3.0])
    np.testing.assert_allclose(cfg.sim_config.init_cov, 0.01 * np.eye(3))


def test_linear_model_block_builds_problem(tmp_path):
    cfg = load_config(_write(tmp_path, LINEAR))
    model = cfg.problem.model
    assert model.state_names == ("x_0", "x_1")
    assert (model.n_x, model.n_u, model.n_w, model.n_v) == (2, 1, 2, 2)
    x = np.array([1.0, -0.5])
    u = np.array([0.2])
    np.testing.assert_allclose(
        model.f(x, u, np.zeros(2)),
        np.array([[1.0, 0.1], [0.0, 1.0]]) @ x + np.array([0.005, 0.1]) * u[0],
    )


def test_unknown_key_is_rejected_with_line_number(tmp_path):
    text = MINIMAL_UNICYCLE.replace("dt_s = 0.25", "dt_s = 0.25\nwheelbase = 1.0")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=r"exp\.cfg:5: unknown key 'wheelbase'"):
        load_config(path)


def test_unknown_section_is_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL_UNICYCLE + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        load_config(path)


def test_non_numeric_value_is_line_precise(tmp_path):
    text = MINIMAL_UNICYCLE.replace("dt_s = 0.25", "dt_s = fast")
    with pytest.raises(ConfigError, match=r"exp\.cfg:4: dt_s is not a number: 'fast'"):
        load_config(_write(tmp_path, text))


def test_duplicate_key_is_rejected(tmp_path):
    text = MINIMAL_UNICYCLE + "\n[model]\ndt_s = 0.5\n"
    with pytest.raises(ConfigError, match=r"duplicate key 'dt_s' \(first set on line 4\)"):
        load_config(_write(tmp_path, text))


def test_key_outside_section_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"key outside of any \[section\]"):
        load_config(_write(tmp_path, "type = unicycle\n" + MINIMAL_UNICYCLE))


def test_missing_required_keys_name_the_section(tmp_path):
    text = MINIMAL_UNICYCLE.replace("type = unicycle\n", "")
    with pytest.raises(ConfigError, match=r"\[model\] is missing required key\(s\): type"):
        load_config(_write(tmp_path, text))


def test_bad_mode_is_rejected(tmp_path):
    text = MINIMAL_UNICYCLE + "\n[solver]\nmode = magic\n"
    with pytest.raises(ConfigError, match=r"mode must be one of"):
        load_config(_write(tmp_path, text))


def test_bad_controller_list_is_rejected(tmp_path):
    text = MINIMAL_UNICYCLE + "\n[simulation]\ncontrollers = nominal pid\n"
    # appending a second [simulation] section merges into the same table
    with pytest.raises(ConfigError, match=r"unknown controller 'pid'"):
        load_config(_write(tmp_path, text))


def test_init_dimension_mismatch_is_rejected(tmp_path):
    """A wrong-length init vector is reported at its key and line; with
    both wrong, the first in the file."""
    short_mean = MINIMAL_UNICYCLE.replace("init_mean = 1.0 0.5 3.0", "init_mean = 1.0 0.5")
    path = _write(tmp_path, short_mean)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:10: init_mean needs 3 entries, one per state \(got 2\)$"):
        load_config(path)
    both = short_mean.replace("init_cov_diag = 0.01 0.01 0.01", "init_cov_diag = 0.01")
    swapped = "\n".join(both.splitlines()[:9] + both.splitlines()[9:][::-1]) + "\n"
    for text, line, key, got in ((both, 10, "init_mean", 2), (swapped, 10, "init_cov_diag", 1)):
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{line}: {key} needs 3 entries, one per state \(got {got}\)$"):
            load_config(path)


def test_negative_init_cov_is_rejected(tmp_path):
    text = MINIMAL_UNICYCLE.replace(
        "init_cov_diag = 0.01 0.01 0.01", "init_cov_diag = 0.01 -0.01 0.01"
    )
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:11: init_cov_diag must be nonnegative$"):
        load_config(path)


@pytest.mark.parametrize("key, line", [("process_noise_std", 6), ("measurement_noise_std", 7)])
def test_unicycle_noise_std_count_error_names_its_key(tmp_path, key, line):
    path = _write(tmp_path, re.sub(rf"{key} = .*", f"{key} = 0.01 0.01", MINIMAL_UNICYCLE))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{line}: {key} needs 1 or 3 entries"):
        load_config(path)


def test_linear_matrix_shape_errors(tmp_path):
    text = LINEAR.replace(
        "dynamics_matrix = 1.0 0.1 0.0 1.0", "dynamics_matrix = 1.0 0.1 0.0"
    )
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:4: dynamics_matrix must be square"):
        load_config(path)
    text = LINEAR.replace("output_matrix = 1.0 0.0 0.0 1.0", "output_matrix = 1.0 0.0 0.0")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:7: output_matrix needs a multiple of 2 entries$"):
        load_config(path)
    # A cost diagonal of the wrong length is reported at its key and line;
    # with several wrong, the first in the file.
    text = LINEAR.replace("control_cost_diag = 0.4", "control_cost_diag = 0.4 0.7")
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:10: control_cost_diag needs 1 entries, one per control \(got 2\)$"):
        load_config(path)
    path = _write(tmp_path, text.replace("terminal_cost_diag = 2.0 1.0", "terminal_cost_diag = 2.0"))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:10: control_cost_diag needs 1 entries"):
        load_config(path)
    path = _write(tmp_path, LINEAR.replace("state_cost_diag = 1.0 0.5", "state_cost_diag = 1.0"))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:9: state_cost_diag needs 2 entries, one per state \(got 1\)$"):
        load_config(path)


@pytest.mark.parametrize("old, new, message", [
    ("state_cost_diag = 1.0 0.5", "state_cost_diag = -1 1", "not positive semidefinite"),
    ("horizon_steps = 6", "horizon_steps = -2", "horizon must be at least 1"),
    ("horizon_steps = 6", "horizon_steps = 0", "horizon must be at least 1"),
])
def test_invalid_linear_model_is_a_config_error(tmp_path, capsys, old, new, message):
    path = _write(tmp_path, LINEAR.replace(old, new))
    with pytest.raises(ConfigError, match=rf"exp\.cfg: invalid linear model: .*{message}"):
        load_config(path)
    capsys.readouterr()
    for command in ("solve", "simulate"):
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


def test_linear_box_bounds_off_the_control_count_are_reported_at_their_line(tmp_path, capsys):
    """u_lower and u_upper need one entry per control (1 here).  A count off
    it is reported once, at the line of the first key that is off, by the
    loader and by solve and simulate (bounds of two lengths: test_cli)."""
    text = LINEAR.replace("terminal_cost_diag = 2.0 1.0",
                          "terminal_cost_diag = 2.0 1.0\nu_lower = -0.1 -0.1\nu_upper = 0.1 0.1")
    path = _write(tmp_path, text)
    line = text.splitlines().index("u_lower = -0.1 -0.1") + 1
    message = f"{path}:{line}: u_lower needs 1 entries, one per control (got 2)"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(path)
    for command in ("solve", "simulate"):
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, message", [
    ("u_max = 1.5", "u_max = 1.5\nrk4_substeps = 0", "rk4 substeps must be at least 1"),
    ("u_max = 1.5", "u_max = 1.5\nrk4_substeps = -2", "rk4 substeps must be at least 1"),
    ("dt_s = 0.25", "dt_s = 0", "finite dt > 0"),
    ("u_max = 1.5", "u_max = 0", "u_max must be positive"),
    ("u_max = 1.5", "u_max = 1.5\nsmoothing_eps = -1", "smoothing_eps must be positive"),
])
def test_invalid_unicycle_model_is_a_config_error(tmp_path, capsys, old, new, message):
    """Rejected by load_config, so the CLI exits 2 with one error line and
    writes nothing."""
    path = _write(tmp_path, MINIMAL_UNICYCLE.replace(old, new))
    with pytest.raises(ConfigError, match=rf"exp\.cfg: invalid unicycle parameters: .*{message}"):
        load_config(path)
    capsys.readouterr()
    assert main(["solve", str(path), "--controller", "nominal", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["config", "override"])
def test_negative_master_seed_is_a_config_error(tmp_path, capsys, where):
    text = MINIMAL_UNICYCLE + ("master_seed = -1\n" if where == "config" else "")
    path = _write(tmp_path, text)
    argv = ["simulate", str(path), "--out", str(tmp_path / "out")]
    if where == "config":
        with pytest.raises(ConfigError, match="invalid simulation block: .*master_seed >= 0"):
            load_config(path)
        capsys.readouterr()
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "master_seed >= 0" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    ("[solver]\neps_sigma = 0\n", "eps_sigma must be positive"),
    ("[solver]\neps_feedback = -1\n", "eps_K must be nonnegative"),
    ("solver_tolerance = 0\n", "tolerance and eps_sigma must be positive"),
    ("[solver]\nmax_iterations = -3\n", "max_iterations must be at least 1"),
])
def test_bad_solver_setting_is_a_config_error(tmp_path, capsys, extra, message):
    """Rejected by load_config, so the CLI exits 2 with one error line and
    writes nothing (MINIMAL_UNICYCLE ends inside [simulation])."""
    path = _write(tmp_path, MINIMAL_UNICYCLE + extra)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    capsys.readouterr()
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    ("[solver]\neps_sigma = abc\n", "eps_sigma is not a number: 'abc'"),
    ("[solver]\nmax_iterations = 2.5\n", "max_iterations is not an integer: '2.5'"),
    ("runs = many\n", "runs is not an integer: 'many'"),
    ("[model]\nrk4_substeps = 2.5\n", "rk4_substeps is not an integer: '2.5'"),
    ("controllers = nominal pid\n",
     "unknown controller 'pid'; pick from ['nominal', 'open_loop', 'output_feedback']"),
    # a key the unicycle model does not read is checked all the same
    ("[model]\ndynamics_matrix = 1 x\n", "dynamics_matrix is not a list of numbers: '1 x'"),
    ("[solver]\ntolerance = inf\n", "tolerance must be finite, got 'inf'"),
    ("[model]\nstate_cost_diag =\n", "state_cost_diag expects at least one number"),
    ("[model]\nu_lower = 1 nan\n", "u_lower must be finite"),
    ("[output]\ndirectory = a b\n", "directory expects a single word, got 'a b'"),
    ("controllers =\n", "controllers expects at least one word"),
])
def test_malformed_value_is_reported_once(tmp_path, capsys, extra, message):
    """A value that does not parse is reported once, at its own line, and
    not wrapped again by the block that uses it, in every key of the
    schema."""
    path = _write(tmp_path, MINIMAL_UNICYCLE + extra)
    line = len((MINIMAL_UNICYCLE + extra).splitlines())
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}:{line}: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base, old, new, message", [
    (MINIMAL_UNICYCLE, "type = unicycle", "type = bicycle", "model type must be 'unicycle' or 'linear', got 'bicycle'"),
    (LINEAR, "input_matrix = 0.005 0.1", "input_matrix = 0.005 0.1 0.2",
     "input_matrix has 3 entries, not divisible into 2 state rows"),
])
def test_value_the_model_cannot_take_is_reported_at_its_line(tmp_path, capsys, base, old, new, message):
    """A well-formed value that the model cannot take, an unknown model type
    or a linear matrix whose entry count does not fill its rows, is
    reported once, at its own line, and nothing is written."""
    text = base.replace(old, new)
    path = _write(tmp_path, text)
    assert main(["solve", str(path), "--out", str(tmp_path / "out")]) == 2
    line = text.splitlines().index(new) + 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:{line}: {message}"]
    assert not (tmp_path / "out").exists()


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"cannot read config"):
        load_config(tmp_path / "nope.cfg")


def test_malformed_line_is_rejected(tmp_path):
    text = MINIMAL_UNICYCLE + "\n[solver]\njust some words\n"
    with pytest.raises(ConfigError, match=r"expected 'key = value'"):
        load_config(_write(tmp_path, text))


def test_readme_config_keys_match_schema():
    """Each `[section]` bullet of the README's "Config format" names exactly
    the keys the parser accepts in that section."""
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("### Config format", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- `\[(\w+)\]`(.*?)(?=^- |\Z)", block, re.M | re.S)
    assert {name for name, _ in bullets} == set(_SCHEMA)
    for name, body in bullets:
        keys = set(re.findall(r"`([a-z][a-z0-9_]*)(?: = \w+)?`", body))
        assert keys == set(_SCHEMA[name]), name
