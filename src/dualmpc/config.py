"""Experiment configuration: a flat, sectioned key=value text format.

The format is deliberately minimal and diff-friendly::

    # comment
    [model]
    type = unicycle
    dt_s = 0.3
    process_noise_std = 0.02 0.02 0.02

Sections and keys are validated against a schema, and each value is
converted by its key's kind as it is read: unknown sections or keys and
malformed values, in any key, are rejected with the offending line number.
Vector values are whitespace-separated numbers; matrices are row-major
vectors whose shape is inferred from the model dimensions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ControlProblem, make_linear_problem
from .ocp_solver import MODES, SolveOptions
from .simulator import SimConfig
from .unicycle import UnicycleParams, make_unicycle_problem


class ConfigError(ValueError):
    """Malformed experiment configuration (message carries file:line)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: problem, solver budgets, simulation setup."""

    problem: ControlProblem
    solver_options: SolveOptions
    sim_solver_options: SolveOptions
    sim_config: SimConfig
    controllers: tuple[str, ...]
    output_dir: str


# One converter per kind of value: each takes the key and the value text and
# returns the value, or raises ValueError with the message to report.
def _float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{key} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text!r}")
    return value


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} is not an integer: {text!r}") from None


def _vector(key: str, text: str) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise ValueError(f"{key} is not a list of numbers: {text!r}") from None
    if values.size == 0:
        raise ValueError(f"{key} expects at least one number")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{key} must be finite")
    return values


def _word(key: str, text: str) -> str:
    if len(text.split()) != 1:
        raise ValueError(f"{key} expects a single word, got {text!r}")
    return text


def _words(key: str, text: str) -> tuple[str, ...]:
    items = tuple(text.split())
    if not items:
        raise ValueError(f"{key} expects at least one word")
    return items


def _mode(key: str, text: str) -> str:
    mode = _word(key, text)
    if mode not in MODES:
        raise ValueError(f"mode must be one of {sorted(MODES)}, got {mode!r}")
    return mode


def _modes(key: str, text: str) -> tuple[str, ...]:
    names = _words(key, text)
    for name in names:
        if name not in MODES:
            raise ValueError(f"unknown controller {name!r}; pick from {sorted(MODES)}")
    return names


# schema: section -> key -> converter of its value
_SCHEMA = {
    "model": {
        "type": _word,
        "horizon_steps": _int,
        "dt_s": _float,
        "rk4_substeps": _int,
        "u_max": _float,
        "control_weight": _float,
        "violation_weight": _float,
        "smoothing_eps": _float,
        "process_noise_std": _vector,
        "measurement_noise_std": _vector,
        "dynamics_matrix": _vector,
        "input_matrix": _vector,
        "process_noise_matrix": _vector,
        "output_matrix": _vector,
        "measurement_noise_matrix": _vector,
        "state_cost_diag": _vector,
        "control_cost_diag": _vector,
        "terminal_cost_diag": _vector,
        "u_lower": _vector,
        "u_upper": _vector,
    },
    "solver": {
        "mode": _mode,
        "tolerance": _float,
        "max_iterations": _int,
        "eps_sigma": _float,
        "eps_feedback": _float,
    },
    "simulation": {
        "steps": _int,
        "runs": _int,
        "master_seed": _int,
        "init_mean": _vector,
        "init_cov_diag": _vector,
        "controllers": _modes,
        "solver_tolerance": _float,
        "solver_max_iterations": _int,
    },
    "output": {
        "directory": _word,
    },
}

_REQUIRED = {
    "model": ("type", "horizon_steps"),
    "simulation": ("init_mean", "init_cov_diag"),
}


class _Section:
    """One parsed section: the converted value and the line of each key set."""

    def __init__(self, path: Path, name: str):
        self.path, self.name = path, name
        self.values: dict = {}  # key -> converted value
        self.lines: dict[str, int] = {}  # key -> line number

    def fail(self, key: str, message: str):
        raise ConfigError(f"{self.path}:{self.lines[key]}: {message}")

    def matrix(self, key: str, rows: int, context: str) -> np.ndarray:
        flat = self.values[key]
        if flat.size % rows:
            self.fail(key, f"{key} has {flat.size} entries, not divisible into {rows} {context} rows")
        return flat.reshape(rows, -1)

    def sizes(self, wanted: dict[str, tuple[int, str]]) -> None:
        """Fail at the first key set, in file order, whose vector does not
        have its wanted number of entries (``key: (count, reason)``)."""
        for key in sorted((k for k in wanted if k in self.values), key=self.lines.__getitem__):
            count, reason = wanted[key]
            if self.values[key].size != count:
                self.fail(key, f"{key} needs {count} entries, {reason} (got {self.values[key].size})")

    def require(self, keys) -> None:
        missing = [k for k in keys if k not in self.values]
        if missing:
            raise ConfigError(
                f"{self.path}: [{self.name}] is missing required key(s): " + ", ".join(missing)
            )


def _present(section: _Section, *keys: str, **renamed: str) -> dict:
    """The values ``section`` sets among ``keys``, each under its own name,
    and among ``renamed`` (field=key), under the field name.  Keys left out
    stay out, so the dataclass that takes the values supplies their defaults."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {field: section.values[key] for field, key in pairs if key in section.values}


def _parse_lines(path: Path, text: str) -> dict[str, _Section]:
    sections = {name: _Section(path, name) for name in _SCHEMA}
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            current = sections[name]
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        convert = _SCHEMA[current.name].get(key)
        if convert is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{current.name}]")
        if key in current.lines:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} (first set on line {current.lines[key]})")
        try:
            current.values[key] = convert(key, value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        current.lines[key] = lineno
    return sections


def _build_unicycle(path: Path, model: _Section) -> ControlProblem:
    model.require(("dt_s", "u_max", "process_noise_std", "measurement_noise_std"))
    values = model.values
    for key in ("process_noise_std", "measurement_noise_std"):
        if values[key].size not in (1, 3):
            model.fail(key, f"{key} needs 1 or 3 entries for the unicycle")
    try:
        params = UnicycleParams(
            dt=values["dt_s"],
            horizon=values["horizon_steps"],
            process_noise_cov=np.diag(np.broadcast_to(values["process_noise_std"], 3) ** 2),
            measurement_noise_cov=np.diag(np.broadcast_to(values["measurement_noise_std"], 3) ** 2),
            u_max=np.full(2, values["u_max"]),
            smoothing_eps=values.get("smoothing_eps", 1e-2),
            **_present(model, "control_weight", "violation_weight", substeps="rk4_substeps"),
        )
        return make_unicycle_problem(params)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid unicycle parameters: {exc}") from exc


def _build_linear(path: Path, model: _Section) -> ControlProblem:
    model.require((
        "dynamics_matrix", "input_matrix", "process_noise_matrix",
        "output_matrix", "measurement_noise_matrix",
        "state_cost_diag", "control_cost_diag", "terminal_cost_diag",
    ))
    values = model.values
    a_flat = values["dynamics_matrix"]
    n_x = math.isqrt(a_flat.size)
    if n_x * n_x != a_flat.size:
        model.fail("dynamics_matrix", f"dynamics_matrix must be square (got {a_flat.size} entries)")
    A = a_flat.reshape(n_x, n_x)
    B = model.matrix("input_matrix", n_x, "state")
    G = model.matrix("process_noise_matrix", n_x, "state")
    C_flat = values["output_matrix"]
    if C_flat.size % n_x:
        model.fail("output_matrix", f"output_matrix needs a multiple of {n_x} entries")
    C = C_flat.reshape(-1, n_x)
    D = model.matrix("measurement_noise_matrix", C.shape[0], "output")
    per_state, per_control = (n_x, "one per state"), (B.shape[1], "one per control")
    model.sizes({
        "state_cost_diag": per_state, "terminal_cost_diag": per_state,
        "control_cost_diag": per_control, "u_lower": per_control, "u_upper": per_control,
    })
    q, r, qf = values["state_cost_diag"], values["control_cost_diag"], values["terminal_cost_diag"]
    try:
        return make_linear_problem(
            A, B, G, C, D, np.diag(q), np.diag(r), np.diag(qf),
            horizon=values["horizon_steps"],
            u_lower=values.get("u_lower"),
            u_upper=values.get("u_upper"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid linear model: {exc}") from exc


_BUILDERS = {"unicycle": _build_unicycle, "linear": _build_linear}


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file into ready-to-use objects."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    sections = _parse_lines(path, text)
    for name, required in _REQUIRED.items():
        sections[name].require(required)

    model = sections["model"]
    kind = model.values["type"]
    if kind not in _BUILDERS:
        model.fail("type", f"model type must be 'unicycle' or 'linear', got {kind!r}")
    problem = _BUILDERS[kind](path, model)

    solver = sections["solver"]
    try:
        solver_options = SolveOptions(
            **_present(solver, "mode", "tolerance", "max_iterations", "eps_sigma", eps_K="eps_feedback")
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid solver options: {exc}") from exc

    sim = sections["simulation"]
    init_mean = sim.values["init_mean"]
    init_cov_diag = sim.values["init_cov_diag"]
    sim.sizes(dict.fromkeys(("init_mean", "init_cov_diag"), (problem.model.n_x, "one per state")))
    if np.any(init_cov_diag < 0.0):
        sim.fail("init_cov_diag", "init_cov_diag must be nonnegative")
    try:
        sim_config = SimConfig(
            init_mean=init_mean, init_cov=np.diag(init_cov_diag),
            **_present(sim, "steps", "runs", "master_seed"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid simulation block: {exc}") from exc
    try:
        sim_solver_options = dataclasses.replace(
            solver_options, **_present(sim, tolerance="solver_tolerance", max_iterations="solver_max_iterations")
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid simulation solver options: {exc}") from exc

    return ExperimentConfig(
        problem=problem,
        solver_options=solver_options,
        sim_solver_options=sim_solver_options,
        sim_config=sim_config,
        controllers=sim.values.get("controllers", MODES),
        output_dir=sections["output"].values.get("directory", "results"),
    )
