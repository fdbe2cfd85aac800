"""Experiment configuration: a flat, sectioned key=value text format.

The format is deliberately minimal and diff-friendly::

    # comment
    [model]
    type = unicycle
    dt_s = 0.3
    process_noise_std = 0.02 0.02 0.02

Sections and keys are validated against a schema; unknown sections or keys
are rejected with the offending line number, as are malformed values.
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


@dataclass
class _Entry:
    value: str
    line: int


# schema: section -> key -> kind; kinds: float, int, vector, word, words
_SCHEMA = {
    "model": {
        "type": "word",
        "horizon_steps": "int",
        "dt_s": "float",
        "rk4_substeps": "int",
        "u_max": "float",
        "control_weight": "float",
        "violation_weight": "float",
        "smoothing_eps": "float",
        "process_noise_std": "vector",
        "measurement_noise_std": "vector",
        "dynamics_matrix": "vector",
        "input_matrix": "vector",
        "process_noise_matrix": "vector",
        "output_matrix": "vector",
        "measurement_noise_matrix": "vector",
        "state_cost_diag": "vector",
        "control_cost_diag": "vector",
        "terminal_cost_diag": "vector",
        "u_lower": "vector",
        "u_upper": "vector",
    },
    "solver": {
        "mode": "word",
        "tolerance": "float",
        "max_iterations": "int",
        "eps_sigma": "float",
        "eps_feedback": "float",
    },
    "simulation": {
        "steps": "int",
        "runs": "int",
        "master_seed": "int",
        "init_mean": "vector",
        "init_cov_diag": "vector",
        "controllers": "words",
        "solver_tolerance": "float",
        "solver_max_iterations": "int",
    },
    "output": {
        "directory": "word",
    },
}

_REQUIRED = {
    "model": ("type", "horizon_steps"),
    "simulation": ("init_mean", "init_cov_diag"),
}


def _parse_lines(path: Path, text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{name}]")
            current = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            first = sections[current][key].line
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {first})"
            )
        sections[current][key] = _Entry(value.strip(), lineno)
    return sections


class _Section:
    """Typed access to one parsed section with line-precise errors."""

    def __init__(self, path: Path, name: str, entries: dict[str, _Entry]):
        self.path = path
        self.name = name
        self.entries = entries

    def _fetch(self, key: str) -> _Entry | None:
        return self.entries.get(key)

    def _fail(self, entry: _Entry, message: str):
        raise ConfigError(f"{self.path}:{entry.line}: {message}")

    def word(self, key: str, default: str | None = None) -> str | None:
        entry = self._fetch(key)
        if entry is None:
            return default
        if not entry.value or len(entry.value.split()) != 1:
            self._fail(entry, f"{key} expects a single word, got {entry.value!r}")
        return entry.value

    def words(self, key: str, default=None):
        entry = self._fetch(key)
        if entry is None:
            return default
        items = tuple(entry.value.split())
        if not items:
            self._fail(entry, f"{key} expects at least one word")
        return items

    def number(self, key: str, default: float | None = None) -> float | None:
        entry = self._fetch(key)
        if entry is None:
            return default
        try:
            value = float(entry.value)
        except ValueError:
            self._fail(entry, f"{key} is not a number: {entry.value!r}")
        if not math.isfinite(value):
            self._fail(entry, f"{key} must be finite, got {entry.value!r}")
        return value

    def integer(self, key: str, default: int | None = None) -> int | None:
        entry = self._fetch(key)
        if entry is None:
            return default
        try:
            return int(entry.value)
        except ValueError:
            self._fail(entry, f"{key} is not an integer: {entry.value!r}")

    def vector(self, key: str, default=None) -> np.ndarray | None:
        entry = self._fetch(key)
        if entry is None:
            return default
        try:
            values = np.array([float(tok) for tok in entry.value.split()])
        except ValueError:
            self._fail(entry, f"{key} is not a list of numbers: {entry.value!r}")
        if values.size == 0:
            self._fail(entry, f"{key} expects at least one number")
        if not np.all(np.isfinite(values)):
            self._fail(entry, f"{key} must be finite")
        return values

    def matrix(self, key: str, rows: int, context: str) -> np.ndarray | None:
        entry = self.entries.get(key)
        flat = self.vector(key)
        if flat is None:
            return None
        if flat.size % rows:
            self._fail(entry, f"{key} has {flat.size} entries, not divisible into {rows} {context} rows")
        return flat.reshape(rows, -1)

    def require(self, keys) -> None:
        missing = [k for k in keys if k not in self.entries]
        if missing:
            raise ConfigError(
                f"{self.path}: [{self.name}] is missing required key(s): " + ", ".join(missing)
            )


def _section(path: Path, sections: dict, name: str) -> _Section:
    return _Section(path, name, sections.get(name, {}))


def _build_unicycle(path: Path, model: _Section) -> ControlProblem:
    model.require(("dt_s", "u_max", "process_noise_std", "measurement_noise_std"))
    p_std = model.vector("process_noise_std")
    m_std = model.vector("measurement_noise_std")
    if p_std.size not in (1, 3) or m_std.size not in (1, 3):
        raise ConfigError(f"{path}: unicycle noise stds need 1 or 3 entries")
    try:
        params = UnicycleParams(
            dt=model.number("dt_s"),
            horizon=model.integer("horizon_steps"),
            process_noise_cov=np.diag(np.broadcast_to(p_std, 3) ** 2),
            measurement_noise_cov=np.diag(np.broadcast_to(m_std, 3) ** 2),
            u_max=np.full(2, model.number("u_max")),
            smoothing_eps=model.number("smoothing_eps", 1e-2),
            substeps=model.integer("rk4_substeps", 4),
            control_weight=model.number("control_weight", 1e-6),
            violation_weight=model.number("violation_weight", 1e3),
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
    a_flat = model.vector("dynamics_matrix")
    n_x = math.isqrt(a_flat.size)
    if n_x * n_x != a_flat.size:
        raise ConfigError(f"{path}: dynamics_matrix must be square (got {a_flat.size} entries)")
    A = a_flat.reshape(n_x, n_x)
    B = model.matrix("input_matrix", n_x, "state")
    G = model.matrix("process_noise_matrix", n_x, "state")
    C_flat = model.vector("output_matrix")
    if C_flat.size % n_x:
        raise ConfigError(f"{path}: output_matrix needs a multiple of {n_x} entries")
    C = C_flat.reshape(-1, n_x)
    D = model.matrix("measurement_noise_matrix", C.shape[0], "output")
    q = model.vector("state_cost_diag")
    r = model.vector("control_cost_diag")
    qf = model.vector("terminal_cost_diag")
    if q.size != n_x or qf.size != n_x or r.size != B.shape[1]:
        raise ConfigError(f"{path}: cost diagonals do not match the model dimensions")
    try:
        return make_linear_problem(
            A, B, G, C, D, np.diag(q), np.diag(r), np.diag(qf),
            horizon=model.integer("horizon_steps"),
            u_lower=model.vector("u_lower"),
            u_upper=model.vector("u_upper"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid linear model: {exc}") from exc


def _solve_options(path: Path, solver: _Section, mode: str) -> SolveOptions:
    # Read the values first: a malformed one is a ConfigError (a ValueError)
    # that already names its line.
    values = dict(
        tolerance=solver.number("tolerance", 1e-6),
        max_iterations=solver.integer("max_iterations", 500),
        eps_sigma=solver.number("eps_sigma", 1e-3),
        eps_K=solver.number("eps_feedback", 1e-4),
    )
    try:
        return SolveOptions(mode=mode, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid solver options: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file into ready-to-use objects."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    sections = _parse_lines(path, text)
    for name, required in _REQUIRED.items():
        _section(path, sections, name).require(required)

    model = _section(path, sections, "model")
    kind = model.word("type")
    if kind == "unicycle":
        problem = _build_unicycle(path, model)
    elif kind == "linear":
        problem = _build_linear(path, model)
    else:
        entry = model.entries["type"]
        raise ConfigError(
            f"{path}:{entry.line}: model type must be 'unicycle' or 'linear', got {kind!r}"
        )

    solver = _section(path, sections, "solver")
    mode = solver.word("mode", "output_feedback")
    if mode not in MODES:
        entry = solver.entries["mode"]
        raise ConfigError(f"{path}:{entry.line}: mode must be one of {sorted(MODES)}, got {mode!r}")
    solver_options = _solve_options(path, solver, mode)

    sim = _section(path, sections, "simulation")
    init_mean = sim.vector("init_mean")
    init_cov_diag = sim.vector("init_cov_diag")
    if init_mean.size != problem.model.n_x or init_cov_diag.size != problem.model.n_x:
        raise ConfigError(
            f"{path}: init_mean/init_cov_diag must have {problem.model.n_x} entries"
        )
    if np.any(init_cov_diag < 0.0):
        raise ConfigError(f"{path}: init_cov_diag must be nonnegative")
    counts = dict(
        steps=sim.integer("steps", 20),
        runs=sim.integer("runs", 20),
        master_seed=sim.integer("master_seed", 0),
    )
    try:
        sim_config = SimConfig(init_mean=init_mean, init_cov=np.diag(init_cov_diag), **counts)
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid simulation block: {exc}") from exc

    controllers = sim.words("controllers", ("nominal", "open_loop", "output_feedback"))
    for name in controllers:
        if name not in MODES:
            raise ConfigError(
                f"{path}: unknown controller {name!r}; pick from {sorted(MODES)}"
            )
    sim_tolerance = sim.number("solver_tolerance", solver_options.tolerance)
    sim_max_iterations = sim.integer("solver_max_iterations", solver_options.max_iterations)
    try:
        sim_solver_options = dataclasses.replace(
            solver_options, tolerance=sim_tolerance, max_iterations=sim_max_iterations
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid simulation solver options: {exc}") from exc

    out = _section(path, sections, "output")
    output_dir = out.word("directory", "results")

    return ExperimentConfig(
        problem=problem,
        solver_options=solver_options,
        sim_solver_options=sim_solver_options,
        sim_config=sim_config,
        controllers=tuple(controllers),
        output_dir=output_dir,
    )
