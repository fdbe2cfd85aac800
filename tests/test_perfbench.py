"""The benchmark's view of the package: every name perfbench imports exists
and keeps the call shape perfbench uses, so a change of the package cannot
fail every benchmark run at import or in the layer microbenchmarks."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from dualmpc import Policy, kalman_recursion, linearize_trajectory, load_config, nominal_rollout, propagate_covariance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg"


def test_perfbench_workloads_import(monkeypatch):
    """perfbench/workloads.py imports (with its sibling tracing.py) and
    names the two workloads of BENCHMARK.json; no bytecode is written
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert set(workloads.WORKLOADS) == {"plan", "closed_loop"}


def test_perfbench_pipeline_calls_keep_their_shapes():
    """The microbenchmarks unpack ``kalman_recursion(lin, P0)`` into
    (gains, covs) and read ``propagate_covariance(...).sigma``, batched
    over gains, as ``perfbench/workloads.py`` does."""
    config = load_config(CONFIG)
    model, x0, P0 = config.problem.model, config.sim_config.init_mean, config.sim_config.init_cov
    N, n_u, n_x = model.horizon, model.n_u, model.n_x
    u = np.zeros((N, n_u))
    lin = linearize_trajectory(model, nominal_rollout(model, x0, u))
    gains, covs = kalman_recursion(lin, P0)
    assert gains.shape == (N, n_x, model.n_y) and covs.shape == (N + 1, n_x, n_x)
    feedback = np.zeros((3, N - 1, n_u, n_x))
    sigma = propagate_covariance(lin, Policy(u_nom=u, feedback=feedback), gains, P0).sigma
    assert sigma.shape == (3, N + 1, 2 * n_x, 2 * n_x)
