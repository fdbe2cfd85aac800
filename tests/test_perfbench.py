"""The benchmark's view of the package: every name perfbench imports exists
and keeps the call shape perfbench uses, so a change of the package cannot
fail every benchmark run at import or in the layer microbenchmarks."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from dualmpc import (
    ObjectiveEvaluator,
    Policy,
    kalman_recursion,
    linearize_trajectory,
    load_config,
    nominal_rollout,
    propagate_covariance,
    total_objective,
)

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
    (gains, covs), read ``propagate_covariance(...).sigma``, batched over
    gains, and score a batch of gain sets at one prediction with
    ``ObjectiveEvaluator.parts_from_prediction``; the plan check re-evaluates
    a policy with ``total_objective(..., include_uncertainty=...)``: all as
    ``perfbench/workloads.py`` does."""
    config = load_config(CONFIG)
    model, x0, P0 = config.problem.model, config.sim_config.init_mean, config.sim_config.init_cov
    N, n_u, n_x = model.horizon, model.n_u, model.n_x
    u = np.zeros((N, n_u))
    lin = linearize_trajectory(model, nominal_rollout(model, x0, u))
    gains, covs = kalman_recursion(lin, P0)
    n_y = model.g(x0, np.zeros(model.n_v)).size
    assert gains.shape == (N, n_x, n_y) and covs.shape == (N + 1, n_x, n_x)
    feedback = np.zeros((3, N - 1, n_u, n_x))
    sigma = propagate_covariance(lin, Policy(u_nom=u, feedback=feedback), gains, P0).sigma
    assert sigma.shape == (3, N + 1, 2 * n_x, 2 * n_x)

    opts = config.solver_options
    evaluator = ObjectiveEvaluator(config.problem, x0, P0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K)
    parts = evaluator.parts_from_prediction(evaluator.prediction(u), 0.1 * np.ones((3, N - 1, n_u, n_x)))
    assert len(parts) == 4 and all(np.shape(p) == (3,) and np.isfinite(p).all() for p in parts)
    policy = Policy(u_nom=u, feedback=np.zeros((N - 1, n_u, n_x)))
    for mode in ("nominal", "open_loop", "output_feedback"):
        again = total_objective(config.problem, x0, P0, policy, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K,
                                include_uncertainty=mode != "nominal").total
        assert isinstance(again, float) and np.isfinite(again)
