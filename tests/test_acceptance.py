"""Top-level acceptance checks, one test per release criterion.

Every test validates one externally checkable claim about the package
against an independent oracle — Monte-Carlo simulation, Riccati/Kalman
recursions, closed-form values, or byte-level re-execution — and prints a
single PASS/FAIL line with the measured margins.  Run with ``pytest -s``
to see the lines for passing criteria too; under plain ``pytest -v`` the
per-test PASSED/FAILED verdicts carry the same information.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from dualmpc import (
    ObjectiveEvaluator,
    Policy,
    RecedingHorizonController,
    SolveOptions,
    expected_relu,
    kalman_recursion,
    linearize_trajectory,
    load_config,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
    propagate_covariance,
    run_batch,
    solve,
    total_objective,
)
from dualmpc.cli import main as cli_main
from dualmpc.ocp_solver import _gradient, _Variables

from conftest import standard_unicycle_params
from oracles import expected_quadratic, luenberger_covariance

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "unicycle.cfg"


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} [{label}]: {detail}")
    assert ok, f"criterion {num} [{label}]: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_hinge_expectation_matches_monte_carlo():
    """E[max(0, z)] for z ~ N(mu, sigma^2) against 1e7-sample estimates.

    Each grid point must land within three standard errors of its own
    Monte-Carlo estimate (plus a 1e-12 absolute allowance for deep-tail
    points where every sample is exactly zero), and the sigma = 1, mu = 0
    value must hit 1/sqrt(2*pi) to 1e-6.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    z = rng.standard_normal(10_000_000)
    worst = -np.inf
    all_ok = True
    for mu in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for sigma in (0.1, 1.0, 3.0):
            samples = np.maximum(mu + sigma * z, 0.0)
            estimate = float(samples.mean())
            se = float(samples.std() / np.sqrt(samples.size))
            err = abs(float(expected_relu(mu, sigma)) - estimate)
            bound = 3.0 * se + 1e-12
            worst = max(worst, err / bound)
            all_ok = all_ok and err <= bound
    ref_err = abs(float(expected_relu(0.0, 1.0)) - 0.3989423)
    elapsed = time.perf_counter() - t0
    ok = all_ok and ref_err <= 1e-6 and elapsed < 30.0
    _verdict(
        1, "hinge expectation", ok,
        f"worst err/3se={worst:.3f}, |phi(0,1)-0.3989423|={ref_err:.2e}, "
        f"{elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_02_quadratic_expectation_matches_monte_carlo():
    """E[0.5 z'Hz + g'z + c] on 20 random 5-dim Gaussian instances.

    Covariances are random full-rank L L', Hessians random PSD; each exact
    value must land within three standard errors of a 1e6-sample estimate.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    z_std = rng.standard_normal((1_000_000, 5))
    worst = -np.inf
    all_ok = True
    for _ in range(20):
        L = rng.normal(size=(5, 5))
        cov = L @ L.T
        mean = rng.normal(size=5)
        root = rng.normal(size=(5, 5))
        H = root @ root.T
        g = rng.normal(size=5)
        c = float(rng.normal())
        zs = mean + z_std @ L.T
        vals = 0.5 * np.einsum("ni,ij,nj->n", zs, H, zs) + zs @ g + c
        estimate = float(vals.mean())
        se = float(vals.std() / np.sqrt(vals.size))
        err = abs(float(expected_quadratic(H, g, c, mean, cov)) - estimate)
        worst = max(worst, err / (3.0 * se))
        all_ok = all_ok and err <= 3.0 * se
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    _verdict(
        2, "quadratic expectation", ok,
        f"worst err/3se={worst:.3f} over 20 instances, {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_03_augmented_covariance_matches_simulation():
    """Deviation/estimation-error covariance against 1e5 closed-loop rollouts.

    A random 2-state linear system is simulated exactly (plant, filter with
    arbitrary gains, estimate feedback with arbitrary gains); the sample
    covariance of (x - x_nom, xhat - x) at steps 1, 5 and 10 must match the
    propagated covariance within three standard errors entrywise.
    """
    rng = np.random.default_rng(303)
    N, n_x, n_u, n_w, n_v = 10, 2, 1, 2, 2
    A = rng.normal(size=(2, 2))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(2, 1))
    G = 0.25 * rng.normal(size=(2, 2))
    C = rng.normal(size=(2, 2))
    D = 0.3 * (np.eye(2) + 0.2 * rng.normal(size=(2, 2)))
    prob = make_linear_problem(A, B, G, C, D, np.eye(2), np.eye(1), np.eye(2), N)
    u_nom = rng.normal(size=(N, 1))
    x0 = rng.normal(size=2)
    P0 = 0.2 * np.eye(2) + 0.05 * np.ones((2, 2))
    traj = nominal_rollout(prob.model, x0, u_nom)
    lin = linearize_trajectory(prob.model, traj)
    K = 0.2 * rng.normal(size=(N - 1, n_u, n_x))
    K_hat = 0.2 * rng.normal(size=(N, n_x, 2))
    aug = propagate_covariance(lin, Policy(u_nom=u_nom, feedback=K), K_hat, P0)

    n_s = 100_000
    x = traj.states[0] + rng.standard_normal((n_s, n_x)) @ np.linalg.cholesky(P0).T
    xhat = np.tile(traj.states[0], (n_s, 1))
    checks = {}
    for k in range(N):
        K_k = np.zeros((n_u, n_x)) if k == 0 else K[k - 1]
        u = u_nom[k] + (xhat - traj.states[k]) @ K_k.T
        x = x @ A.T + u @ B.T + rng.standard_normal((n_s, n_w)) @ G.T
        y = x @ C.T + rng.standard_normal((n_s, n_v)) @ D.T
        xpred = xhat @ A.T + u @ B.T
        xhat = xpred + (y - xpred @ C.T) @ K_hat[k].T
        if k + 1 in (1, 5, 10):
            mc = np.cov(np.hstack([x - traj.states[k + 1], xhat - x]).T)
            ref = aug.sigma[k + 1]
            se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / n_s)
            checks[k + 1] = float(np.max(np.abs(mc - ref) / (3.0 * se + 1e-12)))
    worst = max(checks.values())
    _verdict(
        3, "covariance propagation", worst <= 1.0,
        "worst entrywise err/3se = "
        + ", ".join(f"{r:.3f} (k={k})" for k, r in checks.items()),
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_kalman_gains_are_matrix_optimal():
    """Kalman recursion against 50 perturbed observer-gain sequences.

    On a random 3-state system, any perturbed gain sequence must give a
    final estimation-error covariance at least as large in the matrix
    sense: min eig(P_perturbed - P_kalman) >= -1e-8.
    """
    rng = np.random.default_rng(404)
    N = 8
    A = rng.normal(size=(3, 3))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(3, 1))
    G = 0.3 * rng.normal(size=(3, 3))
    C = rng.normal(size=(2, 3))
    D = 0.25 * (np.eye(2) + 0.3 * rng.normal(size=(2, 2)))
    prob = make_linear_problem(A, B, G, C, D, np.eye(3), np.eye(1), np.eye(3), N)
    traj = nominal_rollout(prob.model, rng.normal(size=3), rng.normal(size=(N, 1)))
    lin = linearize_trajectory(prob.model, traj)
    P0 = 0.3 * np.eye(3)
    gains, covs = kalman_recursion(lin, P0)
    min_eigs = []
    for _ in range(50):
        perturbed = gains + 0.1 * rng.normal(size=gains.shape)
        final = luenberger_covariance(lin, perturbed, P0)[N]
        min_eigs.append(float(np.min(np.linalg.eigvalsh(final - covs[N]))))
    worst = min(min_eigs)
    _verdict(
        4, "Kalman matrix optimality", worst >= -1e-8,
        f"min eig(P_perturbed - P_kalman) over 50 sequences = {worst:.3e} (>= -1e-8)",
    )


# ---------------------------------------------------------------- criterion 5

def test_criterion_05_estimation_error_independent_of_feedback():
    """The estimation-error block must not react to the control feedback.

    Propagating the augmented covariance under 10 random feedback-gain
    choices must leave the estimation-error block identical to 1e-14.
    """
    rng = np.random.default_rng(505)
    N = 8
    A = rng.normal(size=(3, 3))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(3, 2))
    G = 0.3 * rng.normal(size=(3, 3))
    C = rng.normal(size=(2, 3))
    D = 0.25 * (np.eye(2) + 0.3 * rng.normal(size=(2, 2)))
    prob = make_linear_problem(A, B, G, C, D, np.eye(3), np.eye(2), np.eye(3), N)
    u_nom = rng.normal(size=(N, 2))
    traj = nominal_rollout(prob.model, rng.normal(size=3), u_nom)
    lin = linearize_trajectory(prob.model, traj)
    P0 = 0.3 * np.eye(3)
    gains, _ = kalman_recursion(lin, P0)
    base = propagate_covariance(
        lin, Policy(u_nom=u_nom, feedback=np.zeros((N - 1, 2, 3))), gains, P0
    ).P_hat
    spread = 0.0
    for _ in range(10):
        K = rng.normal(size=(N - 1, 2, 3))
        p_hat = propagate_covariance(lin, Policy(u_nom=u_nom, feedback=K), gains, P0).P_hat
        spread = max(spread, float(np.max(np.abs(p_hat - base))))
    _verdict(
        5, "estimation/feedback independence", spread <= 1e-14,
        f"max |P_hat spread| over 10 feedback choices = {spread:.3e} (<= 1e-14)",
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_linear_quadratic_solution_matches_riccati():
    """Unconstrained output-feedback solve against the separation oracle.

    On a random controllable/observable 2-state, 1-input system the solver
    must recover the time-varying Riccati state-feedback gains (1e-4
    elementwise) and the certainty-equivalence nominal plan, and its
    objective must match the oracle policy's to 1e-6 relative.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    A = rng.normal(size=(2, 2))
    A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(2, 1))
    assert np.linalg.matrix_rank(np.hstack([B, A @ B])) == 2
    C = rng.normal(size=(2, 2))
    assert abs(np.linalg.det(C)) > 1e-3
    Q = np.diag(rng.uniform(0.5, 1.5, size=2))
    R = np.array([[rng.uniform(0.3, 0.6)]])
    Qf = np.diag(rng.uniform(1.0, 2.0, size=2))
    N = 5
    x0 = rng.normal(size=2)
    P0 = 0.2 * np.eye(2)
    prob = make_linear_problem(A, B, 0.15 * np.eye(2), C, 0.3 * np.eye(2), Q, R, Qf, N)

    S = Qf.copy()
    gains = [None] * N
    for k in reversed(range(N)):
        gains[k] = -np.linalg.solve(R + B.T @ S @ B, B.T @ S @ A)
        Acl = A + B @ gains[k]
        S = Q + gains[k].T @ R @ gains[k] + Acl.T @ S @ Acl
    gains = np.array(gains)
    xbar = x0.copy()
    u_lq = np.zeros((N, 1))
    for k in range(N):
        u_lq[k] = gains[k] @ xbar
        xbar = A @ xbar + B @ u_lq[k]

    res = solve(prob, x0, P0, SolveOptions(mode="output_feedback", eps_K=0.0))
    oracle = total_objective(prob, x0, P0, Policy(u_nom=u_lq, feedback=gains[1:]), eps_K=0.0)
    gain_err = float(np.max(np.abs(res.policy.feedback - gains[1:])))
    u_err = float(np.max(np.abs(res.policy.u_nom - u_lq)))
    rel = abs(res.objective.total - oracle.total) / abs(oracle.total)
    elapsed = time.perf_counter() - t0
    ok = res.converged and gain_err <= 1e-4 and u_err <= 1e-4 and rel <= 1e-6 and elapsed < 60.0
    _verdict(
        6, "Riccati separation", ok,
        f"gain err={gain_err:.2e} (<=1e-4), plan err={u_err:.2e}, "
        f"objective rel err={rel:.2e} (<=1e-6), {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_gradient_matches_directional_differences():
    """Solver gradient on the unicycle against central differences.

    The gradient the solver uses (one reverse-mode pass through the
    prediction pipeline, controls and feedback gains alike) must reproduce
    secondary directional derivatives along 5 random unit directions to
    1e-4 relative.
    """
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    x0 = np.array([1.0, 0.5, 2.0])
    P0 = 1e-4 * np.eye(3)
    ev = ObjectiveEvaluator(prob, x0, P0)
    var = _Variables(prob, "output_feedback")
    rng = np.random.default_rng(707)
    theta = np.concatenate([
        rng.uniform(-1.0, 1.0, size=var.n_u_vars),
        rng.normal(0.0, 0.1, size=var.n_k_vars),
    ])

    def scalar(th):
        pol = var.unpack(th)
        return float(ev.totals(pol.u_nom, pol.feedback)[0])

    g = _gradient(ev, var, ev.totals(var.unpack(theta).u_nom, var.unpack(theta).feedback)[1])
    t = 1e-6
    worst = 0.0
    for _ in range(5):
        d = rng.normal(size=var.size)
        d /= np.linalg.norm(d)
        secondary = (scalar(theta + t * d) - scalar(theta - t * d)) / (2 * t)
        worst = max(worst, abs(float(g @ d) - secondary) / abs(secondary))
    _verdict(
        7, "gradient check", worst <= 1e-4,
        f"worst relative directional error over 5 directions = {worst:.2e} (<= 1e-4)",
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_output_feedback_dominates_open_loop():
    """Adding feedback can only help when it costs nothing.

    For 5 unicycle instances, the output-feedback solve warm-started at the
    open-loop solution (zero gains, no feedback regularization) must end at
    an objective no worse than the open-loop optimum plus 1e-8.
    """
    t0 = time.perf_counter()
    prob = make_unicycle_problem(standard_unicycle_params(horizon=8))
    starts = [
        np.array([1.0, 1.0, np.pi]),
        np.array([0.8, 0.6, 3.0]),
        np.array([1.2, -0.4, 2.2]),
        np.array([0.5, 1.0, 2.6]),
        np.array([1.5, 0.2, np.pi]),
    ]
    P0 = 0.01 * np.eye(3)
    margins = []
    for x0 in starts:
        res_ol = solve(prob, x0, P0, SolveOptions(mode="open_loop", eps_K=0.0))
        warm = Policy(u_nom=res_ol.policy.u_nom, feedback=np.zeros((7, 2, 3)))
        res_of = solve(
            prob, x0, P0,
            SolveOptions(mode="output_feedback", eps_K=0.0, max_iterations=200),
            warm_start=warm,
        )
        margins.append(res_of.objective.total - res_ol.objective.total)
    worst = max(margins)
    elapsed = time.perf_counter() - t0
    _verdict(
        8, "mode dominance", worst <= 1e-8,
        f"max(objective_of - objective_ol) over 5 instances = {worst:.3e} "
        f"(<= 1e-8), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 9

@pytest.mark.slow
def test_criterion_09_closed_loop_orderings_hold():
    """Controller comparison on the shipped unicycle experiment defaults.

    20 paired-seed closed-loop runs of 20 steps each, using the shipped
    config unmodified.  The dual-effect controller must violate the state
    bound less often than the certainty-equivalence one (and at most 5% of
    steps), and must beat the open-loop-uncertainty one on realized stage
    cost, lateral distance, and estimate-covariance trace.  Budget: 15
    minutes on one core.
    """
    t0 = time.perf_counter()
    cfg = load_config(str(CONFIG_PATH))
    assert cfg.sim_config.runs == 20 and cfg.sim_config.steps == 20
    assert set(cfg.controllers) == {"nominal", "open_loop", "output_feedback"}
    summaries = {}
    for name in cfg.controllers:
        options = dataclasses.replace(cfg.sim_solver_options, mode=name)
        summary, _ = run_batch(
            cfg.problem,
            lambda: RecedingHorizonController(cfg.problem, options),
            cfg.sim_config,
            controller_name=name,
        )
        summaries[name] = summary
    nom, ol, of = (summaries[n] for n in ("nominal", "open_loop", "output_feedback"))
    elapsed = time.perf_counter() - t0
    ok = (
        nom.violation_frequency > of.violation_frequency
        and of.violation_frequency <= 0.05
        and of.mean_stage_cost < ol.mean_stage_cost
        and of.mean_abs_lateral < ol.mean_abs_lateral
        and of.mean_estimate_cov_trace < ol.mean_estimate_cov_trace
        and all(s.diverged_runs == 0 for s in summaries.values())
        and elapsed < 900.0
    )
    _verdict(
        9, "closed-loop orderings", ok,
        f"violations nom={nom.violation_frequency:.4f} > of={of.violation_frequency:.4f} <= 0.05; "
        f"stage cost of={of.mean_stage_cost:.4f} < ol={ol.mean_stage_cost:.4f}; "
        f"lateral of={of.mean_abs_lateral:.4f} < ol={ol.mean_abs_lateral:.4f}; "
        f"tr P_hat of={of.mean_estimate_cov_trace:.5f} < ol={ol.mean_estimate_cov_trace:.5f}; "
        f"{elapsed:.0f}s (<900s)",
    )


# --------------------------------------------------------------- criterion 10

def test_criterion_10_outputs_are_byte_identical(tmp_path):
    """Re-running solve and simulate with the same config reproduces every
    CSV/JSON output byte for byte."""
    cfg_text = """\
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
master_seed = 7
init_mean = 1.0 0.8 3.0
init_cov_diag = 0.01 0.01 0.01
solver_tolerance = 1e-3
solver_max_iterations = 8
"""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(cfg_text)
    codes = {"solve": [], "simulate": []}
    for tag in ("a", "b"):
        codes["solve"].append(
            cli_main(["solve", str(cfg), "--out", str(tmp_path / f"solve_{tag}")])
        )
        codes["simulate"].append(
            cli_main(["simulate", str(cfg), "--out", str(tmp_path / f"sim_{tag}")])
        )
    compared = 0
    identical = True
    for kind in ("solve", "sim"):
        dir_a = tmp_path / f"{kind}_a"
        dir_b = tmp_path / f"{kind}_b"
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        identical = identical and files_a == files_b
        for name in files_a:
            compared += 1
            identical = identical and (
                (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            )
    ok = (
        identical
        and compared >= 4
        and codes["solve"][0] == codes["solve"][1]
        and codes["simulate"][0] == codes["simulate"][1]
    )
    _verdict(
        10, "byte-identical outputs", ok,
        f"{compared} files compared across two invocations, all identical={identical}",
    )
