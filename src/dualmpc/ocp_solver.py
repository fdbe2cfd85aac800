"""Reduced solver for the estimate-feedback optimal control problem.

The covariance recursion is always evaluated forward from the decision
variables (single shooting), so the only free variables are the nominal
controls and the feedback gains; the constraint-variance slacks are
eliminated analytically (the expected hinge penalty is strictly increasing
in the variance, so at any optimum each slack sits at max(floor, variance)).

The optimizer is a projected quasi-Newton method: central finite-difference
gradient, damped BFGS approximation with restart, Armijo backtracking along
the projection arc, and hard box bounds on the nominal controls enforced by
clipping at every trial point.

Gradient cost note: a perturbation of the nominal controls changes the
whole prediction, but a perturbation of the feedback gains leaves the
rollout, the linearization and the filter gains untouched, so the gain rows
of the central-difference stencil reuse the prediction at the stencil's
centre and only re-run the covariance propagation.  The control rows ride in
the line search's first batch: its first trial is the full quasi-Newton
step, which is accepted in most iterations near a solution, so that batch
also carries the control rows of the stencil around that trial.  When the
full step is accepted, one prediction pass serves both the line search and
the next gradient; otherwise the stencil is evaluated at the accepted trial
in a batch of its own.  Batched rows evaluate independently, so either way
gives the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Array, ControlProblem, ModelError
from .objective import ObjectiveBreakdown, ObjectiveEvaluator
from .uncertainty import LinearizationError, Policy, RolloutError, SingularInnovationError

MODES = ("nominal", "open_loop", "output_feedback")

_CURVATURE_SKIP_LIMIT = 3
_BOUND_EPS = 1e-10


@dataclass(frozen=True)
class SolveOptions:
    """Solver configuration.

    mode selects the controller family: 'nominal' optimizes the controls on
    the noise-free model (covariance terms dropped, constraints keep the
    minimum smoothing), 'open_loop' optimizes the controls under the full
    predicted uncertainty with zero feedback, 'output_feedback' optimizes
    controls and feedback gains jointly.
    """

    mode: str = "output_feedback"
    max_iterations: int = 500
    tolerance: float = 1e-6
    fd_step: float = 1e-6
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 40
    eps_sigma: float = 1e-3
    eps_K: float = 1e-4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.tolerance <= 0 or self.fd_step <= 0:
            raise ValueError("tolerance and fd_step must be positive")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")


@dataclass(frozen=True)
class SolveResult:
    policy: Policy
    objective: ObjectiveBreakdown
    beta: list
    iterations: int
    stationarity: float
    status: str  # converged | max_iter | line_search_failure

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Variables:
    """Flat packing of (u_nom, feedback) with box bounds on the controls."""

    def __init__(self, problem: ControlProblem, mode: str):
        model = problem.model
        self.N = model.horizon
        self.n_u = model.n_u
        self.n_x = model.n_x
        self.with_gains = mode == "output_feedback"
        self.n_u_vars = self.N * self.n_u
        self.n_k_vars = (self.N - 1) * self.n_u * self.n_x if self.with_gains else 0
        self.size = self.n_u_vars + self.n_k_vars
        lo = np.tile(problem.constraints.u_lower, self.N)
        hi = np.tile(problem.constraints.u_upper, self.N)
        self.lower = np.concatenate([lo, np.full(self.n_k_vars, -np.inf)])
        self.upper = np.concatenate([hi, np.full(self.n_k_vars, np.inf)])

    def pack(self, policy: Policy) -> Array:
        parts = [np.asarray(policy.u_nom, dtype=float).ravel()]
        if self.with_gains:
            parts.append(np.asarray(policy.feedback, dtype=float).ravel())
        return np.concatenate(parts)

    def unpack(self, theta: Array) -> Policy:
        u = theta[: self.n_u_vars].reshape(self.N, self.n_u)
        if self.with_gains:
            fb = theta[self.n_u_vars :].reshape(self.N - 1, self.n_u, self.n_x)
        else:
            fb = np.zeros((max(self.N - 1, 0), self.n_u, self.n_x))
        return Policy(u_nom=u, feedback=fb)

    def unpack_batch(self, thetas: Array) -> tuple[Array, Array]:
        """Batched controls and gains; without gains, one shared zero gain set."""
        B = thetas.shape[0]
        u = thetas[:, : self.n_u_vars].reshape(B, self.N, self.n_u)
        if self.with_gains:
            fb = thetas[:, self.n_u_vars :].reshape(B, self.N - 1, self.n_u, self.n_x)
        else:
            fb = np.zeros((max(self.N - 1, 0), self.n_u, self.n_x))
        return u, fb

    def project(self, theta: Array) -> Array:
        return np.clip(theta, self.lower, self.upper)


def _stencil(theta: Array, step: float) -> tuple[Array, Array]:
    """Central-difference rows around theta and their steps.

    Row 2i is theta + h_i e_i and row 2i+1 is theta - h_i e_i, with
    h_i = step * (1 + |theta_i|).
    """
    h = step * (1.0 + np.abs(theta))
    rows = np.repeat(theta[None], 2 * theta.size, axis=0)
    idx = np.arange(theta.size)
    rows[2 * idx, idx] += h
    rows[2 * idx + 1, idx] -= h
    return rows, h


def _evaluate(ev: ObjectiveEvaluator, var: _Variables, points: Array, fd_step: float | None = None):
    """Objective totals at ``points`` from one ``ObjectiveEvaluator.totals`` batch.

    With ``fd_step`` the control rows of the central-difference stencil around
    points[0] join the batch, and the second return value, called with the
    total f0 at points[0], returns the gradient and the per-coordinate
    curvature there.  Its gain rows share the prediction at points[0] (exact,
    not an approximation: the prediction does not depend on the gains).  The
    curvatures are second differences around f0 that come for free; they
    seed the quasi-Newton metric, which matters enormously on instances
    mixing near-flat control directions with stiff penalty walls.  Without
    ``fd_step`` the second value is None.
    """
    n = points.shape[0]
    rows = points
    if fd_step is not None:
        stencil, h = _stencil(points[0], fd_step)
        rows = np.concatenate([points, stencil[: 2 * var.n_u_vars]])
    totals, pred = ev.totals(*var.unpack_batch(rows))
    if fd_step is None:
        return totals, None

    def gradient_at(f0: float) -> tuple[Array, Array]:
        fd = totals[n:]
        if var.n_k_vars:
            fb = stencil[2 * var.n_u_vars :, var.n_u_vars :]
            parts = ev.parts_from_prediction(
                pred.take(0), fb.reshape(2 * var.n_k_vars, var.N - 1, var.n_u, var.n_x)
            )
            fd = np.concatenate([fd, parts[0] + parts[1] + parts[2] + parts[3]])
        return (fd[0::2] - fd[1::2]) / (2.0 * h), (fd[0::2] - 2.0 * f0 + fd[1::2]) / h**2

    return totals[:n], gradient_at


def _fd_gradient(ev: ObjectiveEvaluator, var: _Variables, theta: Array, step: float,
                 f0: float) -> tuple[Array, Array]:
    """Central-difference gradient plus diagonal curvature at theta (see _evaluate)."""
    _, gradient_at = _evaluate(ev, var, theta[None], step)
    return gradient_at(f0)


def _diag_metric(curv: Array, gnorm: float) -> Array:
    """Damped-Newton diagonal seed for the quasi-Newton metric.

    Stiff coordinates step by roughly the inverse of their measured curvature;
    flat coordinates are floored so no step exceeds the steepest-descent scale
    1/gnorm.  Second-difference noise makes tiny curvature estimates
    unreliable, hence the additional floor relative to the stiffest coordinate.
    """
    c = np.abs(np.asarray(curv, dtype=float))
    c_max = float(np.max(c, initial=0.0))
    if not np.isfinite(c_max) or c_max <= 0.0:
        return np.eye(c.size) / max(gnorm, 1e-12)
    floor = max(1e-4 * c_max, gnorm, 1e-12)
    return np.diag(1.0 / np.maximum(c, floor))


_LS_CHUNK = 12
# Failures of one trial point that must not end the line search.
_TRIAL_ERRORS = (RolloutError, LinearizationError, SingularInnovationError, ModelError)


def _evaluate_trials(ev: ObjectiveEvaluator, var: _Variables, trials: Array, fd_step: float | None):
    """:func:`_evaluate` over line-search trials.  If the batch fails, each
    trial is re-evaluated on its own without the stencil, and a trial that
    fails alone scores +inf, so backtracking rejects it."""
    try:
        return _evaluate(ev, var, trials, fd_step)
    except _TRIAL_ERRORS:
        pass
    totals = np.full(trials.shape[0], np.inf)
    for i, trial in enumerate(trials):
        try:
            totals[i] = _evaluate(ev, var, trial[None])[0][0]
        except _TRIAL_ERRORS:
            pass
    return totals, None


def _armijo_search(ev, var: _Variables, theta: Array, f: float, g: Array,
                   direction: Array, opts: "SolveOptions", fd_step: float | None = None):
    """Backtracking Armijo search along the projection arc.

    Candidate step sizes form the usual geometric sequence, but they are
    evaluated in batched chunks (one prediction pass per chunk) instead of
    one objective call per trial; the first (largest) passing step is
    returned, so the result is identical to sequential backtracking.

    With ``fd_step`` the first chunk also carries the control rows of the
    finite-difference stencil around its first trial, the full step.  If
    that trial is accepted, its gradient and curvature come back as well
    (see _evaluate), so the next iteration needs no prediction pass of its
    own.

    A chunk that fails as a whole is re-scored trial by trial, and its
    failing trials are rejected (see _evaluate_trials).

    Returns (trial, f_trial, index, gradient): index is the accepted trial's
    position in the step-size sequence, -1 if none passed (theta and f come
    back then), and gradient is (g, curv) at the trial or None.
    """
    alphas = opts.backtrack_factor ** np.arange(opts.max_backtracks)
    for start in range(0, alphas.size, _LS_CHUNK):
        chunk = alphas[start : start + _LS_CHUNK]
        trials = var.project(theta[None, :] + chunk[:, None] * direction[None, :])
        decreases = (trials - theta) @ g
        if not np.any(decreases < 0.0):
            continue
        totals, gradient_at = _evaluate_trials(ev, var, trials, fd_step if start == 0 else None)
        ok = (decreases < 0.0) & (totals <= f + opts.armijo_c * decreases)
        if np.any(ok):
            idx = int(np.argmax(ok))  # first True = largest passing step
            f_trial = float(totals[idx])
            gradient = gradient_at(f_trial) if gradient_at is not None and idx == 0 else None
            return trials[idx], f_trial, start + idx, gradient
    return theta, f, -1, None


def _masked_gradient(g: Array, theta: Array, var: _Variables) -> Array:
    """Zero the gradient on active bounds pointing outward."""
    g = g.copy()
    at_lower = (theta <= var.lower + _BOUND_EPS) & (g > 0)
    at_upper = (theta >= var.upper - _BOUND_EPS) & (g < 0)
    g[at_lower | at_upper] = 0.0
    return g


def _projected_gradient_norm(theta: Array, g: Array, var: _Variables) -> float:
    return float(np.max(np.abs(theta - var.project(theta - g)), initial=0.0))


def _bfgs_update(H: Array, s: Array, y: Array) -> tuple[Array, bool]:
    """Damped inverse-BFGS update; returns (H_new, updated?)."""
    sy = float(s @ y)
    norm = float(np.linalg.norm(s) * np.linalg.norm(y))
    if norm == 0.0:
        return H, False
    Bs = np.linalg.solve(H, s)  # current Hessian estimate applied to s
    sBs = float(s @ Bs)
    if sBs <= 0:
        return H, False
    if sy < 0.2 * sBs:
        if sy <= 1e-12 * norm:
            return H, False
        tau = 0.8 * sBs / (sBs - sy)
        y = tau * y + (1.0 - tau) * Bs
        sy = float(s @ y)
    rho = 1.0 / sy
    Hy = H @ y
    yHy = float(y @ Hy)
    # H <- (I - rho s y')H(I - rho y s') + rho s s'
    H_new = H - rho * (np.outer(s, Hy) + np.outer(Hy, s)) + rho**2 * yHy * np.outer(s, s) + rho * np.outer(s, s)
    return 0.5 * (H_new + H_new.T), True


def solve(
    problem: ControlProblem,
    x0: Array,
    P_hat_0: Array,
    options: SolveOptions | None = None,
    warm_start: Policy | None = None,
) -> SolveResult:
    """Minimize the expected objective over the selected variable set.

    Returns a local solution: nominal controls inside their box (enforced by
    projection at every trial point) and, in output_feedback mode, the
    feedback gains.  status is 'converged' when the projected-gradient
    infinity norm reaches the tolerance, 'max_iter' when the iteration
    budget runs out, and 'line_search_failure' when no acceptable step
    exists along either the quasi-Newton or the steepest-descent direction,
    or when the gradient stencil around the accepted step fails to evaluate
    (the best iterate found so far is returned in all cases).
    """
    opts = options or SolveOptions()
    var = _Variables(problem, opts.mode)
    ev = ObjectiveEvaluator(
        problem,
        x0,
        P_hat_0,
        eps_sigma=opts.eps_sigma,
        eps_K=opts.eps_K,
        include_uncertainty=opts.mode != "nominal",
    )

    if warm_start is not None:
        theta0 = var.pack(warm_start)
    else:
        theta0 = np.zeros(var.size)
    theta = var.project(theta0)

    totals0, gradient_at = _evaluate(ev, var, theta[None], opts.fd_step)
    f = float(totals0[0])
    g, curv = gradient_at(f)
    del gradient_at  # keep no prediction alive beyond its iteration
    best_theta, best_f = theta.copy(), f
    curvature_skips = 0
    status = "max_iter"
    iterations = 0
    # The stencil rides along with the full step on the first iteration and
    # after each iteration that accepted its full step; while full steps are
    # rejected (early nominal iterations) its rows would go unused.
    full_step = True
    gnorm = max(float(np.linalg.norm(g)), 1e-12)
    H = _diag_metric(curv, gnorm)
    # With no usable curvature the seed is just scaled steepest descent; in that
    # case calibrate the metric from the first accepted step instead.
    first_step_pending = float(np.max(np.abs(curv), initial=0.0)) <= 0.0
    stationarity = _projected_gradient_norm(theta, g, var)

    for it in range(opts.max_iterations):
        if stationarity <= opts.tolerance:
            status = "converged"
            break
        iterations = it + 1
        g_masked = _masked_gradient(g, theta, var)
        gnorm = max(float(np.linalg.norm(g_masked)), 1e-12)
        d = -H @ g_masked
        d[g_masked == 0.0] = 0.0
        if float(d @ g_masked) >= 0.0:  # metric went bad: reseed from curvature
            H = _diag_metric(curv, gnorm)
            d = -H @ g_masked
            d[g_masked == 0.0] = 0.0

        fd_step = opts.fd_step if full_step else None
        for direction in (d, -g_masked / gnorm):
            trial, f_trial, index, gradient = _armijo_search(ev, var, theta, f, g, direction, opts, fd_step)
            if index >= 0:
                break
            fd_step = None
            H = _diag_metric(curv, gnorm)  # quasi-Newton direction failed
        if index < 0:
            status = "line_search_failure"
            break
        full_step = index == 0

        if gradient is None:
            try:
                gradient = _fd_gradient(ev, var, trial, opts.fd_step, f_trial)
            except _TRIAL_ERRORS:  # the stencil around the trial crosses a failure boundary
                status = "line_search_failure"
                break
        g_new, curv = gradient
        s = trial - theta
        y = g_new - g
        if first_step_pending:
            sy, yy = float(s @ y), float(y @ y)
            if sy > 0 and yy > 0:
                H = np.eye(var.size) * (sy / yy)
            first_step_pending = False
        H, updated = _bfgs_update(H, s, y)
        if updated:
            curvature_skips = 0
        else:
            curvature_skips += 1
            if curvature_skips >= _CURVATURE_SKIP_LIMIT:
                H = _diag_metric(curv, max(float(np.linalg.norm(g_new)), 1e-12))
                curvature_skips = 0

        theta, f, g = trial, f_trial, g_new
        if f < best_f:
            best_f, best_theta = f, theta.copy()
        stationarity = _projected_gradient_norm(theta, g, var)

    if f <= best_f:
        best_f, best_theta = f, theta
    policy = var.unpack(best_theta)
    breakdown, beta = ev.breakdown_and_beta(policy)
    return SolveResult(
        policy=policy,
        objective=breakdown,
        beta=beta,
        iterations=iterations,
        stationarity=stationarity,
        status=status,
    )
