"""Reduced solver for the estimate-feedback optimal control problem.

The covariance recursion is always evaluated forward from the decision
variables (single shooting), so the only free variables are the nominal
controls and the feedback gains; the constraint-variance slacks are
eliminated analytically (the expected hinge penalty is strictly increasing
in the variance, so at any optimum each slack sits at the variance plus
eps_sigma^2, a smooth function of the decision variables).

The optimizer is a projected quasi-Newton method: damped BFGS approximation
with restart, Armijo backtracking along the projection arc, and hard box
bounds on the nominal controls enforced by clipping at every trial point.

Gradient: from one reverse sweep (:meth:`ObjectiveEvaluator.gradient`)
that reads the accepted line-search trial's row of the batch's forward
record: its prediction, covariances and direction variances.  So
each iteration runs the pipeline forward once per line-search chunk, and
the sweep runs none of it again.  Central differences survive only for the
per-control curvature that seeds the quasi-Newton metric (_seed), through
the whole pipeline; the gain coordinates start at the metric's floor, the
steepest-descent scale.  The metric is seeded at the initial point, whose
control rows ride in one batch with it, and reseeded at the current
iterate after a failed quasi-Newton search (before the steepest-descent
retry) and after three skipped updates in a row.  The result carries the
last accepted trial's record, from which its objective breakdown comes.

Only output_feedback runs the Kalman filter: with zero feedback gains the
objective and its control gradient are the same bits without it (see
ObjectiveEvaluator).

Line-search chunks: in every mode, a search that follows an accepted full
step evaluates the full step alone first, then 12-trial chunks.  On the
shipped config a 12-row batch costs about 1.6-1.9 times a 1-row one in
every mode (break-even about 53-62%), so the lone full step pays when it
passes in more of such searches than that.  It passes in 84% of them in
nominal, 96% in open_loop and 93% in output_feedback (shipped solves), and
in 88%, 99% and 95% of them in the in-loop solves of closed-loop runs 0-1.
The accepted trial is the first passing step of the sequence whatever the
chunks, because every row of a batch evaluates exactly as it does alone.
A chunk that fails as a whole is scored trial by trial, up to the first
trial that passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Array, ControlProblem, ModelError
from .objective import MODES, Evaluation, ObjectiveBreakdown, ObjectiveEvaluator
from .uncertainty import LinearizationError, Policy, RolloutError, SingularInnovationError

_CURVATURE_SKIP_LIMIT = 3
_BOUND_EPS = 1e-10
# Relative step of the central-difference curvature: h_i = 1e-6 (1 + |theta_i|).
_FD_STEP = 1e-6


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
    eps_sigma: float = 1e-3
    eps_K: float = 1e-4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not (0 < self.tolerance < np.inf and 0 < self.eps_sigma < np.inf):
            raise ValueError("tolerance and eps_sigma must be positive and finite")
        if not 0 <= self.eps_K < np.inf:
            raise ValueError(f"eps_K must be nonnegative and finite, got {self.eps_K}")


@dataclass(frozen=True)
class SolveResult:
    """A solve's outcome.  ``record`` is the forward record of ``policy``
    in the solve's mode, the one the solver scored it with, and
    ``objective`` is that record's breakdown."""

    policy: Policy
    objective: ObjectiveBreakdown
    record: Evaluation
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
        u, fb = self.unpack_batch(theta[None])
        return Policy(u_nom=u[0], feedback=fb[0] if self.with_gains else fb)

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


def _stencil(theta: Array, step: float, coords: slice) -> tuple[Array, Array]:
    """Central-difference rows around theta for the coordinates ``coords``.

    Row 2i is theta + h_i e_i and row 2i+1 is theta - h_i e_i for the i-th
    coordinate of the slice, with h_i = step * (1 + |theta_i|).
    """
    h = step * (1.0 + np.abs(theta[coords]))
    idx = np.arange(theta.size)[coords]
    rows = np.repeat(theta[None], 2 * idx.size, axis=0)
    pair = 2 * np.arange(idx.size)
    rows[pair, idx] += h
    rows[pair + 1, idx] -= h
    return rows, h


def _gradient(ev: ObjectiveEvaluator, var: _Variables, record: Evaluation) -> Array:
    """The solver's gradient at a point, from one reverse sweep of the
    point's unbatched forward record."""
    return var.pack(Policy(*ev.gradient(record)))


def _seed(ev: ObjectiveEvaluator, var: _Variables, theta: Array,
          at: tuple[float, Evaluation] | None = None) -> tuple[float, Evaluation, Array]:
    """The objective f at theta, theta's unbatched forward record, and the
    per-coordinate curvature there that seeds the quasi-Newton metric:
    central second differences around f along the controls, and 0 along
    the gains, which puts them at _diag_metric's floor (the steepest-descent
    scale).  Measured gain curvature stayed under that floor on the shipped
    config's plan and closed-loop solves.

    The control rows of the stencil run through the whole pipeline in one
    ``totals`` batch, with theta in front unless ``at`` already holds f and
    theta's record (the reseeds).  If that batch fails, every control row
    gets infinite curvature, which makes the seed scaled steepest descent
    (see _diag_metric), and theta, if it was in the batch, is evaluated
    alone, so a theta that fails raises its error.
    """
    rows, h = _stencil(theta, _FD_STEP, slice(0, var.n_u_vars))
    batch = rows if at is not None else np.concatenate([theta[None], rows])
    try:
        totals, record = ev.totals(*var.unpack_batch(batch))
    except _TRIAL_ERRORS:
        totals = np.full(batch.shape[0], np.inf)
        if at is None:
            theta_total, record = ev.totals(*var.unpack_batch(theta[None]))
            totals[0] = theta_total[0]
    if at is None:
        at, totals = (float(totals[0]), record.take(0)), totals[1:]
    f, center = at
    return f, center, np.concatenate([(totals[0::2] - 2.0 * f + totals[1::2]) / h**2, np.zeros(var.n_k_vars)])


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


# Line search: trial steps 1, 1/2, 1/4, ... (at most 40), evaluated 12 per
# batch, optionally after the full step alone; a trial passes on sufficient
# decrease with constant 1e-4.
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 40
_ARMIJO_C = 1e-4
_LS_CHUNK = 12
# Failures of one trial point that must not end the line search.
_TRIAL_ERRORS = (RolloutError, LinearizationError, SingularInnovationError, ModelError)


def _first_passing(ev: ObjectiveEvaluator, var: _Variables, trials: Array, f: float,
                   decreases: Array) -> tuple[int, float, Evaluation] | None:
    """The first trial of a chunk that passes the Armijo test, as (index,
    objective, unbatched forward record), or None.  The chunk is one
    ``totals`` batch.  If that batch fails, the trials are scored one at a
    time up to the first that passes, and a trial that fails alone is
    rejected."""

    def passes(total, decrease):
        return (decrease < 0.0) & (total <= f + _ARMIJO_C * decrease)

    try:
        totals, record = ev.totals(*var.unpack_batch(trials))
    except _TRIAL_ERRORS:
        for i, trial in enumerate(trials):
            try:
                total, record = ev.totals(*var.unpack_batch(trial[None]))
            except _TRIAL_ERRORS:
                continue
            if passes(total[0], decreases[i]):
                return i, float(total[0]), record.take(0)
        return None
    ok = passes(totals, decreases)
    if not np.any(ok):
        return None
    idx = int(np.argmax(ok))  # first True = largest passing step
    return idx, float(totals[idx]), record.take(idx)


def _armijo_search(ev, var: _Variables, theta: Array, f: float, g: Array, direction: Array,
                   full_step_first: bool = False):
    """Backtracking Armijo search along the projection arc.

    Candidate step sizes form the usual geometric sequence, but they are
    evaluated in batched chunks (one prediction pass per chunk) instead of
    one objective call per trial: 12 trials per chunk, after the full step
    alone when ``full_step_first`` is set (see the module docstring for when
    that pays).  The first (largest) passing step is returned, so the result
    is identical to sequential backtracking whatever the chunks.  A chunk
    that fails as a whole is re-scored trial by trial up to the first trial
    that passes, and the trials that fail are rejected (see _first_passing).

    Returns (trial, f_trial, index, accepted): index is the accepted trial's
    position in the step-size sequence, -1 if none passed (theta and f come
    back then).  accepted is (g, center) at the accepted trial: its
    unbatched forward record ``center``, the trial's row of the chunk's
    record, and g from one reverse sweep of it.  It is None if no trial
    passed, or if the sweep fails at the accepted trial.
    """
    alphas = _BACKTRACK_FACTOR ** np.arange(_MAX_BACKTRACKS)
    starts = [0, *range(1 if full_step_first else _LS_CHUNK, alphas.size, _LS_CHUNK)]
    for start, stop in zip(starts, starts[1:] + [alphas.size]):
        chunk = alphas[start:stop]
        trials = var.project(theta[None, :] + chunk[:, None] * direction[None, :])
        decreases = (trials - theta) @ g
        if not np.any(decreases < 0.0):
            continue
        passing = _first_passing(ev, var, trials, f, decreases)
        if passing is not None:
            idx, f_trial, center = passing
            try:
                g_trial = _gradient(ev, var, center)
            except _TRIAL_ERRORS:  # the sweep perturbs the model across a failure boundary
                return trials[idx], f_trial, start + idx, None
            return trials[idx], f_trial, start + idx, (g_trial, center)
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
    sHy, ss = np.outer(s, Hy), np.outer(s, s)
    H_new = H - rho * (sHy + sHy.T) + rho**2 * yHy * ss + rho * ss
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
    or when the gradient pass at the accepted step fails.  Every accepted
    step lowers f, so the last accepted iterate is the best one and is what
    comes back in all cases.
    """
    opts = options or SolveOptions()
    var = _Variables(problem, opts.mode)
    ev = ObjectiveEvaluator(problem, x0, P_hat_0, eps_sigma=opts.eps_sigma, eps_K=opts.eps_K, mode=opts.mode)

    theta = var.project(var.pack(warm_start) if warm_start is not None else np.zeros(var.size))
    f, center, curv = _seed(ev, var, theta)
    g = _gradient(ev, var, center)
    full_step_first = False
    curvature_skips = 0
    status = "max_iter"
    iterations = 0
    gnorm = max(float(np.linalg.norm(g)), 1e-12)
    H = _diag_metric(curv, gnorm)
    # With no usable curvature the seed is just scaled steepest descent; in that
    # case calibrate the metric from the first accepted step instead.
    first_step_pending = float(np.max(np.abs(curv), initial=0.0)) <= 0.0
    stationarity = _projected_gradient_norm(theta, g, var)

    # center is always the current iterate's forward record, which the metric
    # reseeds and the result read.  With H positive definite, d is a
    # descent direction whenever the masked gradient is nonzero.
    for it in range(opts.max_iterations):
        if stationarity <= opts.tolerance:
            status = "converged"
            break
        iterations = it + 1
        g_masked = _masked_gradient(g, theta, var)
        gnorm = max(float(np.linalg.norm(g_masked)), 1e-12)
        d = -H @ g_masked
        d[g_masked == 0.0] = 0.0

        trial, f_trial, index, accepted = _armijo_search(ev, var, theta, f, g, d, full_step_first)
        if index < 0:  # quasi-Newton direction failed: reseed, try steepest descent
            H = _diag_metric(_seed(ev, var, theta, (f, center))[2], gnorm)
            trial, f_trial, index, accepted = _armijo_search(ev, var, theta, f, g, -g_masked / gnorm)
        if accepted is None:  # no acceptable step, or no gradient at it
            status = "line_search_failure"
            break
        full_step_first = index == 0
        g_new, center = accepted
        s, y = trial - theta, g_new - g
        theta, f, g = trial, f_trial, g_new
        gnorm = max(float(np.linalg.norm(g)), 1e-12)
        if first_step_pending:
            sy, yy = float(s @ y), float(y @ y)
            if sy > 0 and yy > 0:
                # capped at the steepest-descent scale, like _diag_metric's floor
                H = np.eye(var.size) * min(sy / yy, 1.0 / gnorm)
            first_step_pending = False
        H, updated = _bfgs_update(H, s, y)
        if updated:
            curvature_skips = 0
        else:
            curvature_skips += 1
            if curvature_skips >= _CURVATURE_SKIP_LIMIT:
                H = _diag_metric(_seed(ev, var, theta, (f, center))[2], gnorm)
                curvature_skips = 0
        stationarity = _projected_gradient_norm(theta, g, var)

    return SolveResult(
        policy=var.unpack(theta),
        objective=ObjectiveBreakdown.assemble(*center.parts),
        record=center,
        iterations=iterations,
        stationarity=stationarity,
        status=status,
    )
