"""Reference implementations that only the tests use.

Each one is a plain, independent route to a quantity the package computes
another way, or a shorthand only the tests need: a zero-gain policy, a
central-difference Jacobian, the generic RK4 step and its Jacobians (the
unicycle integrates in cascade form), the RK4 Jacobians with one tangent
chain each for the control and the noise, a central-difference objective
gradient, the general-gain (Joseph) estimation-error covariance, the
stage-by-stage Kalman adjoint, a stand-alone penalty sum, the closed-form
expectation of a quadratic, and a hand-written EKF predict/update pair with
its SPD solve.
"""

from typing import Callable

import numpy as np

from dualmpc import ModelError, expected_relu
from dualmpc.estimation import BeliefState, EstimationError
from dualmpc.model import Array, SystemModel
from dualmpc.uncertainty import Policy, StageLinearization, spd_factor, symmetrize


def open_loop_policy(u_nom: Array, n_x: int) -> Policy:
    """The policy of the controls ``u_nom`` with every feedback gain zero."""
    u_nom = np.asarray(u_nom, dtype=float)
    N, n_u = u_nom.shape[-2:]
    return Policy(u_nom=u_nom, feedback=np.zeros(u_nom.shape[:-2] + (max(N - 1, 0), n_u, n_x)))


def fd_jacobian(fn: Callable[[Array], Array], at: Array, step: float = 1e-6) -> Array:
    """Central-difference Jacobian of a vector map at a single point.

    The step for column ``j`` is ``step * (1 + |at[j]|)``, which keeps the
    perturbation meaningful for both small and large coordinates.  Matches
    analytic Jacobians of smooth maps to O(step^2).

    Raises:
        ModelError: if the map returns non-finite values at a perturbed
            point (the offending column is named).
    """
    at = np.asarray(at, dtype=float)
    if at.ndim != 1:
        raise ModelError(f"fd_jacobian expects a 1-d point, got shape {at.shape}")
    base = np.asarray(fn(at), dtype=float)
    if not np.all(np.isfinite(base)):
        raise ModelError("fd_jacobian: map is non-finite at the evaluation point")
    n = at.size
    cols = []
    for j in range(n):
        h = step * (1.0 + abs(at[j]))
        lo = at.copy()
        hi = at.copy()
        lo[j] -= h
        hi[j] += h
        f_hi = np.asarray(fn(hi), dtype=float)
        f_lo = np.asarray(fn(lo), dtype=float)
        if not (np.all(np.isfinite(f_hi)) and np.all(np.isfinite(f_lo))):
            raise ModelError(f"fd_jacobian: non-finite evaluation perturbing column {j}")
        cols.append((f_hi - f_lo) / (2.0 * h))
    return np.stack(cols, axis=-1)


def rk4_step(
    ode: Callable[[Array, Array, Array], Array],
    x: Array,
    u: Array,
    w: Array,
    dt: float,
    substeps: int = 4,
) -> Array:
    """Classical 4-stage Runge-Kutta step with the noise held constant.

    Integrates ``xdot = ode(x, u, w)`` over ``dt`` using ``substeps`` equal
    sub-intervals.  ``u`` and ``w`` are zero-order held.  Batch dimensions
    broadcast through the ode.  The unicycle's cascade-form step must give
    its bits.
    """
    if dt <= 0.0:
        raise ModelError(f"rk4_step requires dt > 0, got {dt}")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ModelError("rk4_step: non-finite state or control input")
    h = dt / substeps
    for _ in range(substeps):
        k1 = ode(x, u, w)
        k2 = ode(x + 0.5 * h * k1, u, w)
        k3 = ode(x + 0.5 * h * k2, u, w)
        k4 = ode(x + h * k3, u, w)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def rk4_step_with_jacobian(
    ode: Callable[[Array, Array, Array], Array],
    ode_jac: Callable[[Array, Array, Array], tuple[Array, Array]],
    x: Array,
    u: Array,
    w: Array,
    dt: float,
    substeps: int = 4,
) -> tuple[Array, Array, Array, Array]:
    """RK4 step together with the exact Jacobians of the discrete map.

    ``ode_jac`` returns the continuous-time Jacobians ``(d xdot/dx, E)`` at
    a point, where ``E = [d xdot/du | d xdot/dw]`` holds the control and
    noise columns side by side, so both ride one tangent chain.  The
    discrete Jacobians are obtained by differentiating the RK4 update itself
    (chain rule through the four stages, composed over sub-steps), so they
    are consistent with :func:`rk4_step` to machine precision.

    Returns:
        ``(x_next, A, B, G)`` with ``A = dx+/dx``, ``B = dx+/du``,
        ``G = dx+/dw``; all broadcast over leading batch dimensions.
    """
    if dt <= 0.0:
        raise ModelError(f"rk4_step_with_jacobian requires dt > 0, got {dt}")
    x = np.asarray(x, dtype=float)
    h = dt / substeps
    n = x.shape[-1]
    eye = np.eye(n)
    A = np.broadcast_to(eye, x.shape + (n,)).copy()
    E = None
    for _ in range(substeps):
        k1 = ode(x, u, w)
        x2 = x + 0.5 * h * k1
        k2 = ode(x2, u, w)
        x3 = x + 0.5 * h * k2
        k3 = ode(x3, u, w)
        x4 = x + h * k3
        k4 = ode(x4, u, w)

        (A1, E1), (A2, E2), (A3, E3), (A4, E4) = (ode_jac(p, u, w) for p in (x, x2, x3, x4))

        D2x = A2 @ (eye + 0.5 * h * A1)
        D3x = A3 @ (eye + 0.5 * h * D2x)
        D4x = A4 @ (eye + h * D3x)
        Jx = eye + (h / 6.0) * (A1 + 2.0 * D2x + 2.0 * D3x + D4x)

        D2e = E2 + A2 @ (0.5 * h * E1)
        D3e = E3 + A3 @ (0.5 * h * D2e)
        D4e = E4 + A4 @ (h * D3e)
        Je = (h / 6.0) * (E1 + 2.0 * D2e + 2.0 * D3e + D4e)

        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        A = Jx @ A
        E = Je if E is None else Jx @ E + Je
    n_u = np.shape(u)[-1]
    return x, A, E[..., :n_u], E[..., n_u:]


def rk4_three_chain_jacobians(ode, ode_jac, x: Array, u: Array, w: Array, dt: float,
                              substeps: int = 4) -> tuple[Array, Array, Array]:
    """The Jacobians (A, B, G) of an RK4 step with the control and the noise
    tangents carried as two separate chains; ``ode_jac`` returns
    ``(d xdot/dx, d xdot/du, d xdot/dw)``.  :func:`rk4_step_with_jacobian`
    carries both in one chain; the unicycle's closed-form ``f_jac`` must
    agree with this one to max|got - ref| <= 1e-14 max(1, max|ref|) per
    Jacobian."""
    x = np.asarray(x, dtype=float)
    h = dt / substeps
    eye = np.eye(x.shape[-1])
    A = np.broadcast_to(eye, x.shape + eye.shape[-1:]).copy()
    B = G = None
    for _ in range(substeps):
        k1 = ode(x, u, w)
        x2 = x + 0.5 * h * k1
        k2 = ode(x2, u, w)
        x3 = x + 0.5 * h * k2
        k3 = ode(x3, u, w)
        x4 = x + h * k3
        k4 = ode(x4, u, w)
        (A1, B1, G1), (A2, B2, G2), (A3, B3, G3), (A4, B4, G4) = (ode_jac(p, u, w) for p in (x, x2, x3, x4))
        D2x = A2 @ (eye + 0.5 * h * A1)
        D3x = A3 @ (eye + 0.5 * h * D2x)
        D4x = A4 @ (eye + h * D3x)
        Jx = eye + (h / 6.0) * (A1 + 2.0 * D2x + 2.0 * D3x + D4x)
        D2u = B2 + A2 @ (0.5 * h * B1)
        D3u = B3 + A3 @ (0.5 * h * D2u)
        D4u = B4 + A4 @ (h * D3u)
        Ju = (h / 6.0) * (B1 + 2.0 * D2u + 2.0 * D3u + D4u)
        D2w = G2 + A2 @ (0.5 * h * G1)
        D3w = G3 + A3 @ (0.5 * h * D2w)
        D4w = G4 + A4 @ (h * D3w)
        Jw = (h / 6.0) * (G1 + 2.0 * D2w + 2.0 * D3w + D4w)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        A = Jx @ A
        B = Ju if B is None else Jx @ B + Ju
        G = Jw if G is None else Jx @ G + Jw
    return A, B, G


def _central_rows(a: Array, step: float) -> tuple[Array, Array]:
    """Rows a + h_i e_i (even) and a - h_i e_i (odd) for every entry of a,
    shaped (2 a.size,) + a.shape, with h_i = step * (1 + |a_i|)."""
    flat = np.asarray(a, dtype=float).ravel()
    h = step * (1.0 + np.abs(flat))
    rows = np.repeat(flat[None], 2 * flat.size, axis=0)
    i = np.arange(flat.size)
    rows[2 * i, i] += h
    rows[2 * i + 1, i] -= h
    return rows.reshape((-1,) + np.shape(a)), h


def fd_gradient(ev, u_nom: Array, feedback: Array, step: float = 1e-6) -> tuple[Array, Array]:
    """Central-difference gradient (dJ/du_nom, dJ/dK) of an
    :class:`~dualmpc.ObjectiveEvaluator`'s total objective.

    Each control entry costs two rows through the whole pipeline
    (``totals``); the gains leave the prediction untouched, so their rows go
    through ``parts_from_prediction`` at the prediction of ``u_nom``.  The
    step of entry i is step * (1 + |theta_i|).
    """
    u_nom = np.asarray(u_nom, dtype=float)
    feedback = np.asarray(feedback, dtype=float)
    rows_u, h_u = _central_rows(u_nom, step)
    f_u = ev.totals(rows_u, feedback)[0]
    g_u = (f_u[0::2] - f_u[1::2]) / (2.0 * h_u)
    rows_k, h_k = _central_rows(feedback, step)
    f_k = sum(ev.parts_from_prediction(ev.prediction(u_nom), rows_k))
    g_k = (f_k[0::2] - f_k[1::2]) / (2.0 * h_k)
    return g_u.reshape(u_nom.shape), g_k.reshape(feedback.shape)


def luenberger_covariance(lin: StageLinearization, gains: Array, P_hat_0: Array) -> Array:
    """Estimation-error covariances under an arbitrary observer gain sequence.

    Uses the general-gain (Joseph) form, valid whether or not the gains are
    the Kalman ones:
        P+ = (I - K C)(A P A' + G G')(I - K C)' + K D D' K'.
    With the Kalman gains this reproduces :func:`kalman_recursion` up to
    rounding; with any other gains it can only be larger in the matrix
    sense.
    """
    gains = np.asarray(gains, dtype=float)
    N = lin.horizon
    n_x = lin.A.shape[-1]
    P = symmetrize(np.asarray(P_hat_0, dtype=float))
    batch = np.broadcast_shapes(P.shape[:-2], lin.A.shape[:-3], gains.shape[:-3])
    P = np.broadcast_to(P, batch + (n_x, n_x))
    eye = np.eye(n_x)
    covs = [P]
    for k in range(N):
        A = lin.A[..., k, :, :]
        G = lin.G[..., k, :, :]
        C = lin.C[..., k, :, :]
        D = lin.D[..., k, :, :]
        K = gains[..., k, :, :]
        P_minus = A @ P @ np.swapaxes(A, -1, -2) + G @ np.swapaxes(G, -1, -2)
        M = eye - K @ C
        P = M @ P_minus @ np.swapaxes(M, -1, -2) + K @ D @ np.swapaxes(D, -1, -2) @ np.swapaxes(K, -1, -2)
        P = symmetrize(P)
        covs.append(P)
    return np.stack(covs, axis=-3)


def stagewise_kalman_adjoint(lin: StageLinearization, gains: Array, covs: Array, P_minus: Array, S_inv: Array,
                             gains_bar: Array) -> StageLinearization:
    """Reverse-mode pass of :func:`~dualmpc.uncertainty.kalman_recursion`
    stage by stage, with the gain as an intermediate: per stage, backwards,
    the update P_{k+1} = (I - Khat C) P- and the gain pass their derivatives
    to P-, C and Khat; the gain's solve S Khat' = C P- passes
    dJ/d(C P-) = S^{-1} Khat_bar' and dJ/dS = -S^{-1} Khat_bar' Khat; then S
    and P- pass theirs to C, D, A, G and P_k.  Same arguments and result as
    :func:`~dualmpc.uncertainty.kalman_adjoint`, without the Joseph
    identity it rests on."""
    N = lin.horizon
    n_x = lin.A.shape[-1]
    A, C, G, D = lin.A, lin.C, lin.G, lin.D
    A_t, C_t = np.swapaxes(A, -1, -2), np.swapaxes(C, -1, -2)
    P = covs[:N]
    n_y = C.shape[-2]
    I_KC_t = np.swapaxes(np.eye(n_x) - gains @ C, -1, -2)
    P_bar = np.zeros((N + 1, n_x, n_x))  # P_bar[k] = dJ/dP_k
    R_bar = np.empty((N, n_y, n_x))  # dJ/d(C P-)
    S_bar = np.empty((N, n_y, n_y))
    Pm_bar = np.empty((N, n_x, n_x))
    for k in range(N - 1, -1, -1):
        K_bar = gains_bar[k] - P_bar[k + 1] @ P_minus[k] @ C_t[k]
        R_bar[k] = S_inv[k] @ K_bar.T
        S_bar[k] = -symmetrize(R_bar[k] @ gains[k])
        Pm_bar[k] = symmetrize(I_KC_t[k] @ P_bar[k + 1] + C_t[k] @ R_bar[k] + C_t[k] @ S_bar[k] @ C[k])
        P_bar[k] = A_t[k] @ Pm_bar[k] @ A[k]
    C_bar = -np.swapaxes(gains, -1, -2) @ P_bar[1:] @ P_minus + R_bar @ P_minus + 2.0 * S_bar @ C @ P_minus
    return StageLinearization(A=2.0 * Pm_bar @ A @ P, B=np.zeros(lin.B.shape), G=2.0 * Pm_bar @ G,
                              C=C_bar, D=2.0 * S_bar @ D)


def expected_quadratic(hessian: Array, gradient: Array, constant, mean: Array, cov: Array):
    """Expectation of 0.5 z'Hz + g'z + c under z ~ N(mean, cov).

    Exact for quadratics: value at the mean plus 0.5*trace(H cov).
    """
    mean = np.asarray(mean, dtype=float)
    nominal = (
        0.5 * np.einsum("...i,...ij,...j->...", mean, hessian, mean)
        + np.einsum("...i,...i->...", np.broadcast_to(gradient, mean.shape), mean)
        + constant
    )
    return nominal + 0.5 * np.einsum("...ij,...ji->...", hessian, cov)


def penalty_total(h_nom: Array, beta: Array, weights: Array, eps_sigma: float):
    """Sum of weighted expected hinge penalties over the trailing axis.

    Each constraint's standard deviation is sqrt(clip(beta, 0) + eps_sigma^2):
    the direction variance plus the smoothing variance.
    """
    std = np.sqrt(np.clip(np.asarray(beta, dtype=float), 0.0, None) + eps_sigma**2)
    return np.sum(weights * expected_relu(h_nom, std), axis=-1)


def factor_solve(L: Array, rhs: Array) -> Array:
    """Solve L L' X = rhs by two triangular solves; L is (..., n, n), rhs
    (..., n, m)."""
    return np.linalg.solve(np.swapaxes(L, -1, -2), np.linalg.solve(L, rhs))


def chol_solve_spd(S: Array, rhs: Array, context: str = "linear solve"):
    """Solve S X = rhs for symmetric positive-definite S (batched), with the
    jittered Cholesky factor the Kalman filter uses."""
    return factor_solve(spd_factor(S, context), rhs)


def ekf_predict(model: SystemModel, belief: BeliefState, u: Array, stage: int = 0) -> BeliefState:
    """Propagate the belief through the dynamics at the estimate.

    Mean moves through the noise-free dynamics; covariance through the
    Jacobians evaluated at (mean, u, 0).
    """
    u = np.asarray(u, dtype=float)
    w0 = np.zeros(model.n_w)
    mean_next = model.f(belief.mean, u, w0)
    A, _, G = model.f_jac(belief.mean, u, w0)
    cov_next = A @ belief.cov @ A.T + G @ G.T
    if not (np.all(np.isfinite(mean_next)) and np.all(np.isfinite(cov_next))):
        raise EstimationError(f"EKF prediction diverged at stage {stage}")
    return BeliefState(mean=mean_next, cov=symmetrize(cov_next))


def ekf_update(model: SystemModel, belief: BeliefState, y: Array, stage: int = 0) -> BeliefState:
    """Condition the belief on a measurement.

    Output is linearized at (mean, 0); the innovation covariance is solved
    with the shared escalating-jitter Cholesky, so a singular innovation
    raises rather than producing garbage.
    """
    y = np.asarray(y, dtype=float)
    v0 = np.zeros(model.n_v)
    C, D = model.g_jac(belief.mean, v0)
    S = C @ belief.cov @ C.T + D @ D.T
    gain_t = chol_solve_spd(S, C @ belief.cov, context=f"EKF innovation covariance at stage {stage}")
    gain = gain_t.T
    innovation = y - model.g(belief.mean, v0)
    mean_next = belief.mean + gain @ innovation
    cov_next = (np.eye(model.n_x) - gain @ C) @ belief.cov
    if not np.all(np.isfinite(mean_next)):
        raise EstimationError(f"EKF update diverged at stage {stage}")
    return BeliefState(mean=mean_next, cov=symmetrize(cov_next))
