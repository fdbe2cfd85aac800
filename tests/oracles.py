"""Reference implementations that only the tests use.

Each one is a plain, independent route to a quantity the package computes
another way, or a shorthand only the tests need: a zero-gain policy, a
central-difference Jacobian and Jacobian pullback, the generic RK4 step and
its Jacobians (the unicycle integrates in cascade form), the RK4 Jacobians
with one tangent chain each for the control and the noise, a
central-difference objective gradient, the general-gain (Joseph) estimation-error covariance, the
stage-by-stage Kalman adjoint, the constraint tables read from the problem,
the objective evaluated and differentiated through the 2n_x augmented
covariance of (x - x_nom, xhat - x) instead of the separated n_x form, a
stand-alone penalty sum, the closed-form
expectation of a quadratic, a hand-written EKF predict/update pair with
its SPD solve, a problem whose output map is frozen at one point (no
dual effect), and a Monte-Carlo replay of a policy executed as planned,
on the nonlinear system or on its linearization along the nominal.
"""

from dataclasses import replace
from typing import Callable

import numpy as np
from scipy.special import ndtr

from dualmpc import ModelError, ObjectiveEvaluator, expected_relu, feedback_regularization, smoothed_variance
from dualmpc.estimation import BeliefState, EstimationError
from dualmpc.model import Array, SystemModel
from dualmpc.objective import _SQRT_2PI, _trace_sum, constraint_direction_variance
from dualmpc.uncertainty import (
    LinearizationError,
    Policy,
    StageLinearization,
    _augmented_transitions,
    _noise_factors,
    propagate_covariance,
    spd_factor,
    stage_gains,
    symmetrize,
)


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


# Relative step of the central differences of the model Jacobians:
# h_j = _JAC_STEP (1 + |z_j|).
_JAC_STEP = 1e-5


def _jacobian_pullback(jac: Callable[[Array], tuple], z: Array, bars: tuple[Array, ...]) -> Array:
    """sum over J of <J_bar, dJ/dz_j> at each row of z (M, n), as (M, n).

    ``jac`` maps points (2, n, M, n), the rows of z moved by +h_j e_j (first)
    and -h_j e_j along every coordinate j, to Jacobians J (2, n, M, a, b);
    ``bars`` holds the matching derivatives J_bar (M, a, b).  dJ/dz_j is the
    central difference with step h_j = _JAC_STEP (1 + |z_j|), from one
    ``jac`` call.

    Raises:
        LinearizationError: a perturbed Jacobian has non-finite entries.
    """
    M, n = z.shape
    h = _JAC_STEP * (1.0 + np.abs(z.T))
    delta = h[:, :, None] * np.eye(n)[:, None, :]  # delta[j, m] = h_jm e_j
    out = np.zeros((n, M))
    for J, J_bar in zip(jac(np.stack([z + delta, z - delta])), bars):
        J = np.broadcast_to(J, (2, n) + J_bar.shape)
        if not np.isfinite(J).all():
            raise LinearizationError("Jacobian has non-finite entries at a perturbed point")
        out += np.einsum("jmab,mab->jm", J[0] - J[1], J_bar)
    return (out / (2.0 * h)).T


def fd_pullbacks(model: SystemModel) -> SystemModel:
    """``model`` with its Jacobian pullbacks replaced by central differences
    of its Jacobian providers (:func:`_jacobian_pullback`), over one stacked
    axis of points."""
    n_x = model.n_x

    def f_jac_pullback(x, u, A_bar, B_bar, G_bar):
        return _jacobian_pullback(lambda p: model.f_jac(p[..., :n_x], p[..., n_x:]),
                                  np.concatenate([x, u], axis=-1), (A_bar, B_bar, G_bar))

    def g_jac_pullback(x, C_bar, D_bar):
        return _jacobian_pullback(model.g_jac, x, (C_bar, D_bar))

    return replace(model, f_jac_pullback=f_jac_pullback, g_jac_pullback=g_jac_pullback)


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


def stagewise_kalman_adjoint(lin: StageLinearization, gains: Array, covs: Array,
                             gains_bar: Array | None = None, covs_bar: Array | None = None,
                             U_bar: Array | None = None) -> tuple[Array, Array, Array, Array]:
    """Reverse-mode pass of :func:`~dualmpc.uncertainty.kalman_recursion`
    stage by stage, with the gain as an intermediate, for a scalar J that
    reads the filter gains (``gains_bar``), the filter covariances
    P_hat_1..P_hat_N (``covs_bar``) and the update covariances
    U = Khat C P- (``U_bar``); a bar left None is zero.  The predicted
    covariances P- = A P_hat A' + G G' are formed here from the filter
    covariances.  Per stage, backwards, the update P_{k+1} = P- - U and the
    gain pass their derivatives to P-, C and Khat; the gain's solve
    S Khat' = C P- passes dJ/d(C P-) = S^{-1} Khat_bar' and
    dJ/dS = -S^{-1} Khat_bar' Khat, with S^{-1} re-derived from the jittered
    factor the filter uses; then S and P- pass theirs to C, D, A, G and P_k.
    Returns dJ/d(A, G, C, D), as :func:`~dualmpc.uncertainty.kalman_adjoint`
    does, without the Joseph identity it rests on."""
    N = lin.horizon
    n_x = lin.A.shape[-1]
    A, C, G, D = lin.A, lin.C, lin.G, lin.D
    A_t, C_t = np.swapaxes(A, -1, -2), np.swapaxes(C, -1, -2)
    zero = np.zeros((N, n_x, n_x))
    gains_bar = np.zeros(gains.shape) if gains_bar is None else gains_bar
    covs_bar = zero if covs_bar is None else covs_bar
    U_bar = zero if U_bar is None else U_bar
    P_minus = symmetrize(A @ covs[:N] @ A_t + G @ np.swapaxes(G, -1, -2))
    L_inv = np.linalg.inv(spd_factor(symmetrize(C @ P_minus @ C_t + D @ np.swapaxes(D, -1, -2))))
    S_inv = np.swapaxes(L_inv, -1, -2) @ L_inv
    I_KC_t = np.swapaxes(np.eye(n_x) - gains @ C, -1, -2)
    Pm_bar, C_bar, D_bar = np.empty((N, n_x, n_x)), np.empty(C.shape), np.empty(D.shape)
    P_bar = np.zeros((n_x, n_x))  # dJ/dP_{k+1} through the later stages
    for k in range(N - 1, -1, -1):
        W = covs_bar[k] - U_bar[k] + P_bar  # J reads U = P- - P_{k+1}: P_{k+1} gets -U_bar, P- U_bar
        K_bar = gains_bar[k] - W @ P_minus[k] @ C_t[k]
        R_bar = S_inv[k] @ K_bar.T  # dJ/d(C P-)
        S_bar = -symmetrize(R_bar @ gains[k])
        Pm_bar[k] = symmetrize(I_KC_t[k] @ W + C_t[k] @ R_bar + C_t[k] @ S_bar @ C[k]) + U_bar[k]
        C_bar[k] = -gains[k].T @ W @ P_minus[k] + R_bar @ P_minus[k] + 2.0 * S_bar @ C[k] @ P_minus[k]
        D_bar[k] = 2.0 * S_bar @ D[k]
        P_bar = A_t[k] @ Pm_bar[k] @ A[k]
    return 2.0 * Pm_bar @ A @ covs[:N], 2.0 * Pm_bar @ G, C_bar, D_bar


def joint_map(K_k: Array, batch: tuple = ()) -> Array:
    """T = [[I, 0], [K, K]], which maps the augmented state
    (x_k - x_nom_k, xhat_k - x_k) to (x_k - x_nom_k, u_k - u_nom_k);
    batched over ``batch`` and the leading axes of K_k."""
    K_k = np.asarray(K_k, dtype=float)
    n_u, n_x = K_k.shape[-2:]
    T = np.zeros(np.broadcast_shapes(batch, K_k.shape[:-2]) + (n_x + n_u, 2 * n_x))
    T[..., :n_x, :n_x] = np.eye(n_x)
    T[..., n_x:, :n_x] = K_k
    T[..., n_x:, n_x:] = K_k
    return T


def joint_covariance(sigma_k: Array, K_k: Array) -> Array:
    """Covariance T sigma T' of (x_k - x_nom_k, u_k - u_nom_k) from the
    augmented covariance (:func:`joint_map`); batched over stages and
    policies."""
    sigma_k = np.asarray(sigma_k, dtype=float)
    T = joint_map(K_k, sigma_k.shape[:-2])
    return T @ sigma_k @ np.swapaxes(T, -1, -2)


def covariance_adjoint(lin: StageLinearization, policy: Policy, gains: Array, sigma: Array, sigma_bar: Array,
                       K_bar: Array) -> tuple[Array, StageLinearization, Array]:
    """Reverse-mode pass of :func:`~dualmpc.uncertainty.propagate_covariance`
    (one unbatched policy) for a scalar J with derivatives ``sigma_bar``
    with respect to each stage covariance and ``K_bar`` with respect to the
    stage gains K_0..K_{N-1}: the backward Lyapunov recursion
    Lambda_k = sigma_bar_k + F_k' Lambda_{k+1} F_k through the augmented
    transitions F_k, whose matrices get dF_k = 2 Lambda_{k+1} F_k sigma_k
    and dW_k = 2 Lambda_{k+1} W_k, pulled back onto the gains, the
    linearization and the filter gains.

    Returns:
        (dJ/dK for K_1..K_{N-1}; dJ/d(A, B, G, C, D); dJ/dKhat).
    """
    N = lin.horizon
    n_x = lin.A.shape[-1]
    n_w = lin.G.shape[-1]
    gains = np.asarray(gains, dtype=float)
    K_all = stage_gains(policy.feedback)[:-1]
    E = gains @ lin.C - np.eye(n_x)
    trans = _augmented_transitions(lin, K_all, E)
    W = _noise_factors(lin, gains, E)
    lam = np.empty((N, 2 * n_x, 2 * n_x))  # lam[k] = Lambda_{k+1}
    lam[N - 1] = sigma_bar[N]
    for k in range(N - 1, 0, -1):
        lam[k - 1] = sigma_bar[k] + trans[k].T @ lam[k] @ trans[k]
    F_bar = 2.0 * lam @ trans @ sigma[:N]
    W_bar = 2.0 * lam @ W
    top = F_bar[:, :n_x, :n_x] + F_bar[:, :n_x, n_x:]  # dJ/d(B K)
    swap = lambda M: np.swapaxes(M, -1, -2)
    E_bar = -F_bar[:, n_x:, n_x:] @ swap(lin.A) + W_bar[:, n_x:, :n_w] @ swap(lin.G)
    lin_bar = StageLinearization(
        A=F_bar[:, :n_x, :n_x] - swap(E) @ F_bar[:, n_x:, n_x:],
        B=top @ swap(K_all),
        G=W_bar[:, :n_x, :n_w] + swap(E) @ W_bar[:, n_x:, :n_w],
        C=swap(gains) @ E_bar,
        D=swap(gains) @ W_bar[:, n_x:, n_w:],
    )
    gains_bar = E_bar @ swap(lin.C) + W_bar[:, n_x:, n_w:] @ swap(lin.D)
    K_bar = np.asarray(K_bar, dtype=float) + swap(lin.B) @ top
    return K_bar[1:], lin_bar, gains_bar


def _observer_gains(pred) -> Array:
    """A prediction's filter gains, zero for a filter that only predicts
    (``open_loop``), which keeps none."""
    if pred.filter_gains is not None:
        return pred.filter_gains
    return np.zeros(pred.lin.A.shape[:-1] + pred.lin.C.shape[-2:-1])


def constraint_tables(problem) -> tuple[Array, Array]:
    """The constraint rows' weights (N+1, n_h) and their gradients over
    z = (x, u) at stages 0..N (N+1, n_h, n_x + n_u), read from the
    problem's constraint set: every stage takes every row of the matrix,
    and stage N, at u = 0, its x columns only."""
    cs, n_x = problem.constraints, problem.model.n_x
    x_only = np.concatenate([cs.matrix[:, :n_x], np.zeros(cs.matrix[:, n_x:].shape)], axis=-1)
    return cs.weights, np.stack([cs.matrix] * problem.model.horizon + [x_only])


def augmented_evaluation(ev, pred, feedback: Array) -> tuple[Array, Array, Array, tuple]:
    """An evaluator's forward pass for ``pred`` and a feedback-gain batch
    through the augmented covariance sigma of (x - x_nom, xhat - x)
    (:func:`~dualmpc.uncertainty.propagate_covariance`, 2n_x) and the joint
    covariances T sigma T', with the constraint rows of
    :func:`constraint_tables`: (sigma, joint covariances of stages 0..N,
    direction variances plus eps_sigma^2, objective parts)."""
    cost = ev.problem.cost
    weights, grads = constraint_tables(ev.problem)
    feedback = np.asarray(feedback, dtype=float)
    policy = Policy(u_nom=pred.traj.controls, feedback=feedback)
    sigma = propagate_covariance(pred.lin, policy, _observer_gains(pred), ev.P_hat_0).sigma
    joint = joint_covariance(sigma, stage_gains(feedback))
    variance = 0.5 * _trace_sum(cost.hessians, joint)
    beta = smoothed_variance(constraint_direction_variance(grads, joint[..., None, :, :]), ev.eps_sigma)
    penalty = np.sum(weights * expected_relu(pred.h, np.sqrt(beta)), axis=(-2, -1))
    reg = feedback_regularization(feedback, ev.eps_K)
    return sigma, joint, beta, tuple(np.broadcast_arrays(pred.nominal_cost, variance, penalty, reg))


def augmented_gradient(ev, pred, feedback: Array) -> tuple[Array, Array]:
    """(dJ/du_nom, dJ/dK) of one unbatched policy by the reverse sweep
    through the augmented covariance: the stage assembly, then
    :func:`covariance_adjoint` onto the gains, the linearization and the
    filter gains, then :func:`stagewise_kalman_adjoint` driven by the
    filter gains' derivatives (``output_feedback`` only: an ``open_loop``
    filter's gains are fixed at zero), then the model's Jacobian
    pullbacks and rollout adjoint."""
    model, cost = ev.problem.model, ev.problem.cost
    N, n_x = model.horizon, model.n_x
    weights, grads = constraint_tables(ev.problem)
    sigma, _, beta, _ = augmented_evaluation(ev, pred, feedback)
    xs, us = pred.traj.states, pred.traj.controls
    us_all = np.concatenate([us, np.zeros((1, model.n_u))])
    z = np.concatenate([xs, us_all], axis=-1)
    std = np.sqrt(beta)
    ratio = pred.h / std
    z_bar = (np.einsum("kab,kb->ka", cost.hessians, z) + cost.gradients
             + np.einsum("ki,kia->ka", weights * ndtr(ratio), grads))
    c = weights * np.exp(-0.5 * ratio**2) / (2.0 * _SQRT_2PI * std)
    M = 0.5 * cost.hessians + np.einsum("ki,kia,kib->kab", c, grads, grads)
    lin, policy = pred.lin, Policy(u_nom=us, feedback=feedback)
    T = joint_map(stage_gains(feedback))
    T_bar = 2.0 * M @ T @ sigma
    gains = _observer_gains(pred)
    K_bar, lin_bar, gains_bar = covariance_adjoint(lin, policy, gains, sigma, np.swapaxes(T, -1, -2) @ M @ T,
                                                   T_bar[:-1, n_x:, :n_x] + T_bar[:-1, n_x:, n_x:])
    A_bar, B_bar, G_bar, C_bar, D_bar = lin_bar.A, lin_bar.B, lin_bar.G, lin_bar.C, lin_bar.D
    if ev.mode == "output_feedback":
        kal = stagewise_kalman_adjoint(lin, gains, pred.filter_covs, gains_bar=gains_bar)
        A_bar, G_bar, C_bar, D_bar = A_bar + kal[0], G_bar + kal[1], C_bar + kal[2], D_bar + kal[3]
        z_bar[1:, :n_x] += model.g_jac_pullback(xs[1:], C_bar, D_bar)
    z_bar[:N] += model.f_jac_pullback(xs[:N], us, A_bar, B_bar, G_bar)
    lam = z_bar[N, :n_x]
    u_bar = np.empty(us.shape)
    for k in range(N - 1, -1, -1):
        u_bar[k] = z_bar[k, n_x:] + lam @ lin.B[k]
        lam = z_bar[k, :n_x] + lam @ lin.A[k]
    return u_bar, K_bar + 2.0 * ev.eps_K * feedback


def passive_problem(problem, x_ref: Array):
    """``problem`` with its output map frozen at the linearization at
    ``x_ref``: g(x, v) = g(x_ref, 0) + C (x - x_ref) + D v with
    (C, D) = g_jac(x_ref) at every stage, so ``g_jac`` is constant and
    ``g_jac_pullback`` is zero.  Where a plan for it goes does not change
    what it will measure: it keeps the caution of output feedback and loses
    the dual (probing) effect."""
    model = problem.model
    x_ref, v0 = np.asarray(x_ref, dtype=float), np.zeros(model.n_v)
    C, D = model.g_jac(x_ref)
    y_ref = model.g(x_ref, v0)

    def g(x, v):
        return y_ref + (np.asarray(x, dtype=float) - x_ref) @ C.T + np.asarray(v, dtype=float) @ D.T

    def g_jac(x):
        batch = np.shape(x)[:-1]
        return np.broadcast_to(C, batch + C.shape), np.broadcast_to(D, batch + D.shape)

    def g_jac_pullback(x, C_bar, D_bar):
        return np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(C_bar)[:-2]) + (model.n_x,))

    return replace(problem, model=replace(model, g=g, g_jac=g_jac, g_jac_pullback=g_jac_pullback))


def replay_policy(problem, x0: Array, P0: Array, policy: Policy, samples: int, seed: int,
                  linearized: bool = False) -> Array:
    """Realized costs of executing ``policy`` as planned, one per sample.

    Each sample draws x_0 ~ N(x0, P0) and unit-covariance process and
    measurement noises, and runs u_k = u_nom_k + K_k (xhat_k - x_nom_k)
    along the noise-free nominal states x_nom from x0, with an extended
    Kalman filter from (x0, P0) that predicts at the estimate, A, G at
    (xhat_k, u_k, 0), and updates on y_{k+1} = g(x_{k+1}, v) with C, D at
    the predicted mean.  With ``linearized``, f, g and the filter are
    replaced by their linearizations along the nominal, with the
    prediction's own Jacobians and filter gains Khat
    (``ObjectiveEvaluator.prediction``): x_{k+1} = x_nom_{k+1}
    + A_k (x_k - x_nom_k) + B_k (u_k - u_nom_k) + G_k w_k, the estimate
    predicts alike without noise to xhat-, and the update adds
    Khat_{k+1} (C_{k+1} (x_{k+1} - xhat-) + D_{k+1} v), the innovation of
    the linearized output map.  The cost is the realized, non-smooth one:
    the quadratic stage costs of stages 0..N (stage N at u = 0) plus
    sum_ki w_ki max(0, h_ki) over every constraint row.  All samples run as
    one batch.
    """
    model, cost, cs = problem.model, problem.cost, problem.constraints
    N, n_x = model.horizon, model.n_x
    rng = np.random.default_rng(seed)
    w0, v0 = np.zeros(model.n_w), np.zeros(model.n_v)
    if linearized:
        pred = ObjectiveEvaluator(problem, x0, P0).prediction(policy.u_nom)
        x_nom = pred.traj.states
    else:
        x_nom = [np.asarray(x0, dtype=float)]
        for k in range(N):
            x_nom.append(model.f(x_nom[-1], policy.u_nom[k], w0))
    K = stage_gains(policy.feedback)
    x = x0 + rng.standard_normal((samples, n_x)) @ np.linalg.cholesky(P0).T
    xhat, P = np.broadcast_to(x0, x.shape).copy(), np.broadcast_to(P0, (samples, n_x, n_x))
    xs, us = [x], []
    for k in range(N):
        u = policy.u_nom[k] + (xhat - x_nom[k]) @ K[k].T
        w = rng.standard_normal((samples, model.n_w))
        v = rng.standard_normal((samples, model.n_v))
        if linearized:
            A, B, G, C, D = (getattr(pred.lin, name)[k] for name in "ABGCD")
            du = u - policy.u_nom[k]
            x = x_nom[k + 1] + (x - x_nom[k]) @ A.T + du @ B.T + w @ G.T
            x_minus = x_nom[k + 1] + (xhat - x_nom[k]) @ A.T + du @ B.T
            xhat = x_minus + ((x - x_minus) @ C.T + v @ D.T) @ pred.filter_gains[k].T
        else:
            x = model.f(x, u, w)
            y = model.g(x, v)
            A, _, G = model.f_jac(xhat, u)
            x_minus = model.f(xhat, u, w0)
            P_minus = A @ P @ A.mT + G @ G.mT
            C, D = model.g_jac(x_minus)
            S = C @ P_minus @ C.mT + D @ D.mT
            gain = np.linalg.solve(S, C @ P_minus).mT
            xhat = x_minus + np.einsum("sij,sj->si", gain, y - model.g(x_minus, v0))
            P = symmetrize(P_minus - gain @ C @ P_minus)
        xs.append(x)
        us.append(u)
    xs = np.stack(xs, axis=1)
    z = np.concatenate([xs, np.stack(us + [np.zeros((samples, model.n_u))], axis=1)], axis=-1)
    hinge = cs.weights * np.maximum(cs.values(z), 0.0)
    return np.sum(cost.value(slice(None), z), axis=-1) + np.sum(hinge, axis=(-2, -1))


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
    A, _, G = model.f_jac(belief.mean, u)
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
    C, D = model.g_jac(belief.mean)
    S = C @ belief.cov @ C.T + D @ D.T
    gain_t = chol_solve_spd(S, C @ belief.cov, context=f"EKF innovation covariance at stage {stage}")
    gain = gain_t.T
    innovation = y - model.g(belief.mean, v0)
    mean_next = belief.mean + gain @ innovation
    cov_next = (np.eye(model.n_x) - gain @ C) @ belief.cov
    if not np.all(np.isfinite(mean_next)):
        raise EstimationError(f"EKF update diverged at stage {stage}")
    return BeliefState(mean=mean_next, cov=symmetrize(cov_next))
