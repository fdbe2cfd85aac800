"""Nominal rollout, trajectory linearization, and covariance propagation.

The prediction model used by the optimizer: roll the nonlinear system out
without noise, linearize along that trajectory, run a time-varying Kalman
recursion on the linearized system, and propagate the joint covariance of
(true-state deviation, estimation error) under an estimate-feedback policy
u_k = u_nom_k + K_k (xhat_k - x_nom_k).

Index conventions (0-based stages, horizon N):
  * states x_0..x_N, controls u_0..u_{N-1};
  * measurements arrive at stages 1..N, so the first filter gain is the one
    applied at stage 1 and no update happens at stage 0;
  * feedback gains K_1..K_{N-1} are free, K_0 is identically zero because
    no new information can arrive before the first control is committed.

Everything broadcasts over leading batch dimensions so finite-difference
sweeps and Monte-Carlo checks stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Array, SystemModel

# Diagonal jitters tried, in turn, on a matrix that is not positive definite.
_JITTERS = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


class RolloutError(RuntimeError):
    """Nominal rollout produced non-finite states."""


class SingularInnovationError(RuntimeError):
    """Innovation covariance not positive definite even with jitter."""


class LinearizationError(RuntimeError):
    """Trajectory linearization failed or produced non-finite Jacobians."""


def symmetrize(M: Array) -> Array:
    return 0.5 * (M + M.mT)


def _jittered_cholesky(S: Array, context: str) -> Array:
    """Cholesky factor of one matrix S, or, if S is not positive definite,
    of S + jitter I with the first jitter 1e-12, 1e-11, ..., 1e-6 that
    works."""
    for jitter in (0.0, *_JITTERS):
        try:
            return np.linalg.cholesky(S + jitter * np.eye(S.shape[-1]) if jitter else S)
        except np.linalg.LinAlgError:
            pass
    raise SingularInnovationError(f"{context}: matrix not positive definite at jitter {_JITTERS[-1]:g}")


def spd_factor(S: Array, context: str = "linear solve") -> Array:
    """Cholesky factors of symmetric positive-definite matrices (batched).

    A matrix of the batch that is not positive definite is factored on its
    own with an escalating diagonal jitter (1e-12, 1e-11, ..., 1e-6) before
    giving up, which keeps degenerate zero-noise corner cases usable; every
    other matrix keeps its plain factor, exactly as it would be alone.

    Raises:
        SingularInnovationError: if S has non-finite entries, or a matrix
            stays non-PD at the largest jitter.
    """
    S = np.asarray(S, dtype=float)
    if not np.isfinite(S).all():
        raise SingularInnovationError(f"{context}: matrix has non-finite entries")
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:  # each matrix alone, with its own jitter
        L = np.empty(S.shape)
        for i in np.ndindex(S.shape[:-2]):
            L[i] = _jittered_cholesky(S[i], context)
        return L


@dataclass(frozen=True)
class NominalTrajectory:
    """Noise-free rollout: states (.., N+1, n_x), controls (.., N, n_u)."""

    states: Array
    controls: Array

    @property
    def horizon(self) -> int:
        return self.controls.shape[-2]


@dataclass(frozen=True)
class StageLinearization:
    """Jacobians along a nominal trajectory.

    A, B, G: dynamics Jacobians at (x_k, u_k, 0), k = 0..N-1, indexed by k.
    C, D: output Jacobians at (x_k, 0), k = 1..N, stored at index k-1.
    """

    A: Array  # (.., N, n_x, n_x)
    B: Array  # (.., N, n_x, n_u)
    G: Array  # (.., N, n_x, n_w)
    C: Array  # (.., N, n_y, n_x)
    D: Array  # (.., N, n_y, n_v)

    @property
    def horizon(self) -> int:
        return self.A.shape[-3]


@dataclass(frozen=True)
class Policy:
    """Estimate-feedback policy u_k = u_nom_k + K_k (xhat_k - x_nom_k).

    ``feedback`` holds K_1..K_{N-1} (index j is the gain applied at stage
    j+1); the stage-0 gain is fixed to zero and not stored.
    """

    u_nom: Array  # (.., N, n_u)
    feedback: Array  # (.., N-1, n_u, n_x)

    @property
    def horizon(self) -> int:
        return self.u_nom.shape[-2]

    def stage_gains(self) -> Array:
        """All gains K_0..K_{N-1} with the zero stage-0 gain materialized."""
        n_u = self.u_nom.shape[-1]
        n_x = self.feedback.shape[-1]
        batch = np.broadcast_shapes(self.u_nom.shape[:-2], self.feedback.shape[:-3])
        zero = np.zeros(batch + (1, n_u, n_x))
        fb = np.broadcast_to(self.feedback, batch + self.feedback.shape[-3:])
        return np.concatenate([zero, fb], axis=-3)


@dataclass(frozen=True)
class AugmentedCovariance:
    """Covariance of the stacked vector (x_k - x_nom_k, xhat_k - x_k).

    ``sigma`` has shape (.., N+1, 2*n_x, 2*n_x); the named blocks are the
    true-state deviation covariance P and the estimation-error covariance
    P_hat.
    """

    sigma: Array
    n_x: int

    @property
    def P(self) -> Array:
        return self.sigma[..., : self.n_x, : self.n_x]

    @property
    def P_hat(self) -> Array:
        return self.sigma[..., self.n_x :, self.n_x :]


def nominal_rollout(model: SystemModel, x0: Array, u_nom: Array) -> NominalTrajectory:
    """Simulate the system with all noises zero from x0 under u_nom.

    Batched over leading dims of ``x0`` / ``u_nom``.  A model with a
    ``rollout`` integrates the whole horizon in one call; for any other
    model the stage map ``f(., ., 0)`` runs stage after stage.  Either way
    the states are checked once.

    Raises:
        RolloutError: if a stage produces non-finite states (the first
            such stage named).
    """
    x0 = np.asarray(x0, dtype=float)
    u_nom = np.asarray(u_nom, dtype=float)
    N = u_nom.shape[-2]
    batch = np.broadcast_shapes(x0.shape[:-1], u_nom.shape[:-2])
    if model.rollout is not None:
        # A compact copy: a rollout may return a strided view of a larger table.
        states = np.ascontiguousarray(model.rollout(x0, u_nom), dtype=float)
    else:
        x = np.broadcast_to(x0, batch + x0.shape[-1:]).astype(float)
        w0 = np.zeros(model.n_w)
        states = np.empty(batch + (N + 1,) + x0.shape[-1:])
        states[..., 0, :] = x
        for k in range(N):
            x = np.asarray(model.f(x, u_nom[..., k, :], w0), dtype=float)
            states[..., k + 1, :] = x
    finite = np.isfinite(states[..., 1:, :]).all(axis=-1)
    finite = finite.all(axis=tuple(range(finite.ndim - 1)))
    if not finite.all():
        raise RolloutError(f"nominal rollout diverged at stage {np.argmin(finite) + 1}")
    controls = np.broadcast_to(u_nom, batch + u_nom.shape[-2:])
    return NominalTrajectory(states=states, controls=controls)


def linearize_trajectory(model: SystemModel, traj: NominalTrajectory) -> StageLinearization:
    """Dynamics and output Jacobians along the nominal trajectory.

    Dynamics are linearized at (x_k, u_k, 0), outputs at (x_{k+1}, 0).  The
    maps are time-invariant, so the stage axis folds into the batch and each
    Jacobian provider is called once, on every point.

    Raises:
        LinearizationError: a Jacobian came back with non-finite entries.
    """
    N = traj.horizon
    batch = traj.states.shape[:-2]
    x = traj.states.reshape(-1, N + 1, model.n_x)
    A, B, G = model.f_jac(
        x[:, :N].reshape(-1, model.n_x), traj.controls.reshape(-1, model.n_u), np.zeros(model.n_w)
    )
    C, D = model.g_jac(x[:, 1:].reshape(-1, model.n_x), np.zeros(model.n_v))
    out = {}
    for name, M in zip("ABGCD", (A, B, G, C, D)):
        if not np.isfinite(M).all():
            raise LinearizationError(f"linearization produced non-finite {name} entries")
        out[name] = M.reshape(batch + (N,) + M.shape[-2:])
    return StageLinearization(**out)


def kalman_recursion(lin: StageLinearization, P_hat_0: Array, factors: bool = False) -> tuple[Array, ...]:
    """Time-varying Kalman filter on the linearized system.

    Per stage: predict P_minus = A P A' + G G'; innovation
    S = C P_minus C' + D D' = L L' (Cholesky, with the jitter of
    :func:`spd_factor` if S is not positive definite); S^{-1} = L^{-T} L^{-1}
    from one inverse of L; gain K = P_minus C' S^{-1}; update
    P_plus = P_minus - K C P_minus, symmetrized.  Noises have unit covariance
    (shaping lives in G and D).

    Returns:
        gains (.., N, n_x, n_y) — entry j is the gain applied at stage j+1 —
        and covariances (.., N+1, n_x, n_x); with ``factors``, also what
        :func:`kalman_adjoint` reads of stages 1..N: the predicted
        covariances P_minus (.., N, n_x, n_x) and the inverses S^{-1} of the
        (jittered) innovation covariances (.., N, n_y, n_y).

    Raises:
        SingularInnovationError: innovation covariance not PD at some stage
            even with maximal jitter (the stage is named).
    """
    N = lin.horizon
    n_x = lin.A.shape[-1]
    n_y = lin.C.shape[-2]
    P = symmetrize(np.asarray(P_hat_0, dtype=float))
    batch = np.broadcast_shapes(P.shape[:-2], lin.A.shape[:-3])
    # Everything but the running covariance, for all stages at once.
    A_T, C_T = lin.A.mT, lin.C.mT
    GGt = lin.G @ lin.G.mT
    DDt = lin.D @ lin.D.mT
    gains = np.empty(batch + (N, n_x, n_y))
    covs = np.empty(batch + (N + 1, n_x, n_x))
    covs[..., 0, :, :] = P
    pred_covs = np.empty(batch + (N, n_x, n_x))
    inverses = np.empty(batch + (N, n_y, n_y))
    for k in range(N):
        P_minus = symmetrize(lin.A[..., k, :, :] @ P @ A_T[..., k, :, :] + GGt[..., k, :, :])
        CP = lin.C[..., k, :, :] @ P_minus
        S = CP @ C_T[..., k, :, :] + DDt[..., k, :, :]
        L_inv = np.linalg.inv(spd_factor(symmetrize(S), context=f"innovation covariance at stage {k + 1}"))
        S_inv = L_inv.mT @ L_inv
        K = (S_inv @ CP).mT
        P = symmetrize(P_minus - K @ CP)
        gains[..., k, :, :] = K
        covs[..., k + 1, :, :] = P
        pred_covs[..., k, :, :] = P_minus
        inverses[..., k, :, :] = S_inv
    return (gains, covs, pred_covs, inverses) if factors else (gains, covs)


def _augmented_transitions(lin: StageLinearization, K_all: Array, E: Array, batch) -> Array:
    """Transition matrices [[A + B K_k, B K_k], [0, -E_k A]] of stages 0..N-1,
    where E_k = Khat_{k+1} C_{k+1} - I."""
    n_x = lin.A.shape[-1]
    BK = lin.B @ K_all
    lower = -E @ lin.A  # (I - Khat C) A
    shape = np.broadcast_shapes(BK.shape[:-3], lower.shape[:-3], batch)
    trans = np.zeros(shape + (lin.horizon, 2 * n_x, 2 * n_x))
    trans[..., :n_x, :n_x] = lin.A + BK
    trans[..., :n_x, n_x:] = BK
    trans[..., n_x:, n_x:] = lower
    return trans


def _noise_factors(lin: StageLinearization, gains: Array, E: Array) -> Array:
    """Factors W_k = [[G_k, 0], [E_k G_k, Khat_{k+1} D_{k+1}]] of the augmented
    noise blocks W_k W_k' of stages 0..N-1."""
    n_x, n_w = lin.G.shape[-2:]
    KD = gains @ lin.D
    EG = E @ lin.G
    W = np.zeros(np.broadcast_shapes(EG.shape[:-2], KD.shape[:-2]) + (2 * n_x, n_w + KD.shape[-1]))
    W[..., :n_x, :n_w] = lin.G
    W[..., n_x:, :n_w] = EG
    W[..., n_x:, n_w:] = KD
    return W


def propagate_covariance(
    lin: StageLinearization,
    policy: Policy,
    gains: Array,
    P_hat_0: Array,
) -> AugmentedCovariance:
    """Propagate the covariance of (x_k - x_nom_k, xhat_k - x_k).

    The augmented transition is
        [[A + B K_k, B K_k], [0, (I - Khat_{k+1} C_{k+1}) A]]
    with noise block W W' (:func:`_noise_factors`),
        W = [[G, 0], [(Khat_{k+1} C_{k+1} - I) G, Khat_{k+1} D_{k+1}]],
    starting from sigma_0 = [[P0, -P0], [-P0, P0]] (the estimation error
    and the deviation are the same draw with opposite sign at stage 0).
    Every update is symmetrized.

    Feedback gains broadcast: a batch of policies can share one
    linearization and one filter-gain sequence.
    """
    N = lin.horizon
    n_x = lin.A.shape[-1]
    K_all = policy.stage_gains()
    gains = np.asarray(gains, dtype=float)
    P0 = symmetrize(np.asarray(P_hat_0, dtype=float))
    batch = np.broadcast_shapes(
        P0.shape[:-2], lin.A.shape[:-3], gains.shape[:-3], K_all.shape[:-3]
    )
    # Transition and noise blocks of every stage at once; only the sandwich
    # product with the running covariance stays in the loop.
    E = gains @ lin.C - np.eye(n_x)  # maps process noise into estimation error
    trans = _augmented_transitions(lin, K_all, E, batch)
    trans_T = np.swapaxes(trans, -1, -2)
    W = _noise_factors(lin, gains, E)
    noise = W @ np.swapaxes(W, -1, -2)
    out = np.empty(batch + (N + 1, 2 * n_x, 2 * n_x))
    sigma = out[..., 0, :, :]
    sigma[..., :n_x, :n_x] = P0
    sigma[..., :n_x, n_x:] = -P0
    sigma[..., n_x:, :n_x] = -P0
    sigma[..., n_x:, n_x:] = P0
    for k in range(N):
        sigma = symmetrize(trans[..., k, :, :] @ sigma @ trans_T[..., k, :, :] + noise[..., k, :, :])
        out[..., k + 1, :, :] = sigma
    return AugmentedCovariance(sigma=out, n_x=n_x)


def covariance_adjoint(
    lin: StageLinearization,
    policy: Policy,
    gains: Array,
    sigma: Array,
    sigma_bar: Array,
    K_bar: Array,
) -> tuple[Array, StageLinearization, Array]:
    """Reverse-mode pass of :func:`propagate_covariance` (one unbatched policy).

    ``sigma`` is the forward output (N+1, 2n_x, 2n_x); ``sigma_bar`` holds the
    symmetric derivatives dJ/dsigma_k of some scalar J that reads each stage
    covariance directly, and ``K_bar`` the direct derivatives dJ/dK_k of the
    stage gains K_0..K_{N-1}.  With F_k the augmented transition and
    W_k W_k' the noise block of stage k, the recursion
    sigma_{k+1} = F_k sigma_k F_k' + W_k W_k' is linear in sigma for fixed
    matrices, so its adjoint is the backward Lyapunov recursion
        Lambda_N = sigma_bar_N,
        Lambda_k = sigma_bar_k + F_k' Lambda_{k+1} F_k,
    and stage k's matrices get dF_k = 2 Lambda_{k+1} F_k sigma_k and
    dW_k = 2 Lambda_{k+1} W_k.  Those are pulled back through
    F_k = [[A + B K, B K], [0, -E A]], W_k = [[G, 0], [E G, Khat D]] and
    E_k = Khat_{k+1} C_{k+1} - I onto the gains, the linearization and the
    filter gains.

    Returns:
        (dJ/dK for the free gains K_1..K_{N-1}, shaped like
        ``policy.feedback``; dJ/d(A, B, G, C, D) as a
        :class:`StageLinearization`; dJ/dKhat, shaped like ``gains``).
    """
    N = lin.horizon
    n_x = lin.A.shape[-1]
    n_w = lin.G.shape[-1]
    gains = np.asarray(gains, dtype=float)
    K_all = policy.stage_gains()
    E = gains @ lin.C - np.eye(n_x)
    trans = _augmented_transitions(lin, K_all, E, ())
    W = _noise_factors(lin, gains, E)
    lam = np.empty((N, 2 * n_x, 2 * n_x))  # lam[k] = Lambda_{k+1}
    lam[N - 1] = sigma_bar[N]
    for k in range(N - 1, 0, -1):
        lam[k - 1] = sigma_bar[k] + trans[k].T @ lam[k] @ trans[k]
    F_bar = 2.0 * lam @ trans @ sigma[:N]
    W_bar = 2.0 * lam @ W
    top = F_bar[:, :n_x, :n_x] + F_bar[:, :n_x, n_x:]  # dJ/d(B K)
    E_t = np.swapaxes(E, -1, -2)
    E_bar = -F_bar[:, n_x:, n_x:] @ np.swapaxes(lin.A, -1, -2) + W_bar[:, n_x:, :n_w] @ np.swapaxes(lin.G, -1, -2)
    gains_t = np.swapaxes(gains, -1, -2)
    lin_bar = StageLinearization(
        A=F_bar[:, :n_x, :n_x] - E_t @ F_bar[:, n_x:, n_x:],
        B=top @ np.swapaxes(K_all, -1, -2),
        G=W_bar[:, :n_x, :n_w] + E_t @ W_bar[:, n_x:, :n_w],
        C=gains_t @ E_bar,
        D=gains_t @ W_bar[:, n_x:, n_w:],
    )
    gains_bar = E_bar @ np.swapaxes(lin.C, -1, -2) + W_bar[:, n_x:, n_w:] @ np.swapaxes(lin.D, -1, -2)
    K_bar = np.asarray(K_bar, dtype=float) + np.swapaxes(lin.B, -1, -2) @ top
    return K_bar[1:], lin_bar, gains_bar


def kalman_adjoint(lin: StageLinearization, gains: Array, covs: Array, P_minus: Array, S_inv: Array,
                   gains_bar: Array) -> StageLinearization:
    """Reverse-mode pass of :func:`kalman_recursion` (one unbatched
    linearization): the derivatives dJ/d(A, G, C, D) of a scalar J that reads
    the filter gains, whose derivatives are ``gains_bar``.

    ``gains``, ``covs``, ``P_minus`` and ``S_inv`` are the forward outputs
    (``kalman_recursion(lin, P_hat_0, factors=True)``).  Per stage, with
    P_k = covs[k], P- = A P_k A' + G G', S = C P- C' + D D' and
    Khat = P- C' S^{-1}, the update P_{k+1} = P- - P- C' S^{-1} C P- has the
    derivative (I - Khat C) dP- (I - Khat C)' in P-, because the Kalman gain
    minimises the Joseph form; a jittered S adds a constant, so this holds
    there too.  The gain's solve S Khat' = C P- passes
    R_bar = dJ/d(C P-) = S^{-1} Khat_bar' and S_bar = dJ/dS = -sym(R_bar Khat),
    hence Q = sym(C'(R_bar + S_bar C)) onto P-, for all stages at once.  With
    Phi_k = (I - Khat C) A, the backward recursion is the Lyapunov one
        P_bar_N = 0,  P_bar_k = Phi_k' P_bar_{k+1} Phi_k + A' Q_k A,
    and with Pm_bar = (I - Khat C)' P_bar_{k+1} (I - Khat C) + Q the
    pullbacks are dA = 2 Pm_bar A P_k, dG = 2 Pm_bar G,
    dC = -2 Khat' P_bar_{k+1} (I - Khat C) P- + R_bar P- + 2 S_bar C P- and
    dD = 2 (Khat' P_bar_{k+1} Khat + S_bar) D.  P_0 is fixed.
    """
    N = lin.horizon
    A, C, G, D = lin.A, lin.C, lin.G, lin.D
    gains_t = gains.mT
    R_bar = S_inv @ gains_bar.mT  # dJ/d(C P-)
    S_bar = -symmetrize(R_bar @ gains)
    Q = symmetrize(C.mT @ (R_bar + S_bar @ C))
    E = np.eye(A.shape[-1]) - gains @ C  # I - Khat C
    Phi, q = E @ A, A.mT @ Q @ A
    P_bar = np.zeros(covs[1:].shape)  # P_bar[k] = dJ/dP_{k+1}; P_bar_N = 0
    for k in range(N - 1, 0, -1):
        P_bar[k - 1] = Phi[k].T @ P_bar[k] @ Phi[k] + q[k]
    Pm_bar = E.mT @ P_bar @ E + Q
    C_bar = -2.0 * gains_t @ P_bar @ E @ P_minus + R_bar @ P_minus + 2.0 * S_bar @ C @ P_minus
    return StageLinearization(A=2.0 * Pm_bar @ A @ covs[:N], B=np.zeros(lin.B.shape), G=2.0 * Pm_bar @ G,
                              C=C_bar, D=2.0 * (gains_t @ P_bar @ gains + S_bar) @ D)


def joint_map(K_k: Array, batch: tuple = ()) -> Array:
    """T = [[I, 0], [K, K]], which maps the augmented state to
    (x_k - x_nom_k, u_k - u_nom_k); batched over ``batch`` and the leading
    axes of K_k."""
    K_k = np.asarray(K_k, dtype=float)
    n_u, n_x = K_k.shape[-2:]
    T = np.zeros(np.broadcast_shapes(batch, K_k.shape[:-2]) + (n_x + n_u, 2 * n_x))
    T[..., :n_x, :n_x] = np.eye(n_x)
    T[..., n_x:, :n_x] = K_k
    T[..., n_x:, n_x:] = K_k
    return T


def joint_covariance(sigma_k: Array, K_k: Array) -> Array:
    """Covariance of (x_k - x_nom_k, u_k - u_nom_k) at one stage.

    With u - u_nom = K (xhat - x_nom) = K (x - x_nom) + K (xhat - x), the
    map from the augmented state is T = [[I, 0], [K, K]] (:func:`joint_map`)
    and the joint covariance is T sigma T'.  Batched over stages and
    policies; the product is returned as computed, not re-symmetrized.
    """
    sigma_k = np.asarray(sigma_k, dtype=float)
    T = joint_map(K_k, sigma_k.shape[:-2])
    return T @ sigma_k @ np.swapaxes(T, -1, -2)
