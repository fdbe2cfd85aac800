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

_JITTER_START = 1e-12
_JITTER_MAX = 1e-6


class RolloutError(RuntimeError):
    """Nominal rollout produced non-finite states."""


class SingularInnovationError(RuntimeError):
    """Innovation covariance not positive definite even with jitter."""


class LinearizationError(RuntimeError):
    """Trajectory linearization failed or produced non-finite Jacobians."""


def symmetrize(M: Array) -> Array:
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def chol_solve_spd(S: Array, rhs: Array, context: str = "linear solve"):
    """Solve S X = rhs for symmetric positive-definite S (batched).

    Adds an escalating diagonal jitter (1e-12, x10 per attempt, up to 1e-6)
    before giving up, which keeps degenerate zero-noise corner cases usable.

    Returns:
        (X, jitter_used).

    Raises:
        SingularInnovationError: if S stays non-PD at the largest jitter.
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[-1]
    eye = np.eye(n)
    jitter = 0.0
    while True:
        try:
            L = np.linalg.cholesky(S + jitter * eye if jitter else S)
            break
        except np.linalg.LinAlgError:
            if jitter == 0.0:
                jitter = _JITTER_START
            elif jitter >= _JITTER_MAX:
                raise SingularInnovationError(
                    f"{context}: matrix not positive definite at jitter {jitter:g}"
                ) from None
            else:
                jitter *= 10.0
    # Two triangular solves; L is (..., n, n), rhs (..., n, m).
    y = np.linalg.solve(L, rhs)
    x = np.linalg.solve(np.swapaxes(L, -1, -2), y)
    return x, jitter


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

    @classmethod
    def open_loop(cls, u_nom: Array, n_x: int) -> "Policy":
        u_nom = np.asarray(u_nom, dtype=float)
        N = u_nom.shape[-2]
        n_u = u_nom.shape[-1]
        fb = np.zeros(u_nom.shape[:-2] + (max(N - 1, 0), n_u, n_x))
        return cls(u_nom=u_nom, feedback=fb)


@dataclass(frozen=True)
class AugmentedCovariance:
    """Covariance of the stacked vector (x_k - x_nom_k, xhat_k - x_k).

    ``sigma`` has shape (.., N+1, 2*n_x, 2*n_x); the named blocks are the
    true-state deviation covariance P, the estimation-error covariance
    P_hat, and their cross term.
    """

    sigma: Array
    n_x: int

    @property
    def P(self) -> Array:
        return self.sigma[..., : self.n_x, : self.n_x]

    @property
    def P_hat(self) -> Array:
        return self.sigma[..., self.n_x :, self.n_x :]

    @property
    def cross(self) -> Array:
        return self.sigma[..., : self.n_x, self.n_x :]


def nominal_rollout(model: SystemModel, x0: Array, u_nom: Array) -> NominalTrajectory:
    """Simulate the system with all noises zero from x0 under u_nom.

    Batched over leading dims of ``x0`` / ``u_nom``.

    Raises:
        RolloutError: if a stage produces non-finite states (stage named).
    """
    x0 = np.asarray(x0, dtype=float)
    u_nom = np.asarray(u_nom, dtype=float)
    N = u_nom.shape[-2]
    batch = np.broadcast_shapes(x0.shape[:-1], u_nom.shape[:-2])
    x = np.broadcast_to(x0, batch + x0.shape[-1:]).astype(float)
    w0 = np.zeros(model.n_w)
    states = np.empty(batch + (N + 1,) + x0.shape[-1:])
    states[..., 0, :] = x
    for k in range(N):
        x = np.asarray(model.f(k, x, u_nom[..., k, :], w0), dtype=float)
        if not np.all(np.isfinite(x)):
            raise RolloutError(f"nominal rollout diverged at stage {k + 1}")
        states[..., k + 1, :] = x
    controls = np.broadcast_to(u_nom, batch + u_nom.shape[-2:])
    return NominalTrajectory(states=states, controls=controls)


def _point_bytes(a: Array) -> Array:
    """Each vector along the (contiguous) last axis as one raw-bytes scalar,
    so that equal means bit-identical (0.0 and -0.0 differ, and so may their
    Jacobians)."""
    return a.view(f"V{a.itemsize * a.shape[-1]}")[..., 0]


def linearize_trajectory(model: SystemModel, traj: NominalTrajectory) -> StageLinearization:
    """Dynamics and output Jacobians along the nominal trajectory.

    Dynamics are linearized at (x_k, u_k, 0), outputs at (x_{k+1}, 0).
    Stage-invariant models are linearized in a single call with the stage
    axis folded into the batch.  That call skips every (row, stage) whose
    x_k, u_k and x_{k+1} equal row 0's at the same stage and copies row 0's
    Jacobians there: the finite-difference rows of a control u_k share all
    stages before k with the centre they are batched behind.

    Raises:
        LinearizationError: a Jacobian provider failed or returned
            non-finite entries (the stage is named where known).
    """
    N = traj.horizon
    w0 = np.zeros(model.n_w)
    v0 = np.zeros(model.n_v)
    if model.stage_invariant and N > 0:
        batch = traj.states.shape[:-2]
        x = np.ascontiguousarray(traj.states.reshape(-1, N + 1, model.n_x))
        u = np.ascontiguousarray(traj.controls.reshape(-1, N, model.n_u))
        x_bytes, u_bytes = _point_bytes(x), _point_bytes(u)
        moved = x_bytes != x_bytes[0]
        new = moved[:, :N] | moved[:, 1:] | (u_bytes != u_bytes[0])
        new[0] = True
        points = new.ravel().nonzero()[0]  # row * N + stage of each evaluated point
        count = points.size
        # Where each (row, stage) takes its Jacobians from: its own point, or
        # row 0's at that stage, which is evaluated point number `stage`.
        src = np.arange(new.size) % N
        src[points] = np.arange(count)
        at = points + points // N  # row * (N + 1) + stage: the point's x_k
        states = x.reshape(-1, model.n_x)
        controls = u.reshape(-1, model.n_u)
        A, B, G = model.linearize_dynamics(0, states.take(at, axis=0), controls.take(points, axis=0), w0)
        C, D = model.linearize_output(1, states.take(at + 1, axis=0), v0)
        mats = dict(A=(A, model.n_x, model.n_x), B=(B, model.n_x, model.n_u),
                    G=(G, model.n_x, model.n_w), C=(C, model.n_y, model.n_x),
                    D=(D, model.n_y, model.n_v))
        out = {}
        for name, (M, r, c) in mats.items():
            if not np.isfinite(M).all():
                raise LinearizationError(f"linearization produced non-finite {name} entries")
            if M.shape[:-2] != (count,):  # a constant Jacobian
                M = np.broadcast_to(M, (count, r, c))
            out[name] = M.take(src, axis=0).reshape(batch + (N, r, c))
        return StageLinearization(**out)
    A, B, G, C, D = [], [], [], [], []
    for k in range(N):
        try:
            Ak, Bk, Gk = model.linearize_dynamics(k, traj.states[..., k, :], traj.controls[..., k, :], w0)
            Ck, Dk = model.linearize_output(k + 1, traj.states[..., k + 1, :], v0)
        except Exception as exc:
            raise LinearizationError(f"linearization failed at stage {k}: {exc}") from exc
        if not all(np.all(np.isfinite(M)) for M in (Ak, Bk, Gk, Ck, Dk)):
            raise LinearizationError(f"linearization produced non-finite entries at stage {k}")
        A.append(Ak)
        B.append(Bk)
        G.append(Gk)
        C.append(Ck)
        D.append(Dk)
    batch = traj.states.shape[:-2]

    def stack(mats, rows, cols):
        if not mats:
            return np.zeros(batch + (0, rows, cols))
        return np.stack([np.broadcast_to(M, batch + (rows, cols)) for M in mats], axis=-3)

    return StageLinearization(
        A=stack(A, model.n_x, model.n_x),
        B=stack(B, model.n_x, model.n_u),
        G=stack(G, model.n_x, model.n_w),
        C=stack(C, model.n_y, model.n_x),
        D=stack(D, model.n_y, model.n_v),
    )


def kalman_recursion(lin: StageLinearization, P_hat_0: Array) -> tuple[Array, Array]:
    """Time-varying Kalman filter on the linearized system.

    Per stage: predict P_minus = A P A' + G G'; innovation
    S = C P_minus C' + D D'; gain K = P_minus C' S^{-1}; update
    P_plus = (I - K C) P_minus, symmetrized.  Noises have unit covariance
    (shaping lives in G and D).

    Returns:
        gains (.., N, n_x, n_y) — entry j is the gain applied at stage j+1 —
        and covariances (.., N+1, n_x, n_x).

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
    A_T = np.swapaxes(lin.A, -1, -2)
    C_T = np.swapaxes(lin.C, -1, -2)
    GGt = lin.G @ np.swapaxes(lin.G, -1, -2)
    DDt = lin.D @ np.swapaxes(lin.D, -1, -2)
    eye = np.eye(n_x)
    gains = np.empty(batch + (N, n_x, n_y))
    covs = np.empty(batch + (N + 1, n_x, n_x))
    covs[..., 0, :, :] = P
    for k in range(N):
        A = lin.A[..., k, :, :]
        C = lin.C[..., k, :, :]
        P_minus = symmetrize(A @ P @ A_T[..., k, :, :] + GGt[..., k, :, :])
        S = C @ P_minus @ C_T[..., k, :, :] + DDt[..., k, :, :]
        # K = P- C' S^{-1}  <=>  S K' = C P-   (S symmetric).
        K_T, _ = chol_solve_spd(symmetrize(S), C @ P_minus, context=f"innovation covariance at stage {k + 1}")
        K = np.swapaxes(K_T, -1, -2)
        P = symmetrize((eye - K @ C) @ P_minus)
        gains[..., k, :, :] = K
        covs[..., k + 1, :, :] = P
    return gains, covs


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


def propagate_covariance(
    lin: StageLinearization,
    policy: Policy,
    gains: Array,
    P_hat_0: Array,
) -> AugmentedCovariance:
    """Propagate the covariance of (x_k - x_nom_k, xhat_k - x_k).

    The augmented transition is
        [[A + B K_k, B K_k], [0, (I - Khat_{k+1} C_{k+1}) A]]
    with noise block
        [[G, 0], [(Khat_{k+1} C_{k+1} - I) G, Khat_{k+1} D_{k+1}]],
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
    BK = lin.B @ K_all
    E = gains @ lin.C - np.eye(n_x)  # maps process noise into estimation error
    lower = -E @ lin.A  # (I - Khat C) A
    GGt = lin.G @ np.swapaxes(lin.G, -1, -2)
    EG = E @ lin.G
    KD = gains @ lin.D
    trans = np.zeros(np.broadcast_shapes(BK.shape[:-3], lower.shape[:-3], batch) + (N, 2 * n_x, 2 * n_x))
    trans[..., :n_x, :n_x] = lin.A + BK
    trans[..., :n_x, n_x:] = BK
    trans[..., n_x:, n_x:] = lower
    trans_T = np.swapaxes(trans, -1, -2)
    noise = np.zeros(np.broadcast_shapes(GGt.shape[:-2], E.shape[:-2]) + (2 * n_x, 2 * n_x))
    noise[..., :n_x, :n_x] = GGt
    noise[..., :n_x, n_x:] = GGt @ np.swapaxes(E, -1, -2)
    noise[..., n_x:, :n_x] = E @ GGt
    noise[..., n_x:, n_x:] = EG @ np.swapaxes(EG, -1, -2) + KD @ np.swapaxes(KD, -1, -2)
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


def joint_covariance(sigma_k: Array, K_k: Array) -> Array:
    """Covariance of (x_k - x_nom_k, u_k - u_nom_k) at one stage.

    With u - u_nom = K (xhat - x_nom) = K (x - x_nom) + K (xhat - x), the
    map from the augmented state is T = [[I, 0], [K, K]] and the joint
    covariance is T sigma T'.
    """
    sigma_k = np.asarray(sigma_k, dtype=float)
    K_k = np.asarray(K_k, dtype=float)
    n_x = K_k.shape[-1]
    n_u = K_k.shape[-2]
    batch = np.broadcast_shapes(sigma_k.shape[:-2], K_k.shape[:-2])
    T = np.zeros(batch + (n_x + n_u, 2 * n_x))
    T[..., :n_x, :n_x] = np.eye(n_x)
    T[..., n_x:, :n_x] = K_k
    T[..., n_x:, n_x:] = K_k
    return symmetrize(T @ sigma_k @ np.swapaxes(T, -1, -2))
