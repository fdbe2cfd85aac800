"""Nominal rollout, trajectory linearization, and covariance propagation.

The prediction model used by the optimizer: roll the nonlinear system out
without noise, linearize along that trajectory, and run a time-varying
Kalman recursion on the linearized system.  Under an estimate-feedback
policy u_k = u_nom_k + K_k (xhat_k - x_nom_k) the planned estimate's spread
xhat_k - x_nom_k and the estimation error xhat_k - x_k are uncorrelated,
because the filter is the Kalman filter of the same linearization
(separation); so the joint covariance of (x_k - x_nom_k, u_k - u_nom_k)
follows from the filter covariances and one n_x recursion for the spread
(:func:`estimate_spread`).  :func:`propagate_covariance` keeps the
covariance of (x_k - x_nom_k, xhat_k - x_k) for any observer gains.  These
and the filter's prediction without measurements run on one Lyapunov
kernel, :func:`lyapunov`, and their adjoints on :func:`lyapunov_adjoint`.

Index conventions (0-based stages, horizon N):
  * states x_0..x_N, controls u_0..u_{N-1};
  * measurements arrive at stages 1..N, so the first filter gain is the one
    applied at stage 1 and no update happens at stage 0;
  * feedback gains K_1..K_{N-1} are free, K_0 is identically zero because
    no new information can arrive before the first control is committed
    (:func:`stage_gains`).

Everything but :func:`spread_adjoint` and :func:`kalman_adjoint` (one
unbatched row) broadcasts over leading batch dimensions so batched
objective evaluations and Monte-Carlo checks stay vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Array, SystemModel

# Diagonal jitters tried, in turn, on a matrix that is not positive definite.
_JITTERS = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


class NumericalError(RuntimeError):
    """A contained numerical failure of one prediction or filter step: the
    solver rejects the trial point and the simulator flags the run."""


class RolloutError(NumericalError):
    """Nominal rollout produced non-finite states."""


class SingularInnovationError(NumericalError):
    """Innovation covariance not positive definite even with jitter."""


class LinearizationError(NumericalError):
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


def stage_gains(feedback: Array) -> Array:
    """The gains K_0..K_N of stages 0..N (.., N+1, n_u, n_x) from the free
    gains K_1..K_{N-1}, with the fixed zero gains of stage 0 (no measurement
    has arrived) and of the terminal stage N (no control follows)."""
    feedback = np.asarray(feedback, dtype=float)
    zero = np.zeros(feedback.shape[:-3] + (1,) + feedback.shape[-2:])
    return np.concatenate([zero, feedback, zero], axis=-3)


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
        # C order: a copy of the broadcast in its own (F) order makes the
        # first stage map of a batch add in another order than one point.
        x = np.ascontiguousarray(np.broadcast_to(x0, batch + x0.shape[-1:]))
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
    A, B, G = model.f_jac(x[:, :N].reshape(-1, model.n_x), traj.controls.reshape(-1, model.n_u))
    C, D = model.g_jac(x[:, 1:].reshape(-1, model.n_x))
    out = {}
    for name, M in zip("ABGCD", (A, B, G, C, D)):
        if not np.isfinite(M).all():
            raise LinearizationError(f"linearization produced non-finite {name} entries")
        out[name] = M.reshape(batch + (N,) + M.shape[-2:])
    return StageLinearization(**out)


def lyapunov(F: Array, W: Array, X0: Array) -> Array:
    """The discrete Lyapunov recursion X_{k+1} = sym(F_k X_k F_k' + W_k) of
    stages k = 0..N-1 from X_0 = X0, as (.., N+1, n, n) over the combined
    leading axes of the transitions F (.., N, n, n), the noise blocks W
    (.., N, n, n) and X0 (.., n, n).  Every second moment of the linearized
    prediction follows it; X0 is stored as given."""
    N = F.shape[-3]
    batch = np.broadcast_shapes(F.shape[:-3], W.shape[:-3], X0.shape[:-2])
    out = np.empty(batch + (N + 1,) + X0.shape[-2:])
    out[..., 0, :, :] = X = X0
    for k in range(N):
        X = symmetrize(F[..., k, :, :] @ X @ F[..., k, :, :].mT + W[..., k, :, :])
        out[..., k + 1, :, :] = X
    return out


def lyapunov_adjoint(F: Array, bar: Array) -> Array:
    """The reverse recursion of :func:`lyapunov`: Lambda_{N-1} = bar_{N-1},
    Lambda_{k-1} = bar_{k-1} + F_k' Lambda_k F_k, over the leading axes of
    F (.., N, n, n) and bar (.., N, n, n).  With bar_k the direct derivative
    of a scalar J with respect to X_{k+1}, Lambda_k is its total
    derivative; F_0 is not read.  Returns (.., N, n, n)."""
    N = F.shape[-3]
    lam = np.empty(np.broadcast_shapes(F.shape[:-3], bar.shape[:-3]) + bar.shape[-3:])
    lam[..., N - 1, :, :] = bar[..., N - 1, :, :]
    for k in range(N - 1, 0, -1):
        lam[..., k - 1, :, :] = bar[..., k - 1, :, :] + F[..., k, :, :].mT @ lam[..., k, :, :] @ F[..., k, :, :]
    return lam


def kalman_recursion(lin: StageLinearization, P_hat_0: Array, factors: bool = False) -> tuple[Array, ...]:
    """Time-varying Kalman filter on the linearized system.

    Per stage: predict P_minus = A P A' + G G'; innovation
    S = C P_minus C' + D D' = L L' (Cholesky, with the jitter of
    :func:`spd_factor` if S is not positive definite); Y = L^{-1} C P_minus
    from one inverse of L; gain Khat = (L^{-T} Y)'; update covariance
    U = Y'Y = Khat L L' Khat'; P_plus = P_minus - U, symmetrized.  No S^{-1}
    is formed, so P_plus is the Joseph form at the filter's own gain, a
    jittered S included.  Noises have unit covariance (shaping lives in G
    and D).  A filter that only predicts, with no measurement, is the
    forward kernel ``lyapunov(A, G G', P_hat_0)``.

    Returns:
        gains (.., N, n_x, n_y) — entry j is the gain applied at stage j+1 —
        and covariances (.., N+1, n_x, n_x); with ``factors``, also the
        update covariances U (.., N, n_x, n_x) of stages 1..N, the
        covariance of each update's move Khat nu of the estimate, which
        :func:`estimate_spread` reads.

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
    updates = np.empty(batch + (N, n_x, n_x))
    for k in range(N):
        P_minus = symmetrize(lin.A[..., k, :, :] @ P @ A_T[..., k, :, :] + GGt[..., k, :, :])
        CP = lin.C[..., k, :, :] @ P_minus
        S = CP @ C_T[..., k, :, :] + DDt[..., k, :, :]
        L_inv = np.linalg.inv(spd_factor(symmetrize(S), context=f"innovation covariance at stage {k + 1}"))
        Y = L_inv @ CP
        U = Y.mT @ Y
        P = symmetrize(P_minus - U)
        gains[..., k, :, :] = (L_inv.mT @ Y).mT
        covs[..., k + 1, :, :] = P
        updates[..., k, :, :] = U
    return (gains, covs, updates) if factors else (gains, covs)


def estimate_spread(lin: StageLinearization, K: Array, U: Array) -> Array:
    """Covariances Q_k of the planned estimate's spread xhat_k - x_nom_k.

    ``K`` holds the feedback gains K_0..K_{N-1}
    (``stage_gains(feedback)[..., :-1, :, :]``) and ``U`` the Kalman
    filter's update covariances Khat S Khat' of stages 1..N
    (``kalman_recursion(lin, P_hat_0, factors=True)[2]``).  Between updates
    the estimate moves with F_k = A_k + B_k K_k; each update adds
    Khat nu, which is uncorrelated with the predicted estimate and has
    covariance U.  So, with the estimate starting at the nominal state,
        Q_0 = 0,  Q_{k+1} = sym(F_k Q_k F_k' + U_{k+1}),
    the forward kernel :func:`lyapunov` from Q_1 = U_1.
    The estimation error xhat - x is uncorrelated with the spread, so the
    state deviation x - x_nom has covariance Q + P_hat and
    (x - x_nom, u - u_nom) the joint covariance
    [[Q + P_hat, Q K'], [K Q, K Q K']].

    Returns:
        (.., N+1, n_x, n_x), over the combined batch shape; gains broadcast,
        so a batch of policies can share one filter.
    """
    F = lin.A + lin.B @ K
    spread = lyapunov(F[..., 1:, :, :], U[..., 1:, :, :], U[..., 0, :, :])
    return np.concatenate([np.zeros(spread.shape[:-3] + (1,) + spread.shape[-2:]), spread], axis=-3)


def _augmented_transitions(lin: StageLinearization, K_all: Array, E: Array) -> Array:
    """Transition matrices [[A + B K_k, B K_k], [0, -E_k A]] of stages 0..N-1,
    where E_k = Khat_{k+1} C_{k+1} - I."""
    n_x = lin.A.shape[-1]
    BK = lin.B @ K_all
    lower = -E @ lin.A  # (I - Khat C) A
    shape = np.broadcast_shapes(BK.shape[:-3], lower.shape[:-3])
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
    linearization and one filter-gain sequence.  ``gains`` may be any
    observer gains.  With the Kalman gains of ``lin`` sigma is, up to
    rounding, [[Q + P_hat, -P_hat], [-P_hat, P_hat]] with the spread Q of
    :func:`estimate_spread`, the n_x form that the objective evaluates.
    """
    n_x = lin.A.shape[-1]
    K_all = stage_gains(policy.feedback)[..., :-1, :, :]
    gains = np.asarray(gains, dtype=float)
    P0 = symmetrize(np.asarray(P_hat_0, dtype=float))
    E = gains @ lin.C - np.eye(n_x)  # maps process noise into estimation error
    trans = _augmented_transitions(lin, K_all, E)
    W = _noise_factors(lin, gains, E)
    sigma0 = np.block([[P0, -P0], [-P0, P0]])
    return AugmentedCovariance(sigma=lyapunov(trans, W @ np.swapaxes(W, -1, -2), sigma0), n_x=n_x)


def spread_adjoint(lin: StageLinearization, K: Array, spread: Array, spread_bar: Array,
                   gains_bar: Array) -> tuple[Array, Array, Array, Array]:
    """Reverse-mode pass of :func:`estimate_spread` (one unbatched policy).

    ``spread`` is the forward output Q (N+1, n_x, n_x); ``spread_bar``
    holds the symmetric derivatives dJ/dQ_k of some scalar J that reads
    each stage's spread directly, and ``gains_bar`` the direct derivatives
    dJ/dK_k of the stage gains K_0..K_{N-1}.  The recursion is linear in Q
    for fixed F_k = A_k + B_k K_k, so its adjoint is the reverse kernel
    :func:`lyapunov_adjoint`,
        Lambda_N = Q_bar_N,  Lambda_k = Q_bar_k + F_k' Lambda_{k+1} F_k,
    and F_k gets 2 Lambda_{k+1} F_k Q_k, which passes to A_k, to B_k (times
    K_k') and to K_k (B_k' times it).  Lambda_{k+1} is also the derivative
    with respect to the update covariance U_{k+1}.

    Returns:
        (dJ/dK for the free gains K_1..K_{N-1}, shaped like
        ``Policy.feedback``; dJ/dA; dJ/dB; Lambda_1..Lambda_N (N, n_x, n_x)).
    """
    F = lin.A + lin.B @ K
    lam = lyapunov_adjoint(F, spread_bar[1:])  # lam[k] = Lambda_{k+1}
    F_bar = 2.0 * lam @ F @ spread[:-1]
    gains_bar = np.asarray(gains_bar, dtype=float) + lin.B.mT @ F_bar
    return gains_bar[1:], F_bar, F_bar @ K.mT, lam


def kalman_adjoint(lin: StageLinearization, gains: Array, covs: Array, covs_bar: Array,
                   U_bar: Array) -> tuple[Array, Array, Array, Array]:
    """Reverse-mode pass of :func:`kalman_recursion` (one unbatched
    linearization): the derivatives dJ/d(A, G, C, D) of a scalar J with
    direct derivatives ``covs_bar`` (N, n_x, n_x) with respect to the
    filter covariances P_hat_1..P_hat_N and ``U_bar`` with respect to the
    update covariances U = P- - P_hat, from the forward outputs ``gains``
    and ``covs`` (``kalman_recursion(lin, P_hat_0)``).

    Through U = P- - P_hat, J reads P_hat with covs_bar - U_bar and the
    predicted covariance P- with U_bar.  The update P_hat = P- - U has the
    derivative (I - Khat C) dP- (I - Khat C)' in P- (the Kalman gain
    minimises the Joseph form; a jittered S adds a constant, so this holds
    there too), -P_hat dC' Khat' - Khat dC P_hat in C, since
    (I - Khat C) P- = P_hat for the filter's own gain, and
    Khat d(D D') Khat' in D.  With W_k the derivative with respect to
    P_hat_k and Phi_k = (I - Khat_{k+1} C_{k+1}) A_k, the reverse kernel
    :func:`lyapunov_adjoint` runs
        W_N = covs_bar_N - U_bar_N,
        W_k = covs_bar_k - U_bar_k + Phi_k' W_{k+1} Phi_k + A_k' U_bar_{k+1} A_k,
    and with Pm_bar = (I - Khat C)' W (I - Khat C) + U_bar at stages 1..N,
    dA_k = 2 Pm_bar_{k+1} A_k P_hat_k, dG_k = 2 Pm_bar_{k+1} G_k,
    dC = -2 Khat' W P_hat and dD = 2 Khat' W Khat D.  P_hat_0 is fixed.
    """
    A, C = lin.A, lin.C
    E = np.eye(A.shape[-1]) - gains @ C  # I - Khat C
    W = covs_bar - U_bar + np.concatenate([A[1:].mT @ U_bar[1:] @ A[1:], np.zeros((1,) + A.shape[1:])])
    W = lyapunov_adjoint(E @ A, W)  # W[k] = dJ/dP_hat_{k+1}
    Pm_bar = E.mT @ W @ E + U_bar
    KW = gains.mT @ W
    return (2.0 * Pm_bar @ A @ covs[:-1], 2.0 * Pm_bar @ lin.G, -2.0 * KW @ covs[1:],
            2.0 * KW @ gains @ lin.D)
