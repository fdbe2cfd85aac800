"""System models, quadratic costs, and constraint sets.

All numerical routines in this package are batch-aware: state, control and
noise arrays may carry arbitrary leading batch dimensions in front of the
core vector/matrix axes, and the stage maps are expected to broadcast over
them.  This keeps batched objective evaluations (line-search chunks,
stacked beliefs) and Monte-Carlo evaluations vectorized.

The model contract: the stage maps and their Jacobians are time-invariant
(no stage index), and the Jacobians and their pullbacks (the second
derivatives the gradient sweep reads) are analytic and required, so a whole
trajectory linearizes in one call with the stage axis folded into the batch.
An optional whole-horizon rollout may stand in for the stage loop over f.
Costs and constraints are data.  Costs are (N+1)-row tables of Hessians,
gradients and constants, with the terminal cost as stage N at u = 0.
Constraints are one set of rows affine in (x, u), a (matrix, offset) pair
that serves every stage, and a per-stage weight table that says which rows
apply where; under the linearization their values are then exactly
Gaussian and their gradients one constant table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# Stage maps: f(x, u, w) -> next state, g(x, v) -> output.
DynamicsFn = Callable[[Array, Array, Array], Array]
OutputFn = Callable[[Array, Array], Array]
# Analytic Jacobian providers, evaluated at the given point; they return
# float arrays with the point's batch dimensions in front.
DynamicsJacFn = Callable[[Array, Array, Array], tuple[Array, Array, Array]]
OutputJacFn = Callable[[Array, Array], tuple[Array, Array]]
# Noise-free trajectory: rollout(x0, u (.., N, n_u)) -> states (.., N+1, n_x).
RolloutFn = Callable[[Array, Array], Array]
# Jacobian pullbacks at zero noise: f_jac_pullback(x, u, A_bar, B_bar, G_bar)
# -> (.., n_x + n_u) and g_jac_pullback(x, C_bar, D_bar) -> (.., n_x).
DynamicsPullbackFn = Callable[[Array, Array, Array, Array, Array], Array]
OutputPullbackFn = Callable[[Array, Array, Array], Array]


class ModelError(ValueError):
    """Invalid model input or a map producing non-finite values."""


def psd_sqrt(M: Array) -> Array:
    """A square root L with L @ L.T = M for symmetric PSD M (zero allowed).

    Cholesky when positive definite, eigendecomposition otherwise.

    Raises:
        ModelError: if M has non-finite entries or a significantly negative
            eigenvalue.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ModelError("covariance has non-finite entries")
    if not np.any(M):
        return np.zeros_like(M)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(M)
        if np.min(vals) < -1e-10:
            raise ModelError("covariance is not positive semidefinite")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass(frozen=True)
class SystemModel:
    """Nonlinear stochastic discrete-time system with unit-covariance noise.

    The process and output noises are standardized: any noise shaping
    (Cholesky factors of physical covariances) lives inside ``f`` and ``g``,
    so every downstream consumer draws ``w, v ~ N(0, I)``.  The maps are the
    same at every stage.

    Attributes:
        n_x, n_u, n_w, n_v, n_y: dimensions.
        horizon: number of stages N (at least 1).
        f: stage map ``f(x, u, w)``; with ``w = 0`` it must be
            deterministic and repeatable bit-for-bit.
        g: output map ``g(x, v)``, measured at stages 1..N.
        f_jac: analytic Jacobians ``(A, B, G)`` of ``f`` at ``(x, u, w)``,
            with the batch dimensions of ``x`` in front.
        g_jac: analytic Jacobians ``(C, D)`` of ``g`` at ``(x, v)``, alike.
        f_jac_pullback: ``f_jac_pullback(x, u, A_bar, B_bar, G_bar)``, the
            gradient over ``z = (x, u)`` (.., n_x + n_u) of
            ``<A_bar, A> + <B_bar, B> + <G_bar, G>`` at each point, with
            ``(A, B, G) = f_jac(x, u, 0)``: the second derivatives of ``f``
            that the objective's reverse sweep reads.  Constant Jacobians
            give zeros.
        g_jac_pullback: ``g_jac_pullback(x, C_bar, D_bar)``, the gradient
            over ``x`` (.., n_x) of ``<C_bar, C> + <D_bar, D>`` with
            ``(C, D) = g_jac(x, 0)``.  Both pullbacks broadcast over the
            leading axes of their arguments, and code that replaces
            ``f_jac`` or ``g_jac`` with ``dataclasses.replace`` must give
            the pullback of the new Jacobians.
        state_names: labels for file outputs.
        rollout: optional ``rollout(x0, u)``, the states ``(.., N+1, n_x)``
            from ``x0`` under the controls ``u (.., N, n_u)`` with zero
            noise, in one call.  When set, it must give the bits of the
            stage loop ``x_{k+1} = f(x_k, u_k, 0)``; code that replaces
            ``f`` with ``dataclasses.replace`` must also set
            ``rollout=None``.  Without it, ``nominal_rollout`` runs that
            stage loop.
    """

    n_x: int
    n_u: int
    n_w: int
    n_v: int
    n_y: int
    horizon: int
    f: DynamicsFn
    g: OutputFn
    f_jac: DynamicsJacFn
    g_jac: OutputJacFn
    f_jac_pullback: DynamicsPullbackFn
    g_jac_pullback: OutputPullbackFn
    state_names: tuple[str, ...]
    rollout: RolloutFn | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ModelError(f"horizon must be at least 1, got {self.horizon}")


_PSD_TOL = -1e-10


def _stack(x: Array, u: Array) -> Array:
    """The points z = (x, u), with x and u broadcast to one batch shape."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
    return np.concatenate([np.broadcast_to(x, batch + x.shape[-1:]), np.broadcast_to(u, batch + u.shape[-1:])], axis=-1)


@dataclass(frozen=True)
class QuadraticCost:
    """Convex quadratic costs of stages 0..N, one table row per stage.

    Stage k cost over ``z = (x, u)``:
        ``l_k(z) = 0.5 z' H_k z + g_k' z + c_k``
    Stage N is the terminal cost, evaluated at ``u = 0``, so its ``u``
    entries are never read.  The tables must be finite, and each Hessian is
    stored as its symmetric part 0.5 (H_k + H_k'), which must be PSD (the
    expected-cost trace term is then nonnegative for PSD covariances).
    """

    hessians: Array  # (N+1, n_z, n_z)
    gradients: Array  # (N+1, n_z)
    constants: Array  # (N+1,)

    def __post_init__(self):
        H, g, c = (np.asarray(a, dtype=float) for a in (self.hessians, self.gradients, self.constants))
        if g.ndim != 2 or H.shape != g.shape + g.shape[1:] or c.shape != g.shape[:1]:
            shapes = f"{H.shape}, {g.shape}, {c.shape}"
            raise ModelError(f"cost table shapes {shapes} are not (S, n_z, n_z), (S, n_z), (S,)")
        if not all(np.isfinite(a).all() for a in (H, g, c)):
            raise ModelError("cost tables must be finite")
        H = 0.5 * (H + np.swapaxes(H, -1, -2))
        if H.size and np.min(np.linalg.eigvalsh(H)) < _PSD_TOL:
            raise ModelError("cost Hessian is not positive semidefinite")
        for name, table in (("hessians", H), ("gradients", g), ("constants", c)):
            object.__setattr__(self, name, table)

    def value(self, k, x: Array, u: Array) -> Array:
        """Cost of stage k at (x, u), broadcast over batch dimensions.

        ``k`` is a stage index, or an index array or slice that selects
        several stages along the last batch axis of ``x`` and ``u``.
        """
        z = _stack(x, u)
        return (
            0.5 * np.einsum("...i,...ij,...j->...", z, self.hessians[k], z)
            + np.einsum("...i,...i->...", z, self.gradients[k])
            + self.constants[k]
        )


@dataclass(frozen=True)
class ConstraintSet:
    """Penalized affine inequality constraints plus hard control box bounds.

    One row set ``h(x, u) = matrix (x, u) + offset <= 0`` serves every stage
    0..N; stage N is evaluated at ``u = 0``, with the rows' ``u``
    derivatives taken as 0.  The rows are softened with linear violation
    weights from the ``(N+1, n_h)`` table ``weights``: ``weights[k, i]`` is
    row i's weight at stage k, and 0 means the row does not apply there.
    The control box is additionally enforced exactly on the nominal
    controls by the solver.

    Attributes:
        matrix: finite ``(n_h, n_x + n_u)`` table, the rows' gradients over
            ``z = (x, u)``.
        offset: finite ``(n_h,)`` table, the rows' values at ``z = 0``.
        weights: finite, nonnegative ``(N+1, n_h)`` weight table.
        u_lower, u_upper: control box.
    """

    matrix: Array
    offset: Array
    weights: Array
    u_lower: Array
    u_upper: Array

    def __post_init__(self):
        for name in ("matrix", "offset", "weights", "u_lower", "u_upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        matrix, offset, weights = self.matrix, self.offset, self.weights
        if matrix.ndim != 2:
            raise ModelError(f"constraint matrix must be 2-D (rows, n_x + n_u), got shape {matrix.shape}")
        if weights.ndim != 2:
            raise ModelError(f"weight table must be 2-D (stages, rows), got shape {weights.shape}")
        if offset.shape != matrix.shape[:1] or weights.shape[1] != matrix.shape[0]:
            raise ModelError(f"constraint offset {offset.shape} and weight table {weights.shape} "
                             f"do not match the {matrix.shape[0]} rows of the matrix")
        if not (np.isfinite(matrix).all() and np.isfinite(offset).all()):
            raise ModelError("constraint matrix and offset must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ModelError("violation weights must be finite and nonnegative")
        if self.u_lower.ndim != 1 or self.u_lower.shape != self.u_upper.shape:
            raise ModelError(f"control box bounds must be 1-D and of one length, "
                             f"got shapes {self.u_lower.shape} and {self.u_upper.shape}")
        if np.any(np.isnan(self.u_lower)) or np.any(np.isnan(self.u_upper)):
            raise ModelError("control box bounds must not be NaN")
        if np.any(self.u_lower > self.u_upper):
            raise ModelError("control box is empty (lower > upper)")

    def values(self, x: Array, u: Array) -> Array:
        """The rows ``h(x, u)`` (.., n_h), broadcast over batch dimensions.

        Per-point products: a batched z @ matrix.T runs as one BLAS matrix
        product and can differ in the last bit from the same point alone.
        """
        return np.einsum("ij,...j->...i", self.matrix, _stack(x, u)) + self.offset

    @classmethod
    def empty(cls, n_x: int, n_u: int, horizon: int, u_lower=None, u_upper=None) -> "ConstraintSet":
        return cls(
            matrix=np.zeros((0, n_x + n_u)),
            offset=np.zeros(0),
            weights=np.zeros((horizon + 1, 0)),
            u_lower=np.full(n_u, -np.inf) if u_lower is None else u_lower,
            u_upper=np.full(n_u, np.inf) if u_upper is None else u_upper,
        )


@dataclass(frozen=True)
class ControlProblem:
    """A system model bundled with its cost and constraints."""

    model: SystemModel
    cost: QuadraticCost
    constraints: ConstraintSet

    def __post_init__(self):
        model, cs = self.model, self.constraints
        N, n_u = model.horizon, model.n_u
        if self.cost.gradients.shape != (N + 1, model.n_x + n_u):
            raise ModelError(f"cost tables of shape {self.cost.gradients.shape} do not match (N+1, n_x + n_u)")
        if cs.matrix.shape[1] != model.n_x + n_u:
            raise ModelError(f"constraint matrix has {cs.matrix.shape[1]} columns, but n_x + n_u = {model.n_x + n_u}")
        rows = cs.weights.shape[0]
        if rows != N + 1:
            raise ModelError(f"constraint weight table has {rows} stage rows, but horizon {N} needs {N + 1}")
        if cs.u_lower.shape != (n_u,):
            raise ModelError(f"control box bounds need shape ({n_u},): one entry per control")


def make_linear_problem(
    A: Array,
    B: Array,
    G: Array,
    C: Array,
    D: Array,
    Q: Array,
    R: Array,
    Q_terminal: Array,
    horizon: int,
    u_lower: Sequence[float] | None = None,
    u_upper: Sequence[float] | None = None,
) -> ControlProblem:
    """Time-invariant linear-Gaussian problem with quadratic cost.

    Dynamics ``x+ = A x + B u + G w``, output ``y = C x + D v`` with
    standardized noises; cost ``0.5 x'Qx + 0.5 u'Ru`` and terminal
    ``0.5 x'Q_f x``.  Useful as an oracle instance: the optimal policy is
    the time-varying LQR gain applied to the Kalman estimate.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    G = np.asarray(G, dtype=float)
    C = np.asarray(C, dtype=float)
    D = np.asarray(D, dtype=float)
    n_x = A.shape[0]
    n_u = B.shape[1]
    n_w = G.shape[1]
    n_y, n_v = C.shape[0], D.shape[1]

    # Per-point products: a batched x @ A.T runs as one BLAS matrix product
    # and can differ in the last bit from the same point evaluated alone.
    def apply(M, x):
        return np.einsum("ij,...j->...i", M, x)

    def f(x, u, w):
        return apply(A, x) + apply(B, u) + apply(G, w)

    def g(x, v):
        return apply(C, x) + apply(D, v)

    def f_jac(x, u, w):
        batch = np.shape(x)[:-1]
        return (
            np.broadcast_to(A, batch + A.shape),
            np.broadcast_to(B, batch + B.shape),
            np.broadcast_to(G, batch + G.shape),
        )

    def g_jac(x, v):
        batch = np.shape(x)[:-1]
        return np.broadcast_to(C, batch + C.shape), np.broadcast_to(D, batch + D.shape)

    # The Jacobians are constant, so their pullbacks are exact zeros.
    def f_jac_pullback(x, u, A_bar, B_bar, G_bar):
        return np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1]) + (n_x + n_u,))

    def g_jac_pullback(x, C_bar, D_bar):
        return np.zeros(np.shape(x))

    model = SystemModel(
        n_x=n_x, n_u=n_u, n_w=n_w, n_v=n_v, n_y=n_y, horizon=horizon,
        f=f, g=g, f_jac=f_jac, g_jac=g_jac, f_jac_pullback=f_jac_pullback, g_jac_pullback=g_jac_pullback,
        state_names=tuple(f"x_{i}" for i in range(n_x)),
    )
    n_z = n_x + n_u
    # Stages 0..N-1 weigh (x, u) with Q and R; stage N weighs x with Q_f.
    H = np.zeros((horizon + 1, n_z, n_z))
    H[:horizon, :n_x, :n_x] = np.asarray(Q, dtype=float)
    H[:horizon, n_x:, n_x:] = np.asarray(R, dtype=float)
    H[horizon, :n_x, :n_x] = np.asarray(Q_terminal, dtype=float)
    cost = QuadraticCost(hessians=H, gradients=np.zeros((horizon + 1, n_z)), constants=np.zeros(horizon + 1))
    constraints = ConstraintSet.empty(n_x, n_u, horizon, u_lower, u_upper)
    return ControlProblem(model=model, cost=cost, constraints=constraints)
