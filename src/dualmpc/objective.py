"""Exact expectations of quadratic costs and linear violation penalties.

Under the Gaussian approximation the stage cost expectation is the nominal
cost plus a covariance trace term, and the expectation of a hinge penalty
max(0, h) of a Gaussian h ~ N(mu, sigma^2) has the closed form
sigma*pdf(mu/sigma) + mu*cdf(mu/sigma), where sigma^2 is the constraint's
direction variance plus eps_sigma^2, smooth in the variance.  This module
evaluates both, plus the feedback regularizer, along a predicted trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .model import Array, ControlProblem, ModelError
from .uncertainty import (
    LinearizationError,
    NominalTrajectory,
    Policy,
    StageLinearization,
    estimate_spread,
    kalman_adjoint,
    kalman_recursion,
    linearize_trajectory,
    lyapunov,
    lyapunov_adjoint,
    nominal_rollout,
    spread_adjoint,
    stage_gains,
    symmetrize,
)

MODES = ("nominal", "open_loop", "output_feedback")

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_TAIL_Z = 8.0
# Levels of the tail's continued fraction: 16 reach 1.5 ulp for t >= 8.
_TAIL_DEPTH = 16


def _relu_tail(t: Array) -> tuple[Array, Array]:
    """(Q(t), pdf(t) - t Q(t)) for t > 8, with Q(t) = cdf(-t) the upper
    tail, from Laplace's continued fraction for Mills' ratio
    Q / pdf = 1 / (t + a), a = 1 / (t + 2 / (t + 3 / (t + ...))), summed
    backwards from a fixed depth.  Then pdf - t Q = a Q: no difference is
    taken, so nothing cancels.  Against 40-digit references the relative
    error is at most 5.7e-14 while the result is a normal float (t up to
    37.4), all of it from the rounding of t^2 / 2 in the exponent of pdf;
    further out the result is subnormal and keeps only the bits it has.
    """
    a = np.zeros_like(t)
    for k in range(_TAIL_DEPTH, 0, -1):
        a = k / (t + a)
    Q = np.exp(-0.5 * t * t) / _SQRT_2PI / (t + a)
    return Q, a * Q


def _hinge(mu: Array, sigma: Array) -> tuple[Array, Array]:
    """(E max(0, X), cdf(mu / sigma)) for X ~ N(mu, sigma^2), sigma > 0,
    elementwise over the broadcast shape; NaN in gives NaN out.

    With z = mu / sigma and t = |z|, E max(0, X) = max(mu, 0) + sigma e(t)
    for e(t) = pdf(t) - t Q(t), and cdf(z) is Q(t) below zero and 1 - Q(t)
    above.  Q(t) = erfc(t / sqrt(2)) / 2 by stdlib ``math.erfc`` for
    t <= 8, by :func:`_relu_tail` beyond.  The middle branch's difference
    cancels most near t = 8: against 40-digit references over z in
    [-30, 30], the worst relative error is 6.6e-13 for the hinge (at
    z = -7.82) and 2.8e-14 for the cdf.
    """
    z = mu / sigma
    t = np.abs(z)
    pdf = np.exp(-0.5 * t * t) / _SQRT_2PI
    Q, e = np.zeros(t.shape), np.zeros(t.shape)  # where pdf(t) is 0, so are Q and e
    mid = t <= _TAIL_Z
    tm = t[mid]
    q = 0.5 * np.fromiter(map(math.erfc, (tm / np.sqrt(2.0)).tolist()), float, tm.size)
    Q[mid], e[mid] = q, pdf[mid] - tm * q
    tail = ~(mid | (pdf == 0.0))  # NaN included: it stays NaN through the fraction
    Q[tail], e[tail] = _relu_tail(t[tail])
    return np.maximum(mu, 0.0) + sigma * e, np.where(z < 0.0, Q, 1.0 - Q)


def expected_relu(mu, sigma):
    """E[max(0, X)] for X ~ N(mu, sigma^2), elementwise.

    sigma = 0 returns max(0, mu) exactly.  Monotone in both arguments,
    always >= max(0, mu), smooth for sigma > 0.  A NaN argument gives NaN.

    Raises:
        ValueError: on negative sigma.
    """
    mu_a = np.asarray(mu, dtype=float)
    sigma_a = np.asarray(sigma, dtype=float)
    if np.any(sigma_a < 0.0):
        raise ValueError("expected_relu: sigma must be nonnegative")
    mu_b, sigma_b = np.broadcast_arrays(mu_a, sigma_a)
    out = np.maximum(mu_b, 0.0, out=np.empty(mu_b.shape))
    live = sigma_b != 0.0
    out[live] = _hinge(mu_b[live], sigma_b[live])[0]
    return float(out) if out.ndim == 0 else out


def constraint_direction_variance(grad: Array, cov: Array) -> Array:
    """Variance of a linearized constraint: grad' cov grad (batched)."""
    return np.einsum("...i,...ij,...j->...", grad, cov, grad)


def smoothed_variance(direction_variances: Array, eps_sigma: float) -> Array:
    """Optimal constraint-variance slacks clip(H, 0) + eps_sigma^2 of the
    direction variances H: the expected hinge penalty is strictly increasing
    in the standard deviation, so each slack sits at this lower bound.  H is
    a PSD quadratic form, so the clip removes only rounding and the slack
    has slope 1 in H."""
    return np.clip(np.asarray(direction_variances, dtype=float), 0.0, None) + eps_sigma**2


def feedback_regularization(feedback: Array, eps_K: float):
    """eps_K times the squared Frobenius norm of all feedback gains."""
    feedback = np.asarray(feedback, dtype=float)
    if feedback.size == 0:
        return np.zeros(feedback.shape[:-3])
    return eps_K * np.sum(feedback**2, axis=(-3, -2, -1))


def _stage_points(xs: Array, us: Array) -> tuple[Array, Array]:
    """The points of stages 0..N from batched states (.., N+1, n_x) and
    controls (.., N, n_u): both broadcast to one batch shape, with stage N
    at u = 0."""
    batch = np.broadcast_shapes(xs.shape[:-2], us.shape[:-2])
    us = np.concatenate([np.broadcast_to(us, batch + us.shape[-2:]), np.zeros(batch + (1, us.shape[-1]))], axis=-2)
    return np.broadcast_to(xs, batch + xs.shape[-2:]), us


def _trace_sum(hessians: Array, joint: Array) -> Array:
    """sum_k trace(H_k joint_k) over the stage axis, batched over the leading
    axes of ``joint``.  The products are added in one fixed order, strictly
    sequentially: each row (k, i) over j, then the row sums in turn from
    +0.0, so a row of a batch adds up exactly as it does alone (an einsum's
    order depends on the batch shape)."""
    terms = hessians * np.swapaxes(joint, -1, -2)
    rows = np.add.accumulate(terms, axis=-1)[..., -1].reshape(terms.shape[:-3] + (-1,))
    rows[..., 0] += 0.0  # a sum from +0.0 never ends at -0.0
    return np.add.accumulate(rows, axis=-1)[..., -1]


def _row(value, index: int):
    """Element ``index`` of the leading batch axis of every array in
    ``value``, a dataclass, tuple or array (None stays None).  The row of a
    one-row batch, or of an axis that is only broadcast (stride 0), is a
    view; every other row is a copy that keeps nothing of the batch alive."""
    if value is None:
        return None
    if is_dataclass(value):
        return type(value)(**{f.name: _row(getattr(value, f.name), index) for f in fields(value)})
    if isinstance(value, tuple):
        return tuple(_row(v, index) for v in value)
    return value[index] if value.shape[0] == 1 or value.strides[0] == 0 else value[index].copy()


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Additive decomposition of the optimized objective."""

    nominal_cost: float
    variance_cost: float
    penalty: float
    regularization: float
    total: float

    @classmethod
    def assemble(cls, nominal_cost, variance_cost, penalty, regularization) -> "ObjectiveBreakdown":
        return cls(
            nominal_cost=float(nominal_cost),
            variance_cost=float(variance_cost),
            penalty=float(penalty),
            regularization=float(regularization),
            total=float(nominal_cost) + float(variance_cost) + float(penalty) + float(regularization),
        )


@dataclass(frozen=True)
class Prediction:
    """Everything the objective needs that depends only on the nominal
    controls (not on the feedback gains): the rollout, its linearization,
    the filter, nominal cost and nominal constraint values.

    Without measurements (``open_loop`` mode) the filter only predicts:
    ``filter_covs`` holds ``lyapunov(A, G G', P_hat_0)``, and the other two
    filter fields are None.

    Constraint values are stored for stages 0..N, stage N at u = 0, every
    row of the constraint set in row order; a row whose weight at a stage
    is zero does not apply there.
    """

    traj: NominalTrajectory
    nominal_cost: Array
    h: Array  # (.., N+1, n_h) constraint values
    lin: StageLinearization | None = None
    filter_gains: Array | None = None  # (.., N, n_x, n_y)
    filter_covs: Array | None = None  # (.., N+1, n_x, n_x), the filter's covariances P_hat
    filter_updates: Array | None = None  # (.., N, n_x, n_x), its update covariances Khat S Khat' of stages 1..N

    take = _row


@dataclass(frozen=True)
class Evaluation:
    """The forward record of one evaluated batch of policies: everything the
    reverse sweep (:meth:`ObjectiveEvaluator.gradient`) reads, from the one
    forward pass that scored the batch.

    Every array carries the combined batch shape of the prediction and the
    gains in front; what the rows share (one gain set for every row) is a
    broadcast view.
    """

    prediction: Prediction
    feedback: Array  # (.., N-1, n_u, n_x), the gains K_1..K_{N-1}
    spread: Array | None  # (.., N+1, n_x, n_x) covariances of xhat - x_nom; None without a filter
    beta: Array  # (.., N+1, n_h) direction variances plus eps_sigma^2, in the rows of prediction.h
    cdf: Array  # (.., N+1, n_h) cdf(h / sqrt(beta)), the penalty's slope in h over its weight
    parts: tuple  # (nominal_cost, variance_cost, penalty, regularization)

    take = _row


class ObjectiveEvaluator:
    """Evaluates the expected objective of estimate-feedback policies.

    Composes: nominal rollout -> trajectory linearization -> Kalman
    recursion -> estimate spread -> joint stage covariances -> exact
    expectations.  The filter is the Kalman filter of the same
    linearization, so the estimation error is uncorrelated with the
    estimate's spread Q (:func:`~dualmpc.uncertainty.estimate_spread`) and
    the joint covariance of (x - x_nom, u - u_nom) at stage k is
    [[Q + P_hat, Q K'], [K Q, K Q K']], all in n_x.  The terminal cost and
    constraints are stage N of the same tables, with K_N = 0.

    ``mode`` (one of :data:`MODES`) names the policies scored.
    ``output_feedback`` runs the whole pipeline.  ``open_loop`` measures
    nothing: the filter only predicts, P_{k+1} = sym(A P A' + G G') (the
    forward kernel :func:`~dualmpc.uncertainty.lyapunov`), the estimate
    stays at the nominal state (Q = 0, so nonzero feedback moves no
    control), and the joint covariance is [[P_hat, 0], [0, 0]].
    ``nominal`` (the nominal-controller objective) has zero joint
    covariances and feedback regularization, so constraints keep only the
    minimum smoothing eps_sigma.

    All methods broadcast over leading batch dimensions of the nominal
    controls and/or feedback gains; a batch of gain perturbations can share
    a single prediction because the linearization, the filter gains and the
    nominal values do not depend on the feedback.
    """

    def __init__(
        self,
        problem: ControlProblem,
        x0: Array,
        P_hat_0: Array,
        eps_sigma: float = 1e-3,
        eps_K: float = 1e-4,
        mode: str = "output_feedback",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 < eps_sigma < np.inf:
            raise ValueError("eps_sigma must be positive and finite")
        if not 0.0 <= eps_K < np.inf:
            raise ValueError("eps_K must be nonnegative and finite")
        self.problem = problem
        self.x0 = np.asarray(x0, dtype=float)
        self.P_hat_0 = symmetrize(np.asarray(P_hat_0, dtype=float))
        self.eps_sigma = eps_sigma
        self.eps_K = eps_K if mode != "nominal" else 0.0
        self.mode = mode
        # The constraint rows' gradients over z = (x, u) at stages 0..N: the
        # constant matrix, with zero u columns at stage N, where u = 0 is fixed.
        self._grads = np.repeat(problem.constraints.matrix[None], problem.model.horizon + 1, axis=0)
        self._grads[-1, :, problem.model.n_x:] = 0.0

    def prediction(self, u_nom: Array) -> Prediction:
        problem = self.problem
        model = problem.model
        N = model.horizon
        stages = np.shape(u_nom)[-2]
        if stages != N:
            raise ModelError(f"control sequence has {stages} stages, but the model horizon is {N}")
        traj = nominal_rollout(model, self.x0, u_nom)
        xs, us = _stage_points(traj.states, traj.controls)
        # Terminal stage first, then 0..N-1, one add at a time: this order
        # fixes the sum's rounding, which the capped closed-loop solves amplify.
        stage_costs = problem.cost.value(slice(None), xs, us)
        nominal_cost = stage_costs[..., N]
        for k in range(N):
            nominal_cost = nominal_cost + stage_costs[..., k]
        h = problem.constraints.values(xs, us)
        if self.mode == "nominal":
            return Prediction(traj=traj, nominal_cost=nominal_cost, h=h)
        lin = linearize_trajectory(model, traj)
        if self.mode == "open_loop":
            return Prediction(traj, nominal_cost, h, lin, filter_covs=lyapunov(lin.A, lin.G @ lin.G.mT, self.P_hat_0))
        return Prediction(traj, nominal_cost, h, lin, *kalman_recursion(lin, self.P_hat_0, factors=True))

    def evaluate(self, pred: Prediction, feedback: Array) -> Evaluation:
        """The forward record of (prediction, feedback-gain batch), over the
        combined batch shape: the estimate's spread at stages 0..N, the
        direction variances plus eps_sigma^2 and the four objective parts.
        The joint (state, control) covariances are not kept: the sweep
        reads them through the spread and the gains."""
        cost = self.problem.cost
        feedback = np.asarray(feedback, dtype=float)
        batch = np.broadcast_shapes(np.shape(pred.nominal_cost), feedback.shape[:-3])
        spread, n_x = None, self.problem.model.n_x
        if pred.lin is None:
            joint = np.broadcast_to(np.zeros(cost.hessians.shape), batch + cost.hessians.shape)
        else:
            joint = np.zeros(batch + cost.hessians.shape)
            joint[..., :n_x, :n_x] = pred.filter_covs
        if self.mode == "output_feedback":
            K = stage_gains(feedback)
            spread = estimate_spread(pred.lin, K[..., :-1, :, :], pred.filter_updates)
            KQ = K @ spread
            joint[..., :n_x, :n_x] += spread
            joint[..., n_x:, :n_x] = KQ
            joint[..., :n_x, n_x:] = KQ.mT
            joint[..., n_x:, n_x:] = KQ @ K.mT
        variance = 0.5 * _trace_sum(cost.hessians, joint)
        beta = smoothed_variance(constraint_direction_variance(self._grads, joint[..., None, :, :]), self.eps_sigma)
        hinge, cdf = _hinge(pred.h, np.sqrt(beta))
        penalty = np.sum(self.problem.constraints.weights * hinge, axis=(-2, -1))
        reg = feedback_regularization(feedback, self.eps_K)
        parts = tuple(np.broadcast_arrays(pred.nominal_cost, variance, penalty, reg))
        return Evaluation(prediction=pred, feedback=np.broadcast_to(feedback, batch + feedback.shape[-3:]),
                          spread=spread, beta=beta, cdf=cdf, parts=parts)

    def parts_from_prediction(self, pred: Prediction, feedback: Array):
        """The objective parts (nominal_cost, variance_cost, penalty,
        regularization) of :meth:`evaluate`, over the combined batch shape."""
        return self.evaluate(pred, feedback).parts

    def gradient(self, record: Evaluation) -> tuple[Array, Array]:
        """Derivatives (dJ/du_nom, dJ/dK) of the total objective at one
        unbatched forward record, by one reverse sweep that reads the record
        and runs no part of the forward pipeline again.  Exact; it calls no
        special function.  dJ/dK is zero without uncertainty.

        Backwards through:
          1. the stage 0..N assembly.  With s_ki = sqrt(beta_ki) the
             standard deviation of row i, dJ/dh_ki = w_ki cdf(h_ki / s_ki)
             with the cdf read from the record,
             and the objective reads the joint covariance through
             M_k = H_k / 2 + sum_i c_ki g_ki g_ki' with the constant row
             gradients g_ki and c_ki = w_ki pdf(h_ki / s_ki) / (2 s_ki);
             the nominal cost adds H_k z_k + its linear term;
          2. the joint covariance [I; K_k] Q_k [I; K_k]' + [[P_hat_k, 0],
             [0, 0]] and the spread recursion
             (:func:`~dualmpc.uncertainty.spread_adjoint`): one backward
             Lyapunov recursion Lambda_k = [I; K_k]' M_k [I; K_k]
             + F_k' Lambda_{k+1} F_k with F_k = A_k + B_k K_k, which gives
             dJ/dK (plus the direct 2 (M_k [I; K_k] Q_k) on the u rows and
             the regularizer's 2 eps_K K) and the derivatives with respect
             to A and B;
          3. the Kalman recursion
             (:func:`~dualmpc.uncertainty.kalman_adjoint`), driven by the
             covariances: the update covariance U_k = Khat S Khat' gets
             Lambda_k and the filter covariance P_hat_k the x block of
             M_k; one backward Lyapunov recursion through
             Phi_k = (I - Khat C) A, which forms no inverse;
          4. the linearization: the derivatives with respect to A, B, G at
             (x_k, u_k) and C, D at x_{k+1} contract with the second
             derivatives of the model, by the model's Jacobian pullbacks
             (``f_jac_pullback``, ``g_jac_pullback``);
          5. the rollout: lambda_N = dJ/dx_N,
             lambda_k = dJ/dx_k + A_k' lambda_{k+1} and
             dJ/du_k = (direct) + B_k' lambda_{k+1}.

        Without uncertainty only steps 1 and 5 run, with A_k, B_k from one
        ``f_jac`` call along the trajectory.  Without measurements step 2
        does not run (the spread is zero) and step 3 passes the x block of
        M_k back through the prediction alone, the reverse kernel
        :func:`~dualmpc.uncertainty.lyapunov_adjoint` through A_k, which
        does not read C and D.

        Raises:
            LinearizationError: in ``nominal`` mode, ``f_jac`` is non-finite
                along the trajectory.
        """
        model, cost, weights = self.problem.model, self.problem.cost, self.problem.constraints.weights
        N, n_x = model.horizon, model.n_x
        pred, feedback = record.prediction, record.feedback
        xs, us = pred.traj.states, pred.traj.controls
        z = np.concatenate(_stage_points(xs, us), axis=-1)
        z_bar = (
            np.einsum("kab,kb->ka", cost.hessians, z)
            + cost.gradients
            + np.einsum("ki,kia->ka", weights * record.cdf, self._grads)
        )
        if pred.lin is None:
            A, B, _ = model.f_jac(xs[:N], us, np.zeros(model.n_w))
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                raise LinearizationError("linearization produced non-finite entries")
            K_grad = np.zeros(feedback.shape)
        else:
            lin, K_grad = pred.lin, 2.0 * self.eps_K * feedback
            A, B = lin.A, lin.B
            std = np.sqrt(record.beta)
            c = weights * np.exp(-0.5 * (pred.h / std) ** 2) / (2.0 * _SQRT_2PI * std)
            M = 0.5 * cost.hessians + np.einsum("ki,kia,kib->kab", c, self._grads, self._grads)
            if self.mode == "output_feedback":
                K = stage_gains(feedback)
                T = np.concatenate([np.broadcast_to(np.eye(n_x), (N + 1, n_x, n_x)), K], axis=-2)  # [I; K]
                MT, spread = M @ T, record.spread
                K_bar, A_bar, B_bar, lam = spread_adjoint(lin, K[:N], spread, T.mT @ MT,
                                                          2.0 * (MT @ spread)[:N, n_x:])
                K_grad = K_grad + K_bar
                A_kal, G_bar, C_bar, D_bar = kalman_adjoint(lin, pred.filter_gains, pred.filter_covs,
                                                            M[1:, :n_x, :n_x], lam)
                A_bar = A_bar + A_kal
            else:  # no spread: the prediction alone carries M's x block back
                lam = lyapunov_adjoint(A, M[1:, :n_x, :n_x])
                A_bar, B_bar, G_bar = 2.0 * lam @ A @ pred.filter_covs[:N], np.zeros(B.shape), 2.0 * lam @ lin.G
            z_bar[:N] += model.f_jac_pullback(xs[:N], us, A_bar, B_bar, G_bar)
            if self.mode == "output_feedback":
                z_bar[1:, :n_x] += model.g_jac_pullback(xs[1:], C_bar, D_bar)
        lam = z_bar[N, :n_x]
        u_bar = np.empty(us.shape)
        for k in range(N - 1, -1, -1):
            u_bar[k] = z_bar[k, n_x:] + lam @ B[k]
            lam = z_bar[k, :n_x] + lam @ A[k]
        return u_bar, K_grad

    def totals(self, u_nom: Array, feedback: Array) -> tuple[Array, Evaluation]:
        """Total objective for batched (u_nom, feedback), and the forward
        record of the batch: a row of it is everything the reverse sweep
        (:meth:`gradient`) and a feedback-gain sweep at the same controls
        read, so neither runs the forward pipeline again."""
        record = self.evaluate(self.prediction(u_nom), feedback)
        parts = record.parts
        return parts[0] + parts[1] + parts[2] + parts[3], record


def total_objective(
    problem: ControlProblem,
    x0: Array,
    P_hat_0: Array,
    policy: Policy,
    eps_sigma: float = 1e-3,
    eps_K: float = 1e-4,
    include_uncertainty: bool = True,
) -> ObjectiveBreakdown:
    """One-call scalar evaluation; see :class:`ObjectiveEvaluator`."""
    mode = "output_feedback" if include_uncertainty else "nominal"
    ev = ObjectiveEvaluator(problem, x0, P_hat_0, eps_sigma=eps_sigma, eps_K=eps_K, mode=mode)
    return ObjectiveBreakdown.assemble(*ev.evaluate(ev.prediction(policy.u_nom), policy.feedback).parts)
