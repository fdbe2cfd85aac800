"""Exact expectations of quadratic costs and linear violation penalties.

Under the Gaussian approximation the stage cost expectation is the nominal
cost plus a covariance trace term, and the expectation of a hinge penalty
max(0, h) of a Gaussian h ~ N(mu, sigma^2) has the closed form
sigma*pdf(mu/sigma) + mu*cdf(mu/sigma).  This module evaluates both, plus
the per-constraint direction variances and the feedback regularizer, and
composes them along a predicted trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, ndtr

from .model import Array, ControlProblem
from .uncertainty import (
    NominalTrajectory,
    Policy,
    StageLinearization,
    kalman_recursion,
    linearize_trajectory,
    nominal_rollout,
    propagate_covariance,
)

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_TAIL_Z = 8.0


def _relu_tail(z: Array) -> Array:
    """pdf(z) + z*cdf(z) for z <= -8, in a cancellation-free form.

    Writing cdf(z) = 0.5*erfcx(-z/sqrt(2))*exp(-z^2/2) pulls the common
    exponential out of the difference, so the subtraction happens between
    O(1) quantities and the result keeps full relative accuracy deep in
    the tail (direct evaluation loses all digits there).
    """
    return np.exp(-0.5 * z * z) * (1.0 / _SQRT_2PI + 0.5 * z * erfcx(-z / np.sqrt(2.0)))


def expected_relu(mu, sigma):
    """E[max(0, X)] for X ~ N(mu, sigma^2), elementwise.

    sigma = 0 returns max(0, mu) exactly.  Monotone in both arguments,
    always >= max(0, mu), smooth for sigma > 0.

    Raises:
        ValueError: on negative sigma.
    """
    mu_a = np.asarray(mu, dtype=float)
    sigma_a = np.asarray(sigma, dtype=float)
    if np.any(sigma_a < 0.0):
        raise ValueError("expected_relu: sigma must be nonnegative")
    scalar = mu_a.ndim == 0 and sigma_a.ndim == 0
    mu_b, sigma_b = np.broadcast_arrays(mu_a, sigma_a)
    mu_f = np.ravel(mu_b)
    sigma_f = np.ravel(sigma_b)
    out = np.empty(mu_f.shape)

    zero = sigma_f == 0.0
    out[zero] = np.maximum(mu_f[zero], 0.0)

    live = ~zero
    m = mu_f[live]
    s = sigma_f[live]
    z = m / s
    val = np.empty_like(z)
    mid = np.abs(z) <= _TAIL_Z
    val[mid] = s[mid] * np.exp(-0.5 * z[mid] ** 2) / _SQRT_2PI + m[mid] * ndtr(z[mid])
    lo = z < -_TAIL_Z
    val[lo] = s[lo] * _relu_tail(z[lo])
    hi = z > _TAIL_Z
    # E max(0, X) = E X + E max(0, -X): reduce to the far-left tail.
    val[hi] = m[hi] + s[hi] * _relu_tail(-z[hi])
    out[live] = val
    out = out.reshape(mu_b.shape)
    return float(out[()]) if scalar else out


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


def constraint_direction_variance(grad: Array, cov: Array) -> Array:
    """Variance of a linearized constraint: grad' cov grad (batched)."""
    return np.einsum("...i,...ij,...j->...", grad, cov, grad)


def floored_variance(direction_variances: Array, eps_sigma: float) -> Array:
    """Optimal constraint-variance slacks: max(clip(variance, 0), eps_sigma^2).

    The slacks are eliminated analytically: the expected hinge penalty is
    strictly increasing in the standard deviation, so at the optimum each
    slack sits at the (nonnegative) direction variance or at the smoothing
    floor.
    """
    H = np.clip(np.asarray(direction_variances, dtype=float), 0.0, None)
    return np.maximum(H, eps_sigma**2)


def penalty_total(h_nom: Array, beta: Array, weights: Array, eps_sigma: float):
    """Sum of weighted expected hinge penalties over the trailing axis.

    ``beta`` is floored by :func:`floored_variance` before taking the square
    root, so every constraint sees at least the minimum smoothing variance.
    """
    return np.sum(weights * expected_relu(h_nom, np.sqrt(floored_variance(beta, eps_sigma))), axis=-1)


def feedback_regularization(feedback: Array, eps_K: float):
    """eps_K times the squared Frobenius norm of all feedback gains."""
    feedback = np.asarray(feedback, dtype=float)
    if feedback.size == 0:
        return np.zeros(feedback.shape[:-3])
    return eps_K * np.sum(feedback**2, axis=(-3, -2, -1))


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

    def as_dict(self) -> dict:
        return {
            "nominal_cost": self.nominal_cost,
            "variance_cost": self.variance_cost,
            "penalty": self.penalty,
            "regularization": self.regularization,
            "total": self.total,
        }


@dataclass(frozen=True)
class Prediction:
    """Everything the objective needs that depends only on the nominal
    controls (not on the feedback gains): the rollout, its linearization,
    the filter gains, nominal cost and nominal constraint values.

    Stage constraint values/gradients are stored padded to the maximum
    per-stage constraint count so the penalty evaluates in one vectorized
    pass; padded rows carry zero weight (see ObjectiveEvaluator).
    """

    traj: NominalTrajectory
    nominal_cost: Array
    h_stage: Array  # (.., N, H_max) padded stage constraint values
    h_stage_grads: Array  # (.., N, H_max, n_z)
    h_term: Array  # (.., n_h_N)
    h_term_grads: Array  # (.., n_h_N, n_x)
    lin: StageLinearization | None = None
    filter_gains: Array | None = None

    def take(self, index: int) -> "Prediction":
        """Select one element of the leading batch axis."""
        return Prediction(
            traj=NominalTrajectory(
                states=self.traj.states[index], controls=self.traj.controls[index]
            ),
            nominal_cost=self.nominal_cost[index],
            h_stage=self.h_stage[index],
            h_stage_grads=self.h_stage_grads[index],
            h_term=self.h_term[index],
            h_term_grads=self.h_term_grads[index],
            lin=None if self.lin is None else StageLinearization(
                A=self.lin.A[index], B=self.lin.B[index], G=self.lin.G[index],
                C=self.lin.C[index], D=self.lin.D[index],
            ),
            filter_gains=None if self.filter_gains is None else self.filter_gains[index],
        )


class ObjectiveEvaluator:
    """Evaluates the expected objective of estimate-feedback policies.

    Composes: nominal rollout -> trajectory linearization -> Kalman
    recursion -> augmented covariance propagation -> joint stage
    covariances -> exact expectations.  With ``include_uncertainty=False``
    all covariance terms are dropped but constraints keep the minimum
    smoothing eps_sigma, which is the nominal-controller objective.

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
        include_uncertainty: bool = True,
    ):
        if eps_sigma <= 0.0:
            raise ValueError("eps_sigma must be positive")
        if eps_K < 0.0:
            raise ValueError("eps_K must be nonnegative")
        self.problem = problem
        self.x0 = np.asarray(x0, dtype=float)
        self.P_hat_0 = 0.5 * (np.asarray(P_hat_0, dtype=float) + np.asarray(P_hat_0, dtype=float).T)
        self.eps_sigma = eps_sigma
        self.eps_K = eps_K
        self.include_uncertainty = include_uncertainty
        # Per-stage constraint counts are ragged; pad to the widest stage
        # with zero-weight rows so the penalty evaluates in one pass.
        cs = problem.constraints
        N = problem.model.horizon
        self._h_max = max(cs.stage_counts, default=0)
        self._stage_weight_pad = np.zeros((N, self._h_max))
        for k, count in enumerate(cs.stage_counts):
            self._stage_weight_pad[k, :count] = cs.stage_weights[k]

    def prediction(self, u_nom: Array) -> Prediction:
        problem = self.problem
        model = problem.model
        cs = problem.constraints
        traj = nominal_rollout(model, self.x0, u_nom)
        N = traj.horizon
        xs = traj.states
        us = traj.controls
        batch = xs.shape[:-2]
        n_z = model.n_x + model.n_u
        nominal_cost = problem.cost.terminal_value(xs[..., N, :])
        # padded rows keep a harmless negative value; their weight is zero
        h_stage = np.full(batch + (N, self._h_max), -1.0)
        h_grads = np.zeros(batch + (N, self._h_max, n_z))
        for k in range(N):
            nominal_cost = nominal_cost + problem.cost.stage_value(k, xs[..., k, :], us[..., k, :])
            count = cs.stage_counts[k]
            if count:
                h_stage[..., k, :count] = cs.stage_values(k, xs[..., k, :], us[..., k, :])
                h_grads[..., k, :count, :] = cs.stage_gradients(k, xs[..., k, :], us[..., k, :])
        h_term = cs.terminal_values(xs[..., N, :])
        h_term_grads = cs.terminal_gradients(xs[..., N, :])
        if not self.include_uncertainty:
            return Prediction(
                traj=traj, nominal_cost=nominal_cost,
                h_stage=h_stage, h_stage_grads=h_grads,
                h_term=h_term, h_term_grads=h_term_grads,
            )
        lin = linearize_trajectory(model, traj)
        filter_gains, _ = kalman_recursion(lin, self.P_hat_0)
        return Prediction(
            traj=traj, nominal_cost=nominal_cost,
            h_stage=h_stage, h_stage_grads=h_grads,
            h_term=h_term, h_term_grads=h_term_grads,
            lin=lin, filter_gains=filter_gains,
        )

    def _stage_joint_covariances(self, pred: Prediction, feedback: Array):
        """Joint (state, control) covariances for stages 0..N-1 plus the
        terminal state covariance, vectorized over stages and batch."""
        n_x = self.problem.model.n_x
        N = pred.traj.horizon
        policy = Policy(u_nom=pred.traj.controls, feedback=feedback)
        K_all = policy.stage_gains()
        aug = propagate_covariance(pred.lin, policy, pred.filter_gains, self.P_hat_0)
        sig = aug.sigma[..., :N, :, :]
        batch = np.broadcast_shapes(sig.shape[:-3], K_all.shape[:-3])
        n_u = K_all.shape[-2]
        T = np.zeros(batch + (N, n_x + n_u, 2 * n_x))
        T[..., :, :n_x, :n_x] = np.eye(n_x)
        T[..., :, n_x:, :n_x] = K_all
        T[..., :, n_x:, n_x:] = K_all
        joint = T @ sig @ np.swapaxes(T, -1, -2)
        return joint, aug.P[..., N, :, :]

    def parts_from_prediction(self, pred: Prediction, feedback: Array):
        """Objective components for (prediction, feedback-gain batch).

        Returns:
            (nominal_cost, variance_cost, penalty, regularization), each
            broadcast over the combined batch shape.
        """
        return self._parts_and_beta(pred, feedback)[0]

    def _parts_and_beta(self, pred: Prediction, feedback: Array):
        """:meth:`parts_from_prediction` plus the floored direction variances
        (stage rows padded to the widest stage, then the terminal rows)."""
        problem = self.problem
        cost = problem.cost
        N = pred.traj.horizon
        eps2 = self.eps_sigma**2
        w_term = problem.constraints.terminal_weights
        n_term = pred.h_term.shape[-1]
        beta_term = np.full(n_term, eps2)

        if not self.include_uncertainty:
            penalty = np.sum(
                self._stage_weight_pad * expected_relu(pred.h_stage, self.eps_sigma),
                axis=(-2, -1),
            )
            if n_term:
                penalty = penalty + penalty_total(pred.h_term, beta_term, w_term, self.eps_sigma)
            zeros = np.zeros(np.shape(pred.nominal_cost))
            parts = pred.nominal_cost, zeros, np.broadcast_to(penalty, np.shape(pred.nominal_cost)), zeros
            return parts, np.full((N, self._h_max), eps2), beta_term

        feedback = np.asarray(feedback, dtype=float)
        joint, P_N = self._stage_joint_covariances(pred, feedback)
        variance = 0.5 * np.einsum("kij,...kji->...", cost.stage_hessians, joint)
        variance = variance + 0.5 * np.einsum("ij,...ji->...", cost.terminal_hessian, P_N)
        H_dir = np.einsum("...khi,...kij,...khj->...kh", pred.h_stage_grads, joint, pred.h_stage_grads)
        beta = floored_variance(H_dir, self.eps_sigma)
        penalty = np.sum(
            self._stage_weight_pad * expected_relu(pred.h_stage, np.sqrt(beta)), axis=(-2, -1)
        )
        if n_term:
            H_term = constraint_direction_variance(pred.h_term_grads, P_N[..., None, :, :])
            beta_term = floored_variance(H_term, self.eps_sigma)
            penalty = penalty + penalty_total(pred.h_term, beta_term, w_term, self.eps_sigma)
        reg = feedback_regularization(feedback, self.eps_K)
        nominal = pred.nominal_cost
        shape = np.broadcast_shapes(
            np.shape(nominal), np.shape(variance), np.shape(penalty), np.shape(reg)
        )
        parts = (
            np.broadcast_to(nominal, shape),
            np.broadcast_to(variance, shape),
            np.broadcast_to(penalty, shape),
            np.broadcast_to(reg, shape),
        )
        return parts, beta, beta_term

    def totals(self, u_nom: Array, feedback: Array) -> tuple[Array, Prediction]:
        """Total objective for batched (u_nom, feedback), and the prediction
        at u_nom, so callers can reuse it for feedback-gain sweeps at the
        same controls."""
        pred = self.prediction(u_nom)
        parts = self.parts_from_prediction(pred, feedback)
        return parts[0] + parts[1] + parts[2] + parts[3], pred

    def breakdown(self, policy: Policy) -> ObjectiveBreakdown:
        """Scalar objective decomposition for a single (unbatched) policy."""
        return self.breakdown_and_beta(policy)[0]

    def breakdown_and_beta(self, policy: Policy) -> tuple[ObjectiveBreakdown, list]:
        """:meth:`breakdown` and the floored direction variances (the
        eliminated slack values) of a single policy, from one prediction.

        The variances come as a list with one entry per stage 0..N-1 plus
        the terminal entry.
        """
        pred = self.prediction(policy.u_nom)
        parts, beta, beta_term = self._parts_and_beta(pred, policy.feedback)
        counts = self.problem.constraints.stage_counts
        return ObjectiveBreakdown.assemble(*parts), [beta[k, :c] for k, c in enumerate(counts)] + [beta_term]


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
    ev = ObjectiveEvaluator(
        problem, x0, P_hat_0, eps_sigma=eps_sigma, eps_K=eps_K, include_uncertainty=include_uncertainty
    )
    return ev.breakdown(policy)
