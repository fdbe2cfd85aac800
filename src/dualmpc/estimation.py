"""Extended Kalman filter used by the closed-loop simulator.

One filter step is the planner's prediction pipeline on a one-stage horizon
from the belief mean: the noise-free rollout to x- = f(x_hat, u, 0), its
linearization (A, G at (x_hat, u, 0), C, D at (x-, 0)) and one stage of the
Kalman recursion.  The closed loop therefore runs the filter the optimizer
predicts, linearized at the estimate instead of the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Array, SystemModel
from .uncertainty import NumericalError, kalman_recursion, linearize_trajectory, nominal_rollout, symmetrize


class EstimationError(NumericalError):
    """A non-finite or misshapen belief, or one whose covariance has a
    significantly negative eigenvalue."""


@dataclass(frozen=True)
class BeliefState:
    """Gaussian belief over the state: mean and covariance."""

    mean: Array
    cov: Array

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = symmetrize(np.asarray(self.cov, dtype=float))
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise EstimationError("belief contains non-finite entries")
        if cov.shape != (mean.shape[-1], mean.shape[-1]):
            raise EstimationError(
                f"covariance shape {cov.shape} does not match state dimension {mean.shape[-1]}"
            )
        if np.linalg.eigvalsh(cov).min(initial=0.0) < -1e-9:
            raise EstimationError("belief covariance has a significantly negative eigenvalue")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def ekf_step(model: SystemModel, belief: BeliefState, u: Array, y: Array) -> BeliefState:
    """Propagate the belief under the control u and condition it on the
    measurement y of the next state: mean x- + Khat (y - g(x-, 0)), with
    the gain Khat and covariance of one Kalman stage.

    Raises:
        RolloutError: x- is non-finite.
        LinearizationError: a Jacobian is non-finite.
        SingularInnovationError: the innovation covariance is non-finite or
            not positive definite even with maximal jitter.
        EstimationError: the updated mean or covariance is non-finite.
    """
    traj = nominal_rollout(model, belief.mean, np.asarray(u, dtype=float)[None])
    gains, covs = kalman_recursion(linearize_trajectory(model, traj), belief.cov)
    x_minus = traj.states[1]
    innovation = np.asarray(y, dtype=float) - model.g(x_minus, np.zeros(model.n_v))
    return BeliefState(mean=x_minus + gains[0] @ innovation, cov=covs[1])
