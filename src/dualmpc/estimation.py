"""Extended Kalman filter used by the closed-loop simulator.

Unlike the prediction-side Kalman recursion (which linearizes around the
planned nominal trajectory), the EKF linearizes at the current estimate:
predict at (x_hat, u, 0), update at (x_hat, 0).  On a linear model the two
recursions follow the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Array, SystemModel
from .uncertainty import chol_solve_spd, symmetrize


class EstimationError(RuntimeError):
    pass


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
