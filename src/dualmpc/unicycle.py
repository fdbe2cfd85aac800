"""Nonholonomic unicycle example: drive left, cheap sensing near the r_x-axis.

State is (r_x, r_y, theta), control is (speed v, turn rate omega).  The full
state is measured, but the measurement noise grows roughly linearly with the
distance to the r_x-axis, so information gathering (moving towards the axis)
competes with the direct objective of decreasing r_x.  The stage cost is
r_x + control_weight*||u||^2, the position must keep r_x >= 0 from stage 1
on, and the controls live in a symmetric box.  Both the r_x constraint and
the control box are softened with a linear violation weight; the box is
additionally enforced exactly on the nominal controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Array,
    ConstraintSet,
    ControlProblem,
    ModelError,
    QuadraticCost,
    SystemModel,
    psd_sqrt,
    rk4_step,
    rk4_step_with_jacobian,
)


def sigma_y(x: Array, eps: float) -> Array:
    """Measurement-noise scale 1 + 10*(sqrt(r_y^2 + eps^2) - eps).

    Smooth in r_y, symmetric about the r_x-axis, equals 1 on the axis and
    grows like 1 + 10*|r_y| far from it.
    """
    r_y = np.asarray(x, dtype=float)[..., 1]
    return 1.0 + 10.0 * (np.sqrt(r_y**2 + eps**2) - eps)


def sigma_y_grad(x: Array, eps: float) -> Array:
    """Gradient of :func:`sigma_y` with respect to the state."""
    x = np.asarray(x, dtype=float)
    r_y = x[..., 1]
    grad = np.zeros(x.shape)
    grad[..., 1] = 10.0 * r_y / np.sqrt(r_y**2 + eps**2)
    return grad


@dataclass(frozen=True)
class UnicycleParams:
    """Parameters of the unicycle instance.

    Noise covariances, bounds and the smoothing constant are experiment
    configuration (they come from the config file); only the weights with
    agreed standard values have defaults.
    """

    dt: float
    horizon: int
    process_noise_cov: Array  # (3, 3), covariance of the held ODE noise
    measurement_noise_cov: Array  # (3, 3)
    u_max: Array  # (2,), symmetric box |u| <= u_max
    smoothing_eps: float
    substeps: int = 4
    control_weight: float = 1e-6
    violation_weight: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "process_noise_cov", np.asarray(self.process_noise_cov, dtype=float))
        object.__setattr__(self, "measurement_noise_cov", np.asarray(self.measurement_noise_cov, dtype=float))
        object.__setattr__(self, "u_max", np.asarray(self.u_max, dtype=float))
        if self.dt <= 0.0 or self.horizon < 1:
            raise ModelError("unicycle needs dt > 0 and horizon >= 1")
        if self.smoothing_eps <= 0.0:
            raise ModelError("smoothing_eps must be positive")
        if np.any(self.u_max <= 0.0):
            raise ModelError("u_max must be positive")


def make_unicycle_problem(params: UnicycleParams) -> ControlProblem:
    """Assemble the unicycle optimal-control problem.

    The returned model consumes standardized noises: the process noise is
    shaped by chol(process_noise_cov) inside the held-noise ODE, the
    measurement noise by sigma_y(x) * chol(measurement_noise_cov).
    """
    L_w = psd_sqrt(params.process_noise_cov)
    L_v = psd_sqrt(params.measurement_noise_cov)
    eps = params.smoothing_eps
    u_max = params.u_max
    N = params.horizon

    # ode takes the held noise already shaped, L_w w, so that an RK4 step
    # shapes it once rather than in each of its 4 * substeps ode calls;
    # ode_jac's noise block stays d xdot / dw = L_w for the standardized w.
    def ode(x, u, w_shaped):
        theta = x[..., 2]
        v = u[..., 0]
        v_cos = v * np.cos(theta)
        out = np.empty(v_cos.shape + (3,))
        out[..., 0] = v_cos
        out[..., 1] = v * np.sin(theta)
        out[..., 2] = u[..., 1]
        return out + w_shaped

    def ode_jac(x, u, w_shaped):
        theta = x[..., 2]
        v = u[..., 0]
        sin, cos = np.sin(theta), np.cos(theta)
        dx_dtheta = -v * sin
        A = np.zeros(dx_dtheta.shape + (3, 3))
        A[..., 0, 2] = dx_dtheta
        A[..., 1, 2] = v * cos
        B = np.zeros(dx_dtheta.shape + (3, 2))
        B[..., 0, 0] = cos
        B[..., 1, 0] = sin
        B[..., 2, 1] = 1.0
        # the noise block is constant; matmul broadcasting handles the batch
        return A, B, L_w

    def f(k, x, u, w):
        return rk4_step(ode, x, u, w @ L_w.T, params.dt, params.substeps)

    def f_jac(k, x, u, w):
        _, A, B, G = rk4_step_with_jacobian(ode, ode_jac, x, u, w @ L_w.T, params.dt, params.substeps)
        return A, B, G

    def g(k, x, v):
        x = np.asarray(x, dtype=float)
        return x + sigma_y(x, eps)[..., None] * (v @ L_v.T)

    eye = np.eye(3)

    def g_jac(k, x, v):
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        C = eye + (v @ L_v.T)[..., :, None] * sigma_y_grad(x, eps)[..., None, :]
        D = sigma_y(x, eps)[..., None, None] * L_v
        return C, D

    model = SystemModel(
        n_x=3, n_u=2, n_w=3, n_v=3, n_y=3, horizon=N,
        f=f, g=g, f_jac=f_jac, g_jac=g_jac,
        state_names=("r_x", "r_y", "theta"),
        control_names=("v", "omega"),
        stage_invariant=True,
    )

    # Stage cost r_x + control_weight * ||u||^2 over z = (x, u).
    H = np.zeros((5, 5))
    H[3, 3] = H[4, 4] = 2.0 * params.control_weight
    grad = np.zeros(5)
    grad[0] = 1.0
    cost = QuadraticCost(
        stage_hessians=np.repeat(H[None], N, axis=0),
        stage_gradients=np.repeat(grad[None], N, axis=0),
        stage_constants=np.zeros(N),
        terminal_hessian=np.zeros((3, 3)),
        terminal_gradient=np.array([1.0, 0.0, 0.0]),
    )

    # Penalized rows per stage: [-r_x] (stages >= 1 only), then the control
    # box split into u - u_max and -u - u_max.
    def stage_fn(k, x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        batch = np.broadcast_shapes(x.shape[:-1], u.shape[:-1])
        u_b = np.broadcast_to(u, batch + (2,))
        box = np.concatenate([u_b - u_max, -u_b - u_max], axis=-1)
        if k == 0:
            return box
        r_x = np.broadcast_to(x[..., :1], batch + (1,))
        return np.concatenate([-r_x, box], axis=-1)

    _box_jac = np.zeros((4, 5))
    _box_jac[0, 3] = _box_jac[1, 4] = 1.0
    _box_jac[2, 3] = _box_jac[3, 4] = -1.0
    _state_row = np.array([[-1.0, 0.0, 0.0, 0.0, 0.0]])
    _stage_jac_full = np.vstack([_state_row, _box_jac])

    def stage_jac(k, x, u):
        batch = np.broadcast_shapes(np.shape(x)[:-1], np.shape(u)[:-1])
        J = _box_jac if k == 0 else _stage_jac_full
        return np.broadcast_to(J, batch + J.shape)

    def terminal_fn(x):
        return -np.asarray(x, dtype=float)[..., :1]

    def terminal_jac(x):
        J = np.array([[-1.0, 0.0, 0.0]])
        return np.broadcast_to(J, np.shape(x)[:-1] + (1, 3))

    rho = params.violation_weight
    counts = tuple([4] + [5] * (N - 1))
    weights = tuple(np.full(c, rho) for c in counts)
    constraints = ConstraintSet(
        stage_fn=stage_fn,
        stage_jac=stage_jac,
        stage_counts=counts,
        stage_weights=weights,
        terminal_fn=terminal_fn,
        terminal_jac=terminal_jac,
        terminal_count=1,
        terminal_weights=np.full(1, rho),
        u_lower=-u_max,
        u_upper=u_max,
    )
    return ControlProblem(model=model, cost=cost, constraints=constraints)
