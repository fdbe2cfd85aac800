"""Nonholonomic unicycle example: drive left, cheap sensing near the r_x-axis.

State is (r_x, r_y, theta), control is (speed v, turn rate omega).  The full
state is measured, but the measurement noise grows roughly linearly with the
distance to the r_x-axis, so information gathering (moving towards the axis)
competes with the direct objective of decreasing r_x.  The stage cost is
r_x + control_weight*||u||^2 at every stage 0..N (at stage N, where u = 0,
it is the terminal cost r_x), the position must keep r_x >= 0 from stage 1
on, and the controls live in a symmetric box.  Both are affine rows of one
constraint set, [-r_x, u - u_max, -u - u_max] over (x, u), softened with a
linear violation weight: the weight table drops the r_x row at stage 0 (its
state is given) and the box rows at the terminal stage N (it has no
control).  The box is additionally enforced exactly on the nominal controls.

The dynamics are one classical RK4 step per stage (``substeps`` substeps,
controls and noise held), integrated in cascade form over the whole
horizon: the heading does not depend on the position, so the headings of
every substep of every stage come first and the positions follow.  The
model's ``rollout`` is that integrator over N stages with zero noise, and
``f`` is its one-stage case.  The results are the bits of the generic RK4
step taken stage after stage, which the tests keep as the reference
(``tests/oracles.py``).  ``f_jac`` gives the exact derivatives of that step
in closed form, read off the same heading table; they match the oracle's
tangent chain to rounding, not bit for bit.  The Jacobian pullbacks (the
Jacobians' own derivatives, contracted) are closed-form too.
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
        if not 0.0 < self.dt < np.inf or self.horizon < 1:
            raise ModelError("unicycle needs a finite dt > 0 and horizon >= 1")
        if self.substeps < 1:
            raise ModelError(f"rk4 substeps must be at least 1, got {self.substeps}")
        if not 0.0 < self.smoothing_eps < np.inf:
            raise ModelError("smoothing_eps must be positive and finite")
        if not np.all((self.u_max > 0.0) & np.isfinite(self.u_max)):
            raise ModelError("u_max must be positive and finite")


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

    # In cascade form: the heading rate omega + (L_w w)_3 does not depend on
    # the state, and the position rates v cos(theta) + (L_w w)_1 and
    # v sin(theta) + (L_w w)_2 read only the heading.  So the headings of all
    # RK4 stage points of the whole horizon come first, from one strictly
    # sequential sum, and the positions follow from one sin, one cos and one
    # sum.  Every IEEE operation is the one the generic RK4 step (the tests'
    # oracle), called stage after stage, performs on the same numbers, in the
    # same order, so f and the rollout give its bits.
    S = params.substeps
    h = params.dt / S

    def headings(x0, u, w_shaped):
        """The headings (.., N, substeps, 3) of the stage points of every
        substep of the N stages of u (.., N, 2): its start theta_s,
        theta_s + (h/2) r (stages 2 and 3) and theta_s + h r (stage 4), with
        the stage's heading rate r; and the table (.., N * substeps + 1, 3)
        whose cumulative sum over the substeps is the trajectory: x0 in row
        0, the heading increments in column 2."""
        rate = u[..., 1] + w_shaped[..., None, 2]
        N = rate.shape[-1]
        steps = np.empty(np.broadcast_shapes(x0.shape[:-1], rate.shape[:-1]) + (N * S + 1, 3))
        steps[..., 0, :] = x0
        steps[..., 1:, 2] = np.repeat((h / 6.0) * (((rate + 2.0 * rate) + 2.0 * rate) + rate), S, axis=-1)
        theta = np.add.accumulate(steps[..., :-1, 2], axis=-1).reshape(steps.shape[:-2] + (N, S))
        rate = rate[..., None]
        return np.stack([theta, theta + 0.5 * h * rate, theta + h * rate], axis=-1), steps

    def integrate(x0, u, w_shaped):
        """The states (.., N+1, 3) at the stage boundaries from x0 under the
        controls u (.., N, 2), with the shaped noise w_shaped (.., 3) held
        over the whole horizon."""
        x0, u = np.asarray(x0, dtype=float), np.asarray(u, dtype=float)
        if not (np.isfinite(x0).all() and np.isfinite(u).all()):
            raise ModelError("unicycle step: non-finite state or control input")
        heading, steps = headings(x0, u, w_shaped)
        k = u[..., None, None, :1] * np.stack([np.cos(heading), np.sin(heading)], axis=-1)
        k = k + w_shaped[..., None, None, None, :2]  # position rates at the stage points 1, 2 (= 3) and 4
        increments = (h / 6.0) * (((k[..., 0, :] + 2.0 * k[..., 1, :]) + 2.0 * k[..., 1, :]) + k[..., 2, :])
        steps[..., 1:, :2] = increments.reshape(steps.shape[:-2] + (u.shape[-2] * S, 2))
        return np.add.accumulate(steps, axis=-2)[..., ::S, :]

    # The shaped noise that f(., ., 0) holds: w @ L_w.T at w = 0, zero signs
    # included.
    zero_noise = np.zeros(3) @ L_w.T

    def f(x, u, w):
        return integrate(x, np.asarray(u, dtype=float)[..., None, :], w @ L_w.T)[..., -1, :]

    def rollout(x0, u):
        return integrate(x0, u, zero_noise)

    # The Jacobians of the RK4 step in closed form.  Within a substep the
    # heading rate r = omega + (L_w w)_3 is constant and the position rates
    # read only the heading, so over the stage points theta_{s,c} =
    # theta + (s + c) h r, c in {0, 1/2, 1}, with the RK4 weights
    # (h/6) (1, 4, 1), the step is theta + S h r for the heading and
    # p + S h (L_w w)_{1,2} + sum weight v (cos, sin)(theta_{s,c}) for the
    # position.  Its sums run over the stage points in one fixed order
    # (np.add.accumulate), so every row of a batch gets its one-point bits.
    weight = (h / 6.0) * np.array([1.0, 4.0, 1.0])
    lever = h * (np.arange(S)[:, None] + np.array([0.0, 0.5, 1.0]))  # (s + c) h
    # d x+ / d (L_w w)_{1,2} = S h I, times the first two rows of L_w.
    G_position = (S * h) * L_w * np.array([[1.0], [1.0], [0.0]])

    def trig_sums(x, u, powers):
        """The sums over the stage points of one step at zero noise of
        weight ((s + c) h)^p (cos, sin)(theta_{s,c}), p = 0..powers-1, in
        the order cos, sin, then the next power; the point axis is summed
        in one fixed order."""
        heading = headings(x, u[..., None, :], zero_noise)[0][..., 0, :, :]
        trig = [weight * np.stack([np.cos(heading), np.sin(heading)], axis=-3)]
        for _ in range(1, powers):
            trig.append(lever * trig[-1])
        trig = np.concatenate(trig, axis=-3)
        return np.moveaxis(np.add.accumulate(trig.reshape(trig.shape[:-2] + (3 * S,)), axis=-1)[..., -1], -1, 0)

    def f_jac(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        # d p+ / d v = sum weight (cos, sin), and d p+ / d r = v sum weight (s + c) h (-sin, cos)
        cos, sin, cos_r, sin_r = trig_sums(x, u, 2)
        v = u[..., 0]
        A = np.broadcast_to(np.eye(3), cos.shape + (3, 3)).copy()
        A[..., 0, 2] = -v * sin  # d p+ / d theta = v sum weight (-sin, cos)
        A[..., 1, 2] = v * cos
        B = np.zeros(cos.shape + (3, 2))
        B[..., 0, 0] = cos
        B[..., 1, 0] = sin
        B[..., 0, 1] = -v * sin_r
        B[..., 1, 1] = v * cos_r
        B[..., 2, 1] = S * h
        # d x+ / d (L_w w)_3 = d x+ / d omega
        return A, B, G_position + B[..., :, 1, None] * L_w[2]

    def f_jac_pullback(x, u, A_bar, B_bar, G_bar):
        # The Jacobians read the state only through theta and the sums:
        # <A_bar, A> + <B_bar, B> + <G_bar, G> = a_c cos + a_s sin
        # + b_c cos_1 + b_s sin_1 + const, where the omega column of B also
        # enters G through L_w[2].  A sum's theta derivative turns cos into
        # -sin and sin into cos; its omega derivative does the same one
        # power of (s + c) h up.
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        cos, sin, cos_1, sin_1, cos_2, sin_2 = trig_sums(x, u, 3)
        v = u[..., 0]
        b = B_bar[..., 1] + np.add.accumulate(G_bar * L_w[2], axis=-1)[..., -1]
        a_c, a_s = v * A_bar[..., 1, 2] + B_bar[..., 0, 0], B_bar[..., 1, 0] - v * A_bar[..., 0, 2]
        b_c, b_s = v * b[..., 1], -v * b[..., 0]
        out = np.zeros(cos.shape + (5,))
        out[..., 2] = (a_s * cos - a_c * sin) + (b_s * cos_1 - b_c * sin_1)
        out[..., 3] = (A_bar[..., 1, 2] * cos - A_bar[..., 0, 2] * sin) + (b[..., 1] * cos_1 - b[..., 0] * sin_1)
        out[..., 4] = (a_s * cos_1 - a_c * sin_1) + (b_s * cos_2 - b_c * sin_2)
        return out

    def g(x, v):
        x = np.asarray(x, dtype=float)
        return x + sigma_y(x, eps)[..., None] * (v @ L_v.T)

    # At v = 0, C = I and D = sigma_y(r_y) L_v.
    def g_jac(x):
        D = sigma_y(x, eps)[..., None, None] * L_v
        return np.broadcast_to(np.eye(3), D.shape), D

    def g_jac_pullback(x, C_bar, D_bar):
        D_bar = np.asarray(D_bar, dtype=float)
        weight_D = np.add.accumulate((D_bar * L_v).reshape(D_bar.shape[:-2] + (-1,)), axis=-1)[..., -1]
        return sigma_y_grad(x, eps) * weight_D[..., None]

    model = SystemModel(
        n_x=3, n_u=2, n_w=3, n_v=3, horizon=N,
        f=f, g=g, f_jac=f_jac, g_jac=g_jac,
        state_names=("r_x", "r_y", "theta"), rollout=rollout,
        f_jac_pullback=f_jac_pullback, g_jac_pullback=g_jac_pullback,
    )

    # Stage cost r_x + control_weight * ||u||^2 over z = (x, u) at every
    # stage 0..N; at stage N (u = 0) it is the terminal cost r_x.
    cost = QuadraticCost(
        hessians=np.broadcast_to(np.diag([0.0, 0.0, 0.0, 2.0, 2.0]) * params.control_weight, (N + 1, 5, 5)),
        gradients=np.broadcast_to(np.eye(5)[0], (N + 1, 5)),
        constants=np.zeros(N + 1),
    )

    # Penalized rows [-r_x, u - u_max, -u - u_max] over z = (x, u).
    matrix = np.zeros((5, 5))
    matrix[0, 0] = -1.0
    matrix[1, 3] = matrix[2, 4] = 1.0
    matrix[3, 3] = matrix[4, 4] = -1.0
    offset = np.concatenate([[0.0], -u_max, -u_max])

    # Stage 0's state is given, so its r_x row does not apply; stage N has
    # no control, so only its r_x row does.
    weights = np.full((N + 1, 5), params.violation_weight)
    weights[0, 0] = 0.0
    weights[N, 1:] = 0.0
    constraints = ConstraintSet(matrix=matrix, offset=offset, weights=weights, u_lower=-u_max, u_upper=u_max)
    return ControlProblem(model=model, cost=cost, constraints=constraints)
