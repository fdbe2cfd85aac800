from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from dualmpc import ConstraintSet, UnicycleParams, make_linear_problem, make_unicycle_problem


def standard_unicycle_params(horizon=10, dt=0.3, process_std=0.02, measurement_std=0.01,
                             u_max=2.0, smoothing_eps=1e-2, **kwargs):
    """The unicycle instance used throughout the tests (mirrors the shipped
    example configuration)."""
    return UnicycleParams(
        dt=dt,
        horizon=horizon,
        process_noise_cov=process_std**2 * dt * np.eye(3),
        measurement_noise_cov=measurement_std**2 * np.eye(3),
        u_max=np.array([u_max, u_max]),
        smoothing_eps=smoothing_eps,
        **kwargs,
    )


def one_stage_terminal_problem(rho=50.0):
    """Scalar system, one stage, one terminal inequality x - 0.5 <= 0."""
    prob = make_linear_problem(
        A=[[0.9]], B=[[0.5]], G=[[0.2]], C=[[1.0]], D=[[0.25]],
        Q=[[1.0]], R=[[0.5]], Q_terminal=[[2.0]], horizon=1,
        u_lower=[-10.0], u_upper=[10.0],
    )
    cs = ConstraintSet(
        matrix=np.array([[1.0, 0.0]]),  # over (x, u)
        offset=np.array([-0.5]),
        weights=np.array([[0.0], [rho]]),  # terminal stage only
        u_lower=np.array([-10.0]), u_upper=np.array([10.0]),
    )
    return replace(prob, constraints=cs)


@pytest.fixture
def unicycle_problem():
    return make_unicycle_problem(standard_unicycle_params())


def random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + 0.1 * np.eye(n))


def same_bits(a, b):
    """Equal values and equal sign bits, so that -0.0 and 0.0 differ."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def record_fields(value):
    """Every array of a forward record (``ObjectiveEvaluator.evaluate``) or
    of any dataclass or tuple of arrays, nested ones included, in field
    order, for bitwise checks.  None fields are skipped."""
    if value is None:
        return []
    if is_dataclass(value):
        return [a for f in fields(value) for a in record_fields(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [a for v in value for a in record_fields(v)]
    return [value]
