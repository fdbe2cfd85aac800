"""EKF behavior: hand oracles, the two-function reference filter, and
equality with the prediction-side recursion."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    kalman_recursion,
    linearize_trajectory,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
)
from dualmpc.estimation import BeliefState, EstimationError, ekf_step
from dualmpc.uncertainty import LinearizationError, RolloutError, SingularInnovationError

from conftest import random_spd, standard_unicycle_params
from oracles import ekf_predict, ekf_update


def _linear_model(A, B, G, C, D, horizon=1):
    prob = make_linear_problem(
        A, B, G, C, D,
        Q=np.eye(np.shape(A)[0]), R=np.eye(np.shape(B)[1]),
        Q_terminal=np.eye(np.shape(A)[0]), horizon=horizon,
    )
    return prob.model


def test_predict_no_noise_keeps_zero_covariance():
    model = _linear_model(A=[[0.5, 0.1], [0.0, 0.9]], B=[[1.0], [0.2]],
                          G=np.zeros((2, 1)), C=np.eye(2), D=np.eye(2))
    belief = BeliefState(mean=[1.0, -2.0], cov=np.zeros((2, 2)))
    # a certain belief gets zero gain, so the measurement moves nothing
    out = ekf_step(model, belief, u=[0.3], y=[5.0, 5.0])
    assert_allclose(out.cov, 0.0, atol=0)
    expected = np.array([[0.5, 0.1], [0.0, 0.9]]) @ belief.mean + np.array([1.0, 0.2]) * 0.3
    assert_allclose(out.mean, expected, rtol=1e-14)


def test_predict_identity_dynamics_adds_unit_covariance():
    # C = 0: the measurement carries no information, so the step is a pure predict
    model = _linear_model(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2),
                          C=np.zeros((1, 2)), D=np.eye(1))
    P = random_spd(np.random.default_rng(0), 2)
    out = ekf_step(model, BeliefState(mean=[0.0, 0.0], cov=P), u=[0.0], y=[1.0])
    assert_allclose(out.cov, P + np.eye(2), rtol=1e-14)
    assert_allclose(out.mean, 0.0, atol=0)


def test_predict_rejects_divergence():
    model = _linear_model(A=[[1e200, 0.0], [0.0, 1e200]], B=np.zeros((2, 1)),
                          G=np.eye(2), C=np.eye(2), D=np.eye(2))
    belief = BeliefState(mean=[1e200, 0.0], cov=np.eye(2))
    with np.errstate(over="ignore"), pytest.raises(RolloutError, match="diverged"):
        ekf_step(model, belief, u=[0.0], y=[0.0, 0.0])


def test_update_zero_innovation_keeps_mean_and_shrinks_covariance():
    model = _linear_model(A=np.eye(2), B=np.zeros((2, 1)), G=np.zeros((2, 1)),
                          C=[[1.0, 0.5]], D=[[0.4]])
    P = random_spd(np.random.default_rng(1), 2)
    belief = BeliefState(mean=[0.7, -0.3], cov=P)
    y = model.g(belief.mean, np.zeros(1))
    out = ekf_step(model, belief, u=[0.0], y=y)
    assert_allclose(out.mean, belief.mean, rtol=1e-12)
    assert np.linalg.eigvalsh(P - out.cov).min() >= -1e-10


def test_update_perfect_full_measurement_collapses_belief():
    model = _linear_model(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2),
                          C=np.eye(2), D=np.zeros((2, 2)))
    belief = BeliefState(mean=[0.0, 0.0], cov=0.5 * np.eye(2))
    y = np.array([1.0, -2.0])
    out = ekf_step(model, belief, u=[0.0], y=y)
    assert_allclose(out.mean, y, atol=1e-9)
    assert_allclose(out.cov, 0.0, atol=1e-9)


def test_update_scalar_gain_is_two_thirds():
    # P=1, A=G=1: predicted variance 2; C=D=1: innovation variance 3, gain
    # 2/3, posterior 2/3
    model = _linear_model(A=[[1.0]], B=[[0.0]], G=[[1.0]], C=[[1.0]], D=[[1.0]])
    belief = BeliefState(mean=[0.0], cov=[[1.0]])
    out = ekf_step(model, belief, u=[0.0], y=[3.0])
    assert out.mean[0] == pytest.approx(2.0, rel=1e-12)
    assert out.cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_update_with_no_uncertainty_anywhere_is_a_no_op():
    model = _linear_model(A=np.eye(1), B=[[1.0]], G=[[0.0]], C=[[1.0]], D=[[0.0]])
    belief = BeliefState(mean=[0.5], cov=[[0.0]])
    out = ekf_step(model, belief, u=[0.0], y=[0.5])
    assert_allclose(out.mean, belief.mean, atol=1e-12)
    assert_allclose(out.cov, 0.0, atol=1e-12)


def _random_linear_model(rng):
    n_x, n_u, n_w, n_y = 3, 2, 2, 2
    return _linear_model(
        A=rng.normal(0, 0.6, size=(n_x, n_x)), B=rng.normal(size=(n_x, n_u)),
        G=rng.normal(0, 0.3, size=(n_x, n_w)), C=rng.normal(size=(n_y, n_x)),
        D=0.2 * np.eye(n_y) + rng.normal(0, 0.05, size=(n_y, n_y)),
    )


@pytest.mark.parametrize("case", ["linear", "unicycle"])
def test_ekf_step_matches_two_function_reference(case):
    # Predict at (x_hat, u, 0), then update at (x-, 0): the reference EKF
    # written out by hand, against the pipeline's one-stage filter.
    rng = np.random.default_rng(11)
    for _ in range(20):
        if case == "linear":
            model = _random_linear_model(rng)
            mean = rng.normal(size=model.n_x)
            u = rng.normal(size=model.n_u)
        else:
            model = make_unicycle_problem(standard_unicycle_params()).model
            mean = rng.uniform([-2.0, -1.0, -np.pi], [2.0, 1.0, np.pi])
            u = rng.uniform(-1, 1, size=model.n_u)
        belief = BeliefState(mean=mean, cov=random_spd(rng, model.n_x, scale=0.1))
        x_true = mean + 0.1 * rng.normal(size=model.n_x)
        y = model.g(model.f(x_true, u, rng.normal(size=model.n_w)), rng.normal(size=model.n_v))
        out = ekf_step(model, belief, u, y)
        ref = ekf_update(model, ekf_predict(model, belief, u), y)
        assert_allclose(out.mean, ref.mean, rtol=0, atol=1e-12)
        assert_allclose(out.cov, ref.cov, rtol=0, atol=1e-12)


def _bad_g_jac(model):
    def g_jac(x):
        C, D = model.g_jac(x)
        return np.full(C.shape, np.nan), D

    return replace(model, g_jac=g_jac)


@pytest.mark.parametrize(
    "fault, error",
    [
        ("jacobian", LinearizationError),
        ("innovation", SingularInnovationError),
        ("measurement", EstimationError),
    ],
)
def test_ekf_step_faults_raise_named_errors(fault, error):
    model = _linear_model(A=1e100 * np.eye(2), B=np.zeros((2, 1)), G=np.eye(2),
                          C=np.eye(2), D=np.eye(2))
    belief = BeliefState(mean=[0.0, 0.0], cov=np.eye(2))
    y = [0.0, 0.0]
    if fault == "jacobian":
        model = _bad_g_jac(model)
    elif fault == "innovation":
        belief = BeliefState(mean=[0.0, 0.0], cov=1e200 * np.eye(2))  # A P A' overflows
    else:
        y = [np.inf, 0.0]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
        ekf_step(model, belief, u=[0.0], y=y)


@pytest.mark.parametrize("case", ["linear", "unicycle"])
def test_interleaved_filter_matches_prediction_recursion(case):
    # Feed the filter noise-free measurements so its linearization points
    # stay on the nominal trajectory; the covariances must then reproduce
    # the planning-side Kalman recursion stage by stage.
    rng = np.random.default_rng(7)
    if case == "linear":
        A = rng.normal(0, 0.5, size=(2, 2))
        prob = make_linear_problem(
            A, rng.normal(size=(2, 1)), 0.3 * np.eye(2), np.array([[1.0, 0.2]]),
            [[0.5]], np.eye(2), np.eye(1), np.eye(2), horizon=6,
        )
        x0 = np.array([1.0, -0.5])
        u_nom = rng.normal(0, 0.4, size=(6, 1))
    else:
        prob = make_unicycle_problem(standard_unicycle_params(horizon=6))
        x0 = np.array([1.0, 0.5, 2.0])
        u_nom = rng.uniform(-1, 1, size=(6, 2))
    model = prob.model
    P0 = random_spd(rng, model.n_x, scale=0.05)

    traj = nominal_rollout(model, x0, u_nom)
    lin = linearize_trajectory(model, traj)
    _, covs = kalman_recursion(lin, P0)

    belief = BeliefState(mean=x0, cov=P0)
    for k in range(model.horizon):
        y = model.g(traj.states[k + 1], np.zeros(model.n_v))
        belief = ekf_step(model, belief, u_nom[k], y)
        assert_allclose(belief.mean, traj.states[k + 1], atol=1e-10)
        assert_allclose(belief.cov, covs[k + 1], atol=1e-12)


def test_unicycle_predict_step_matches_planned_linearization():
    # One step with a noisy measurement applies the plan's first filter gain
    # to the innovation at the planned x_1 and lands on its covariance.
    prob = make_unicycle_problem(standard_unicycle_params(horizon=3))
    model = prob.model
    rng = np.random.default_rng(2)
    x0 = np.array([0.4, -0.2, 1.0])
    u = np.array([0.8, -0.5])
    P = random_spd(rng, 3, scale=0.1)

    traj = nominal_rollout(model, x0, u[None].repeat(3, axis=0))
    gains, covs = kalman_recursion(linearize_trajectory(model, traj), P)
    y = model.g(traj.states[1], rng.normal(size=model.n_v))
    out = ekf_step(model, BeliefState(mean=x0, cov=P), u, y)
    innovation = y - model.g(traj.states[1], np.zeros(model.n_v))
    assert_allclose(out.mean, traj.states[1] + gains[0] @ innovation, atol=1e-14)
    assert_allclose(out.cov, covs[1], atol=1e-14)


def test_belief_state_validation():
    with pytest.raises(EstimationError, match="non-finite"):
        BeliefState(mean=[np.nan], cov=[[1.0]])
    with pytest.raises(EstimationError, match="shape"):
        BeliefState(mean=[0.0, 0.0], cov=np.eye(3))
    with pytest.raises(EstimationError, match="eigenvalue"):
        BeliefState(mean=[0.0, 0.0], cov=[[1.0, 0.0], [0.0, -1.0]])
    # slight asymmetry is repaired, not rejected
    b = BeliefState(mean=[0.0, 0.0], cov=[[1.0, 1e-14], [0.0, 1.0]])
    assert_allclose(b.cov, b.cov.T, atol=0)
