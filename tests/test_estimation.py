"""EKF behavior: hand oracles and equality with the prediction-side recursion."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import (
    Policy,
    kalman_recursion,
    linearize_trajectory,
    make_linear_problem,
    make_unicycle_problem,
    nominal_rollout,
)
from dualmpc.estimation import BeliefState, EstimationError, ekf_predict, ekf_update

from conftest import random_spd, standard_unicycle_params


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
    out = ekf_predict(model, belief, u=[0.3])
    assert_allclose(out.cov, 0.0, atol=0)
    expected = np.array([[0.5, 0.1], [0.0, 0.9]]) @ belief.mean + np.array([1.0, 0.2]) * 0.3
    assert_allclose(out.mean, expected, rtol=1e-14)


def test_predict_identity_dynamics_adds_unit_covariance():
    model = _linear_model(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2),
                          C=np.eye(2), D=np.eye(2))
    P = random_spd(np.random.default_rng(0), 2)
    out = ekf_predict(model, BeliefState(mean=[0.0, 0.0], cov=P), u=[0.0])
    assert_allclose(out.cov, P + np.eye(2), rtol=1e-14)


def test_predict_rejects_divergence():
    model = _linear_model(A=[[1e200, 0.0], [0.0, 1e200]], B=np.zeros((2, 1)),
                          G=np.eye(2), C=np.eye(2), D=np.eye(2))
    belief = BeliefState(mean=[1e200, 0.0], cov=np.eye(2))
    with np.errstate(over="ignore"), pytest.raises(EstimationError, match="diverged"):
        ekf_predict(model, belief, u=[0.0])


def test_update_zero_innovation_keeps_mean_and_shrinks_covariance():
    model = _linear_model(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2),
                          C=[[1.0, 0.5]], D=[[0.4]])
    P = random_spd(np.random.default_rng(1), 2)
    belief = BeliefState(mean=[0.7, -0.3], cov=P)
    y = model.g(belief.mean, np.zeros(1))
    out = ekf_update(model, belief, y)
    assert_allclose(out.mean, belief.mean, rtol=1e-12)
    assert np.linalg.eigvalsh(P - out.cov).min() >= -1e-10


def test_update_perfect_full_measurement_collapses_belief():
    model = _linear_model(A=np.eye(2), B=np.zeros((2, 1)), G=np.eye(2),
                          C=np.eye(2), D=np.zeros((2, 2)))
    belief = BeliefState(mean=[0.0, 0.0], cov=0.5 * np.eye(2))
    y = np.array([1.0, -2.0])
    out = ekf_update(model, belief, y)
    assert_allclose(out.mean, y, atol=1e-9)
    assert_allclose(out.cov, 0.0, atol=1e-9)


def test_update_scalar_gain_is_two_thirds():
    # P=2, C=1, D=1: innovation variance 3, gain 2/3, posterior 2/3
    model = _linear_model(A=[[1.0]], B=[[0.0]], G=[[1.0]], C=[[1.0]], D=[[1.0]])
    belief = BeliefState(mean=[0.0], cov=[[2.0]])
    out = ekf_update(model, belief, y=[3.0])
    assert out.mean[0] == pytest.approx(2.0, rel=1e-12)
    assert out.cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_update_with_no_uncertainty_anywhere_is_a_no_op():
    model = _linear_model(A=np.eye(1), B=[[1.0]], G=[[0.0]], C=[[1.0]], D=[[0.0]])
    belief = BeliefState(mean=[0.5], cov=[[0.0]])
    out = ekf_update(model, belief, y=[0.5])
    assert_allclose(out.mean, belief.mean, atol=1e-12)
    assert_allclose(out.cov, 0.0, atol=1e-12)


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
        belief = ekf_predict(model, belief, u_nom[k], stage=k)
        y = model.g(traj.states[k + 1], np.zeros(model.n_v))
        belief = ekf_update(model, belief, y, stage=k + 1)
        assert_allclose(belief.mean, traj.states[k + 1], atol=1e-10)
        assert_allclose(belief.cov, covs[k + 1], atol=1e-12)


def test_unicycle_predict_step_matches_planned_linearization():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=3))
    model = prob.model
    x0 = np.array([0.4, -0.2, 1.0])
    u = np.array([0.8, -0.5])
    P = random_spd(np.random.default_rng(2), 3, scale=0.1)

    traj = nominal_rollout(model, x0, u[None].repeat(3, axis=0))
    lin = linearize_trajectory(model, traj)
    out = ekf_predict(model, BeliefState(mean=x0, cov=P), u, stage=0)
    expected = lin.A[0] @ P @ lin.A[0].T + lin.G[0] @ lin.G[0].T
    assert_allclose(out.cov, expected, atol=1e-14)


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
