"""Receding-horizon stepping: warm-start shifting and mode-level invariants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dualmpc import Policy, SolveOptions, make_unicycle_problem
from dualmpc.controllers import RecedingHorizonController, shift_warm_start
from dualmpc.estimation import BeliefState

from conftest import standard_unicycle_params


def test_shift_drops_first_control_and_duplicates_last():
    pol = Policy(
        u_nom=np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]),
        feedback=np.arange(12, dtype=float).reshape(2, 2, 3),
    )
    shifted = shift_warm_start(pol)
    assert_allclose(shifted.u_nom, [[2.0, 20.0], [3.0, 30.0], [3.0, 30.0]], atol=0)
    assert_allclose(shifted.feedback[0], pol.feedback[1], atol=0)
    assert_allclose(shifted.feedback[1], pol.feedback[1], atol=0)


def test_shift_twice_fills_with_the_tail():
    pol = Policy(u_nom=np.array([[1.0], [2.0], [3.0]]), feedback=np.zeros((2, 1, 1)))
    twice = shift_warm_start(shift_warm_start(pol))
    assert_allclose(twice.u_nom, [[3.0], [3.0], [3.0]], atol=0)


def test_shift_single_stage_policy_repeats_it():
    pol = Policy(u_nom=np.array([[0.7, -0.1]]), feedback=np.zeros((0, 2, 3)))
    shifted = shift_warm_start(pol)
    assert_allclose(shifted.u_nom, pol.u_nom, atol=0)
    assert shifted.feedback.shape == (0, 2, 3)


def test_step_applies_first_control_within_bounds():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5, u_max=1.5))
    ctrl = RecedingHorizonController(prob, SolveOptions(mode="open_loop"))
    belief = BeliefState(mean=[1.0, 0.5, np.pi], cov=1e-4 * np.eye(3))
    u, diag = ctrl.step(belief)
    assert u.shape == (2,)
    assert np.all(np.abs(u) <= 1.5)
    assert diag.converged and not diag.warm_started
    assert ctrl.last_result is not None
    # second step warm-starts from the shifted previous solution
    _, diag2 = ctrl.step(belief)
    assert diag2.warm_started


def test_far_from_constraints_the_controller_reverses_at_full_speed():
    # Deterministic instance facing +x with the wall far away: the cost on
    # r_x makes full-speed reverse optimal.  The penalized box keeps the
    # speed a few smoothing widths inside the hard bound.  The near-flat
    # heading directions make this instance very ill-conditioned, so the
    # solver may stop on a failed line search at machine-precision optimum
    # instead of formally reaching the gradient tolerance.
    params = standard_unicycle_params(horizon=5, process_std=0.0, measurement_std=0.0)
    prob = make_unicycle_problem(params)
    ctrl = RecedingHorizonController(prob, SolveOptions(mode="output_feedback"))
    u, diag = ctrl.step(BeliefState(mean=[5.0, 0.0, 0.0], cov=np.zeros((3, 3))))
    assert diag.status in ("converged", "line_search_failure")
    assert -2.0 <= u[0] <= -1.98


def test_zero_uncertainty_modes_agree_on_applied_control():
    # All covariance terms vanish, so the three modes minimize the same
    # function; the iteration cap keeps the very ill-conditioned tail of
    # this instance from burning time it cannot convert into progress.
    params = standard_unicycle_params(horizon=5, process_std=0.0, measurement_std=0.0)
    prob = make_unicycle_problem(params)
    belief = BeliefState(mean=[1.0, 0.8, 2.5], cov=np.zeros((3, 3)))
    controls = {}
    for mode in ("nominal", "open_loop", "output_feedback"):
        ctrl = RecedingHorizonController(prob, SolveOptions(mode=mode, max_iterations=120))
        controls[mode], _ = ctrl.step(belief)
    assert_allclose(controls["nominal"], controls["open_loop"], atol=1e-5)
    assert_allclose(controls["nominal"], controls["output_feedback"], atol=1e-5)


def test_fresh_controllers_are_deterministic():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=5))
    belief = BeliefState(mean=[0.8, 0.9, 3.0], cov=1e-4 * np.eye(3))
    opts = SolveOptions(mode="output_feedback", max_iterations=40)
    u1, _ = RecedingHorizonController(prob, opts).step(belief)
    u2, _ = RecedingHorizonController(prob, opts).step(belief)
    assert np.array_equal(u1, u2)


def test_reset_clears_warm_start():
    prob = make_unicycle_problem(standard_unicycle_params(horizon=4))
    ctrl = RecedingHorizonController(prob, SolveOptions(mode="nominal"))
    belief = BeliefState(mean=[1.0, 0.0, 0.0], cov=1e-4 * np.eye(3))
    ctrl.step(belief)
    ctrl.reset()
    assert ctrl.last_result is None
    _, diag = ctrl.step(belief)
    assert not diag.warm_started
