"""Output-feedback stochastic MPC with a preserved dual control effect.

Optimizes over estimate-feedback policies u_k = u_nom_k + K_k(xhat_k -
x_nom_k): the predicted closed-loop covariance couples the measurement
model to the planned trajectory, so the optimizer can actively trade
probing (moving where measurements are informative) against the direct
control objective.  Includes nominal and open-loop stochastic baselines
and a closed-loop Monte-Carlo simulator.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .controllers import RecedingHorizonController, StepDiagnostics, shift_warm_start
from .estimation import BeliefState, EstimationError, ekf_predict, ekf_update
from .model import (
    ConstraintSet,
    ControlProblem,
    ModelError,
    QuadraticCost,
    SystemModel,
    fd_jacobian,
    make_linear_problem,
    psd_sqrt,
    rk4_step,
    rk4_step_with_jacobian,
)
from .objective import (
    ObjectiveBreakdown,
    ObjectiveEvaluator,
    constraint_direction_variance,
    expected_quadratic,
    expected_relu,
    feedback_regularization,
    floored_variance,
    penalty_total,
    total_objective,
)
from .ocp_solver import MODES, SolveOptions, SolveResult, solve
from .simulator import (
    ClosedLoopRecord,
    MetricsSummary,
    SimConfig,
    noise_stream,
    run_batch,
    simulate_run,
    summarize_records,
)
from .uncertainty import (
    AugmentedCovariance,
    NominalTrajectory,
    Policy,
    StageLinearization,
    joint_covariance,
    kalman_recursion,
    linearize_trajectory,
    luenberger_covariance,
    nominal_rollout,
    propagate_covariance,
)
from .unicycle import UnicycleParams, make_unicycle_problem, sigma_y

__all__ = [
    "AugmentedCovariance",
    "BeliefState",
    "ClosedLoopRecord",
    "ConfigError",
    "ConstraintSet",
    "ControlProblem",
    "EstimationError",
    "ExperimentConfig",
    "MODES",
    "MetricsSummary",
    "ModelError",
    "NominalTrajectory",
    "ObjectiveBreakdown",
    "ObjectiveEvaluator",
    "Policy",
    "QuadraticCost",
    "RecedingHorizonController",
    "SimConfig",
    "SolveOptions",
    "SolveResult",
    "StageLinearization",
    "StepDiagnostics",
    "SystemModel",
    "UnicycleParams",
    "constraint_direction_variance",
    "ekf_predict",
    "ekf_update",
    "expected_quadratic",
    "expected_relu",
    "fd_jacobian",
    "feedback_regularization",
    "floored_variance",
    "joint_covariance",
    "kalman_recursion",
    "linearize_trajectory",
    "load_config",
    "luenberger_covariance",
    "make_linear_problem",
    "make_unicycle_problem",
    "noise_stream",
    "nominal_rollout",
    "penalty_total",
    "propagate_covariance",
    "psd_sqrt",
    "rk4_step",
    "rk4_step_with_jacobian",
    "run_batch",
    "shift_warm_start",
    "sigma_y",
    "simulate_run",
    "solve",
    "summarize_records",
    "total_objective",
]

__version__ = "0.1.0"
