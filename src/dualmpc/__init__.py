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
from .estimation import BeliefState, EstimationError, ekf_step
from .model import (
    ConstraintSet,
    ControlProblem,
    ModelError,
    QuadraticCost,
    SystemModel,
    make_linear_problem,
    psd_sqrt,
)
from .objective import (
    ObjectiveBreakdown,
    ObjectiveEvaluator,
    constraint_direction_variance,
    expected_relu,
    feedback_regularization,
    smoothed_variance,
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
    NumericalError,
    Policy,
    StageLinearization,
    kalman_recursion,
    linearize_trajectory,
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
    "NumericalError",
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
    "ekf_step",
    "expected_relu",
    "feedback_regularization",
    "kalman_recursion",
    "linearize_trajectory",
    "load_config",
    "make_linear_problem",
    "make_unicycle_problem",
    "noise_stream",
    "nominal_rollout",
    "propagate_covariance",
    "psd_sqrt",
    "run_batch",
    "shift_warm_start",
    "sigma_y",
    "simulate_run",
    "smoothed_variance",
    "solve",
    "summarize_records",
    "total_objective",
]

__version__ = "0.1.0"
