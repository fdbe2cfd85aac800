"""Receding-horizon controllers over the three solve modes.

Each step assembles the finite-horizon problem at the current belief,
solves it, applies the first nominal control and keeps the solution for
warm starting the next step (shifted by one stage).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import BeliefState
from .model import ControlProblem
from .ocp_solver import SolveOptions, SolveResult, solve
from .uncertainty import Policy


def shift_warm_start(policy: Policy) -> Policy:
    """Shift a solved policy one stage forward for the next solve.

    The first control drops out (it was applied), the last control and the
    last gain are duplicated to fill the new tail.  The gain acting at the
    new first stage is implicitly zero, as always: the stored gains start
    at stage 1 where an estimate deviation can first exist.
    """
    u = np.asarray(policy.u_nom, dtype=float)
    fb = np.asarray(policy.feedback, dtype=float)
    u_shifted = np.concatenate([u[1:], u[-1:]], axis=0)
    fb_shifted = np.concatenate([fb[1:], fb[-1:]], axis=0) if fb.shape[0] else fb
    return Policy(u_nom=u_shifted, feedback=fb_shifted)


@dataclass(frozen=True)
class StepDiagnostics:
    """Solve outcome of one receding-horizon step."""

    status: str
    iterations: int
    objective_total: float
    stationarity: float
    warm_started: bool

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class RecedingHorizonController:
    """Stateful wrapper: solve at each belief, apply the first control.

    A non-converged solve is not fatal — the best iterate found is applied
    and the step's diagnostics flag it.
    """

    def __init__(self, problem: ControlProblem, options: SolveOptions | None = None):
        self.problem = problem
        self.options = options or SolveOptions()
        self.last_result: SolveResult | None = None

    @property
    def mode(self) -> str:
        return self.options.mode

    def reset(self) -> None:
        """Drop warm-start state."""
        self.last_result = None

    def step(self, belief: BeliefState) -> tuple[np.ndarray, StepDiagnostics]:
        warm = None
        if self.last_result is not None:
            warm = shift_warm_start(self.last_result.policy)
        result = solve(self.problem, belief.mean, belief.cov, self.options, warm_start=warm)
        self.last_result = result
        return result.policy.u_nom[0].copy(), StepDiagnostics(
            status=result.status,
            iterations=result.iterations,
            objective_total=result.objective.total,
            stationarity=result.stationarity,
            warm_started=warm is not None,
        )
