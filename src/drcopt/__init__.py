"""Deterministic simulator and solver for distributed robust convex optimization.

Agents cooperatively minimize a sum of convex objectives under per-agent
semi-infinite constraints by exchanging scenario cuts over a time-varying
directed network, with finite-time distributed termination detection.
"""

from .agents import AgentState, dlbd_oracle, dubd_oracle
from .bounds import method1_accuracy, method2_accuracy
from .graph import GraphSchedule, complete, customized, directed_cycle
from .llp import solve_llp
from .problem import (
    NumericalFailure,
    ProblemInstance,
    case_study_instance,
    example1_constraint,
)
from .sim import RunParams, RunResult, run
from .solver import FiniteSubproblem, SolveReport, solve

__all__ = [
    "AgentState",
    "FiniteSubproblem",
    "GraphSchedule",
    "NumericalFailure",
    "ProblemInstance",
    "RunParams",
    "RunResult",
    "SolveReport",
    "case_study_instance",
    "complete",
    "customized",
    "directed_cycle",
    "dlbd_oracle",
    "dubd_oracle",
    "example1_constraint",
    "method1_accuracy",
    "method2_accuracy",
    "run",
    "solve",
    "solve_llp",
]

__version__ = "0.1.0"
