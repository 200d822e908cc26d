"""Sequential lock-step orchestration of the full distributed algorithm.

The agents' state is one cut table per side and the (m,) vector of
restrictions ``eps_i`` (see :mod:`drcopt.agents`).  Each outer
iteration: flood + consensus-solve the lower subproblem, run the lower
oracles, flood + consensus-solve the upper subproblem with right-hand
sides ``-eps_i``, run the upper oracles, then one distributed stopping
round.  The bounds and gaps add the objective values each solve reports
at its minimizer.  Flooding is not simulated, but its T*(m-1) slots
advance the slot pointer, so on a time-varying graph each stopping
round's tests follow the phases of the slots where it runs.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import agents
from .agents import AgentState
from .bounds import method1_accuracy, method2_accuracy
from .consensus import consensus_solve
from .graph import GraphSchedule
from .llp import solve_llp  # noqa: F401  (unused here; perfbench/spans.py wraps drcopt.sim.solve_llp)
from .problem import NumericalFailure, ProblemInstance, Vector, require_integer
from .solver import CutTable, SolveStatus
from .termination import run_stopping_round


class ConfigError(Exception):
    """Bad configuration: invalid input, or an eps0 so large that an upper subproblem is infeasible."""


@dataclass(frozen=True)
class RunParams:
    eps0: float = 0.01
    r: float = 2.0
    eps_f: float = 0.01
    method: str = "I"
    max_iter: int = 500

    def __post_init__(self):
        if self.method not in ("I", "II"):
            raise ValueError("method must be 'I' or 'II'")
        # Negated comparisons so that NaN is rejected too.
        if not 0.0 < self.eps0 < math.inf:
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if not 1.0 < self.r < math.inf:
            raise ValueError(f"r must exceed 1 and be finite, got {self.r}")
        if not 0.0 < self.eps_f < math.inf:
            raise ValueError(f"eps_f must be positive and finite, got {self.eps_f}")
        require_integer(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    lower: float
    upper: float  # +inf unless every agent's upper oracle found the upper point feasible
    g_max_lower: tuple[float, ...]  # per agent, at the lower consensus point
    g_max_upper: tuple[float, ...]  # per agent, at the upper consensus point
    epsilons: tuple[float, ...]
    gaps: tuple[float, ...]
    slots_consumed: int


@dataclass(frozen=True)
class RunResult:
    records: list[IterationRecord]
    terminated: bool
    x_opt: list[Vector] | None  # m references to one read-only copy of the exit point
    method: str
    accuracy_bound: float
    final_states: list[AgentState] = field(repr=False)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def final_lower(self) -> float:
        return self.records[-1].lower

    @property
    def final_upper(self) -> float:
        return self.records[-1].upper


def _check_solver_status(report, phase: str):
    if report.status is SolveStatus.INFEASIBLE:
        # Lower cuts have rhs 0, so the lower subproblem relaxes the robust
        # problem; only the upper cuts' rhs -eps_i depends on eps0.
        if phase == "lower":
            raise ConfigError("lower subproblem infeasible: the robust problem has no feasible point")
        raise ConfigError("upper subproblem infeasible; choose a smaller eps0")
    if report.status is not SolveStatus.OPTIMAL:
        raise NumericalFailure(f"{phase} subproblem solve hit the iteration limit")


def _bounds_and_gaps(at_lower: np.ndarray, at_upper: np.ndarray, feasible: np.ndarray):
    """(lower, upper, per-agent gaps) from the (m,) f_i at the lower and upper consensus points.

    ``feasible[i]`` is whether agent i + 1's upper oracle found the upper
    point feasible.  lower and upper add the f_i in agent order, a left
    fold from 0.0; upper is +inf unless every agent found the upper point
    feasible.  The gap e_i = |f_i(upper) - f_i(lower)| is +inf for an
    agent that did not.
    """
    lower = functools.reduce(operator.add, at_lower.tolist(), 0.0)
    upper = functools.reduce(operator.add, at_upper.tolist(), 0.0) if feasible.all() else math.inf
    return lower, upper, np.where(feasible, abs(at_upper - at_lower), math.inf)


def run(instance: ProblemInstance, schedule: GraphSchedule, params: RunParams = RunParams()) -> RunResult:
    """Run the algorithm until the stopping round fires or max_iter is reached.

    A budget-exhausted run is returned with ``terminated=False`` rather
    than raised; an infeasible subproblem raises :class:`ConfigError`,
    and a solve limit or a failed invariant raises :class:`NumericalFailure`.
    """
    if schedule.m != instance.m:
        raise ValueError("schedule and instance disagree on the agent count")
    lower_cuts = upper_cuts = CutTable.empty(instance.constraint_table)
    epsilon = np.full(instance.m, params.eps0)
    bound = (
        method1_accuracy(instance.m, params.eps_f)
        if params.method == "I"
        else method2_accuracy(schedule, params.eps_f)
    )
    records: list[IterationRecord] = []
    slot = 0
    prev_lower = -math.inf
    # Each side's solve starts from that side's previous report (see
    # drcopt.consensus.consensus_solve); every agent holds it, so consensus holds.
    lower_report = upper_report = None

    for k in range(1, params.max_iter + 1):
        slots_at_start = slot

        lower_report, used = consensus_solve(instance, lower_cuts, schedule, lower_report)
        slot += used
        _check_solver_status(lower_report, "lower")
        lower_x = lower_report.minimizer
        _, g_max_lower, lower_cuts = agents.dlbd_oracle(lower_cuts, instance, lower_x)

        upper_report, used = consensus_solve(instance, upper_cuts, schedule, upper_report, -epsilon[upper_cuts.agent])
        slot += used
        _check_solver_status(upper_report, "upper")
        upper_x = upper_report.minimizer
        violated, g_max_upper, upper_cuts, epsilon = agents.dubd_oracle(upper_cuts, epsilon, instance, upper_x, params.r)
        feasible = ~violated

        lower, upper, gaps = _bounds_and_gaps(lower_report.objectives, upper_report.objectives, feasible)
        if lower < prev_lower - 1e-9:
            raise NumericalFailure("lower bound decreased across iterations")
        if math.isfinite(upper) and upper < lower - 1e-9:
            raise NumericalFailure("upper bound fell below lower bound")
        prev_lower = lower

        stop, used, _ = run_stopping_round(gaps, schedule, params.method, params.eps_f, slot)
        slot += used

        records.append(
            IterationRecord(
                k=k,
                lower=lower,
                upper=upper,
                g_max_lower=tuple(g_max_lower.tolist()),
                g_max_upper=tuple(g_max_upper.tolist()),
                epsilons=tuple(epsilon.tolist()),
                gaps=tuple(gaps.tolist()),
                slots_consumed=slot - slots_at_start,
            )
        )

        if stop:
            # Every upper verdict feasible means g_max <= 0 at upper_x for every agent.
            if not feasible.all():
                raise NumericalFailure("stopping round fired with an infinite upper bound")
            break

    x_opt = upper_x.copy()
    x_opt.flags.writeable = False
    return RunResult(
        records=records,
        terminated=stop,
        x_opt=[x_opt] * instance.m if stop else None,
        method=params.method,
        accuracy_bound=bound,
        final_states=agents.final_states(lower_cuts, upper_cuts, epsilon, instance.constraint_table),
    )
