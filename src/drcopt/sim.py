"""Sequential lock-step orchestration of the full distributed algorithm.

Each outer iteration: flood + consensus-solve the lower subproblem, run
the agents' lower oracles in one pass, flood + consensus-solve the upper
subproblem, run the upper oracles in one pass, then one distributed
stopping round.  Flooding delivers the union of the cuts by the
schedule's connectivity window, so it is not simulated, but its T*(m-1)
slots still advance the schedule's slot pointer: each stopping round is
simulated slot by slot from the slot where the flooding before it ended,
so time-varying graphs are genuinely exercised.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from . import agents
from .agents import AgentState
from .bounds import method1_accuracy, method2_accuracy
from .consensus import consensus_solve
from .graph import GraphSchedule
from .llp import Verdict, solve_llp
from .problem import NumericalFailure, ProblemInstance, Vector, require_integer
from .solver import FEASIBILITY_TOL, SolveStatus, family_terms
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
    x_opt: list[Vector] | None
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


def _bounds_and_gaps(terms, feasible: list[bool], lower_x: Vector, upper_x: Vector):
    """(lower, upper, per-agent gaps) from one call of ``terms`` at each consensus minimizer.

    ``terms`` is :func:`drcopt.solver.family_terms` of the agents'
    objectives.  ``lower_x`` and ``upper_x`` are the consensus points
    every agent's oracles checked, and ``feasible[i]`` is whether agent
    i + 1's upper oracle found ``upper_x`` feasible.  lower and upper add
    the f_i over the agents in order, a left fold from 0.0; upper is +inf
    unless every agent found ``upper_x`` feasible.  The gap
    e_i = |f_i(upper_x) - f_i(lower_x)| is +inf for an agent that did not.
    """
    at_lower = terms(lower_x)[0].tolist()
    at_upper = terms(upper_x)[0].tolist()
    lower = functools.reduce(operator.add, at_lower, 0.0)
    upper = functools.reduce(operator.add, at_upper, 0.0) if all(feasible) else math.inf
    gaps = [abs(u - lo) if ok else math.inf for lo, u, ok in zip(at_lower, at_upper, feasible)]
    return lower, upper, gaps


def run(instance: ProblemInstance, schedule: GraphSchedule, params: RunParams = RunParams()) -> RunResult:
    """Run the algorithm until the stopping round fires or max_iter is reached.

    A budget-exhausted run is returned with ``terminated=False`` rather
    than raised; an infeasible subproblem raises :class:`ConfigError`,
    and a solve limit or a failed invariant raises :class:`NumericalFailure`.
    """
    if schedule.m != instance.m:
        raise ValueError("schedule and instance disagree on the agent count")
    states = [AgentState(agent_id=i + 1, epsilon=params.eps0) for i in range(instance.m)]
    terms = family_terms(instance.objectives)
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

        payloads = [frozenset(agents.lower_cuts(s)) for s in states]
        lower_report, used = consensus_solve(instance, payloads, schedule, lower_report)
        slot += used
        _check_solver_status(lower_report, "lower")
        lower_x = lower_report.minimizer
        _, g_max_lower = agents.dlbd_oracle(states, instance, lower_x)

        payloads = [frozenset(agents.upper_cuts(s)) for s in states]
        upper_report, used = consensus_solve(instance, payloads, schedule, upper_report)
        slot += used
        _check_solver_status(upper_report, "upper")
        upper_x = upper_report.minimizer
        verdicts, g_max_upper = agents.dubd_oracle(states, instance, upper_x, params.r)
        feasible = [v is Verdict.FEASIBLE for v in verdicts]

        lower, upper, gaps = _bounds_and_gaps(terms, feasible, lower_x, upper_x)
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
                epsilons=tuple(s.epsilon for s in states),
                gaps=tuple(gaps),
                slots_consumed=slot - slots_at_start,
            )
        )

        if stop:
            if not all(feasible):
                raise NumericalFailure("stopping round fired with an infinite upper bound")
            g_max, _ = solve_llp(instance.constraints, upper_x)
            if (g_max > FEASIBILITY_TOL).any():
                raise NumericalFailure("terminal point is not locally feasible")
            break

    return RunResult(
        records=records,
        terminated=stop,
        x_opt=[upper_x.copy() for _ in states] if stop else None,
        method=params.method,
        accuracy_bound=bound,
        final_states=states,
    )
