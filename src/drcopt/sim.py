"""Sequential lock-step orchestration of the full distributed algorithm.

Each outer iteration: flood + consensus-solve the lower subproblem, run
every agent's lower oracle, flood + consensus-solve the upper subproblem,
run the upper oracles, then one distributed stopping round.  The schedule
slot pointer advances continuously so time-varying graphs are genuinely
exercised across phases.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import agents
from .agents import AgentState, bound_values, initial_states
from .bounds import method1_accuracy, method2_accuracy
from .consensus import consensus_solve
from .graph import GraphSchedule
from .llp import solve_llp
from .problem import NumericalFailure, ProblemInstance, Vector
from .solver import FEASIBILITY_TOL, SolveStatus
from .termination import run_stopping_round

PLOT_CEILING = 39.0  # stand-in for +inf upper bounds when plotting


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
        if not self.eps0 > 0.0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if not self.r > 1.0:
            raise ValueError(f"r must exceed 1, got {self.r}")
        if not self.eps_f > 0.0:
            raise ValueError(f"eps_f must be positive, got {self.eps_f}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    lower: float
    upper: float  # +inf while any agent has no feasible upper candidate
    g_max_lower: tuple[float, ...]  # per agent, at the lower consensus point
    g_max_upper: tuple[float, ...]  # per agent, at the upper consensus point
    epsilons: tuple[float, ...]
    gaps: tuple[float, ...]
    slots_consumed: int


@dataclass(frozen=True)
class RunResult:
    records: list[IterationRecord]
    terminated: bool
    iterations: int
    x_opt: list[Vector] | None
    method: str
    accuracy_bound: float
    final_states: list[AgentState] = field(repr=False, default=None)

    @property
    def final_lower(self) -> float:
        return self.records[-1].lower

    @property
    def final_upper(self) -> float:
        return self.records[-1].upper


def _check_solver_status(report, phase: str):
    if report.status is SolveStatus.INFEASIBLE:
        raise ConfigError(f"{phase} subproblem infeasible; choose a smaller eps0")
    if report.status is not SolveStatus.OPTIMAL:
        raise NumericalFailure(f"{phase} subproblem solve hit the iteration limit")


def run(instance: ProblemInstance, schedule: GraphSchedule, params: RunParams = RunParams()) -> RunResult:
    """Run the algorithm until the stopping round fires or max_iter is reached.

    A budget-exhausted run is returned with ``terminated=False`` rather
    than raised; an infeasible upper subproblem raises :class:`ConfigError`,
    and a solve limit or a failed invariant raises :class:`NumericalFailure`.
    """
    if schedule.m != instance.m:
        raise ValueError("schedule and instance disagree on the agent count")
    states = initial_states(instance, params.eps0)
    bound = (
        method1_accuracy(instance.m, params.eps_f)
        if params.method == "I"
        else method2_accuracy(schedule, params.eps_f)
    )
    records: list[IterationRecord] = []
    slot = 0
    prev_lower = -math.inf
    # Each side's solve starts from that side's previous report (see
    # drcopt.solver.solve); every agent holds it, so consensus holds.
    lower_report = upper_report = None

    for k in range(1, params.max_iter + 1):
        slots_at_start = slot

        payloads = [frozenset(agents.lower_cuts(s)) for s in states]
        lower_report, used = consensus_solve(instance, payloads, schedule, slot, start=lower_report)
        slot += used
        _check_solver_status(lower_report, "lower")
        g_max_lower = tuple(agents.dlbd_oracle(s, instance, lower_report.minimizer)[1] for s in states)

        payloads = [frozenset(agents.upper_cuts(s)) for s in states]
        upper_report, used = consensus_solve(instance, payloads, schedule, slot, start=upper_report)
        slot += used
        _check_solver_status(upper_report, "upper")
        g_max_upper = tuple(agents.dubd_oracle(s, instance, upper_report.minimizer, params.r)[1] for s in states)

        lower, upper = bound_values(states, instance)
        if lower < prev_lower - 1e-9:
            raise NumericalFailure("lower bound decreased across iterations")
        if math.isfinite(upper) and upper < lower - 1e-9:
            raise NumericalFailure("upper bound fell below lower bound")
        prev_lower = lower

        gaps = [s.gap(instance) for s in states]
        stop, used, _ = run_stopping_round(gaps, schedule, params.method, params.eps_f, slot)
        slot += used

        records.append(
            IterationRecord(
                k=k,
                lower=lower,
                upper=upper,
                g_max_lower=g_max_lower,
                g_max_upper=g_max_upper,
                epsilons=tuple(s.epsilon for s in states),
                gaps=tuple(gaps),
                slots_consumed=slot - slots_at_start,
            )
        )

        if stop:
            x_opt = []
            for state in states:
                if state.x_bar is None:
                    raise NumericalFailure("stopping round fired with an infinite upper bound")
                x_opt.append(np.array(state.x_bar))
            for state, x in zip(states, x_opt):
                g_max, _ = solve_llp(instance.constraints[state.agent_id - 1], x)
                if g_max > FEASIBILITY_TOL:
                    raise NumericalFailure("terminal point is not locally feasible")
                if not np.array_equal(x, x_opt[0]):
                    raise NumericalFailure("terminal points are not in consensus")
            return RunResult(
                records=records,
                terminated=True,
                iterations=k,
                x_opt=x_opt,
                method=params.method,
                accuracy_bound=bound,
                final_states=states,
            )

    return RunResult(
        records=records,
        terminated=False,
        iterations=params.max_iter,
        x_opt=None,
        method=params.method,
        accuracy_bound=bound,
        final_states=states,
    )


def trace(result: RunResult) -> list[tuple[int, float, float]]:
    """Per-iteration (k, lower, upper) with +inf rendered as ``PLOT_CEILING``."""
    return [
        (rec.k, rec.lower, rec.upper if math.isfinite(rec.upper) else PLOT_CEILING)
        for rec in result.records
    ]
