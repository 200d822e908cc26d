"""Constraint-parameter flooding over the time-varying digraph.

In every slot each agent merges the cuts its in-neighbors held at the
start of the slot into its own.  When every T-slot window's union is
strongly connected (``GraphSchedule.window``, checked when the schedule
is built), each window adds at least one holder of every cut, so after
T*(m-1) slots from any start every agent holds the global union, which
is all constraints consensus needs (Notarstefano & Bullo, IEEE TAC
2011).  Each agent appends only its own rows to its side's
:class:`~drcopt.solver.CutTable`, so the union is the table: flooding
returns it without simulating the slots, and every agent solves the
identical subproblem, giving exact (bitwise) consensus.
"""

from __future__ import annotations

import numpy as np

from .graph import GraphSchedule
from .problem import ProblemInstance
from .solver import CutTable, FiniteSubproblem, SolveReport, solve


def flood_slots(schedule: GraphSchedule) -> int:
    """Slots the flooding protocol runs: T*(m-1), enough for any pair."""
    return schedule.window * (schedule.m - 1)


def flood_constraints(cuts: CutTable, schedule: GraphSchedule) -> tuple[list[CutTable], int]:
    """What each agent holds after flooding its own rows of ``cuts`` for T*(m-1) slots (the table), and that count."""
    if len(cuts.count) != schedule.m:
        raise ValueError("one row count per agent required")
    return [cuts] * schedule.m, flood_slots(schedule)


def carried_multipliers(start: SolveReport, problem: FiniteSubproblem) -> np.ndarray:
    """``start``'s multipliers, then 0 for each row of ``problem`` appended since, in table order.

    Rows are only appended, so the rows ``start`` solved on are a prefix
    of ``problem``'s table and name the same scenarios: an upper cut
    whose ``eps_i`` shrank keeps its multiplier.
    """
    return np.concatenate([start.multipliers, np.zeros(len(problem.cuts) - len(start.multipliers))])


def consensus_solve(
    instance: ProblemInstance,
    cuts: CutTable,
    schedule: GraphSchedule,
    start: SolveReport | None = None,
    rhs: np.ndarray | None = None,
) -> tuple[SolveReport, int]:
    """Flood one side's cut table, then solve the subproblem every agent now holds.

    ``rhs`` holds each row's right-hand side: zeros (the lower side) when
    None, the row agent's ``-eps_i`` on the upper side.  Every agent holds
    the same table and, in table order, the same solver input, so the
    deterministic solver runs once and its report is every agent's.
    ``start`` is the previous report on the same side, which every agent
    holds: the solve starts from its minimizer and its
    :func:`carried_multipliers`, else from the box center and zeros.
    """
    held, slots_used = flood_constraints(cuts, schedule)
    problem = FiniteSubproblem(instance, held[0], rhs)
    x0 = lam0 = None
    if start is not None:
        x0, lam0 = start.minimizer, carried_multipliers(start, problem)
    return solve(problem, x0, lam0), slots_used
