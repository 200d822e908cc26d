"""Constraint-parameter flooding over the time-varying digraph.

In every slot each agent merges the tuple sets its in-neighbors held at
the start of the slot into its own.  When every T-slot window's union is
strongly connected (``GraphSchedule.window``, checked when the schedule
is built), each window adds at least one holder of every payload, so
after T*(m-1) synchronous slots from any start slot every agent holds
the global union.  Flooding therefore returns the union, without
simulating the slots, and every agent solves the identical finite
subproblem locally, giving exact (bitwise) consensus without any
averaging dynamics.
"""

from __future__ import annotations

import operator

import numpy as np

from .graph import GraphSchedule
from .problem import ProblemInstance
from .solver import Cut, FiniteSubproblem, SolveReport, solve


def flood_slots(schedule: GraphSchedule) -> int:
    """Slots the flooding protocol runs: T*(m-1), enough for any pair."""
    return schedule.window * (schedule.m - 1)


def flood_constraints(payloads: list[list[Cut]], schedule: GraphSchedule) -> tuple[list[list[Cut]], int]:
    """Run the flooding protocol from per-agent payloads.

    Returns each agent's merged cut list after T*(m-1) slots, which is
    the union of the payloads for every agent, and that slot count.  An
    agent's payload holds its own cuts only, so the payloads are disjoint
    by agent id and their union is their concatenation.
    """
    if len(payloads) != schedule.m:
        raise ValueError("one payload per agent required")
    union = [cut for payload in payloads for cut in payload]
    return [union] * schedule.m, flood_slots(schedule)


def carried_multipliers(start: SolveReport, cuts: tuple[Cut, ...]) -> np.ndarray:
    """``start``'s multipliers on ``cuts``, matched by (agent_id, insertion_index).

    A cut with no predecessor in ``start.cuts`` starts at 0.  An agent's
    scenario list only grows and an upper cut's rhs follows its agent's
    current ``eps_i``, so the pair names the same scenario from one
    iteration to the next, and an upper cut whose ``eps_i`` shrank keeps
    its multiplier.
    """
    key = operator.itemgetter(0, 1)
    previous = dict(zip(map(key, start.cuts), start.multipliers.tolist()))
    return np.array([previous.get(k, 0.0) for k in map(key, cuts)])


def consensus_solve(
    instance: ProblemInstance,
    payloads: list[list[Cut]],
    schedule: GraphSchedule,
    start: SolveReport | None = None,
) -> tuple[SolveReport, int]:
    """Flood the cut tuples, then solve the subproblem every agent now holds.

    Flooding leaves every agent with the same tuple set, the union (the
    schedule's connectivity window guarantees it, see the module
    docstring), and the canonical ordering makes the solver input bitwise
    identical, so the deterministic solver runs once and its report is
    every agent's.  ``start`` is the report of an earlier solve on the
    same side, which every agent already holds: :func:`drcopt.solver.solve`
    starts from its minimizer and its :func:`carried_multipliers`, so the
    solve from it is still one common computation.  Without ``start`` the
    solve starts at the box center with zero multipliers.
    """
    held, slots_used = flood_constraints(payloads, schedule)
    problem = FiniteSubproblem(instance, held[0])
    x0 = lam0 = None
    if start is not None:
        x0, lam0 = start.minimizer, carried_multipliers(start, problem.cuts)
    return solve(problem, x0, lam0), slots_used
