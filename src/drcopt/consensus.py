"""Constraint-parameter flooding over the time-varying digraph.

In every slot each agent merges the tuple sets its in-neighbors held at
the start of the slot into its own; after T*(m-1) synchronous slots each
agent holds the global union and can solve the identical finite
subproblem locally, giving exact (bitwise) consensus without any
averaging dynamics.
"""

from __future__ import annotations

from .graph import GraphSchedule
from .problem import NumericalFailure, ProblemInstance
from .solver import Cut, SolveReport, build_subproblem, solve


def flood_slots(schedule: GraphSchedule) -> int:
    """Slots the flooding protocol runs: T*(m-1), enough for any pair."""
    return schedule.window * (schedule.m - 1)


def flood_constraints(
    payloads: list[frozenset[Cut]],
    schedule: GraphSchedule,
    start_slot: int = 0,
) -> tuple[list[frozenset[Cut]], int]:
    """Run the flooding protocol from per-agent payloads.

    Returns each agent's merged tuple set after exactly T*(m-1) slots
    (identical across agents under uniform strong connectivity) and the
    slot count consumed.
    """
    m = schedule.m
    if len(payloads) != m:
        raise ValueError("one payload per agent required")
    held = [frozenset(p) for p in payloads]
    n_slots = flood_slots(schedule)
    for slot in range(start_slot, start_slot + n_slots):
        snapshot = held
        held = [
            snapshot[i - 1].union(*(snapshot[j - 1] for j in schedule.in_neighbors(i, slot)))
            for i in range(1, m + 1)
        ]
    union = frozenset().union(*held) if held else frozenset()
    for agent, merged in enumerate(held, start=1):
        if merged != union:
            raise NumericalFailure(f"agent {agent} missed tuples after flooding: schedule not connected?")
    return held, n_slots


def consensus_solve(
    instance: ProblemInstance,
    payloads: list[frozenset[Cut]],
    schedule: GraphSchedule,
    start_slot: int = 0,
    start: SolveReport | None = None,
) -> tuple[SolveReport, int]:
    """Flood the cut tuples, then solve the subproblem every agent now holds.

    Flooding leaves every agent with the same tuple set (it raises
    otherwise) and the canonical ordering makes the solver input bitwise
    identical, so the deterministic solver runs once and its report is
    every agent's.  ``start``, the warm start of :func:`drcopt.solver.solve`,
    is such a report from an earlier phase, which every agent already
    holds, so the warm-started solve is still one common computation.
    """
    held, slots_used = flood_constraints(payloads, schedule, start_slot)
    return solve(build_subproblem(instance, held[0]), start), slots_used
