"""Constraint-parameter flooding over the time-varying digraph.

Every agent repeatedly forwards its merged set of cut tuples to its
out-neighbors; after T*(m-1) synchronous slots each agent holds the
global union and can solve the identical finite subproblem locally,
giving exact (bitwise) consensus without any averaging dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphSchedule
from .problem import NumericalFailure, ProblemInstance
from .solver import Cut, SolveReport, Tolerances, build_subproblem, solve


@dataclass(frozen=True)
class Message:
    sender: int
    slot: int
    tuples: frozenset[Cut]


def flood_slots(schedule: GraphSchedule) -> int:
    """Slots the flooding protocol runs: T*(m-1), enough for any pair."""
    return schedule.window * (schedule.m - 1)


def flood_constraints(
    payloads: list[frozenset[Cut]],
    schedule: GraphSchedule,
    start_slot: int = 0,
    trace: list[Message] | None = None,
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
    for offset in range(n_slots):
        slot = start_slot + offset
        snapshot = list(held)
        for sender in range(1, m + 1):
            if trace is not None:
                trace.append(Message(sender=sender, slot=slot, tuples=snapshot[sender - 1]))
            for receiver in schedule.out_neighbors(sender, slot):
                held[receiver - 1] = held[receiver - 1] | snapshot[sender - 1]
    union = frozenset().union(*held) if held else frozenset()
    for agent, merged in enumerate(held, start=1):
        if merged != union:
            raise NumericalFailure(f"agent {agent} missed tuples after flooding: schedule not connected?")
    return held, n_slots


def consensus_solve(
    instance: ProblemInstance,
    payloads: list[frozenset[Cut]],
    schedule: GraphSchedule,
    tolerances: Tolerances = Tolerances(),
    start_slot: int = 0,
) -> tuple[list[SolveReport], int]:
    """Flood the cut tuples, then solve the subproblem every agent now holds.

    Flooding leaves every agent with the same tuple set (it raises
    otherwise) and the canonical ordering makes the solver input bitwise
    identical, so the deterministic solver runs once and every agent
    receives the identical report.
    """
    held, slots_used = flood_constraints(payloads, schedule, start_slot)
    report = solve(build_subproblem(instance, held[0]), tolerances)
    return [report] * len(held), slots_used
