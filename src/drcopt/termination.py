"""Finite-time distributed stopping via min-consensus counters.

Each agent keeps an integer pair (h, c).  c counts the streak of slots
in which the locally observable stopping condition held; h propagates
the minimum of min(h, c) over the closed in-neighborhood and certifies,
once it reaches T*(m-1)+1, that the condition held network-wide.

Method I's condition is per-agent gaps below the threshold; Method II
bounds the closed-neighborhood gap sum instead.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

from .graph import GraphSchedule
from .problem import NumericalFailure

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CounterState:
    h: int = 0
    c: int = 0
    e: float = math.inf  # local gap, fixed within one outer iteration


def stop_threshold(schedule: GraphSchedule) -> int:
    return schedule.window * (schedule.m - 1) + 1


def _min_consensus_h(counters, schedule, slot, i):
    neighborhood = (i,) + schedule.in_neighbors(i, slot)
    return min(min(counters[j - 1].h, counters[j - 1].c) for j in neighborhood) + 1


def step_method1(
    counters: list[CounterState], schedule: GraphSchedule, slot: int, eps_f: float
) -> list[CounterState]:
    """One lock-step slot of the per-agent-gap recursion."""
    out = []
    for i in range(1, schedule.m + 1):
        neighborhood = (i,) + schedule.in_neighbors(i, slot)
        ok = all(counters[j - 1].e <= eps_f for j in neighborhood)
        out.append(
            replace(
                counters[i - 1],
                h=_min_consensus_h(counters, schedule, slot, i),
                c=counters[i - 1].c + 1 if ok else 0,
            )
        )
    return out


def step_method2(
    counters: list[CounterState], schedule: GraphSchedule, slot: int, eps_f: float
) -> list[CounterState]:
    """One lock-step slot of the neighborhood-sum recursion."""
    out = []
    for i in range(1, schedule.m + 1):
        neighborhood = (i,) + schedule.in_neighbors(i, slot)
        ok = sum(counters[j - 1].e for j in neighborhood) <= eps_f
        out.append(
            replace(
                counters[i - 1],
                h=_min_consensus_h(counters, schedule, slot, i),
                c=counters[i - 1].c + 1 if ok else 0,
            )
        )
    return out


_STEPS = {"I": step_method1, "II": step_method2}


def run_stopping_round(
    gaps: list[float],
    schedule: GraphSchedule,
    method: str,
    eps_f: float,
    start_slot: int = 0,
) -> tuple[bool, int, list[CounterState]]:
    """Run one full stopping round of T*(m-1)+1 slots with counters reset.

    Returns (stop, slots_used, final_counters); stop is declared when any
    agent's h reaches the threshold.  Gaps are fixed for the round.
    """
    if len(gaps) != schedule.m:
        raise ValueError("one gap value per agent required")
    step = _STEPS[method]
    threshold = stop_threshold(schedule)
    counters = [CounterState(e=e) for e in gaps]
    for offset in range(threshold):
        counters = step(counters, schedule, start_slot + offset, eps_f)
    stop = any(c.h >= threshold for c in counters)
    if stop and not all(c.h >= threshold for c in counters):
        if method == "I":
            raise NumericalFailure("Method I stop must be simultaneous across agents")
        logger.warning("Method II stop was not simultaneous across agents")
    return stop, threshold, counters
