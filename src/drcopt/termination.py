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
from dataclasses import dataclass

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


def step_counters(
    counters: list[CounterState], schedule: GraphSchedule, slot: int, method: str, eps_f: float
) -> list[CounterState]:
    """One lock-step slot of the counter recursion.

    Each agent looks at its closed in-neighborhood: h becomes the minimum
    of min(h, c) there plus one, and c grows while the method's test
    holds there (Method I: every gap at most eps_f; Method II: the gap
    sum at most eps_f), else resets to 0.
    """
    out = []
    for i in range(1, schedule.m + 1):
        neighborhood = [counters[j - 1] for j in (i,) + schedule.in_neighbors(i, slot)]
        gaps = [n.e for n in neighborhood]
        ok = all(e <= eps_f for e in gaps) if method == "I" else sum(gaps) <= eps_f
        own = counters[i - 1]
        h = min(min(n.h, n.c) for n in neighborhood) + 1
        out.append(CounterState(h=h, c=own.c + 1 if ok else 0, e=own.e))
    return out


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
    if method not in ("I", "II"):
        raise ValueError("method must be 'I' or 'II'")
    threshold = stop_threshold(schedule)
    counters = [CounterState(e=e) for e in gaps]
    for offset in range(threshold):
        counters = step_counters(counters, schedule, start_slot + offset, method, eps_f)
    stop = any(c.h >= threshold for c in counters)
    if stop and not all(c.h >= threshold for c in counters):
        if method == "I":
            raise NumericalFailure("Method I stop must be simultaneous across agents")
        logger.warning("Method II stop was not simultaneous across agents")
    return stop, threshold, counters
