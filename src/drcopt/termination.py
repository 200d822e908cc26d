"""Finite-time distributed stopping via min-consensus counters.

Each agent keeps an integer pair (h, c).  c counts the streak of slots
in which the locally observable stopping condition held; h propagates
the minimum of min(h, c) over the closed in-neighborhood and certifies,
once it reaches T*(m-1)+1, that the condition held network-wide.

Method I's condition is per-agent gaps below the threshold; Method II
bounds the closed-neighborhood gap sum instead.  The gaps are fixed for
a round, so each agent's condition depends only on the slot phase and is
computed once per round; each slot is then two array operations.
"""

from __future__ import annotations

import functools
import logging
import operator

import numpy as np

from .graph import GraphSchedule
from .problem import NumericalFailure

logger = logging.getLogger(__name__)


def stop_threshold(schedule: GraphSchedule) -> int:
    return schedule.window * (schedule.m - 1) + 1


def run_stopping_round(
    gaps: list[float],
    schedule: GraphSchedule,
    method: str,
    eps_f: float,
    start_slot: int = 0,
) -> tuple[bool, int, tuple[np.ndarray, np.ndarray]]:
    """Run one full stopping round of T*(m-1)+1 slots with counters reset.

    In each slot every agent looks at its closed in-neighborhood: h
    becomes the minimum of min(h, c) there plus one, and c grows while the
    method's test holds there (Method I: every gap at most eps_f; Method
    II: the gap sum at most eps_f), else resets to 0.  Returns (stop,
    slots_used, (h, c)) with h and c integer arrays indexed by agent - 1;
    stop is declared when any agent's h reaches the threshold.
    """
    if len(gaps) != schedule.m:
        raise ValueError("one gap value per agent required")
    if method not in ("I", "II"):
        raise ValueError("method must be 'I' or 'II'")
    threshold = stop_threshold(schedule)
    closed_in = schedule.closed_in
    if method == "I":
        # No failing gap in the neighborhood; negated so that NaN fails.
        ok = ~(closed_in & np.array([not e <= eps_f for e in gaps])).any(axis=2)
    else:
        # A sum at eps_f can round either way, so the order is fixed: own
        # gap first, then the in-neighbors ascending, added one at a time
        # (builtin sum compensates from Python 3.12 on).
        def closed_sum(i, row):
            return functools.reduce(operator.add, [gaps[j] for j in np.flatnonzero(row) if j != i], gaps[i])

        ok = np.array([[closed_sum(i, row) <= eps_f for i, row in enumerate(phase)] for phase in closed_in])
    h = np.zeros(schedule.m, dtype=int)
    c = np.zeros(schedule.m, dtype=int)
    for slot in range(start_slot, start_slot + threshold):
        phase = slot % schedule.period
        h = np.where(closed_in[phase], np.minimum(h, c), threshold).min(axis=1) + 1
        c = np.where(ok[phase], c + 1, 0)
    reached = h >= threshold
    stop = bool(reached.any())
    if stop and not reached.all():
        if method == "I":
            raise NumericalFailure("Method I stop must be simultaneous across agents")
        logger.warning("Method II stop was not simultaneous across agents")
    return stop, threshold, (h, c)
