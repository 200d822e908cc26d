"""Finite-time distributed stopping via min-consensus counters.

Each agent keeps an integer pair (h, c).  c counts the streak of slots
in which the locally observable stopping condition held; h propagates
the minimum of min(h, c) over the closed in-neighborhood and certifies,
once it reaches T*(m-1)+1, that the condition held network-wide.

Method I's condition is per-agent gaps below the threshold; Method II
bounds the closed-neighborhood gap sum instead.  The gaps are fixed for
a round, so each agent's condition depends only on the slot phase and is
computed once per round, over the schedule's closed in-neighbor lists
(``GraphSchedule.closed_in_lists``): both tests are one ``np.bincount``
per phase, of the failing gaps (Method I, at most 0) or of the gaps
(Method II, at most eps_f).  Each slot is then one reduction over those
lists.  A round is decided as soon as its outcome is fixed, and it still
counts the protocol's T*(m-1)+1 slots.
"""

from __future__ import annotations

import logging

import numpy as np

from .graph import GraphSchedule

logger = logging.getLogger(__name__)


def stop_threshold(schedule: GraphSchedule) -> int:
    return schedule.window * (schedule.m - 1) + 1


def run_stopping_round(
    gaps: np.ndarray | list[float],
    schedule: GraphSchedule,
    method: str,
    eps_f: float,
    start_slot: int = 0,
) -> tuple[bool, int, tuple[np.ndarray, np.ndarray] | None]:
    """Decide one stopping round of T*(m-1)+1 slots with counters reset.

    In each slot every agent looks at its closed in-neighborhood: h
    becomes the minimum of min(h, c) there plus one, and c grows while the
    method's test holds there (Method I: every gap at most eps_f; Method
    II: the gap sum at most eps_f), else resets to 0.  stop is declared
    when any agent's h reaches the threshold after the last slot.

    Returns (stop, slots, counters); slots is always the protocol's
    T*(m-1)+1.  The round is decided as soon as its outcome is fixed.
    When every agent's test holds in every phase, h = c = threshold in
    closed form.  A test that fails in the first slot fixes stop False:
    the agent's lag reaches every agent within the remaining slots (with
    m = 1 there are none).  A failing Method I gap fails its own agent's
    test in every phase, so a Method I round is decided there or in
    closed form, and its stop is simultaneous.  Otherwise the slots are
    run, and since h grows by at most one per slot, once every h is below the
    number of slots run none can reach the threshold and the round ends
    with stop False.  A round decided before its last slot returns
    counters None; otherwise counters is (h, c) after the last slot,
    integer arrays indexed by agent - 1.
    """
    if len(gaps) != schedule.m:
        raise ValueError("one gap value per agent required")
    if method not in ("I", "II"):
        raise ValueError("method must be 'I' or 'II'")
    threshold = stop_threshold(schedule)
    lists = schedule.closed_in_lists
    gaps = np.array(gaps, dtype=float)
    # Method I counts the failing gaps in each neighborhood (negated so
    # that NaN fails), Method II adds the gaps up.  bincount adds in input
    # order, so each sum is a left fold in list order: own gap first, then
    # the in-neighbors ascending, which fixes how a sum at eps_f rounds.
    terms, limit = (~(gaps <= eps_f), 0) if method == "I" else (gaps, eps_f)
    ok = [
        np.bincount(destinations, weights=terms[sources], minlength=schedule.m) <= limit
        for sources, destinations, _ in lists
    ]
    if all(phase.all() for phase in ok):
        return True, threshold, (np.full(schedule.m, threshold), np.full(schedule.m, threshold))
    # An agent whose test fails in the first slot has c = 0 there, so from
    # the second slot on its h, and that of every agent it reaches, lags
    # the slot count.  The remaining threshold - 1 = T*(m-1) slots flood
    # that lag to every agent, so no h reaches the threshold.  For m = 1
    # there are no remaining slots and the one slot never carries c into
    # h, so this rule alone keeps a failing test from stopping the round.
    if not ok[start_slot % schedule.period].all():
        return False, threshold, None
    h = np.zeros(schedule.m, dtype=int)
    c = np.zeros(schedule.m, dtype=int)
    for k, slot in enumerate(range(start_slot, start_slot + threshold), start=1):
        phase = slot % schedule.period
        sources, _, starts = lists[phase]
        h = np.minimum.reduceat(np.minimum(h, c)[sources], starts[:-1]) + 1
        c = np.where(ok[phase], c + 1, 0)
        if k < threshold and h.max() < k:
            return False, threshold, None
    reached = h >= threshold
    stop = bool(reached.any())
    if stop and not reached.all():
        logger.warning("Method II stop was not simultaneous across agents")
    return stop, threshold, (h, c)
