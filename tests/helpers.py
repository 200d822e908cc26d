"""Shared independent oracles and random generators for the test suite."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from drcopt.consensus import flood_slots
from drcopt.graph import GraphSchedule, NotUniformlyConnected, make_schedule
from drcopt.problem import (
    CASE_STUDY_V,
    NumericalFailure,
    ProblemInstance,
    paper_quadratic_constraint,
    quadratic_distance,
)
from drcopt.solver import Cut, FiniteSubproblem
from drcopt.termination import stop_threshold

logger = logging.getLogger(__name__)

F_STAR = 38.68774606680623
X_STAR = np.array([0.0, np.sqrt(7.0) / 4.0])


def case_study_grid_min(cuts, step=1e-3, refine=True):
    """Dense-grid minimization oracle for case-study subproblems.

    Pure enumeration over the box, evaluating the case-study formulas
    directly; independent of the solver implementation.  ``cuts`` is a
    list of (agent_id, scenario_tuple, rhs).  Optionally refines with a
    1e-5 grid around the coarse winner.
    """

    def masked_min(x1_lo, x1_hi, x2_lo, x2_hi, h):
        x1 = np.arange(x1_lo, x1_hi + h / 2, h)
        x2 = np.arange(x2_lo, x2_hi + h / 2, h)
        best_val, best_pt = np.inf, None
        # Chunk rows of x1 to bound memory.
        for lo in range(0, len(x1), 512):
            a = x1[lo : lo + 512][:, None]
            b = x2[None, :]
            obj = 6.0 * (a * a + b * b) - 12.0 * b + 44.0
            feas = np.ones(obj.shape, dtype=bool)
            for agent_id, scenario, rhs in cuts:
                v = CASE_STUDY_V[agent_id - 1]
                y = scenario[0]
                g = (a - v) ** 2 + 2.0 * y * b - y * y - 1.0
                feas &= g <= rhs
            if not feas.any():
                continue
            masked = np.where(feas, obj, np.inf)
            idx = np.unravel_index(np.argmin(masked), masked.shape)
            if masked[idx] < best_val:
                best_val = float(masked[idx])
                best_pt = np.array([float(a[idx[0], 0]), float(b[0, idx[1]])])
        return best_val, best_pt

    val, pt = masked_min(-2.0, 2.0, -1.0, 1.0, step)
    if refine and pt is not None:
        w = 2.5 * step
        val2, pt2 = masked_min(
            max(-2.0, pt[0] - w),
            min(2.0, pt[0] + w),
            max(-1.0, pt[1] - w),
            min(1.0, pt[1] + w),
            1e-5,
        )
        if val2 < val:
            val, pt = val2, pt2
    return val, pt


def scaled_case_study(m: int, seed: int) -> ProblemInstance:
    """The case-study recipe at m agents.

    Centers uniform in [-1, 1]^2 with every 6th x2 set to 6, offsets
    v = linspace(-0.75, 0.75, m), on the case-study box.
    """
    centers = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, 2))
    centers[::6, 1] = 6.0
    return ProblemInstance(
        n=2,
        m=m,
        objectives=tuple(quadratic_distance(c) for c in centers),
        constraints=tuple(paper_quadratic_constraint(float(v)) for v in np.linspace(-0.75, 0.75, m)),
        box=np.array([[-2.0, 2.0], [-1.0, 1.0]]),
    )


def subproblem_cut_view(problem: FiniteSubproblem):
    """(agent_id, scenario, rhs) triples of a subproblem, for the grid oracle."""
    return [(agent_id, scenario, rhs) for agent_id, _, scenario, rhs in problem.cuts]


def random_connected_schedule(rng: np.random.Generator, m_max=5, p_max=3) -> GraphSchedule:
    """Random periodic schedule whose union over a period is strongly connected."""
    while True:
        m = int(rng.integers(2, m_max + 1))
        period = int(rng.integers(1, p_max + 1))
        slots = []
        for _ in range(period):
            edges = {
                (j, i)
                for j in range(1, m + 1)
                for i in range(1, m + 1)
                if j != i and rng.random() < 0.4
            }
            slots.append(edges)
        try:
            return make_schedule(m, slots)
        except NotUniformlyConnected:
            continue


def edge_scan_in_neighbors(schedule: GraphSchedule, node: int, t: int) -> tuple[int, ...]:
    """Sorted in-neighbors of node at slot t by a scan over every edge of the slot."""
    return tuple(sorted(j for j, i in schedule.slots[t % schedule.period] if i == node))


def aggregate_gap_load(schedule: GraphSchedule, gaps: list[float]) -> float:
    """Literal triple sum over agents, the first T slots and closed in-neighborhoods."""
    total = 0.0
    for i in range(1, schedule.m + 1):
        for t in range(schedule.window):
            for j in (i,) + edge_scan_in_neighbors(schedule, i, t):
                total += gaps[j - 1]
    return total


def box_lp_vertex_max(weights, capacity, upper):
    """Brute-force optimum of max sum(e) s.t. w.e <= capacity, 0 <= e_i <= upper.

    Enumerates candidate vertices: every subset pinned at the upper bound
    with at most one remaining coordinate fractional.
    """
    m = len(weights)
    best = 0.0
    for pinned in itertools.product((0.0, upper), repeat=m):
        used = sum(w * e for w, e in zip(weights, pinned))
        if used > capacity + 1e-12:
            continue
        value = sum(pinned)
        best = max(best, value)
        for j in range(m):
            if pinned[j] == 0.0:
                extra = min(upper, (capacity - used) / weights[j])
                best = max(best, value + extra)
    return best


# Per-agent, per-slot simulations of the flooding and stopping protocols,
# as oracles for drcopt's array versions.  Each reads the schedule's edge
# sets directly, not ``closed_in``.


def per_slot_flood(
    payloads: list[frozenset[Cut]],
    schedule: GraphSchedule,
    start_slot: int = 0,
) -> tuple[list[frozenset[Cut]], int]:
    """Flooding with one frozenset union per agent and slot."""
    m = schedule.m
    if len(payloads) != m:
        raise ValueError("one payload per agent required")
    held = [frozenset(p) for p in payloads]
    n_slots = flood_slots(schedule)
    for slot in range(start_slot, start_slot + n_slots):
        snapshot = held
        held = [
            snapshot[i - 1].union(*(snapshot[j - 1] for j in edge_scan_in_neighbors(schedule, i, slot)))
            for i in range(1, m + 1)
        ]
    union = frozenset().union(*held) if held else frozenset()
    for agent, merged in enumerate(held, start=1):
        if merged != union:
            raise NumericalFailure(f"agent {agent} missed tuples after flooding: schedule not connected?")
    return held, n_slots


@dataclass(frozen=True)
class CounterState:
    h: int = 0
    c: int = 0
    e: float = math.inf  # local gap, fixed within one outer iteration


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
        neighborhood = [counters[j - 1] for j in (i,) + edge_scan_in_neighbors(schedule, i, slot)]
        gaps = [n.e for n in neighborhood]
        ok = all(e <= eps_f for e in gaps) if method == "I" else sum(gaps) <= eps_f
        own = counters[i - 1]
        h = min(min(n.h, n.c) for n in neighborhood) + 1
        out.append(CounterState(h=h, c=own.c + 1 if ok else 0, e=own.e))
    return out


def per_slot_stopping_round(
    gaps: list[float],
    schedule: GraphSchedule,
    method: str,
    eps_f: float,
    start_slot: int = 0,
) -> tuple[bool, int, list[CounterState]]:
    """One stopping round of T*(m-1)+1 slots of :func:`step_counters`."""
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
