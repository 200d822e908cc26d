"""A-priori accuracy guarantees of the two termination methods.

Method I certifies |upper - lower| <= m * eps_f.  Method II's guarantee
is the optimum of a single-constraint box linear program over the agents'
gap variables; the constraint aggregates each gap over every closed
in-neighborhood of one strongly connected window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import GraphSchedule


def method1_accuracy(m: int, eps_f: float) -> float:
    # Negated comparison so that NaN is rejected too.
    if m < 1 or not 0.0 < eps_f < math.inf:
        raise ValueError("need m >= 1 and a positive, finite eps_f")
    return m * eps_f


def neighborhood_weights(schedule: GraphSchedule) -> list[int]:
    """w_j = sum over the first T slots of (1 + outdeg_j(t)).

    Counting appearances: at slot t, gap e_j shows up once in its own
    closed neighborhood and once per out-neighbor, so the triple sum over
    agents, slots and neighborhoods collapses to sum_j w_j * e_j.  The
    window T is at most the period, so the first T slots are phases
    0..T-1, and w_j counts agent j's entries in their closed in-neighbor
    lists (``GraphSchedule.closed_in_lists``): its own list gives the 1.
    """
    lists = schedule.closed_in_lists[: schedule.window]
    return sum(np.bincount(sources, minlength=schedule.m) for sources, _, _ in lists).tolist()


def method2_accuracy(schedule: GraphSchedule, eps_f: float) -> float:
    """Optimum of: max sum(e) s.t. sum_j w_j e_j <= m*T*eps_f, 0 <= e_j <= eps_f.

    A single-constraint box LP, solved by the greedy fractional-knapsack
    rule: fill variables to eps_f in ascending weight order, fractional
    last.
    """
    if not 0.0 < eps_f < math.inf:
        raise ValueError("eps_f must be positive and finite")
    weights = neighborhood_weights(schedule)
    capacity = schedule.m * schedule.window * eps_f
    total = 0.0
    for w in sorted(weights):
        take = min(eps_f, capacity / w)
        total += take
        capacity -= take * w
        if capacity <= 0.0:
            break
    return total


@dataclass(frozen=True)
class SweepRow:
    topology: str
    m: int
    window: int
    method1_bound: float
    method2_bound: float


def accuracy_sweep(name: str, generator, m_range, eps_f: float) -> list[SweepRow]:
    """Bounds per m of the topology ``name``, whose schedules ``generator(m)`` builds."""
    rows = []
    for m in m_range:
        schedule = generator(m)
        rows.append(
            SweepRow(
                topology=name,
                m=m,
                window=schedule.window,
                method1_bound=method1_accuracy(m, eps_f),
                method2_bound=method2_accuracy(schedule, eps_f),
            )
        )
    return rows
