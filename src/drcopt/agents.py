"""Agent state as arrays: one cut table per side, the restriction vector, the oracles.

Every agent checks the same consensus minimizer against its own
semi-infinite constraint, so each oracle is one lower-level pass over
the instance: a violated agent adds a scenario cut, a row appended to
its side's :class:`~drcopt.solver.CutTable`, and on the upper side a
satisfied agent divides its entry of the (m,) vector ``eps`` by r.
:class:`AgentState`, the per-agent view, is built once at the end of a
run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .llp import solve_llp
from .problem import ConstraintTable, NumericalFailure, ProblemInstance, Vector
from .solver import CutTable

SCENARIO_CAP = 10_000  # runaway guard per agent


@dataclass
class AgentState:
    """Agent ``agent_id``'s restriction and scenarios per side, (k, n_y_f) arrays in insertion order."""

    agent_id: int
    epsilon: float
    lower_scenarios: np.ndarray
    upper_scenarios: np.ndarray


def _with_cuts(cuts: CutTable, violated: np.ndarray, y_star: np.ndarray) -> CutTable:
    """``cuts`` with one row per violated agent, at its maximizer in ``y_star`` (see :func:`solve_llp`)."""
    new = np.flatnonzero(violated)
    if not len(new):
        return cuts
    # Counts grow by one per append, so only a violated agent can pass the cap.
    count = cuts.count + violated
    if count.max() > SCENARIO_CAP:
        raise NumericalFailure(f"scenario set exceeded the cap of {SCENARIO_CAP}")
    # No dedup: re-appending a near-identical maximizer is harmless.
    return CutTable(np.concatenate([cuts.agent, new]), np.concatenate([cuts.scenarios, y_star[new]]), count)


def _check(cuts: CutTable, instance: ProblemInstance, x: Vector) -> tuple[np.ndarray, np.ndarray, CutTable]:
    """Every agent at x: (violated mask, g_max, ``cuts`` with a row per violated agent).

    An agent is violated iff its g_max is positive: a boundary value counts
    feasible.  A NaN g_max is neither, so it raises :class:`NumericalFailure`.
    """
    g_max, y_star = solve_llp(instance.constraint_table, x)
    unknown = np.flatnonzero(np.isnan(g_max))
    if len(unknown):
        raise NumericalFailure(f"agent {unknown[0] + 1}'s lower-level maximum is NaN at x = {x.tolist()}")
    violated = g_max > 0.0
    return violated, g_max, _with_cuts(cuts, violated, y_star)


def dlbd_oracle(cuts: CutTable, instance: ProblemInstance, x_new: Vector) -> tuple[np.ndarray, np.ndarray, CutTable]:
    """Lower oracles at the consensus point: (violated mask, g_max, grown table); see :func:`_check`."""
    return _check(cuts, instance, x_new)


def dubd_oracle(
    cuts: CutTable, epsilon: np.ndarray, instance: ProblemInstance, z_new: Vector, r: float
) -> tuple[np.ndarray, np.ndarray, CutTable, np.ndarray]:
    """Upper oracles: (violated mask, g_max, grown table, eps with each feasible agent's divided by r).

    The mask is the caller's record of which agents found ``z_new`` feasible.
    """
    # Negated comparison so that NaN is rejected too.
    if not 1.0 < r < math.inf:
        raise ValueError(f"reduction parameter r must exceed 1 and be finite, got {r}")
    violated, g_max, grown = _check(cuts, instance, z_new)
    return violated, g_max, grown, np.where(violated, epsilon, epsilon / r)


def final_states(lower: CutTable, upper: CutTable, epsilon: np.ndarray, table: ConstraintTable) -> list[AgentState]:
    """The per-agent view of a run's state: per side one stable sort, then one slice per agent in its n_y_f columns."""
    widths = np.array([boxes.shape[1] for boxes in table.boxes])[table.family].tolist()
    sides = []
    for cuts in (lower, upper):
        ys, ends = cuts.scenarios[np.argsort(cuts.agent, kind="stable")], np.cumsum(cuts.count).tolist()
        # Slices, not np.split, which costs a swapaxes call per part.
        sides.append([ys[start:end, :width] for start, end, width in zip([0] + ends, ends, widths)])
    return [AgentState(a + 1, *state) for a, state in enumerate(zip(epsilon.tolist(), *sides))]
