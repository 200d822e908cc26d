"""Per-agent algorithm state: scenario sets, restriction parameter, oracles.

Each outer iteration an agent receives the consensus minimizer of the
lower (respectively upper) subproblem, checks it against its own
semi-infinite constraint via the lower-level problem, and either grows
its scenario set or (upper side) relaxes its restriction parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .llp import Verdict, feasibility_verdict, solve_llp
from .problem import NumericalFailure, ProblemInstance, Vector
from .solver import Cut

SCENARIO_CAP = 10_000  # runaway guard per agent


@dataclass
class AgentState:
    """What an agent holds between iterations: its scenario sets and its restriction ``epsilon``.

    Whether its upper point is feasible is the upper oracle's verdict of
    the iteration, which :func:`drcopt.sim.run` keeps.
    """

    agent_id: int
    epsilon: float
    lower_scenarios: list[tuple[float, ...]] = field(default_factory=list)
    upper_scenarios: list[tuple[float, ...]] = field(default_factory=list)


def _append_scenario(scenarios: list[tuple[float, ...]], y: Vector) -> None:
    if len(scenarios) >= SCENARIO_CAP:
        raise NumericalFailure(f"scenario set exceeded the cap of {SCENARIO_CAP}")
    # No dedup: re-appending a near-identical maximizer is harmless.
    scenarios.append(tuple(float(v) for v in np.atleast_1d(y)))


def dlbd_oracle(state: AgentState, instance: ProblemInstance, x_new: Vector) -> tuple[Verdict, float]:
    """Lower-side oracle: cut if the consensus point is infeasible."""
    constraint = instance.constraints[state.agent_id - 1]
    g_max, y_star = solve_llp(constraint, x_new)
    verdict = feasibility_verdict(g_max)
    if verdict is Verdict.VIOLATED:
        _append_scenario(state.lower_scenarios, y_star)
    return verdict, g_max


def dubd_oracle(
    state: AgentState, instance: ProblemInstance, z_new: Vector, r: float
) -> tuple[Verdict, float]:
    """Upper-side oracle: cut on violation, shrink epsilon by r on feasibility.

    The verdict is the caller's record of whether ``z_new`` is feasible
    for this agent.
    """
    if r <= 1.0:
        raise ValueError("reduction parameter r must exceed 1")
    constraint = instance.constraints[state.agent_id - 1]
    g_max, y_star = solve_llp(constraint, z_new)
    verdict = feasibility_verdict(g_max)
    if verdict is Verdict.VIOLATED:
        _append_scenario(state.upper_scenarios, y_star)
    else:
        state.epsilon = state.epsilon / r
    return verdict, g_max


def lower_cuts(state: AgentState) -> list[Cut]:
    return [(state.agent_id, k, y, 0.0) for k, y in enumerate(state.lower_scenarios)]


def upper_cuts(state: AgentState) -> list[Cut]:
    return [(state.agent_id, k, y, -state.epsilon) for k, y in enumerate(state.upper_scenarios)]
