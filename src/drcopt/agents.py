"""Per-agent algorithm state: scenario sets, restriction parameter, oracles.

Each outer iteration every agent receives the consensus minimizer of the
lower (respectively upper) subproblem, checks it against its own
semi-infinite constraint via the lower-level problem, and either grows
its scenario set or (upper side) relaxes its restriction parameter.  All
agents check the same point, so each oracle acts on a list of agents in
one lower-level pass.
"""

from __future__ import annotations

import math
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
    scenarios.append(tuple(np.atleast_1d(y).tolist()))


def dlbd_oracle(states: list[AgentState], instance: ProblemInstance, x_new: Vector) -> tuple[list[Verdict], np.ndarray]:
    """Lower-side oracles of ``states`` at the consensus point: each cuts if it is infeasible.

    Returns the verdicts and the (len(states),) array of g_max.
    """
    g_max, y_star = solve_llp([instance.constraints[s.agent_id - 1] for s in states], x_new)
    verdicts = [feasibility_verdict(g) for g in g_max.tolist()]
    for state, verdict, y in zip(states, verdicts, y_star):
        if verdict is Verdict.VIOLATED:
            _append_scenario(state.lower_scenarios, y)
    return verdicts, g_max


def dubd_oracle(
    states: list[AgentState], instance: ProblemInstance, z_new: Vector, r: float
) -> tuple[list[Verdict], np.ndarray]:
    """Upper-side oracles of ``states``: each cuts on violation and shrinks its epsilon by r on feasibility.

    Returns the verdicts, which are the caller's record of whether
    ``z_new`` is feasible for each agent, and the (len(states),) array of
    g_max.
    """
    # Negated comparison so that NaN is rejected too.
    if not 1.0 < r < math.inf:
        raise ValueError(f"reduction parameter r must exceed 1 and be finite, got {r}")
    g_max, y_star = solve_llp([instance.constraints[s.agent_id - 1] for s in states], z_new)
    verdicts = [feasibility_verdict(g) for g in g_max.tolist()]
    for state, verdict, y in zip(states, verdicts, y_star):
        if verdict is Verdict.VIOLATED:
            _append_scenario(state.upper_scenarios, y)
        else:
            state.epsilon = state.epsilon / r
    return verdicts, g_max


def lower_cuts(state: AgentState) -> list[Cut]:
    return [(state.agent_id, k, y, 0.0) for k, y in enumerate(state.lower_scenarios)]


def upper_cuts(state: AgentState) -> list[Cut]:
    return [(state.agent_id, k, y, -state.epsilon) for k, y in enumerate(state.upper_scenarios)]
