"""Workload inputs, built only from drcopt's public API.

Every instance here belongs to the case-study constraint family:
quadratic-distance objectives ``||x - c_i||^2`` and the paper's
quadratic constraints with offsets ``v_i``, on the case-study box.  A
``Job`` keeps the centers and offsets next to the instance, so the
reference optimum in ``checks`` is computed from the same numbers the
instance was built from, not from the solver.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from drcopt.cli import METHODS, TABLE2_TOPOLOGIES
from drcopt import graph
from drcopt.graph import TOPOLOGIES, GraphSchedule, complete, directed_cycle
from drcopt.problem import (
    CASE_STUDY_CENTERS,
    CASE_STUDY_V,
    ProblemInstance,
    case_study_instance,
    paper_quadratic_constraint,
    quadratic_distance,
)
from drcopt.sim import RunParams

BOX = ((-2.0, 2.0), (-1.0, 1.0))
DENSE_M = 48


@dataclass(frozen=True)
class Job:
    """One ``run`` call of a pass, with what its checks need."""

    label: str
    instance: ProblemInstance
    schedule: GraphSchedule
    params: RunParams
    window: int  # connectivity window T, known from how the schedule is built
    centers: np.ndarray  # (m, 2)
    v: np.ndarray  # (m,)


def scaled_instance(m: int, seed: int) -> tuple[ProblemInstance, np.ndarray, np.ndarray]:
    """Case-study recipe at m agents: every 6th center pulled up to x2 = 6."""
    centers = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, 2))
    centers[::6, 1] = 6.0
    v = np.linspace(-0.75, 0.75, m)
    instance = ProblemInstance(
        n=2,
        m=m,
        objectives=tuple(quadratic_distance(c) for c in centers),
        constraints=tuple(paper_quadratic_constraint(float(vi)) for vi in v),
        box=np.array(BOX),
    )
    return instance, centers, v


def numeric_llp(instance: ProblemInstance) -> ProblemInstance:
    """The same instance with every closed-form maximizer removed."""
    return dataclasses.replace(
        instance,
        constraints=tuple(dataclasses.replace(c, analytic_argmax=None) for c in instance.constraints),
    )


def period3_cycle(m: int) -> GraphSchedule:
    """Directed cycle split over 3 slots: slot s carries i -> i+1 for i mod 3 == s."""
    return graph.make_schedule(m, [{(i, i % m + 1) for i in range(1, m + 1) if i % 3 == s} for s in range(3)])


def _case_study_arrays() -> tuple[np.ndarray, np.ndarray]:
    return np.array(CASE_STUDY_CENTERS, dtype=float), np.array(CASE_STUDY_V, dtype=float)


def table2_jobs(seed: int) -> list[Job]:
    """The six runs ``drcopt table2`` makes, in its order; the case study ignores the seed."""
    instance = case_study_instance()
    centers, v = _case_study_arrays()
    return [
        Job(f"{method}/{topology}", instance, TOPOLOGIES[topology](instance.m), RunParams(method=method), 1, centers, v)
        for method in METHODS
        for topology in TABLE2_TOPOLOGIES
    ]


def custom_llp_jobs(seed: int) -> list[Job]:
    """Case study on the numeric LLP path, on a static and a period-3 cycle."""
    instance = numeric_llp(case_study_instance())
    centers, v = _case_study_arrays()
    schedules = (("cycle", directed_cycle(instance.m), 1), ("cycle-p3", period3_cycle(instance.m), 3))
    return [
        Job(f"{method}/{name}", instance, schedule, RunParams(method=method), window, centers, v)
        for method in METHODS
        for name, schedule, window in schedules
    ]


def dense_jobs(seed: int) -> list[Job]:
    """The scaled generator at m = 48 on the complete digraph, Method I."""
    instance, centers, v = scaled_instance(DENSE_M, seed)
    return [Job(f"I/complete-m{DENSE_M}", instance, complete(DENSE_M), RunParams(method="I"), 1, centers, v)]


SETUPS = {
    "table2": table2_jobs,
    "custom-llp": custom_llp_jobs,
    "dense-m48": dense_jobs,
}
