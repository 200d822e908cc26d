"""SHA-256 digests over the records of the benchmark's runs, the scaled runs and a mixed-family instance.

Run from the root of a checkout, with the package on the path::

    PYTHONPATH=src python tests/record_digest.py

The first printed line covers the six ``table2`` jobs and the four
``custom-llp`` jobs of ``perfbench/workloads.py``, and
``scaled_instance`` at seed 0 on ``complete(48)``,
``directed_cycle(96)``, ``period3_cycle(24)``, ``directed_cycle(192)``
and ``period3_cycle(96)``, each with both methods.  The second covers
:func:`mixed_instance`, whose agents hold ``example1`` and
paper-quadratic constraints, on ``directed_cycle(3)`` and ``complete(3)``
with both methods, once with every closed-form maximizer, once with
none, and once with only ``example1``'s, so that one lower-level pass
mixes closed-form and numeric members.  A digest covers every field of
every ``IterationRecord`` (floats as ``float.hex``), ``terminated``,
``iterations`` and the bytes of ``x_opt``, after the run's label; a
benchmark job's label names its workload (``table2/I/cycle``,
``custom-llp/I/cycle``), so no two runs share one.  Runs are
deterministic, so two processes print the same lines, whatever their
``PYTHONHASHSEED``; a change that keeps every iterate to the bit prints
the same lines as its parent.  ``tests/record_digest.expected`` holds the two lines of the
current code, and CI compares the printed lines with it, so a change
that moves an iterate must update that file.  Not a test module: pytest
does not collect it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import custom_llp_jobs, period3_cycle, scaled_instance, table2_jobs  # noqa: E402

from drcopt.cli import METHODS  # noqa: E402
from drcopt.graph import complete, directed_cycle  # noqa: E402
from drcopt.problem import (  # noqa: E402
    ProblemInstance,
    case_study_instance,
    example1_constraint,
    paper_quadratic_constraint,
    with_numeric_llp,
)
from drcopt.sim import RunParams, run  # noqa: E402

SCALED_SCHEDULES = (
    (complete, 48),
    (directed_cycle, 96),
    (period3_cycle, 24),
    (directed_cycle, 192),
    (period3_cycle, 96),
)


def runs():
    """(label, instance, schedule, params) of every run the digest covers, in a fixed order."""
    for workload, jobs in (("table2", table2_jobs(0)), ("custom-llp", custom_llp_jobs(0))):
        for job in jobs:
            yield f"{workload}/{job.label}", job.instance, job.schedule, job.params
    for build, m in SCALED_SCHEDULES:
        instance = scaled_instance(m, 0)[0]
        schedule = build(m)
        for method in METHODS:
            yield f"{method}/{build.__name__}({m})", instance, schedule, RunParams(method=method)


def mixed_instance() -> ProblemInstance:
    """Three case-study objectives, centers (0, 6), (1, 1) and (-1, 1), with two constraint families.

    Agent 2 holds ``example1``'s constraint, agents 1 and 3 the paper
    quadratic with v = -0.5 and 0.5.  The first objective pulls x2 up, so
    every constraint takes cuts.
    """
    case_study = case_study_instance()
    return ProblemInstance(
        n=2,
        m=3,
        objectives=tuple(case_study.objectives[i] for i in (0, 2, 5)),
        constraints=(paper_quadratic_constraint(-0.5), example1_constraint(), paper_quadratic_constraint(0.5)),
        box=case_study.box,
    )


def mixed_runs():
    """(label, instance, schedule, params) of the mixed-family runs, in a fixed order."""
    closed = mixed_instance()
    numeric = with_numeric_llp(closed)
    only_example1 = dataclasses.replace(
        closed, constraints=(numeric.constraints[0], closed.constraints[1], numeric.constraints[2])
    )
    for llp, instance in (("analytic", closed), ("numeric", numeric), ("example1-analytic", only_example1)):
        for build in (directed_cycle, complete):
            for method in METHODS:
                yield f"{method}/{build.__name__}(3)/{llp}", instance, build(3), RunParams(method=method)


def encode(value) -> str:
    """A text form that tells every float apart by its bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(encode, value)) + ")"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}{value.tobytes().hex()}"
    return repr(value)


def digest(run_list) -> str:
    sha = hashlib.sha256()
    for label, instance, schedule, params in run_list:
        result = run(instance, schedule, params)
        sha.update(label.encode())
        for record in result.records:
            for f in dataclasses.fields(record):
                sha.update(f"{f.name}={encode(getattr(record, f.name))};".encode())
        sha.update(f"terminated={result.terminated};iterations={result.iterations};".encode())
        sha.update(f"x_opt={encode(result.x_opt)};".encode())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest(runs()))
    print(digest(mixed_runs()))
