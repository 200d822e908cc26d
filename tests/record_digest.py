"""One SHA-256 over the records of the benchmark's runs and of the scaled runs.

Run from the root of a checkout, with the package on the path::

    PYTHONPATH=src python tests/record_digest.py

The runs are the six ``table2`` jobs and the four ``custom-llp`` jobs of
``perfbench/workloads.py``, and ``scaled_instance`` at seed 0 on
``complete(48)``, ``directed_cycle(96)``, ``period3_cycle(24)``,
``directed_cycle(192)`` and ``period3_cycle(96)``, each with both
methods.  The digest covers every field of every
``IterationRecord`` (floats as ``float.hex``), ``terminated``,
``iterations`` and the bytes of ``x_opt``; it is the one printed line.
Runs are deterministic, so two processes print the same line, whatever
their ``PYTHONHASHSEED``; a change that keeps every iterate to the bit
prints the same line as its parent.  Not a test module: pytest does not
collect it.
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
    for job in table2_jobs(0) + custom_llp_jobs(0):
        yield job.label, job.instance, job.schedule, job.params
    for build, m in SCALED_SCHEDULES:
        instance = scaled_instance(m, 0)[0]
        schedule = build(m)
        for method in METHODS:
            yield f"{method}/{build.__name__}({m})", instance, schedule, RunParams(method=method)


def encode(value) -> str:
    """A text form that tells every float apart by its bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(encode, value)) + ")"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}{value.tobytes().hex()}"
    return repr(value)


def digest() -> str:
    sha = hashlib.sha256()
    for label, instance, schedule, params in runs():
        result = run(instance, schedule, params)
        sha.update(label.encode())
        for record in result.records:
            for f in dataclasses.fields(record):
                sha.update(f"{f.name}={encode(getattr(record, f.name))};".encode())
        sha.update(f"terminated={result.terminated};iterations={result.iterations};".encode())
        sha.update(f"x_opt={encode(result.x_opt)};".encode())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
