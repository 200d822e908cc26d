"""One run of the scaled case study on ``directed_cycle(m)``, checked by the benchmark's result checks.

Run from the root of a checkout, with the package on the path; the
optional second argument is the stopping method, I (the default) or II,
and an optional third argument ``numeric`` drops every closed-form
maximizer, so that each lower-level problem takes the numeric path;
``numeric-scan`` also declares every member not concave, so that each
reads its whole grid::

    PYTHONPATH=src python tests/scale_check.py 131072
    PYTHONPATH=src python tests/scale_check.py 131072 II
    PYTHONPATH=src python tests/scale_check.py 8192 I numeric
    PYTHONPATH=src python tests/scale_check.py 512 I numeric-scan

The instance is ``scaled_instance(m, 0)`` of ``perfbench/workloads.py``.
The script prints the run's wall time, iterations and final cut count,
then every problem ``perfbench/checks.check_run`` reports, and exits 1
when there is one.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import check_run, reference_optimum  # noqa: E402
from workloads import Job, scaled_instance  # noqa: E402

from drcopt.graph import directed_cycle  # noqa: E402
from drcopt.problem import with_numeric_llp  # noqa: E402
from drcopt.sim import RunParams, run  # noqa: E402


def main(argv: list[str]) -> int:
    m = int(argv[0]) if argv else 131_072
    method = argv[1] if len(argv) > 1 else "I"
    llp = argv[2] if len(argv) > 2 else ""
    if llp not in ("", "numeric", "numeric-scan"):
        raise SystemExit(f"the third argument must be 'numeric' or 'numeric-scan', got {llp!r}")
    instance, centers, v = scaled_instance(m, 0)
    if llp:
        instance = with_numeric_llp(instance)
    if llp == "numeric-scan":
        scan = tuple(dataclasses.replace(c, concave_in_y=False) for c in instance.constraints)
        instance = dataclasses.replace(instance, constraints=scan)
    schedule = directed_cycle(m)
    params = RunParams(method=method)
    start = time.perf_counter()
    result = run(instance, schedule, params)
    seconds = time.perf_counter() - start
    cuts = sum(len(s.lower_scenarios) + len(s.upper_scenarios) for s in result.final_states)
    label = {"": "", "numeric": ", numeric LLP", "numeric-scan": ", numeric LLP, whole-grid scan"}[llp]
    print(f"directed_cycle({m}), Method {method}{label}: {seconds:.2f} s, {result.iterations} iterations, {cuts} cuts")
    # (x1 - v)^2 is convex in v, so over the sorted offsets the discs at the
    # two extremes cut out the same feasible set as all m: the reference
    # optimum over them is the one over all m, without m grid passes.
    job = Job(f"{method}/cycle-m{m}", instance, schedule, params, 1, centers, v)
    problems = check_run(job, result, reference_optimum(centers, v[[0, -1]]))
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
