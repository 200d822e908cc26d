"""drcopt benchmark: verified time to solution and per-layer costs.

Run from the root of a drcopt checkout; the package is imported from its
``src/`` directory.

One workload, one run (the last line of standard output is the result)::

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics: ``run_best_s`` and
``cpu_best_s`` (wall and process CPU time of a ``run`` call: each job's
fastest verified call, median over the workload's jobs), ``iterations``,
``slots`` and ``gap`` (medians over verified calls), ``setup_s`` (median
time to build the inputs and schedules) and ``peak_rss_mb``.  The per-call
medians ``run_s`` and ``cpu_s``, their sample count and ``fail_ratio`` are
printed beside them.  ``--trace 1`` reports the per-layer metrics, per
``run`` call, from spans recorded around each module boundary (see
``spans.py``); untraced and traced passes alternate, and their difference
is ``trace.overhead_s``.  The exit code is 1 when any run or check fails,
2 when the package is not found.

Every workload, untraced then traced, as one table::

    python3 perfbench/run.py --report [--seed 0] [--seconds 60] [--out results.json]

Workloads:

- ``table2``: the six case-study runs of ``drcopt table2``, through
  ``drcopt.cli.main``.  The paper's headline experiment; the solver does
  almost all the work.
- ``custom-llp``: the case study with every closed-form maximizer
  removed, on the directed cycle and on a period-3 cycle (T = 3), both
  methods.  The numeric lower-level problem does most of the work.
- ``dense-m48``: 48 generated agents on the complete digraph, Method I.
  Communication costs as much as solving.  At seed 0 it stops with the
  lower-bound monotonicity defect, which it reports as a failed run.

The case-study workloads have fixed inputs; the seed only matters to the
generator of ``dense-m48``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table2", "custom-llp", "dense-m48")
RUN_TIMEOUT_S = 900
PER_CALL_UNITS = {"fail_ratio": "1", "run_s": "s", "cpu_s": "s", "samples": "count", "run_p90_s": "s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--out", help="with --report, also write the collected results as JSON")
    args = parser.parse_args(argv)
    if not args.report and args.workload is None:
        parser.error("--workload is required unless --report is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _format(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def one_workload(args) -> int:
    from measure import bench_run, environment

    result, lines = bench_run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("\n".join(lines))
    for name, metric in result["metrics"].items():
        print(f"{name} {_format(metric['value'])} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    collected = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                raise SystemExit(f"error: {workload} trace {trace} exited with {proc.returncode}")
            env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
            entry = collected.setdefault(workload, {"env": env, "failures": []})
            entry["failures"] += [f"trace {trace}: {ln}" for ln in lines if ln.startswith("FAILED ")]
            entry["trace" if trace else "end_to_end"] = json.loads(lines[-1])
            if not trace:
                entry["per_call"] = next(json.loads(ln[9:]) for ln in lines if ln.startswith("per_call "))

    print(f"seed {args.seed}, {args.seconds:g} s per run; env {json.dumps(collected[WORKLOADS[0]]['env'])}")
    for section in ("end_to_end", "trace"):
        first = collected[WORKLOADS[0]]
        rows = [(n, m["unit"]) for n, m in first[section]["metrics"].items()]
        if section == "end_to_end":
            rows = [(n, PER_CALL_UNITS[n]) for n in first["per_call"]] + rows
        print()
        print(f"{'metric':<26}{'unit':<7}" + "".join(f"{w:>14}" for w in WORKLOADS))
        for name, unit in rows:
            cells = []
            for w in WORKLOADS:
                entry = collected[w]
                value = entry["per_call"][name] if name in PER_CALL_UNITS else entry[section]["metrics"][name]["value"]
                cells.append(f"{_format(value):>14}")
            print(f"{name:<26}{unit:<7}" + "".join(cells))
    print()
    for w in WORKLOADS:
        layer = {n: m["value"] for n, m in collected[w]["trace"]["metrics"].items()}
        comm = layer["consensus.flood_s"] + layer["termination.stop_s"] + layer["consensus.self_s"]
        print(
            f"{w}: per traced run, solver {layer['solver.solve_s']:.4g} s, llp {layer['llp.solve_s']:.4g} s, "
            f"flooding + stopping + consensus self {comm:.4g} s"
        )
    ok = True
    for w in WORKLOADS:
        for line in sorted(set(collected[w]["failures"])):
            print(f"{w}: {line}")
        ok &= collected[w]["end_to_end"]["correct"] and collected[w]["trace"]["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": collected}, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "drcopt" / "__init__.py").is_file():
        print(f"error: no drcopt package under {ROOT / 'src'}; run from a drcopt checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return report(args) if args.report else one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
