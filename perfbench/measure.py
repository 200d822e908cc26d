"""One benchmark run: set up, measure closed-loop passes for a fixed time, verify.

A pass is the workload's list of ``run`` calls, made one after another;
the next pass starts when the previous one has returned.  Every call is
timed and every returned result is checked.  A call that raises or fails
a check counts as failed and as an infinite time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import drcopt.cli
import drcopt.sim
from checks import CASE_STUDY_OPTIMUM, Reference, check_run, fingerprint, reference_optimum
from drcopt.problem import CASE_STUDY_CENTERS
from spans import Tracer
from workloads import SETUPS, Job

SETUP_REPS = 3  # set-up rebuilds before each pass, so set-up is timed across the whole run
HERE = Path(__file__).resolve().parent
EXPECTED_TABLE2 = HERE / "expected_table2.csv"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

_sim_run = drcopt.sim.run
_cli_run = drcopt.cli.run
_stopping_round = drcopt.sim.run_stopping_round


@dataclass
class Call:
    job: Job
    wall: float
    cpu: float
    traced: bool
    segments: list[tuple[float, float]]  # (wall, cpu) of each outer iteration, then the exit checks
    result: object = None  # dropped once checked, so held results do not grow the heap
    error: str | None = None  # "Type: message at iteration k"
    problems: list[str] = field(default_factory=list)
    summary: tuple | None = None  # (iterations, slots, gap, scenarios held at exit)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def _describe(exc: BaseException) -> str:
    """Exception type and message, plus the outer iteration ``run`` was in."""
    where = ""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if frame.f_code is _sim_run.__code__ and "k" in frame.f_locals:
            where = f" at iteration {frame.f_locals['k']}"
    return f"{type(exc).__name__}: {exc}{where}"


class Bench:
    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.jobs = SETUPS[workload](seed)
        self.calls: list[Call] = []
        self.problems: list[str] = []  # failures that belong to no single call
        self.tracer: Tracer | None = None  # set when measuring with tracing
        self.setup_tracer: Tracer | None = None  # spans of the traced set-up rebuilds
        self.traced_setups = 0
        self._active: Tracer | None = None  # the tracer of the current pass, if traced
        self._refs: dict[bytes, Reference] = {}
        self._first: dict[str, tuple] = {}
        self._pass: list[Call] = []
        self._marks: list[tuple[float, float]] = []
        self.setup_walls: list[float] = []
        for job in self.jobs:
            self._reference(job)

    def _reference(self, job: Job) -> Reference:
        key = job.centers.tobytes() + job.v.tobytes()
        if key not in self._refs:
            ref = self._refs[key] = reference_optimum(job.centers, job.v)
            if np.array_equal(job.centers, np.array(CASE_STUDY_CENTERS)) and not (
                abs(ref.value - CASE_STUDY_OPTIMUM) <= ref.resolution
            ):
                self.problems.append(f"reference {ref.value!r} does not reproduce F* = {CASE_STUDY_OPTIMUM!r}")
        return self._refs[key]

    # -- one run call ------------------------------------------------------

    def _mark_iteration(self, *args, **kwargs):
        """Stand-in for the stopping round, which ends every outer iteration."""
        out = _stopping_round(*args, **kwargs)
        self._marks.append((time.perf_counter(), time.process_time()))
        return out

    def _probe(self, instance, schedule, params):
        """Stand-in for ``run``: times the call and keeps its outcome."""
        job = self.jobs[len(self._pass)]
        tracer = self._active
        span = tracer.open("sim.run") if tracer else None
        self._marks = [(time.perf_counter(), time.process_time())]
        try:
            result = _sim_run(instance, schedule, params)
        except Exception as exc:
            self._pass.append(self._call(job, error=_describe(exc)))
            raise
        finally:
            if span is not None:
                tracer.close(span)
        self._pass.append(self._call(job, result=result))
        return result

    def _call(self, job: Job, **outcome) -> Call:
        marks = self._marks + [(time.perf_counter(), time.process_time())]
        segments = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])]
        wall, cpu = marks[-1][0] - marks[0][0], marks[-1][1] - marks[0][1]
        return Call(job, wall, cpu, self._active is not None, segments, **outcome)

    # -- one pass ----------------------------------------------------------

    def _table2_pass(self) -> None:
        drcopt.cli.run = self._probe
        tracer = self._active
        span = tracer.open("cli.main") if tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = drcopt.cli.main(["table2", "--out", str(self.out_dir)])
        finally:
            if span is not None:
                tracer.close(span)
            drcopt.cli.run = _cli_run
        if code != 0:
            self._fail_pass(f"drcopt table2 exited with {code}")
        elif (self.out_dir / "table2.csv").read_bytes() != EXPECTED_TABLE2.read_bytes():
            self._fail_pass("table2.csv differs from the bytes the seed commit writes")

    def _runs_pass(self) -> None:
        for job in self.jobs:
            self._probe(job.instance, job.schedule, job.params)

    def _fail_pass(self, problem: str) -> None:
        for call in self._pass:
            call.problems.append(problem)

    def one_pass(self, traced: bool) -> None:
        self._pass = []
        self._active = self.tracer if traced else None
        if traced:
            self.tracer.install()
        try:
            (self._table2_pass if self.workload == "table2" else self._runs_pass)()
        except Exception as exc:
            # The call that raised has recorded itself; anything raised
            # outside a run call fails the calls of this pass.
            if not self._pass or self._pass[-1].error is None:
                self._fail_pass(f"pass raised {_describe(exc)}")
        finally:
            if traced:
                self.tracer.uninstall()
            self._active = None
        for call in self._pass:
            result, call.result = call.result, None
            if result is None:
                continue
            call.problems.extend(check_run(call.job, result, self._reference(call.job)))
            if result.terminated:
                first = self._first.setdefault(call.job.label, fingerprint(result))
                if fingerprint(result) != first:
                    call.problems.append("result differs from the first run of this job")
            call.summary = (
                result.iterations,
                sum(r.slots_consumed for r in result.records),
                result.final_upper - result.final_lower,
                sum(len(s.lower_scenarios) + len(s.upper_scenarios) for s in result.final_states),
            )
        self.calls.extend(self._pass)

    def measure(self, seconds: float, trace: bool) -> None:
        """Closed loop for ``seconds``; with ``trace`` every other pass is traced."""
        if trace:
            self.tracer, self.setup_tracer = Tracer(), Tracer()
        drcopt.sim.run_stopping_round = self._mark_iteration
        try:
            start = time.perf_counter()
            n = 0
            while n < (2 if trace else 1) or time.perf_counter() - start < seconds:
                traced = trace and n % 2 == 1
                if traced:
                    self.traced_setups += len(self.setup_times(self.setup_tracer))
                else:
                    self.setup_walls += self.setup_times()
                self.one_pass(traced)
                n += 1
        finally:
            drcopt.sim.run_stopping_round = _stopping_round

    # -- set-up ------------------------------------------------------------

    def setup_times(self, tracer: Tracer | None = None) -> list[float]:
        """Wall time of each of SETUP_REPS rebuilds of the workload's inputs."""
        times = []
        if tracer:
            tracer.install()
        try:
            for _ in range(SETUP_REPS):
                t0 = time.perf_counter()
                SETUPS[self.workload](self.seed)
                times.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        return times

    # -- summaries ---------------------------------------------------------

    def failures(self) -> list[str]:
        lines = list(self.problems)
        for call in self.calls:
            if not call.ok:
                lines.extend(f"{call.job.label}: {p}" for p in ([call.error] if call.error else []) + call.problems)
        return lines


def _median(values):
    return statistics.median(values) if values else None


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _best_per_job(calls: list[Call], part: int) -> float | None:
    """Median over jobs of each job's best-case time; a job with a failed call counts as +inf.

    Every call of a job does the same work, iteration by iteration (the
    determinism check holds them to it), so a job's best case is the sum
    over its outer iterations of the fastest time each took in any call.
    """
    per_job: dict[str, list[Call]] = {}
    for c in calls:
        per_job.setdefault(c.job.label, []).append(c)
    best = [
        sum(min(seg[part] for seg in segs) for segs in zip(*(c.segments for c in job_calls)))
        if all(c.ok for c in job_calls)
        else math.inf
        for job_calls in per_job.values()
    ]
    return _finite(_median(best))


def end_to_end(bench: Bench) -> tuple[dict, dict]:
    """The benchmark's end-to-end metrics, and the per-call figures shown beside them.

    Host load on a small shared machine moves a per-call median by tens
    of percent from one minute to the next, and even the fastest call of
    a job by up to 60% when a call lasts 0.4 s; the fastest time of each
    outer iteration moves far less, so the gated times are best-case.
    """
    calls = bench.calls
    ok = [c for c in calls if c.ok]
    walls = sorted(c.wall if c.ok else math.inf for c in calls)
    metrics = {
        "run_best_s": (_best_per_job(calls, 0), "s"),
        "cpu_best_s": (_best_per_job(calls, 1), "s"),
        "iterations": (_median([c.summary[0] for c in ok]), "count"),
        "slots": (_median([c.summary[1] for c in ok]), "count"),
        "gap": (_median([c.summary[2] for c in ok]), "obj"),
        "setup_s": (_median(bench.setup_walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_call = {
        "fail_ratio": (len(calls) - len(ok)) / len(calls),
        "run_s": _finite(_median(walls)),
        "cpu_s": _median([c.cpu for c in ok]),
        "samples": len(calls),
        # the highest percentile with at least ten samples beyond it
        "run_p90_s": _finite(walls[int(0.9 * len(walls))]) if len(walls) >= 100 else None,
    }
    return metrics, per_call


def per_layer(bench: Bench) -> dict:
    tracer, setup_tracer = bench.tracer, bench.setup_tracer
    traced = [c for c in bench.calls if c.traced]
    untraced = [c for c in bench.calls if not c.traced]
    n = len(traced)
    total, own, k = tracer.totals(), tracer.self_times(), tracer.counts
    root = tracer.root_time()
    if abs(sum(own.values()) - root) > 1e-6 * root:
        bench.problems.append(f"self times sum to {sum(own.values())!r}, traced wall is {root!r}")
    cuts_final = sum(c.summary[3] for c in traced if c.summary)
    per_run = lambda x: x / n  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    return {
        "solver.solve_s": (per_run(total.get("solver.solve", 0.0)), "s"),
        "solver.minimize_s": (per_run(total.get("solver.minimize", 0.0)), "s"),
        "solver.solve_calls": (per_run(k["solve_calls"]), "count"),
        "solver.outer_iters": (per_run(k["outer_iters"]), "count"),
        "solver.inner_calls": (per_run(k["inner_calls"]), "count"),
        "solver.inner_iters": (per_run(k["inner_iters"]), "count"),
        "solver.fun_grad_calls": (per_run(k["fun_grad_calls"]), "count"),
        "solver.cuts_per_solve": (ratio(k["solve_cuts"], k["solve_calls"]), "count"),
        "solver.not_optimal": (per_run(k["not_optimal"]), "count"),
        "llp.solve_s": (per_run(total.get("llp.solve", 0.0)), "s"),
        "llp.calls": (per_run(k["llp_calls"]), "count"),
        "consensus.flood_s": (per_run(total.get("consensus.flood", 0.0)), "s"),
        "consensus.flood_calls": (per_run(k["flood_calls"]), "count"),
        "consensus.flood_slots": (per_run(k["flood_slots"]), "count"),
        "consensus.union_cuts": (ratio(k["union_cuts"], k["flood_calls"]), "count"),
        "consensus.self_s": (per_run(own.get("consensus.solve", 0.0)), "s"),
        "termination.stop_s": (per_run(total.get("termination.stop", 0.0)), "s"),
        "termination.stop_rounds": (per_run(k["stop_rounds"]), "count"),
        "termination.stop_slots": (per_run(k["stop_slots"]), "count"),
        "agents.oracle_s": (per_run(total.get("agents.oracle", 0.0)), "s"),
        "agents.oracle_calls": (per_run(k["oracle_calls"]), "count"),
        "agents.violated_ratio": (ratio(k["violated"], k["oracle_calls"]), "1"),
        "agents.cuts_final": (per_run(cuts_final), "count"),
        "graph.make_schedule_s": (setup_tracer.totals().get("graph.make_schedule", 0.0) / bench.traced_setups, "s"),
        "graph.window": (setup_tracer.counts["window"], "count"),
        "sim.self_s": (per_run(own.get("sim.run", 0.0)), "s"),
        "cli.self_s": (per_run(own.get("cli.main", 0.0)), "s"),
        "trace.overhead_s": (_median([c.wall for c in traced]) - _median([c.wall for c in untraced]), "s"),
    }


def environment() -> dict:
    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def bench_run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and lines for the reader."""
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        bench = Bench(workload, seed, Path(tmp))
        bench.measure(seconds, trace)
        metrics, per_call = (per_layer(bench), {}) if trace else end_to_end(bench)
    failures = bench.failures()
    calls = bench.calls
    failed = sum(not c.ok for c in calls)
    lines = [f"FAILED {failures.count(f)}x {f}" for f in sorted(set(failures))]
    lines.append(f"runs {len(calls)} attempted, {failed} failed")
    if per_call:
        lines.append("per_call " + json.dumps(per_call))
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines
