"""Command-line front end: run experiments, reproduce the tables and figures."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import svgplot
from .bounds import accuracy_sweep, method1_accuracy
from .graph import TOPOLOGIES, InvalidSize, NotUniformlyConnected, schedule_from_config
from .llp import solve_llp  # noqa: F401  (unused here; perfbench/spans.py wraps drcopt.cli.solve_llp)
from .problem import (
    NumericalFailure,
    case_study_instance,
    instance_from_config,
    require_integer,
    require_real,
    with_numeric_llp,
)
from .sim import ConfigError, RunParams, RunResult, run

METHODS = ("I", "II")
TABLE2_TOPOLOGIES = ("cycle", "customized", "complete")
LLP_MODES = ("analytic", "numeric")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {path}: byte {exc.start} {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file must hold a JSON object, not {type(config).__name__}")
    return config


def _build_from_config(config: dict):
    keys = ("instance", "llp", "topology", "eps0", "r", "eps_f", "method", "max_iter")
    unknown = [key for key in config if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}; the keys are {', '.join(keys)}")
    instance_cfg = config.get("instance", "case-study")
    if instance_cfg == "case-study":
        instance = case_study_instance()
    elif not isinstance(instance_cfg, dict):
        raise ConfigError(f"bad 'instance' section: {instance_cfg!r} is neither \"case-study\" nor an object")
    else:
        try:
            instance = instance_from_config(instance_cfg)
        except KeyError as exc:
            raise ConfigError(f"bad 'instance' section: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad 'instance' section: {exc}") from None
    llp = config.get("llp", "analytic")
    if llp not in LLP_MODES:
        raise ConfigError(f"bad 'llp' field: {llp!r} is not one of {', '.join(LLP_MODES)}")
    if llp == "numeric":
        instance = with_numeric_llp(instance)
    topology = config.get("topology", "cycle")
    if isinstance(topology, str):
        topology = {"topology": topology, "m": instance.m}
    elif not isinstance(topology, dict):
        raise ConfigError(f"bad 'topology' field: {topology!r} is neither a topology name nor an object")
    keys = ("topology", "m", "slots") if topology.get("topology") == "explicit" else ("topology", "m")
    unknown = [key for key in topology if key not in keys]
    if unknown:
        raise ConfigError(f"bad 'topology' field: unknown key {unknown[0]!r}; the keys are {', '.join(keys)}")
    try:
        # Compare the agent counts before building: a schedule's size grows as m^2.
        m = require_integer(topology["m"], "m")
        if m != instance.m:
            raise ConfigError(f"bad 'topology' field: the schedule has {m} agents, the instance {instance.m}")
        schedule = schedule_from_config(topology)
    except KeyError as exc:
        raise ConfigError(f"bad 'topology' field: missing key {exc}") from None
    except (TypeError, ValueError, InvalidSize, NotUniformlyConnected) as exc:
        raise ConfigError(f"bad 'topology' field: {exc}") from None
    try:
        params = RunParams(
            eps0=require_real(config.get("eps0", RunParams.eps0), "eps0"),
            r=require_real(config.get("r", RunParams.r), "r"),
            eps_f=require_real(config.get("eps_f", RunParams.eps_f), "eps_f"),
            method=str(config.get("method", RunParams.method)),
            max_iter=config.get("max_iter", RunParams.max_iter),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run parameter: {exc}") from None
    return instance, schedule, params


def _write_trace_csv(path: Path, result: RunResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lower", "upper"])
        # An iteration without a finite upper bound writes "inf".
        for rec in result.records:
            writer.writerow([rec.k, f"{rec.lower:.10f}", f"{rec.upper:.10f}"])


def _result_summary(result: RunResult) -> dict:
    return {
        "terminated": result.terminated,
        "iterations": result.iterations,
        "method": result.method,
        "accuracy_bound": result.accuracy_bound,
        "final_lower": result.final_lower,
        "final_upper": result.final_upper if math.isfinite(result.final_upper) else None,
        "x_opt": [list(map(float, x)) for x in result.x_opt] if result.x_opt else None,
    }


def _out_dir(path) -> Path:
    """The ``--out`` directory, created if missing; a file in its way is a :class:`ConfigError`."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {path}: {exc.strerror}") from None
    return out


def _write_results(out: Path, summary: dict) -> None:
    with open(out / "results.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def _numerical_failure(exc: Exception) -> str:
    """Report a solver or invariant failure of a run; return its message."""
    message = str(exc) or type(exc).__name__
    print(f"error: numerical failure: {message}", file=sys.stderr)
    return message


def cmd_run(args) -> int:
    try:
        config = _load_config(args.config)
        instance, schedule, params = _build_from_config(config)
        result = run(instance, schedule, params)
    except NumericalFailure as exc:
        message = _numerical_failure(exc)
        out = _out_dir(args.out)
        # Leave no trace of an earlier run next to this run's error.
        (out / "trace.csv").unlink(missing_ok=True)
        (out / "trace.svg").unlink(missing_ok=True)
        _write_results(out, {"terminated": False, "error": message})
        return 3
    out = _out_dir(args.out)
    _write_results(out, _result_summary(result))
    _write_trace_csv(out / "trace.csv", result)
    # Leave no plot of an earlier run next to this run's trace.
    (out / "trace.svg").unlink(missing_ok=True)
    if args.plot:
        records = result.records
        uppers = [(rec.k, rec.upper) for rec in records if math.isfinite(rec.upper)]
        svgplot.write_line_chart(
            out / "trace.svg",
            [
                svgplot.Series("lower", [(rec.k, rec.lower) for rec in records], "black"),
                svgplot.Series("upper", uppers, "blue", dash="4 2"),
            ],
            x_label="iteration",
            y_label="objective bounds",
        )
    return 0 if result.terminated else 2


def _fixed(value: float, places: int, sign: str = "") -> str:
    """``value`` to ``places`` decimals, printing 0 for a value that rounds to -0."""
    return f"{round(float(value), places) + 0.0:{sign}.{places}f}"


def cmd_table2(args) -> int:
    try:
        params = {
            method: RunParams(eps0=args.eps0, r=args.r, eps_f=args.eps_f, method=method, max_iter=args.max_iter)
            for method in METHODS
        }
    except ValueError as exc:
        raise ConfigError(f"bad run parameter: {exc}") from None
    instance = case_study_instance()
    rows = []
    for method in METHODS:
        for topology in TABLE2_TOPOLOGIES:
            schedule = TOPOLOGIES[topology](instance.m)
            try:
                result = run(instance, schedule, params[method])
            except NumericalFailure as exc:
                _numerical_failure(exc)
                return 3
            # A run stops only when every upper verdict at its exit point
            # is feasible; a run that hit --max-iter has no exit point.
            feasible = result.terminated
            rows.append((method, topology, result, feasible))

    header = f"{'method':<8}{'topology':<12}{'iters':<7}{'lower':<12}{'upper':<12}{'feasible':<9}solution (agent 1)"
    print(header)
    print("-" * len(header))
    for method, topology, result, feasible in rows:
        solution = f"[{_fixed(result.x_opt[0][0], 4, '+')}, {_fixed(result.x_opt[0][1], 4, '+')}]" if result.terminated else ""
        print(
            f"{method:<8}{topology:<12}{result.iterations:<7}"
            f"{result.final_lower:<12.4f}{result.final_upper:<12.4f}"
            f"{'yes' if feasible else 'NO':<9}{solution}"
        )

    out = _out_dir(args.out)
    with open(out / "table2.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "topology", "iterations", "lower", "upper", "feasible"]
            + [f"x{i}_coord{j}" for i in range(1, instance.m + 1) for j in (1, 2)]
        )
        for method, topology, result, feasible in rows:
            if result.terminated:
                coords = [_fixed(c, 6) for x in result.x_opt for c in x]
            else:
                coords = [""] * (2 * instance.m)
            writer.writerow(
                [
                    method,
                    topology,
                    result.iterations,
                    f"{result.final_lower:.6f}",
                    f"{result.final_upper:.6f}",
                    feasible,
                ]
                + coords
            )
    return 0 if all(result.terminated for _, _, result, _ in rows) else 2


def _sweep_rows(m_max: float, eps_f: float):
    rows = []
    try:
        for name, gen in TOPOLOGIES.items():
            m_lo = 3 if name == "customized" else 2
            rows.extend(accuracy_sweep(name, gen, range(m_lo, int(m_max) + 1), eps_f))
    except ValueError as exc:
        raise ConfigError(f"bad --eps-f: {exc}") from None
    return rows


def _write_sweep_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["topology", "m", "T", "method1_bound", "method2_bound"])
        for row in rows:
            writer.writerow(
                [row.topology, row.m, row.window, f"{row.method1_bound:.10f}", f"{row.method2_bound:.10f}"]
            )


def cmd_sweep(args) -> int:
    if args.m_max < 2:
        raise ConfigError("sweep needs --m-max >= 2")
    rows = _sweep_rows(args.m_max, args.eps_f)
    out = _out_dir(args.out)
    _write_sweep_csv(out / "sweep.csv", rows)
    return 0


def cmd_fig3(args) -> int:
    if args.m_max < 3:
        raise ConfigError("fig3 needs --m-max >= 3")
    rows = _sweep_rows(args.m_max, args.eps_f)
    out = _out_dir(args.out)
    _write_sweep_csv(out / "fig3.csv", rows)

    ms = sorted({row.m for row in rows})
    series = [
        svgplot.Series("centralized", [(m, args.eps_f) for m in ms], "red", dash="6 3"),
        svgplot.Series(
            "method I", [(m, method1_accuracy(m, args.eps_f)) for m in ms], "green", dash="2 2"
        ),
    ]
    colors = {"cycle": "black", "customized": "blue", "complete": "grey"}
    for name in TABLE2_TOPOLOGIES:
        pts = [(row.m, row.method2_bound) for row in rows if row.topology == name]
        series.append(svgplot.Series(f"method II ({name})", pts, colors[name]))
    svgplot.write_line_chart(
        out / "fig3.svg",
        series,
        x_label="number of agents",
        y_label="accuracy bound",
        title="Accuracy of the approximate optimum vs agents",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drcopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--plot", action="store_true", help="also write trace.svg")
    p_run.set_defaults(func=cmd_run)

    p_t2 = sub.add_parser("table2", help="run all 6 topology x method case-study combinations")
    p_t2.add_argument("--out", default="out")
    p_t2.add_argument("--eps0", type=float, default=RunParams.eps0)
    p_t2.add_argument("--r", type=float, default=RunParams.r)
    p_t2.add_argument("--eps-f", dest="eps_f", type=float, default=RunParams.eps_f)
    p_t2.add_argument("--max-iter", dest="max_iter", type=int, default=RunParams.max_iter)
    p_t2.set_defaults(func=cmd_table2)

    p_f3 = sub.add_parser("fig3", help="accuracy-vs-agents sweep with SVG plot")
    p_f3.add_argument("--out", default="out")
    p_f3.add_argument("--m-max", dest="m_max", type=int, default=50)
    p_f3.add_argument("--eps-f", dest="eps_f", type=float, default=RunParams.eps_f)
    p_f3.set_defaults(func=cmd_fig3)

    p_sw = sub.add_parser("sweep", help="accuracy sweep, CSV only")
    p_sw.add_argument("--out", default="out")
    p_sw.add_argument("--m-max", dest="m_max", type=int, default=50)
    p_sw.add_argument("--eps-f", dest="eps_f", type=float, default=RunParams.eps_f)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command; a :class:`ConfigError` from any of them prints ``error: ...`` and exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
