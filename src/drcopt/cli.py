"""Command-line front end: run experiments, reproduce the tables and figures.

The one reader of the ``drcopt run`` config format: :func:`_build_from_config`.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import graph, svgplot
from .bounds import accuracy_sweep, method1_accuracy
from .graph import TOPOLOGIES, InvalidSize, NotUniformlyConnected
from .llp import solve_llp  # noqa: F401  (unused here; perfbench/spans.py wraps drcopt.cli.solve_llp)
from .problem import (
    NumericalFailure,
    ProblemInstance,
    case_study_instance,
    example1_constraint,
    paper_quadratic_constraint,
    quadratic_distance,
    require_integer,
    require_real,
    with_numeric_llp,
)
from .sim import ConfigError, RunParams, RunResult, run

METHODS = ("I", "II")
TABLE2_TOPOLOGIES = ("cycle", "customized", "complete")
LLP_MODES = ("analytic", "numeric")
CONFIG_KEYS = ("instance", "llp", "topology", "eps0", "r", "eps_f", "method", "max_iter")
# Constraint kind -> (keys, required keys, constructor); the constructor
# takes the keys other than "kind" as real keyword arguments.
CONSTRAINT_KINDS = {
    "paper-quadratic": (("kind", "v"), ("kind", "v"), paper_quadratic_constraint),
    "example1": (("kind", "y_upper"), ("kind",), example1_constraint),
}


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


def _read(prefix: str, build, *args):
    """``build(*args)``; its ``TypeError``, ``ValueError`` or schedule error becomes a ConfigError."""
    try:
        return build(*args)
    except (TypeError, ValueError, InvalidSize, NotUniformlyConnected) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _section(value, where: str, keys: tuple[str, ...] | None, required: tuple[str, ...] | None = None) -> dict:
    """``value``, checked to be an object with no key outside ``keys`` (unless None) and each of ``required``.

    ``required`` defaults to ``keys``.  The one check of every config
    object; an unknown key is reported before a missing one.
    """
    if not isinstance(value, dict):
        raise TypeError(f"{where} must be an object, got {value!r}")
    unknown = [] if keys is None else [key for key in value if key not in keys]
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}; the keys are {', '.join(keys)}")
    missing = [key for key in (keys if required is None else required) if key not in value]
    if missing:
        raise ValueError(f"missing key {missing[0]!r} in the {where}")
    return value


def _reals(values, name: str) -> np.ndarray:
    """A (nested) list of real numbers as a float array; ValueError on any other entry."""
    array = np.asarray(values, dtype=object)
    for value in array.flat:
        require_real(value, name)
    return array.astype(float)


def _agent(spec, n: int):
    """One agent's (objective, constraint) from its config object."""
    _section(spec, "agent", ("objective", "constraint"))
    objective = _section(spec["objective"], "objective", ("kind", "center"))
    if objective["kind"] != "quadratic-distance":
        raise ValueError(f"unknown objective kind {objective['kind']!r}")
    center = _reals(objective["center"], "objective center entry")
    if center.shape != (n,):
        raise ValueError("objective center has wrong dimension")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"objective center must be finite, got {center.tolist()}")
    kind = _section(spec["constraint"], "constraint", None, ("kind",))["kind"]
    if not isinstance(kind, str) or kind not in CONSTRAINT_KINDS:
        raise ValueError(f"unknown constraint kind {kind!r}")
    keys, required, build = CONSTRAINT_KINDS[kind]
    fields = _section(spec["constraint"], f"{kind} constraint", keys, required)
    constraint = build(**{key: require_real(value, f"{kind} {key}") for key, value in fields.items() if key != "kind"})
    return quadratic_distance(center), constraint


def _instance(section) -> ProblemInstance:
    """The case study, or an instance of quadratic-distance objectives and ``CONSTRAINT_KINDS`` constraints.

    Both constraint kinds are functions of (x1, x2), so n must be 2.  An
    error in an agent's entry names the agent, counted from 1.
    """
    if section == "case-study":
        return case_study_instance()
    if not isinstance(section, dict):
        raise TypeError(f'{section!r} is neither "case-study" nor an object')
    _section(section, "instance", ("n", "m", "box", "agents"))
    n = require_integer(section["n"], "n")
    if n != 2:
        raise ValueError(f"the built-in constraint kinds need n = 2, got n = {n}")
    m = require_integer(section["m"], "m")
    box = _reals(section["box"], "box entry")
    agents = section["agents"]
    if not isinstance(agents, list):
        raise TypeError(f"agents must be a list of agent objects, got {agents!r}")
    if len(agents) != m:
        raise ValueError(f"config declares m={m} but lists {len(agents)} agents")
    objectives, constraints = [], []
    for a, spec in enumerate(agents, start=1):
        try:
            objective, constraint = _agent(spec, n)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"{exc} (agent {a})") from None
        objectives.append(objective)
        constraints.append(constraint)
    return ProblemInstance(n=n, m=m, objectives=tuple(objectives), constraints=tuple(constraints), box=box)


def _with_llp(llp, instance: ProblemInstance) -> ProblemInstance:
    """``instance`` for the ``llp`` mode: as it is, or with its closed-form maximizers dropped."""
    if llp not in LLP_MODES:
        raise ValueError(f"{llp!r} is not one of {', '.join(LLP_MODES)}")
    return with_numeric_llp(instance) if llp == "numeric" else instance


def _schedule(topology, m: int):
    """The schedule of a ``topology`` field, a name or an object, for an instance of ``m`` agents."""
    if isinstance(topology, str):
        topology = {"topology": topology, "m": m}
    elif not isinstance(topology, dict):
        raise TypeError(f"{topology!r} is neither a topology name nor an object")
    explicit = topology.get("topology") == "explicit"
    _section(topology, "topology", ("topology", "m", "slots") if explicit else ("topology", "m"))
    # Compare the agent counts before building: a schedule's size grows as m^2.
    if require_integer(topology["m"], "m") != m:
        raise ValueError(f"the schedule has {topology['m']} agents, the instance {m}")
    name = topology["topology"]
    if not isinstance(name, str):
        raise TypeError(f"topology must be a name, got {name!r}")
    if explicit:
        return graph.make_schedule(m, topology["slots"])
    if name not in TOPOLOGIES:
        raise ValueError(f"unknown topology {name!r}")
    return TOPOLOGIES[name](m)


def _run_params(config: dict) -> RunParams:
    """The run parameters of a config; a key it leaves out takes its ``RunParams`` default."""
    reals = {key: require_real(config[key], key) for key in ("eps0", "r", "eps_f") if key in config}
    return RunParams(**reals, **{key: config[key] for key in ("method", "max_iter") if key in config})


def _build_from_config(config: dict):
    """``(instance, schedule, params)`` of a run config; an error in any section is a :class:`ConfigError`."""
    _read("", _section, config, "config", CONFIG_KEYS, ())
    instance = _read("bad 'instance' section: ", _instance, config.get("instance", "case-study"))
    instance = _read("bad 'llp' field: ", _with_llp, config.get("llp", "analytic"), instance)
    schedule = _read("bad 'topology' field: ", _schedule, config.get("topology", "cycle"), instance.m)
    return instance, schedule, _read("bad run parameter: ", _run_params, config)


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
    params = {method: _read("bad run parameter: ", _run_params, {**vars(args), "method": method}) for method in METHODS}
    instance = case_study_instance()
    rows = []
    for method in METHODS:
        for topology in TABLE2_TOPOLOGIES:
            schedule = TOPOLOGIES[topology](instance.m)
            try:
                rows.append((method, topology, run(instance, schedule, params[method])))
            except NumericalFailure as exc:
                _numerical_failure(exc)
                return 3

    # A run stops only when every upper verdict at its exit point is
    # feasible, so the feasible column reads whether it terminated; a run
    # that hit --max-iter has no exit point.
    header = f"{'method':<8}{'topology':<12}{'iters':<7}{'lower':<12}{'upper':<12}{'feasible':<9}solution (agent 1)"
    print(header)
    print("-" * len(header))
    for method, topology, result in rows:
        solution = f"[{_fixed(result.x_opt[0][0], 4, '+')}, {_fixed(result.x_opt[0][1], 4, '+')}]" if result.terminated else ""
        print(
            f"{method:<8}{topology:<12}{result.iterations:<7}"
            f"{result.final_lower:<12.4f}{result.final_upper:<12.4f}"
            f"{'yes' if result.terminated else 'NO':<9}{solution}"
        )

    out = _out_dir(args.out)
    with open(out / "table2.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "topology", "iterations", "lower", "upper", "feasible"]
            + [f"x{i}_coord{j}" for i in range(1, instance.m + 1) for j in (1, 2)]
        )
        for method, topology, result in rows:
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
                    result.terminated,
                ]
                + coords
            )
    return 0 if all(result.terminated for _, _, result in rows) else 2


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
