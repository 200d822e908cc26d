import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import drcopt.agents
import drcopt.cli
import drcopt.graph
from drcopt.cli import _build_from_config, build_parser, main
from drcopt.problem import NumericalFailure
from drcopt.sim import RunParams

from helpers import F_STAR

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
    config = {"topology": "cycle", "method": "I"}
    config.update(overrides)
    path.write_text(json.dumps(config))
    return str(path)


def two_agent_instance(n=2, center=None, constraint=None):
    """A two-agent instance config of the built-in kinds in dimension n."""
    box = [[-2.0, 2.0], [-1.0, 1.0], [-1.0, 1.0]][:n]
    return {
        "n": n,
        "m": 2,
        "box": box,
        "agents": [
            {
                "objective": {"kind": "quadratic-distance", "center": center or [0.0] * n},
                "constraint": constraint or {"kind": "paper-quadratic", "v": v},
            }
            for v in (-0.5, 0.5)
        ],
    }


AGENT = {"objective": {"kind": "quadratic-distance", "center": [0.0, 0.0]}, "constraint": {"kind": "example1"}}

MALFORMED_CONFIGS = {
    "not-an-object": ([], "must hold a JSON object"),
    "misspelled-key": ({"eps_F": 0.5, "metod": "II"}, "unknown config key 'eps_F'"),
    "instance-at-top-level": (two_agent_instance(), "unknown config key 'n'"),
    "instance-not-an-object": ({"instance": "foo"}, "bad 'instance' section"),
    "agents-a-string": ({"instance": {**two_agent_instance(), "agents": "xx"}}, "bad 'instance' section"),
    "agents-not-objects": ({"instance": {**two_agent_instance(), "agents": [1, 2]}}, "bad 'instance' section"),
    "n-1": ({"instance": two_agent_instance(n=1)}, "need n = 2"),
    "n-3": ({"instance": two_agent_instance(n=3)}, "need n = 2"),
    # json.dumps writes NaN and Infinity, which json.load reads back as floats.
    "v-nan": (
        {"instance": two_agent_instance(constraint={"kind": "paper-quadratic", "v": float("nan")})},
        "v must be finite",
    ),
    "center-inf": ({"instance": two_agent_instance(center=[0.0, float("inf")])}, "center must be finite"),
    "inverted-uncertainty-box": (
        {"instance": two_agent_instance(constraint={"kind": "example1", "y_upper": -1})},
        "y_upper must be positive and finite",
    ),
    "n-float": ({"instance": {**two_agent_instance(), "n": 2.0}}, "n must be an integer, got 2.0"),
    "m-float": ({"instance": {**two_agent_instance(), "m": 2.7}}, "m must be an integer, got 2.7"),
    "m-string": ({"instance": {**two_agent_instance(), "m": "2"}}, "m must be an integer, got '2'"),
    "m-bool": ({"instance": {**two_agent_instance(), "m": True}}, "m must be an integer, got True"),
    "v-bool": (
        {"instance": two_agent_instance(constraint={"kind": "paper-quadratic", "v": True})},
        "v must be a real number, got True",
    ),
    "v-string": (
        {"instance": two_agent_instance(constraint={"kind": "paper-quadratic", "v": "0.5"})},
        "v must be a real number, got '0.5'",
    ),
    "y-upper-bool": (
        {"instance": two_agent_instance(constraint={"kind": "example1", "y_upper": True})},
        "y_upper must be a real number, got True",
    ),
    "box-bool-and-string": (
        {"instance": {**two_agent_instance(), "box": [[True, 2], ["-1", 1]]}},
        "box entry must be a real number, got True",
    ),
    "box-string": (
        {"instance": {**two_agent_instance(), "box": [[-2, 2], ["-1", 1]]}},
        "box entry must be a real number, got '-1'",
    ),
    "center-bool-and-string": (
        {"instance": two_agent_instance(center=[True, "1"])},
        "center entry must be a real number, got True",
    ),
    "center-string": (
        {"instance": two_agent_instance(center=[0.0, "1"])},
        "center entry must be a real number, got '1'",
    ),
    "instance-unknown-key": (
        {"instance": {**two_agent_instance(), "window": 3}},
        "unknown instance key 'window'; the keys are n, m, box, agents",
    ),
    "agent-unknown-key": (
        {"instance": {**two_agent_instance(), "agents": [{**AGENT, "weight": 2}] * 2}},
        "unknown agent key 'weight'; the keys are objective, constraint",
    ),
    "objective-unknown-key": (
        {"instance": {**two_agent_instance(), "agents": [{**AGENT, "objective": {**AGENT["objective"], "centre": 1}}] * 2}},
        "unknown objective key 'centre'; the keys are kind, center",
    ),
    "example1-misspelled-y-upper": (
        {"instance": two_agent_instance(constraint={"kind": "example1", "y_uper": 0.5})},
        "unknown example1 constraint key 'y_uper'; the keys are kind, y_upper",
    ),
    "paper-quadratic-unknown-key": (
        {"instance": two_agent_instance(constraint={"kind": "paper-quadratic", "v": 0.5, "y_upper": 2})},
        "unknown paper-quadratic constraint key 'y_upper'; the keys are kind, v",
    ),
    "constraint-missing-kind": (
        {"instance": two_agent_instance(constraint={"v": 0.5})},
        "bad 'instance' section: missing key 'kind' in the constraint (agent 1)",
    ),
    "agent-missing-constraint": (
        {"instance": {**two_agent_instance(), "agents": [{"objective": AGENT["objective"]}] * 2}},
        "bad 'instance' section: missing key 'constraint'",
    ),
    "agents-null": ({"instance": {**two_agent_instance(), "agents": None}}, "agents must be a list of agent objects, got None"),
    "constraint-a-list": (
        {"instance": two_agent_instance(constraint=[1])},
        "bad 'instance' section: constraint must be an object, got [1] (agent 1)",
    ),
    "constraint-a-string": (
        {"instance": two_agent_instance(constraint="x")},
        "bad 'instance' section: constraint must be an object, got 'x' (agent 1)",
    ),
    "objective-missing-kind": (
        {"instance": {**two_agent_instance(), "agents": [AGENT, {**AGENT, "objective": {"center": [0.0, 6.0]}}]}},
        "bad 'instance' section: missing key 'kind' in the objective (agent 2)",
    ),
    "objective-missing-center": (
        {"instance": {**two_agent_instance(), "agents": [{**AGENT, "objective": {"kind": "quadratic-distance"}}] * 2}},
        "missing key 'center' in the objective (agent 1)",
    ),
    "paper-quadratic-missing-v": (
        {"instance": two_agent_instance(constraint={"kind": "paper-quadratic"})},
        "missing key 'v' in the paper-quadratic constraint (agent 1)",
    ),
    "topology-name-a-list": ({"topology": {"topology": ["cycle"], "m": 6}}, "bad 'topology' field: topology must be a name, got ['cycle']"),
    # On the box (x1 - 5)^2 >= 9, while 1 + y^2 - 2 y x2 <= 4 for every y in
    # [-1, 1]: even the lower subproblem, a relaxation, has no feasible point.
    "robust-infeasible": (
        {
            "instance": {
                **two_agent_instance(),
                "agents": [
                    {
                        "objective": {"kind": "quadratic-distance", "center": [0.0, 0.0]},
                        "constraint": {"kind": "paper-quadratic", "v": v},
                    }
                    for v in (0.0, 5.0)
                ],
            }
        },
        "lower subproblem infeasible: the robust problem has no feasible point",
    ),
}


def with_constraint(constraint):
    return {"instance": two_agent_instance(constraint=constraint)}


def with_agent(**agent):
    return {"instance": {**two_agent_instance(), "agents": [agent] * 2}}


INSTANCE, TOPOLOGY = "bad 'instance' section: ", "bad 'topology' field: "
ALL_KEYS = "instance, llp, topology, eps0, r, eps_f, method, max_iter"
# Each config object, once with a key outside its schema and once without
# a key it needs (the top level needs none, and example1 only its kind),
# with the whole line the one section checker prints.
SECTION_KEY_ERRORS = {
    "config-unknown": ({"eps_F": 0.5}, f"unknown config key 'eps_F'; the keys are {ALL_KEYS}"),
    "instance-unknown": (
        {"instance": {**two_agent_instance(), "window": 3}},
        f"{INSTANCE}unknown instance key 'window'; the keys are n, m, box, agents",
    ),
    "instance-missing": (
        {"instance": {key: value for key, value in two_agent_instance().items() if key != "box"}},
        f"{INSTANCE}missing key 'box' in the instance",
    ),
    "agent-unknown": (
        with_agent(**AGENT, weight=2),
        f"{INSTANCE}unknown agent key 'weight'; the keys are objective, constraint (agent 1)",
    ),
    "agent-missing": (with_agent(constraint=AGENT["constraint"]), f"{INSTANCE}missing key 'objective' in the agent (agent 1)"),
    "objective-unknown": (
        with_agent(objective={**AGENT["objective"], "scale": 2}, constraint=AGENT["constraint"]),
        f"{INSTANCE}unknown objective key 'scale'; the keys are kind, center (agent 1)",
    ),
    "objective-missing": (
        with_agent(objective={"center": [0.0, 0.0]}, constraint=AGENT["constraint"]),
        f"{INSTANCE}missing key 'kind' in the objective (agent 1)",
    ),
    "constraint-missing-kind": (with_constraint({"y_upper": 2.0}), f"{INSTANCE}missing key 'kind' in the constraint (agent 1)"),
    "paper-quadratic-misspelled": (
        with_constraint({"kind": "paper-quadratic", "V": 0.5}),
        f"{INSTANCE}unknown paper-quadratic constraint key 'V'; the keys are kind, v (agent 1)",
    ),
    "paper-quadratic-missing": (
        with_constraint({"kind": "paper-quadratic"}),
        f"{INSTANCE}missing key 'v' in the paper-quadratic constraint (agent 1)",
    ),
    "example1-misspelled": (
        with_constraint({"kind": "example1", "y_uper": 0.5}),
        f"{INSTANCE}unknown example1 constraint key 'y_uper'; the keys are kind, y_upper (agent 1)",
    ),
    "named-topology-unknown": (
        {"topology": {"topology": "cycle", "m": 6, "period": 1}},
        f"{TOPOLOGY}unknown topology key 'period'; the keys are topology, m",
    ),
    "named-topology-missing": ({"topology": {"topology": "cycle"}}, f"{TOPOLOGY}missing key 'm' in the topology"),
    "explicit-topology-unknown": (
        {"topology": {"topology": "explicit", "m": 6, "slots": [], "period": 1}},
        f"{TOPOLOGY}unknown topology key 'period'; the keys are topology, m, slots",
    ),
    "explicit-topology-missing-slots": (
        {"topology": {"topology": "explicit", "m": 6}},
        f"{TOPOLOGY}missing key 'slots' in the topology",
    ),
}


class TestRun:
    def test_successful_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--plot"]) == 0

        summary = json.loads((out / "results.json").read_text())
        assert summary["terminated"]
        assert summary["final_lower"] <= F_STAR + 1e-9 <= summary["final_upper"] + 2e-9
        assert summary["accuracy_bound"] == pytest.approx(0.06)
        assert len(summary["x_opt"]) == 6
        assert summary["x_opt"][0] == summary["x_opt"][5]

        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "lower", "upper"]
        assert len(rows) == summary["iterations"] + 1
        svg = (out / "trace.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_missing_config_exits_1(self, tmp_path, capsys):
        (tmp_path / "adir").mkdir()
        for name, message in (("nope.json", "config file not found"), ("adir", "cannot read config file")):
            assert main(["run", str(tmp_path / name), "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for text, message in ((b"{not json", "not valid JSON"), (b'{"eps0": "\xff"}', "not UTF-8 text")):
            cfg.write_bytes(text)
            assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
            assert message in capsys.readouterr().err

    def test_bad_topology_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", topology="torus")
        assert main(["run", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "topology, message",
        [
            ({"topology": "explicit", "m": 6, "slots": [[[1, 2]]]}, "no window of length"),
            ({"topology": "ring", "m": 6}, "unknown topology 'ring'"),
            ({"topology": "cycle", "m": 5}, "the schedule has 5 agents, the instance 6"),
            ({"topology": "cycle", "m": 6.7}, "m must be an integer, got 6.7"),
            ({"topology": "cycle", "m": "6"}, "m must be an integer, got '6'"),
            ({"topology": "cycle", "m": True}, "m must be an integer, got True"),
            (
                {"topology": "explicit", "m": 6, "slots": [[[1.9, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1]]]},
                "edge endpoint must be an integer, got 1.9",
            ),
            ({"topology": "explicit", "m": 6, "slots": [5]}, "slot 0 is not a collection of edges"),
            ({"topology": "explicit", "m": 6, "slots": "ab"}, "slot 0 is not a collection of edges"),
            ({"topology": "explicit", "m": 6, "slots": 5}, "slots must be a collection of slots, got 5"),
            ({"topology": "cycle", "m": 6, "slots": [[[1, 2]]]}, "unknown topology key 'slots'; the keys are topology, m"),
            ({"topology": "cycle", "m": 6, "window": 9}, "unknown topology key 'window'; the keys are topology, m"),
        ],
        ids=[
            "not-uniformly-connected",
            "unknown-name",
            "agent-count-mismatch",
            "m-float",
            "m-string",
            "m-bool",
            "edge-endpoint-float",
            "slot-int",
            "slot-string",
            "slots-int",
            "slots-of-a-named-topology",
            "unknown-key",
        ],
    )
    def test_bad_topology_object_exits_1(self, tmp_path, capsys, topology, message):
        cfg = write_config(tmp_path / "cfg.json", topology=topology)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad 'topology' field:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("topology", [5, [], None], ids=["int", "list", "null"])
    def test_topology_neither_name_nor_object_exits_1(self, tmp_path, capsys, topology):
        cfg = write_config(tmp_path / "cfg.json", topology=topology)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad 'topology' field: {topology!r} is neither a topology name nor an object")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["complete", "explicit"])
    def test_mismatched_agent_count_builds_no_schedule(self, tmp_path, capsys, monkeypatch, name):
        # A schedule's arrays grow as m^2: a wrong m must be refused before any is built.
        class Built(Exception):
            pass

        def refuse(*args):
            raise Built(args)

        for topology in drcopt.graph.TOPOLOGIES:
            monkeypatch.setitem(drcopt.graph.TOPOLOGIES, topology, refuse)
        monkeypatch.setattr(drcopt.graph, "make_schedule", refuse)

        def topology(m):
            if name == "complete":
                return {"topology": name, "m": m}
            return {"topology": name, "m": m, "slots": [[[j, j % m + 1] for j in range(1, m + 1)]]}

        out = tmp_path / "out"
        for m in (300, 5):
            assert main(["run", write_config(tmp_path / "cfg.json", topology=topology(m)), "--out", str(out)]) == 1
            assert f"the schedule has {m} agents, the instance 6" in capsys.readouterr().err
        assert not out.exists()
        # The right count does reach the builders.
        with pytest.raises(Built):
            _build_from_config({"topology": topology(6)})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("eps0", 0),
            ("eps0", -0.01),
            ("r", 1.0),
            ("r", 0.5),
            ("eps_f", 0),
            ("eps_f", -1.0),
            ("max_iter", 0),
            ("max_iter", 2.5),
            ("max_iter", True),
            ("eps0", float("inf")),
            ("r", float("inf")),
            ("eps_f", float("inf")),
            ("eps0", True),
            ("r", True),
            ("eps_f", True),
            ("eps0", "0.01"),
            ("r", "2"),
            ("eps_f", "0.01"),
        ],
    )
    def test_bad_run_parameter_exits_1(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "cfg.json", **{field: value})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad run parameter:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
    def test_malformed_instance_config_exits_1(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", SECTION_KEY_ERRORS.values(), ids=SECTION_KEY_ERRORS.keys())
    def test_unknown_or_missing_key_of_each_section_exits_1(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_numeric_llp_matches_analytic(self, tmp_path, capsys):
        summaries = {}
        for llp in ("analytic", "numeric"):
            out = tmp_path / llp
            assert main(["run", write_config(tmp_path / f"{llp}.json", llp=llp), "--out", str(out)]) == 0
            summaries[llp] = json.loads((out / "results.json").read_text())
        analytic, numeric = summaries["analytic"], summaries["numeric"]
        assert numeric["iterations"] == analytic["iterations"]
        for key in ("final_lower", "final_upper"):
            assert numeric[key] == pytest.approx(analytic[key], abs=1e-9)
        assert np.allclose(numeric["x_opt"], analytic["x_opt"], atol=1e-9)

    def test_numeric_llp_keeps_the_batched_grid(self):
        instance, _, _ = _build_from_config({"llp": "numeric"})
        for constraint in instance.constraints:
            assert constraint.analytic_argmax is None
            assert constraint.batch is not None

    def test_unknown_llp_mode_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", llp="grid")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "bad 'llp' field" in capsys.readouterr().err

    def test_budget_exhaustion_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", max_iter=2)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        summary = json.loads((out / "results.json").read_text())
        assert not summary["terminated"]
        assert summary["x_opt"] is None
        assert summary["final_upper"] is None  # +inf serialized as null

    def test_integral_max_iter_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", max_iter=3)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert json.loads((out / "results.json").read_text())["iterations"] == 3


class TestOutArgument:
    def test_out_that_is_a_file_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        cfg = write_config(tmp_path / "cfg.json")
        for argv in (["run", cfg], ["table2"], ["sweep", "--m-max", "4"], ["fig3", "--m-max", "4"]):
            for out in (blocker, blocker / "out"):
                assert main([*argv, "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert f"error: cannot create --out directory {out}: " in err
        assert blocker.read_text() == "keep"


class TestTraceFiles:
    def test_missing_upper_bound_is_written_as_inf(self, tmp_path, capsys):
        # Far from the feasible set the first iteration has no upper bound
        # and a lower bound of 162, above any stand-in constant.
        far = {
            **two_agent_instance(center=[0.0, 10.0]),
            "agents": [
                {
                    "objective": {"kind": "quadratic-distance", "center": [0.0, 10.0]},
                    "constraint": {"kind": "paper-quadratic", "v": v},
                }
                for v in (-0.25, 0.25)
            ],
        }
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", instance=far), "--out", str(out)]) == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows[0] == ["1", "162.0000000000", "inf"]
        for _, lower, upper in rows:
            assert upper == "inf" or float(upper) >= float(lower)

    def test_plot_without_a_finite_upper_bound(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json", max_iter=1), "--out", str(out), "--plot"]) == 2
        with open(out / "trace.csv", newline="") as fh:
            assert list(csv.reader(fh))[1][2] == "inf"
        svg = ElementTree.parse(out / "trace.svg").getroot()
        lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
        assert [line.get("points").count(",") for line in lines] == [1, 0]
        assert "inf" not in (out / "trace.svg").read_text()

    def test_run_without_plot_removes_an_earlier_plot(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json"), "--out", str(out), "--plot"]) == 0
        assert (out / "trace.svg").exists()
        assert main(["run", write_config(tmp_path / "cfg.json", method="II"), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["results.json", "trace.csv"]


NUMERICAL_FAILURES = {
    "iteration-limit": NumericalFailure("lower subproblem solve hit the iteration limit"),
    "invariant": NumericalFailure("lower bound decreased across iterations"),
}


def raise_from_run(monkeypatch, exc):
    def failing_run(*args, **kwargs):
        raise exc

    monkeypatch.setattr(drcopt.cli, "run", failing_run)


class TestNumericalFailure:
    @pytest.mark.parametrize("exc", NUMERICAL_FAILURES.values(), ids=NUMERICAL_FAILURES.keys())
    def test_run_exits_3_and_records_the_error(self, tmp_path, capsys, monkeypatch, exc):
        raise_from_run(monkeypatch, exc)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: numerical failure: {exc}\n"
        summary = json.loads((out / "results.json").read_text())
        assert summary == {"terminated": False, "error": str(exc)}
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("exc", NUMERICAL_FAILURES.values(), ids=NUMERICAL_FAILURES.keys())
    def test_table2_exits_3(self, tmp_path, capsys, monkeypatch, exc):
        raise_from_run(monkeypatch, exc)
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: numerical failure: {exc}\n"
        assert not out.exists()

    def test_message_falls_back_to_exception_type(self, tmp_path, capsys, monkeypatch):
        raise_from_run(monkeypatch, NumericalFailure())
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json"), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: numerical failure: NumericalFailure\n"
        assert json.loads((out / "results.json").read_text())["error"] == "NumericalFailure"

    def test_scenario_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(drcopt.agents, "SCENARIO_CAP", 1)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path / "cfg.json"), "--out", str(out)]) == 3
        message = "scenario set exceeded the cap of 1"
        assert capsys.readouterr().err == f"error: numerical failure: {message}\n"
        assert json.loads((out / "results.json").read_text())["error"] == message

    @pytest.mark.parametrize("llp", ["analytic", "numeric"])
    def test_example1_overflow_exits_3(self, tmp_path, capsys, llp):
        # exp(y^2 - 2*x1*y - x1^2) overflows a float once y_upper is large.
        instance = two_agent_instance(center=[-1.0, 0.0], constraint={"kind": "example1", "y_upper": 30})
        cfg = write_config(tmp_path / "cfg.json", instance=instance, llp=llp)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: numerical failure: example1 constraint overflows at")
        assert not json.loads((out / "results.json").read_text())["terminated"]

    @pytest.mark.parametrize("exc", [RuntimeError("bug"), AssertionError("bug")], ids=lambda e: type(e).__name__)
    def test_other_errors_are_not_numerical_failures(self, tmp_path, monkeypatch, exc):
        raise_from_run(monkeypatch, exc)
        with pytest.raises(type(exc), match="bug"):
            main(["run", write_config(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")])

    def test_failure_removes_traces_of_an_earlier_run(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--plot"]) == 0
        assert (out / "trace.csv").exists() and (out / "trace.svg").exists()
        raise_from_run(monkeypatch, NUMERICAL_FAILURES["invariant"])
        assert main(["run", cfg, "--out", str(out), "--plot"]) == 3
        assert sorted(path.name for path in out.iterdir()) == ["results.json"]
        assert not json.loads((out / "results.json").read_text())["terminated"]


class TestRunDefaults:
    """The command line and the config reader take their run defaults from RunParams."""

    def test_table2_flags(self):
        args = build_parser().parse_args(["table2"])
        defaults = RunParams()
        assert (args.eps0, args.r, args.eps_f, args.max_iter) == (
            defaults.eps0,
            defaults.r,
            defaults.eps_f,
            defaults.max_iter,
        )

    @pytest.mark.parametrize("command", ["fig3", "sweep"])
    def test_sweep_eps_f(self, command):
        assert build_parser().parse_args([command]).eps_f == RunParams().eps_f

    def test_empty_config(self):
        _, _, params = _build_from_config({})
        assert params == RunParams()


class TestTable2:
    def test_all_six_combinations(self, tmp_path, capsys):
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.count("cycle") == 2 and printed.count("complete") == 2

        with open(out / "table2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["topology"]) for r in rows] == [
            (m, t) for m in ("I", "II") for t in ("cycle", "customized", "complete")
        ]
        for row in rows:
            assert row["feasible"] == "True"
            lower, upper = float(row["lower"]), float(row["upper"])
            assert lower <= F_STAR + 1e-9 <= upper + 2e-9
            assert upper - lower <= 0.06 + 1e-9

    def test_large_r_exits_0(self, tmp_path, capsys):
        for r in ("1e10", "1e12", "1e14"):
            assert main(["table2", "--out", str(tmp_path / f"t2-{r}"), "--r", r]) == 0, r

    def test_budget_exhaustion_writes_rows_without_coordinates_and_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out), "--max-iter", "2"]) == 2
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 2 + 6
        assert all(line.split()[2:3] == ["2"] and " NO" in line for line in printed[2:])
        with open(out / "table2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6
        for row in rows[1:]:
            assert len(row) == len(rows[0])
            assert row[2] == "2" and row[5] == "False"
            assert row[6:] == [""] * 12

    @pytest.mark.parametrize("flag, field", [("--eps0", "eps0"), ("--r", "r"), ("--eps-f", "eps_f")])
    def test_infinite_run_parameter_exits_1(self, tmp_path, capsys, flag, field):
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out), flag, "inf"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad run parameter: {field} must") and err.endswith("finite, got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("eps0, message", [("0", "eps0 must be positive"), ("10", "choose a smaller eps0")])
    def test_bad_eps0_exits_1(self, tmp_path, capsys, eps0, message):
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out), "--eps0", eps0]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zeros_print_without_a_sign(self, tmp_path, capsys, monkeypatch):
        real_run = drcopt.cli.run
        x_opt = [np.array([-1e-17, -4e-7]), np.array([1e-17, -5.1e-7])] + [np.array([0.0, 0.5])] * 4

        def noisy_run(*args, **kwargs):
            return dataclasses.replace(real_run(*args, **kwargs), x_opt=x_opt)

        monkeypatch.setattr(drcopt.cli, "run", noisy_run)
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert all(line.endswith("[+0.0000, +0.0000]") for line in printed[2:])
        with open(out / "table2.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            assert row[6:10] == ["0.000000", "0.000000", "0.000000", "-0.000001"]

    def test_runs_without_scipy(self, tmp_path):
        out = tmp_path / "t2"
        script = (
            "import sys; sys.modules['scipy'] = None\n"
            "from drcopt.cli import main\n"
            f"sys.exit(main(['table2', '--out', {str(out)!r}]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", script], check=True, env=env, capture_output=True)
        assert (out / "table2.csv").read_bytes() == (ROOT / "perfbench" / "expected_table2.csv").read_bytes()

    def test_feasible_column_reads_the_runs_verdicts(self, tmp_path, capsys, monkeypatch):
        # A terminated run stopped with every upper verdict feasible at its
        # exit point, so the column solves no lower-level problem of its own.
        def refused(*args, **kwargs):
            raise AssertionError("table2 solved a lower-level problem outside the runs")

        monkeypatch.setattr(drcopt.cli, "solve_llp", refused)
        out = tmp_path / "t2"
        assert main(["table2", "--out", str(out)]) == 0
        assert (out / "table2.csv").read_bytes() == (ROOT / "perfbench" / "expected_table2.csv").read_bytes()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["table2", "--out", str(a)]) == 0
        assert main(["table2", "--out", str(b)]) == 0
        assert (a / "table2.csv").read_bytes() == (b / "table2.csv").read_bytes()


class TestFig3:
    def test_csv_values(self, tmp_path):
        out = tmp_path / "f3"
        assert main(["fig3", "--out", str(out), "--m-max", "6"]) == 0
        with open(out / "fig3.csv", newline="") as fh:
            rows = {(r["topology"], int(r["m"])): r for r in csv.DictReader(fh)}
        assert float(rows[("cycle", 6)]["method2_bound"]) == pytest.approx(0.03)
        assert float(rows[("complete", 6)]["method2_bound"]) == pytest.approx(0.01)
        assert float(rows[("cycle", 6)]["method1_bound"]) == pytest.approx(0.06)
        assert float(rows[("customized", 3)]["method2_bound"]) <= 0.03
        svg = (out / "fig3.svg").read_text()
        assert svg.count("polyline") >= 5

    def test_m_max_validated(self, tmp_path, capsys):
        assert main(["fig3", "--out", str(tmp_path), "--m-max", "2"]) == 1

    @pytest.mark.parametrize("eps_f", ["0", "-1", "nan", "inf"])
    def test_eps_f_validated(self, tmp_path, capsys, eps_f):
        out = tmp_path / "f3"
        assert main(["fig3", "--out", str(out), "--m-max", "6", "--eps-f", eps_f]) == 1
        assert capsys.readouterr().err.startswith("error: bad --eps-f:")
        assert not out.exists()


class TestSweep:
    def test_csv_only(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--m-max", "8"]) == 0
        assert (out / "sweep.csv").exists()
        assert not (out / "sweep.svg").exists()
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # cycle and complete start at m=2, customized at m=3
        assert len(rows) == 7 + 7 + 6

    def test_bytes_equal_the_expected_file(self, tmp_path):
        # Pins every window and both bounds of each row to the byte.
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--m-max", "30"]) == 0
        assert (out / "sweep.csv").read_bytes() == (ROOT / "tests" / "expected_sweep.csv").read_bytes()

    @pytest.mark.parametrize("m_max", ["1", "0"])
    def test_m_max_validated(self, tmp_path, capsys, m_max):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--m-max", m_max]) == 1
        assert capsys.readouterr().err == "error: sweep needs --m-max >= 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("eps_f", ["0", "-1", "nan", "inf"])
    def test_eps_f_validated(self, tmp_path, capsys, eps_f):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--m-max", "8", "--eps-f", eps_f]) == 1
        assert capsys.readouterr().err.startswith("error: bad --eps-f:")
        assert not out.exists()
