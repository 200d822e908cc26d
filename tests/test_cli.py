import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drcopt.agents
import drcopt.cli
from drcopt.cli import _build_from_config, main
from drcopt.problem import NumericalFailure

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


MALFORMED_CONFIGS = {
    "not-an-object": ([], "must hold a JSON object"),
    "instance-not-an-object": ({"instance": "foo"}, "bad 'instance' section"),
    "agents-a-string": ({"instance": {**two_agent_instance(), "agents": "xx"}}, "bad 'instance' section"),
    "agents-not-objects": ({"instance": {**two_agent_instance(), "agents": [1, 2]}}, "bad 'instance' section"),
    "n-1": ({"instance": two_agent_instance(n=1)}, "need n = 2"),
    "n-3": ({"instance": two_agent_instance(n=3)}, "need n = 2"),
    "v-nan": (
        {"instance": two_agent_instance(constraint={"kind": "paper-quadratic", "v": "nan"})},
        "v must be finite",
    ),
    "center-inf": ({"instance": two_agent_instance(center=[0.0, "inf"])}, "center must be finite"),
    "inverted-uncertainty-box": (
        {"instance": two_agent_instance(constraint={"kind": "example1", "y_upper": -1})},
        "y_upper must be positive and finite",
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
        assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1

    def test_bad_topology_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", topology="torus")
        assert main(["run", cfg, "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "topology, message",
        [
            ({"topology": "explicit", "m": 6, "slots": [[[1, 2]]]}, "no window of length"),
            ({"topology": "ring", "m": 6}, "unknown topology 'ring'"),
            ({"topology": "cycle", "m": 5}, "the schedule has 5 agents, the instance 6"),
        ],
        ids=["not-uniformly-connected", "unknown-name", "agent-count-mismatch"],
    )
    def test_bad_topology_object_exits_1(self, tmp_path, capsys, topology, message):
        cfg = write_config(tmp_path / "cfg.json", topology=topology)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad 'topology' field:") and message in err
        assert not out.exists()

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

    @pytest.mark.parametrize("eps_f", ["0", "-1", "nan"])
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

    @pytest.mark.parametrize("eps_f", ["0", "-1", "nan"])
    def test_eps_f_validated(self, tmp_path, capsys, eps_f):
        out = tmp_path / "sw"
        assert main(["sweep", "--out", str(out), "--m-max", "8", "--eps-f", eps_f]) == 1
        assert capsys.readouterr().err.startswith("error: bad --eps-f:")
        assert not out.exists()
