"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line so the
suite's verdict can be read off the captured output.  The six full
case-study runs are shared through a module-scoped fixture.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from drcopt.cli import main
from drcopt.graph import TOPOLOGIES, complete, directed_cycle
from drcopt.llp import solve_llp
from drcopt.problem import constraint_table, example1_constraint, with_numeric_llp
from drcopt.sim import RunParams, run
from drcopt.solver import SolveStatus, solve
from drcopt.termination import run_stopping_round

from helpers import (
    F_STAR,
    box_lp_vertex_max,
    case_study_grid_min,
    edge_scan_in_neighbors,
    random_connected_schedule,
    subproblem,
    subproblem_cut_view,
)
from drcopt.bounds import method2_accuracy, neighborhood_weights

EPS_F = 0.01
COMBOS = [(t, m) for t in ("cycle", "customized", "complete") for m in ("I", "II")]


def verdict(number, label, ok):
    print(f"[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {label}"


@pytest.fixture(scope="module")
def accepted_runs(case_study):
    results = {}
    for topology, method in COMBOS:
        schedule = TOPOLOGIES[topology](case_study.m)
        start = time.perf_counter()
        result = run(case_study, schedule, RunParams(method=method))
        results[(topology, method)] = (result, time.perf_counter() - start, schedule)
    return results


def test_criterion_01_case_study_optimum(accepted_runs):
    ok = True
    for (topology, method), (result, elapsed, _) in accepted_runs.items():
        ok &= result.terminated and result.iterations <= 500
        ok &= elapsed < 60.0
        ok &= bool(np.all(np.abs(result.x_opt[0] - [0.0, 0.661438]) <= 2e-2))
        ok &= 38.66 <= result.final_lower <= 38.70
        ok &= 38.66 <= result.final_upper <= 38.70
        ok &= result.final_lower <= F_STAR <= result.final_upper + 1e-9
    verdict(1, "case-study optimum reproduced on all 6 runs", ok)


def test_criterion_02_sandwich(accepted_runs):
    ok = True
    for result, _, _ in accepted_runs.values():
        for rec in result.records:
            ok &= rec.lower <= F_STAR + 1e-6
            if math.isfinite(rec.upper):
                ok &= rec.upper >= F_STAR - 1e-6
    verdict(2, "per-iteration bounds sandwich the optimum", ok)


def test_criterion_03_monotone_lower(accepted_runs):
    ok = True
    for result, _, _ in accepted_runs.values():
        lowers = [rec.lower for rec in result.records]
        ok &= all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))
    verdict(3, "lower bounds monotone nondecreasing", ok)


def test_criterion_04_local_feasibility(accepted_runs, case_study):
    ok = True
    for result, _, _ in accepted_runs.values():
        for constraint, x in zip(case_study.constraints, result.x_opt):
            g_max, _ = solve_llp(constraint_table([constraint]), x)
            ok &= g_max[0] <= 1e-9
    verdict(4, "analytic LLP feasibility at every exit point", ok)


def test_criterion_05_guarantee_consistency(accepted_runs):
    ok = True
    for (topology, method), (result, _, schedule) in accepted_runs.items():
        bound = 0.06 if method == "I" else method2_accuracy(schedule, EPS_F)
        ok &= result.accuracy_bound == pytest.approx(bound)
        ok &= abs(result.final_upper - result.final_lower) <= bound + 1e-12
    verdict(5, "termination gap within the a-priori accuracy bound", ok)


def test_criterion_06_method2_closed_forms():
    ok = True
    for m in range(2, 51):
        ok &= method2_accuracy(complete(m), EPS_F) == pytest.approx(EPS_F)
        ok &= method2_accuracy(directed_cycle(m), EPS_F) == pytest.approx(m * EPS_F / 2)
    for m in range(2, 7):
        for generator in (complete, directed_cycle):
            schedule = generator(m)
            brute = box_lp_vertex_max(
                neighborhood_weights(schedule), schedule.m * schedule.window * EPS_F, EPS_F
            )
            ok &= method2_accuracy(schedule, EPS_F) == pytest.approx(brute, abs=1e-12)
    verdict(6, "Method II bound closed forms and brute-force match", ok)


def test_criterion_07_method_comparison(accepted_runs):
    method1_iters = {
        topology: accepted_runs[(topology, "I")][0].iterations
        for topology in ("cycle", "customized", "complete")
    }
    ok = len(set(method1_iters.values())) == 1
    ok &= (
        accepted_runs[("complete", "II")][0].iterations
        >= accepted_runs[("complete", "I")][0].iterations
    )
    verdict(7, "Method II needs >= iterations; Method I topology-independent", ok)


def test_criterion_08_termination_soundness(rng):
    false_positives = 0
    stops = 0
    for trial in range(500):
        method = "I" if trial % 2 == 0 else "II"
        schedule = random_connected_schedule(rng, m_max=5, p_max=3)
        scale = 2.0 if method == "I" else 0.8
        gaps = list(EPS_F * scale * rng.uniform(0, 1, size=schedule.m))
        start = int(rng.integers(0, 2 * schedule.period))
        stop, slots, _ = run_stopping_round(gaps, schedule, method, EPS_F, start)
        if not stop:
            continue
        stops += 1
        if method == "I":
            holds = all(e <= EPS_F for e in gaps)
        else:
            holds = all(
                sum(gaps[j - 1] for j in (i,) + edge_scan_in_neighbors(schedule, i, start + off))
                <= EPS_F
                for off in range(slots)
                for i in range(1, schedule.m + 1)
            )
        false_positives += not holds
    verdict(8, f"0 false positives in 500 stopping trials ({stops} stops)", stops > 0 and false_positives == 0)


def test_criterion_09_llp_equivalence(case_study, rng):
    ok = True
    numeric = with_numeric_llp(case_study).constraints
    for _ in range(200):
        x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
        j = int(rng.integers(0, 6))
        g_ana, g_num = (solve_llp(constraint_table([c]), x)[0][0] for c in (case_study.constraints[j], numeric[j]))
        ok &= abs(g_ana - g_num) <= 1e-8
    example1 = example1_constraint()
    example1_numeric = dataclasses.replace(example1, analytic_argmax=None)
    for _ in range(200):
        x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
        g_ana, g_num = (solve_llp(constraint_table([c]), x)[0][0] for c in (example1, example1_numeric))
        ok &= abs(g_ana - g_num) <= 1e-8
    verdict(9, "analytic vs grid+refine LLP within 1e-8 on 400 points", ok)


def test_criterion_10_solver_equivalence(case_study, rng):
    ok = True
    report = solve(subproblem(case_study, ()))
    ok &= bool(np.all(np.abs(report.minimizer - [0.0, 1.0]) <= 1e-6))
    single_scenario = [(a, a - 1, (1.0,), 0.0) for a in range(1, 7)]
    report = solve(subproblem(case_study, single_scenario))
    ok &= bool(np.all(np.abs(report.minimizer - [0.0, 0.71875]) <= 1e-6))
    for _ in range(20):
        n_cuts = int(rng.integers(1, 7))
        cuts = tuple(
            sorted(
                (
                    int(rng.integers(1, 7)),
                    k,
                    (float(rng.uniform(-1, 1)),),
                    float(-rng.uniform(0, 0.01)),
                )
                for k in range(n_cuts)
            )
        )
        problem = subproblem(case_study, cuts)
        report = solve(problem)
        ok &= report.status is SolveStatus.OPTIMAL
        _, grid_point = case_study_grid_min(subproblem_cut_view(case_study, problem))
        ok &= bool(np.all(np.abs(report.minimizer - grid_point) <= 5e-3))
    verdict(10, "solver matches analytic and dense-grid oracles", ok)


def test_criterion_11_determinism(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = main(["table2", "--out", str(a)])
    code_b = main(["table2", "--out", str(b)])
    capsys.readouterr()
    identical = (a / "table2.csv").read_bytes() == (b / "table2.csv").read_bytes()
    verdict(11, "repeated table2 invocations byte-identical", code_a == 0 and code_b == 0 and identical)
