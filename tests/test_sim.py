import math

import numpy as np
import pytest

from drcopt import solver
from drcopt.graph import complete, directed_cycle
from drcopt.llp import solve_llp
from drcopt.problem import NumericalFailure
from drcopt.sim import PLOT_CEILING, ConfigError, RunParams, run, trace

from helpers import F_STAR, X_STAR


@pytest.fixture(scope="module")
def cycle_run(case_study):
    return run(case_study, directed_cycle(6), RunParams(method="I"))


class TestCaseStudyRun:
    def test_terminates(self, cycle_run):
        assert cycle_run.terminated
        assert 1 < cycle_run.iterations <= 50

    def test_final_bounds_sandwich_known_optimum(self, cycle_run):
        assert cycle_run.final_lower <= F_STAR + 1e-9
        assert cycle_run.final_upper >= F_STAR - 1e-9
        assert cycle_run.final_upper - cycle_run.final_lower <= cycle_run.accuracy_bound

    def test_lower_monotone_nondecreasing(self, cycle_run):
        lowers = [rec.lower for rec in cycle_run.records]
        assert all(b >= a - 1e-9 for a, b in zip(lowers, lowers[1:]))

    def test_every_lower_bounds_the_optimum(self, cycle_run):
        for rec in cycle_run.records:
            assert rec.lower <= F_STAR + 1e-9
            if math.isfinite(rec.upper):
                assert rec.upper >= F_STAR - 1e-9

    def test_consensus_solution_near_optimizer(self, cycle_run, case_study):
        for x in cycle_run.x_opt:
            assert np.array_equal(x, cycle_run.x_opt[0])
        assert np.allclose(cycle_run.x_opt[0], X_STAR, atol=5e-2)
        for constraint in case_study.constraints:
            g_max, _ = solve_llp(constraint, cycle_run.x_opt[0])
            assert g_max <= 1e-9

    def test_accuracy_bound_value(self, cycle_run):
        assert cycle_run.accuracy_bound == pytest.approx(0.06)

    def test_epsilons_shrink(self, cycle_run):
        first = cycle_run.records[0].epsilons
        last = cycle_run.records[-1].epsilons
        assert all(b <= a for a, b in zip(first, last))
        assert all(e < 0.01 for e in last)

    def test_slots_accounting(self, cycle_run):
        # two flooding phases of T(m-1)=5 slots plus a stopping round of 6
        assert all(rec.slots_consumed == 16 for rec in cycle_run.records)


class TestDeterminism:
    def test_bitwise_repeatability(self, case_study, cycle_run):
        again = run(case_study, directed_cycle(6), RunParams(method="I"))
        assert again.iterations == cycle_run.iterations
        assert np.array_equal(again.x_opt[0], cycle_run.x_opt[0])
        for a, b in zip(again.records, cycle_run.records):
            assert a == b


class TestParameterHandling:
    def test_loose_eps_f_stops_early(self, case_study, cycle_run):
        loose = run(case_study, directed_cycle(6), RunParams(eps_f=10.0))
        assert loose.terminated
        assert loose.iterations < cycle_run.iterations
        # it stops at the first iteration with a finite upper bound
        assert all(not math.isfinite(r.upper) for r in loose.records[:-1])

    def test_method2_matches_method1_solution_quality(self, case_study):
        result = run(case_study, complete(6), RunParams(method="II"))
        assert result.terminated
        assert result.final_upper - result.final_lower <= result.accuracy_bound
        assert result.accuracy_bound == pytest.approx(0.01)

    def test_budget_exhaustion_flagged_not_raised(self, case_study):
        result = run(case_study, directed_cycle(6), RunParams(max_iter=2))
        assert not result.terminated
        assert result.x_opt is None
        assert len(result.records) == 2

    def test_inadmissible_restriction_raises(self, case_study):
        with pytest.raises(ConfigError):
            run(case_study, directed_cycle(6), RunParams(eps0=10.0))

    def test_iteration_limit_is_a_numerical_failure(self, case_study, monkeypatch):
        monkeypatch.setattr(solver, "MAX_OUTER", 1)
        with pytest.raises(NumericalFailure, match="lower subproblem solve hit the iteration limit"):
            run(case_study, directed_cycle(6), RunParams())

    def test_method_validated(self):
        with pytest.raises(ValueError):
            RunParams(method="III")

    def test_agent_count_mismatch(self, case_study):
        with pytest.raises(ValueError):
            run(case_study, directed_cycle(4), RunParams())


class TestTrace:
    def test_infinite_upper_clipped_to_ceiling(self, cycle_run):
        rows = trace(cycle_run)
        assert len(rows) == cycle_run.iterations
        for rec, (k, lower, upper) in zip(cycle_run.records, rows):
            assert k == rec.k and lower == rec.lower
            if math.isfinite(rec.upper):
                assert upper == rec.upper
            else:
                assert upper == PLOT_CEILING
        assert any(upper == PLOT_CEILING for _, _, upper in rows)
