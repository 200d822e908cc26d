import dataclasses
import math

import numpy as np
import pytest

from drcopt import agents, sim, solver
from drcopt.cli import METHODS, TABLE2_TOPOLOGIES
from drcopt.graph import TOPOLOGIES, complete, directed_cycle
from drcopt.llp import solve_llp
from drcopt.problem import NumericalFailure, example1_constraint
from drcopt.sim import ConfigError, RunParams, run
from drcopt.termination import run_stopping_round

from helpers import F_STAR, X_STAR, agent_gap, bound_values, scaled_case_study


@pytest.fixture(scope="module")
def cycle_run(case_study):
    return run(case_study, directed_cycle(6), RunParams(method="I"))


class TestCaseStudyRun:
    def test_terminates(self, cycle_run):
        assert cycle_run.terminated
        assert 1 < cycle_run.iterations <= 50

    def test_iterations_are_the_records(self, cycle_run):
        assert cycle_run.iterations == len(cycle_run.records)
        assert "iterations" not in {f.name for f in dataclasses.fields(sim.RunResult)}

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
        g_max, _ = solve_llp(case_study.constraint_table, cycle_run.x_opt[0])
        assert (g_max <= 1e-9).all()

    def test_exit_point_is_one_read_only_array(self, cycle_run):
        # One copy for every agent, not m: its memory does not grow with m.
        assert len(cycle_run.x_opt) == 6
        assert all(x is cycle_run.x_opt[0] for x in cycle_run.x_opt)
        assert not cycle_run.x_opt[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cycle_run.x_opt[0][0] = 0.0

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

    def test_warm_started_runs_are_bitwise_equal(self, case_study):
        # Every solve after the first on each side starts from that side's
        # previous report; two runs must still agree bit for bit (repr
        # round-trips floats exactly and tells -0.0 from 0.0).
        a, b = (run(case_study, complete(6), RunParams(method="II")) for _ in range(2))
        assert repr(a.records) == repr(b.records)
        assert [x.tobytes() for x in a.x_opt] == [x.tobytes() for x in b.x_opt]


class TestBatchedBounds:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("topology", TABLE2_TOPOLOGIES)
    def test_records_equal_the_per_agent_oracle(self, case_study, monkeypatch, method, topology):
        # lower, upper and the gaps of every record, bit for bit, against
        # the per-agent sums at the points the agents' oracles last checked,
        # with each agent's feasibility read from its last upper verdict.
        lower_points, upper_calls, expected = [], [], []
        real_lower_oracle, real_upper_oracle = agents.dlbd_oracle, agents.dubd_oracle

        def recording_lower_oracle(cuts, instance, x_new):
            lower_points.append(x_new)
            return real_lower_oracle(cuts, instance, x_new)

        def recording_upper_oracle(cuts, epsilon, instance, z_new, r):
            out = real_upper_oracle(cuts, epsilon, instance, z_new, r)
            upper_calls.append((z_new, (~out[0]).tolist()))
            return out

        def checking_stopping_round(gaps, *args):
            lower_x, (upper_x, feasible) = lower_points[-1], upper_calls[-1]
            lower, upper = bound_values(case_study, feasible, lower_x, upper_x)
            gaps_oracle = (agent_gap(f, ok, lower_x, upper_x) for f, ok in zip(case_study.objectives, feasible))
            expected.append((lower, upper, *gaps_oracle))
            return run_stopping_round(gaps, *args)

        monkeypatch.setattr(agents, "dlbd_oracle", recording_lower_oracle)
        monkeypatch.setattr(agents, "dubd_oracle", recording_upper_oracle)
        monkeypatch.setattr(sim, "run_stopping_round", checking_stopping_round)
        result = run(case_study, TOPOLOGIES[topology](6), RunParams(method=method))
        assert result.terminated and len(expected) == len(result.records)
        for record, oracle in zip(result.records, expected):
            assert [v.hex() for v in (record.lower, record.upper, *record.gaps)] == [v.hex() for v in oracle]
        assert math.isinf(result.records[0].upper) and math.isfinite(result.final_upper)


class TestRunExits:
    def test_stop_with_infinite_upper_bound_raises(self, case_study, monkeypatch):
        # At iteration 1 no agent has found the upper point feasible yet.
        def stopping_at_once(gaps, *args):
            assert math.inf in gaps
            return (True, *run_stopping_round(gaps, *args)[1:])

        monkeypatch.setattr(sim, "run_stopping_round", stopping_at_once)
        with pytest.raises(NumericalFailure, match="stopping round fired with an infinite upper bound"):
            run(case_study, directed_cycle(6), RunParams())

    def test_upper_verdicts_gate_the_exit(self, case_study, monkeypatch):
        # A run stops only when every upper oracle found the upper point
        # feasible, g_max <= 0 there: with agent 1's verdict held at
        # violated, the upper bound stays infinite and no round stops it.
        assert run(case_study, directed_cycle(6), RunParams(max_iter=12)).terminated
        real_oracle = agents.dubd_oracle

        def agent_1_violated(*args):
            violated, *rest = real_oracle(*args)
            return (violated | (np.arange(len(violated)) == 0), *rest)

        monkeypatch.setattr(agents, "dubd_oracle", agent_1_violated)
        result = run(case_study, directed_cycle(6), RunParams(max_iter=12))
        assert not result.terminated and result.iterations == 12
        assert all(rec.upper == math.inf and rec.gaps[0] == math.inf for rec in result.records)


class TestScaledInstance:
    @pytest.mark.parametrize(
        "seed, iterations, lower, upper",
        [
            (0, 8, 136.7658506, 136.7737032),
            (1, 8, 135.3607708, 135.3688697),
            (2, 5, 135.5539232, 135.5621502),
        ],
    )
    def test_cycle_of_24_terminates(self, seed, iterations, lower, upper):
        result = run(scaled_case_study(24, seed), directed_cycle(24), RunParams(method="I"))
        assert result.terminated
        assert result.iterations == iterations
        assert result.final_lower == pytest.approx(lower, abs=1e-7)
        assert result.final_upper == pytest.approx(upper, abs=1e-7)


    def test_cycle_of_32768_terminates(self):
        # About 2 s: the cut tables hold about 69,000 rows at the end, so
        # per-agent work that grows with the agent count times the cut
        # count would take minutes.
        m = 32768
        result = run(scaled_case_study(m, 0), directed_cycle(m), RunParams(method="I"))
        assert result.terminated
        assert result.iterations == 8
        assert result.final_lower <= result.final_upper
        # max over y in [-1, 1] of the paper quadratic is (x1 - v)^2 + x2^2 - 1.
        x = result.x_opt[0]
        assert ((x[0] - np.linspace(-0.75, 0.75, m)) ** 2 + x[1] ** 2 - 1.0).max() <= solver.FEASIBILITY_TOL

    def test_cycle_of_2048_terminates(self):
        # Thousands of agents on a sparse schedule: the stopping rounds
        # read the closed in-neighbor lists, not an m x m mask.
        m = 2048
        result = run(scaled_case_study(m, 0), directed_cycle(m), RunParams(method="I"))
        assert result.terminated
        assert result.iterations == 8
        assert all(rec.slots_consumed == 3 * (m - 1) + 1 for rec in result.records)
        assert result.final_upper - result.final_lower <= result.accuracy_bound


def per_agent_record(monkeypatch, instance, schedule, params):
    """A run and each agent's (lower scenarios, upper scenarios, epsilon), recorded agent by agent.

    The oracles' lower-level passes alternate lower and upper; replaying
    them, each agent appends its maximizer as a tuple when its g_max is
    positive and, on the upper side, divides its epsilon by r otherwise.
    """
    passes, real_llp = [], agents.solve_llp

    def recording_llp(table, x):
        passes.append(real_llp(table, x))
        return passes[-1]

    monkeypatch.setattr(agents, "solve_llp", recording_llp)
    result = run(instance, schedule, params)
    family = instance.constraint_table.family
    lower, upper, epsilon = [[] for _ in range(instance.m)], [[] for _ in range(instance.m)], [params.eps0] * instance.m
    for k, (g_max, y_star) in enumerate(passes):
        for a, g in enumerate(g_max.tolist()):
            if g > 0.0:
                (upper if k % 2 else lower)[a].append(tuple(y_star[family[a]][a].tolist()))
            elif k % 2:
                epsilon[a] = epsilon[a] / params.r
    return result, lower, upper, epsilon


class TestFinalStates:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("topology", TABLE2_TOPOLOGIES + ("mixed",))
    def test_equal_a_per_agent_record(self, case_study, monkeypatch, method, topology):
        # The six table2 runs, and example1 for agents 4-6 on the cycle.
        instance, schedule = case_study, TOPOLOGIES.get(topology, directed_cycle)(6)
        if topology == "mixed":
            instance = dataclasses.replace(case_study, constraints=case_study.constraints[:3] + (example1_constraint(),) * 3)
        result, lower, upper, epsilon = per_agent_record(monkeypatch, instance, schedule, RunParams(method=method))
        assert result.terminated
        assert [s.agent_id for s in result.final_states] == list(range(1, 7))
        assert [s.epsilon.hex() for s in result.final_states] == [e.hex() for e in epsilon]
        for state, lo, up in zip(result.final_states, lower, upper):
            assert state.lower_scenarios.tobytes() == np.array(lo, dtype=float).tobytes()
            assert state.upper_scenarios.tobytes() == np.array(up, dtype=float).tobytes()
            assert (len(state.lower_scenarios), len(state.upper_scenarios)) == (len(lo), len(up))
        assert sum(map(len, lower)) > 0 and sum(map(len, upper)) > 0


class TestScalarSecondDerivatives:
    def test_mixed_constraint_families(self, case_study):
        # Two constraint families share no batch kernel, so every solve
        # takes the per-cut loop and example1's scalar x-Hessian.
        mixed = dataclasses.replace(case_study, constraints=case_study.constraints[:3] + (example1_constraint(),) * 3)
        result = run(mixed, directed_cycle(6), RunParams())
        assert result.terminated
        assert result.iterations == 8
        assert result.final_lower == pytest.approx(40.95057538, abs=1e-7)
        assert result.final_upper == pytest.approx(40.95623231, abs=1e-7)


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
        assert result.iterations == 2
        assert len(result.final_states) == 6

    def test_inadmissible_restriction_raises(self, case_study):
        with pytest.raises(ConfigError):
            run(case_study, directed_cycle(6), RunParams(eps0=10.0))

    def test_iteration_limit_is_a_numerical_failure(self, case_study, monkeypatch):
        # The active-set finish would end every solve before its first
        # outer iteration; without it the multiplier iteration needs more.
        monkeypatch.setattr(solver, "_active_set_finish", lambda problem, x, lam: None)
        monkeypatch.setattr(solver, "MAX_OUTER", 1)
        with pytest.raises(NumericalFailure, match="lower subproblem solve hit the iteration limit"):
            run(case_study, directed_cycle(6), RunParams())

    @pytest.mark.parametrize("r", [10.0, 1e2, 1e4, 1e6, 1e8, 3e9, 1e10, 1e11, 1e12, 1e14])
    def test_large_r_terminates(self, case_study, r):
        # At r = 3e9 and 1e10 the lower cuts gather near-duplicate
        # scenarios, whose active cuts have no unique multipliers.  From
        # 1e11 on, eps_i falls below the solver's tolerance within a few
        # iterations; every run here still terminates in 7.
        result = run(case_study, directed_cycle(6), RunParams(r=r))
        assert result.terminated
        assert result.final_lower <= F_STAR + 1e-9 <= result.final_upper + 1e-9

    def test_method_validated(self):
        with pytest.raises(ValueError):
            RunParams(method="III")

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            RunParams(max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        assert RunParams(max_iter=np.int64(3)).max_iter == 3

    def test_agent_count_mismatch(self, case_study):
        with pytest.raises(ValueError):
            run(case_study, directed_cycle(4), RunParams())

