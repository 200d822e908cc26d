import numpy as np
import pytest

from drcopt import consensus
from drcopt.agents import initial_states, lower_cuts
from drcopt.consensus import consensus_solve, flood_constraints, flood_slots
from drcopt.graph import GraphSchedule, complete, directed_cycle, make_schedule
from drcopt.problem import NumericalFailure


def single_tuple_payloads(m):
    return [frozenset({(i, 0, (float(i),), 0.0)}) for i in range(1, m + 1)]


class TestFlooding:
    def test_complete_graph_runs_full_bound(self):
        schedule = complete(6)
        held, slots = flood_constraints(single_tuple_payloads(6), schedule)
        assert slots == 5  # T(m-1) even though diameter is 1
        union = frozenset().union(*single_tuple_payloads(6))
        assert all(h == union for h in held)

    def test_cycle_delivery_takes_exactly_m_minus_1_hops(self, monkeypatch):
        schedule = directed_cycle(6)
        payloads = single_tuple_payloads(6)
        held, slots = flood_constraints(payloads, schedule)
        assert slots == 5
        assert (1, 0, (1.0,), 0.0) in held[5]
        # the hop chain 1->2->...->6 needs every one of the T(m-1) slots:
        # one slot fewer leaves agent 6 without agent 1's tuple
        monkeypatch.setattr(consensus, "flood_slots", lambda s: s.window * (s.m - 1) - 1)
        with pytest.raises(NumericalFailure, match="missed tuples"):
            flood_constraints(payloads, schedule)

    def test_alternating_two_agent_schedule(self):
        schedule = make_schedule(2, [{(1, 2)}, {(2, 1)}])
        held, slots = flood_constraints(single_tuple_payloads(2), schedule)
        assert slots == schedule.window * 1 == 2
        assert held[0] == held[1]

    def test_single_agent_noop(self):
        schedule = make_schedule(1, [set()])
        held, slots = flood_constraints(single_tuple_payloads(1), schedule)
        assert slots == 0
        assert held[0] == single_tuple_payloads(1)[0]

    def test_payload_count_validated(self):
        with pytest.raises(ValueError):
            flood_constraints(single_tuple_payloads(3), directed_cycle(6))


class TestConsensusSolve:
    def test_first_iteration_lower_solution(self, case_study):
        states = initial_states(case_study, 0.01)
        payloads = [frozenset(lower_cuts(s)) for s in states]
        report, slots = consensus_solve(case_study, payloads, directed_cycle(6))
        assert slots == 5
        assert np.allclose(report.minimizer, [0.0, 1.0], atol=1e-8)

    def test_second_iteration_lower_solution(self, case_study):
        states = initial_states(case_study, 0.01)
        for s in states:
            s.lower_scenarios.append((1.0,))
        payloads = [frozenset(lower_cuts(s)) for s in states]
        report, _ = consensus_solve(case_study, payloads, complete(6))
        assert np.allclose(report.minimizer, [0.0, 0.71875], atol=1e-6)

    def test_bitwise_consensus_across_topologies(self, case_study):
        states = initial_states(case_study, 0.01)
        for s in states:
            s.lower_scenarios.append((1.0,))
        payloads = [frozenset(lower_cuts(s)) for s in states]
        a, _ = consensus_solve(case_study, payloads, directed_cycle(6))
        b, _ = consensus_solve(case_study, payloads, complete(6))
        assert np.array_equal(a.minimizer, b.minimizer)

    def test_one_solve_shared_by_every_agent(self, case_study, monkeypatch):
        calls = []
        real_solve = consensus.solve

        def counting_solve(problem, start=None):
            calls.append(problem)
            return real_solve(problem, start)

        monkeypatch.setattr(consensus, "solve", counting_solve)
        states = initial_states(case_study, 0.01)
        for s in states:
            s.lower_scenarios.append((float(s.agent_id) / 6.0,))
        payloads = [frozenset(lower_cuts(s)) for s in states]
        consensus_solve(case_study, payloads, directed_cycle(6))
        assert len(calls) == 1
        assert len(calls[0].cuts) == 6

    def test_disconnected_schedule_fails_the_flood_before_solving(self, case_study, monkeypatch):
        monkeypatch.setattr(consensus, "solve", lambda *args: pytest.fail("solve called"))
        # 1 -> 2 -> ... -> 6 without the closing edge: agent 1 never hears from the others.
        path = frozenset((i, i + 1) for i in range(1, 6))
        schedule = GraphSchedule(m=6, slots=(path,), window=1)
        states = initial_states(case_study, 0.01)
        for s in states:
            s.lower_scenarios.append((1.0,))
        payloads = [frozenset(lower_cuts(s)) for s in states]
        with pytest.raises(AssertionError, match="missed tuples"):
            consensus_solve(case_study, payloads, schedule)
