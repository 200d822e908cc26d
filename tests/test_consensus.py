import numpy as np
import pytest

from drcopt import consensus
from drcopt.agents import AgentState, lower_cuts
from drcopt.consensus import carried_multipliers, consensus_solve, flood_constraints, flood_slots
from drcopt.graph import complete, directed_cycle, make_schedule
from drcopt.solver import SolveReport, SolveStatus

import helpers
from helpers import per_slot_flood, random_connected_schedule


def fresh_states(m):
    return [AgentState(agent_id=i + 1, epsilon=0.01) for i in range(m)]


def single_tuple_payloads(m):
    return [[(i, 0, (float(i),), 0.0)] for i in range(1, m + 1)]


class TestFlooding:
    def test_complete_graph_runs_full_bound(self):
        schedule = complete(6)
        held, slots = flood_constraints(single_tuple_payloads(6), schedule)
        assert slots == 5  # T(m-1) even though diameter is 1
        union = frozenset().union(*single_tuple_payloads(6))
        assert all(len(h) == 6 and frozenset(h) == union for h in held)

    def test_cycle_delivery_takes_exactly_m_minus_1_hops(self, monkeypatch):
        schedule = directed_cycle(6)
        payloads = single_tuple_payloads(6)
        held, slots = flood_constraints(payloads, schedule)
        assert slots == 5
        assert (1, 0, (1.0,), 0.0) in held[5]
        assert per_slot_flood(payloads, schedule) == ([frozenset(h) for h in held], slots)
        # the hop chain 1->2->...->6 needs every one of the T(m-1) slots:
        # in the per-slot protocol one slot fewer leaves agent 6 without
        # agent 1's tuple
        monkeypatch.setattr(helpers, "flood_slots", lambda s: s.window * (s.m - 1) - 1)
        short, _ = per_slot_flood(payloads, schedule)
        assert (1, 0, (1.0,), 0.0) not in short[5]
        assert all((1, 0, (1.0,), 0.0) in h for h in short[:5])

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
        states = fresh_states(case_study.m)
        payloads = [lower_cuts(s) for s in states]
        report, slots = consensus_solve(case_study, payloads, directed_cycle(6))
        assert slots == 5
        assert np.allclose(report.minimizer, [0.0, 1.0], atol=1e-8)

    def test_second_iteration_lower_solution(self, case_study):
        states = fresh_states(case_study.m)
        for s in states:
            s.lower_scenarios.append((1.0,))
        payloads = [lower_cuts(s) for s in states]
        report, _ = consensus_solve(case_study, payloads, complete(6))
        assert np.allclose(report.minimizer, [0.0, 0.71875], atol=1e-6)

    def test_bitwise_consensus_across_topologies(self, case_study):
        states = fresh_states(case_study.m)
        for s in states:
            s.lower_scenarios.append((1.0,))
        payloads = [lower_cuts(s) for s in states]
        a, _ = consensus_solve(case_study, payloads, directed_cycle(6))
        b, _ = consensus_solve(case_study, payloads, complete(6))
        assert np.array_equal(a.minimizer, b.minimizer)

    def test_one_solve_shared_by_every_agent(self, case_study, monkeypatch):
        calls = []
        real_solve = consensus.solve

        def counting_solve(problem, x0=None, lam0=None):
            calls.append(problem)
            return real_solve(problem, x0, lam0)

        monkeypatch.setattr(consensus, "solve", counting_solve)
        states = fresh_states(case_study.m)
        for s in states:
            s.lower_scenarios.append((float(s.agent_id) / 6.0,))
        payloads = [lower_cuts(s) for s in states]
        consensus_solve(case_study, payloads, directed_cycle(6))
        assert len(calls) == 1
        assert len(calls[0].cuts) == 6

    def test_multipliers_carried_by_agent_and_index(self, case_study):
        previous = SolveReport(
            minimizer=np.zeros(2),
            objective_value=0.0,
            max_violation=0.0,
            iterations=1,
            status=SolveStatus.OPTIMAL,
            multipliers=np.array([1.0, 2.0, 3.0]),
            cuts=((1, 0, (0.5,), -0.01), (1, 1, (0.7,), -0.01), (3, 0, (0.2,), -0.01)),
        )
        # Agent 1's eps shrank, agent 2 and agent 1's third scenario are new.
        cuts = (
            (1, 0, (0.5,), -0.005),
            (1, 1, (0.7,), -0.005),
            (1, 2, (0.9,), -0.005),
            (2, 0, (0.1,), -0.01),
            (3, 0, (0.2,), -0.01),
        )
        assert carried_multipliers(previous, cuts).tolist() == [1.0, 2.0, 0.0, 0.0, 3.0]
        assert carried_multipliers(previous, ()).shape == (0,)


def random_payloads(rng, m):
    """Per-agent cut sets drawn from a small pool, so agents share cuts; some are empty."""
    pool = [(int(a), 0, (float(y),), 0.0) for a in range(1, m + 1) for y in range(3)]
    return [
        frozenset(pool[k] for k in np.flatnonzero(rng.random(len(pool)) < rng.choice([0.0, 0.1, 0.4])))
        for _ in range(m)
    ]


class TestMatchesPerSlotOracle:
    """Returning the union equals flooding slot by slot, from any start slot.

    This is the flooding argument the union rests on: when every T-slot
    window is strongly connected, T*(m-1) slots from any start give every
    agent every payload.
    """

    def test_random_schedules_and_start_slots(self, rng):
        windows = set()
        for _ in range(300):
            schedule = random_connected_schedule(rng, m_max=6, p_max=3)
            windows.add(schedule.window)
            payloads = random_payloads(rng, schedule.m)
            start = int(rng.integers(0, 3 * schedule.period))
            held, slots = per_slot_flood(payloads, schedule, start)
            assert held == [frozenset().union(*payloads)] * schedule.m
            # The payloads share cuts here; the concatenation holds each
            # payload's cuts, so as a set it is the union.
            union, union_slots = flood_constraints(payloads, schedule)
            assert ([frozenset(h) for h in union], union_slots) == (held, slots)
        assert max(windows) > 1
