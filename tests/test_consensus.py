import numpy as np
import pytest

from drcopt import consensus
from drcopt.agents import initial_states, lower_cuts
from drcopt.consensus import carried_multipliers, consensus_solve, flood_constraints, flood_slots
from drcopt.graph import GraphSchedule, complete, directed_cycle, make_schedule
from drcopt.problem import NumericalFailure
from drcopt.solver import SolveReport, SolveStatus

from helpers import per_slot_flood, random_connected_schedule


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

        def counting_solve(problem, x0=None, lam0=None):
            calls.append(problem)
            return real_solve(problem, x0, lam0)

        monkeypatch.setattr(consensus, "solve", counting_solve)
        states = initial_states(case_study, 0.01)
        for s in states:
            s.lower_scenarios.append((float(s.agent_id) / 6.0,))
        payloads = [frozenset(lower_cuts(s)) for s in states]
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

    def test_disconnected_schedule_fails_the_flood_before_solving(self, case_study, monkeypatch):
        monkeypatch.setattr(consensus, "solve", lambda *args: pytest.fail("solve called"))
        # 1 -> 2 -> ... -> 6 without the closing edge: agent 1 never hears from the others.
        path = frozenset((i, i + 1) for i in range(1, 6))
        schedule = GraphSchedule(m=6, slots=(path,), window=1)
        states = initial_states(case_study, 0.01)
        for s in states:
            s.lower_scenarios.append((1.0,))
        payloads = [frozenset(lower_cuts(s)) for s in states]
        with pytest.raises(NumericalFailure, match="missed tuples"):
            consensus_solve(case_study, payloads, schedule)


def random_payloads(rng, m):
    """Per-agent cut sets drawn from a small pool, so agents share cuts; some are empty."""
    pool = [(int(a), 0, (float(y),), 0.0) for a in range(1, m + 1) for y in range(3)]
    return [
        frozenset(pool[k] for k in np.flatnonzero(rng.random(len(pool)) < rng.choice([0.0, 0.1, 0.4])))
        for _ in range(m)
    ]


def flood_outcome(flood, payloads, schedule, start):
    try:
        return flood(payloads, schedule, start)
    except NumericalFailure as exc:
        return str(exc)


class TestMatchesPerSlotOracle:
    """The reachability flood equals the per-slot frozenset flood."""

    def test_random_schedules_and_start_slots(self, rng):
        outcomes = {"complete": 0, "missed": 0}
        for _ in range(300):
            schedule = random_connected_schedule(rng, m_max=6, p_max=3)
            # Claiming a shorter window than the true T floods fewer slots,
            # so some agents miss payloads: the failure must match too.
            window = int(rng.integers(1, schedule.window + 1))
            schedule = GraphSchedule(m=schedule.m, slots=schedule.slots, window=window)
            payloads = random_payloads(rng, schedule.m)
            start = int(rng.integers(0, 3 * schedule.period))
            got = flood_outcome(flood_constraints, payloads, schedule, start)
            assert got == flood_outcome(per_slot_flood, payloads, schedule, start)
            outcomes["missed" if isinstance(got, str) else "complete"] += 1
        assert min(outcomes.values()) > 0

    def test_a_missed_empty_payload_does_not_raise(self):
        # Along the path 1 -> 2 -> ... -> 6 agent 1 hears nobody, but every
        # other payload is empty, so agent 1 still holds the union.
        path = frozenset((i, i + 1) for i in range(1, 6))
        schedule = GraphSchedule(m=6, slots=(path,), window=1)
        payloads = single_tuple_payloads(1) + [frozenset()] * 5
        held, slots = flood_constraints(payloads, schedule)
        assert (held, slots) == per_slot_flood(payloads, schedule)
        assert held == [payloads[0]] * 6
