import dataclasses

import numpy as np
import pytest

from drcopt import consensus
from drcopt.agents import _with_cuts
from drcopt.consensus import carried_multipliers, consensus_solve, flood_constraints, flood_slots
from drcopt.graph import complete, directed_cycle, make_schedule
from drcopt.problem import SemiInfiniteConstraint
from drcopt.solver import CutTable, FiniteSubproblem, SolveReport, SolveStatus

import helpers
from helpers import cut_table, cut_tuples, per_slot_flood, random_connected_schedule


def table_of_agents(agents, m):
    """A one-family cut table whose row j belongs to agent ``agents[j]`` (0-based), at scenario j."""
    agents = np.asarray(agents, dtype=np.intp)
    scenarios = np.arange(len(agents), dtype=float)[:, None]
    return CutTable(agents, scenarios, np.bincount(agents, minlength=m).astype(np.intp))


def one_row_each(m):
    return table_of_agents(range(m), m)


def own_rows(cuts):
    """Each agent's payload before flooding: the ids of its own rows."""
    return [frozenset(np.flatnonzero(cuts.agent == a).tolist()) for a in range(len(cuts.count))]


def held_rows(held):
    return [frozenset(range(len(h))) for h in held]


class TestFlooding:
    def test_complete_graph_runs_full_bound(self):
        schedule = complete(6)
        cuts = one_row_each(6)
        held, slots = flood_constraints(cuts, schedule)
        assert slots == 5  # T(m-1) even though diameter is 1
        assert all(h is cuts and len(h) == 6 for h in held)

    def test_cycle_delivery_takes_exactly_m_minus_1_hops(self, monkeypatch):
        schedule = directed_cycle(6)
        cuts = one_row_each(6)
        payloads = own_rows(cuts)
        held, slots = flood_constraints(cuts, schedule)
        assert slots == 5
        assert 0 in held_rows(held)[5]
        assert per_slot_flood(payloads, schedule) == (held_rows(held), slots)
        # the hop chain 1->2->...->6 needs every one of the T(m-1) slots:
        # in the per-slot protocol one slot fewer leaves agent 6 without
        # agent 1's row
        monkeypatch.setattr(helpers, "flood_slots", lambda s: s.window * (s.m - 1) - 1)
        short, _ = per_slot_flood(payloads, schedule)
        assert 0 not in short[5]
        assert all(0 in h for h in short[:5])

    def test_alternating_two_agent_schedule(self):
        schedule = make_schedule(2, [{(1, 2)}, {(2, 1)}])
        held, slots = flood_constraints(one_row_each(2), schedule)
        assert slots == schedule.window * 1 == 2
        assert held[0] is held[1]

    def test_single_agent_noop(self):
        schedule = make_schedule(1, [set()])
        cuts = one_row_each(1)
        held, slots = flood_constraints(cuts, schedule)
        assert slots == 0
        assert held == [cuts]

    def test_payload_count_validated(self):
        with pytest.raises(ValueError, match="one row count per agent"):
            flood_constraints(one_row_each(3), directed_cycle(6))


def every_agent_at(instance, ys):
    """A lower cut table with one row per agent, agent a + 1's at scenario ``ys[a]``."""
    return cut_table(instance, [(a + 1, 0, (y,), 0.0) for a, y in enumerate(ys)])[0]


class TestConsensusSolve:
    def test_first_iteration_lower_solution(self, case_study):
        report, slots = consensus_solve(case_study, CutTable.empty(case_study.constraint_table), directed_cycle(6))
        assert slots == 5
        assert np.allclose(report.minimizer, [0.0, 1.0], atol=1e-8)

    def test_second_iteration_lower_solution(self, case_study):
        report, _ = consensus_solve(case_study, every_agent_at(case_study, [1.0] * 6), complete(6))
        assert np.allclose(report.minimizer, [0.0, 0.71875], atol=1e-6)

    def test_bitwise_consensus_across_topologies(self, case_study):
        cuts = every_agent_at(case_study, [1.0] * 6)
        a, _ = consensus_solve(case_study, cuts, directed_cycle(6))
        b, _ = consensus_solve(case_study, cuts, complete(6))
        assert np.array_equal(a.minimizer, b.minimizer)

    def test_one_solve_shared_by_every_agent(self, case_study, monkeypatch):
        calls = []
        real_solve = consensus.solve

        def counting_solve(problem, x0=None, lam0=None):
            calls.append(problem)
            return real_solve(problem, x0, lam0)

        monkeypatch.setattr(consensus, "solve", counting_solve)
        consensus_solve(case_study, every_agent_at(case_study, [a / 6.0 for a in range(1, 7)]), directed_cycle(6))
        assert len(calls) == 1
        assert len(calls[0].cuts) == 6

    def test_multipliers_carried_by_agent_and_index(self, case_study):
        before = [(1, 0, (0.5,), -0.01), (1, 1, (0.7,), -0.01), (3, 0, (0.2,), -0.01)]
        table, rhs = cut_table(case_study, before)
        previous = SolveReport(
            minimizer=np.zeros(2),
            objective_value=0.0,
            max_violation=0.0,
            iterations=1,
            status=SolveStatus.OPTIMAL,
            multipliers=np.array([1.0, 2.0, 3.0]),
            objectives=np.zeros(6),
        )
        # Agent 1's eps shrank, agent 2 and agent 1's third scenario are
        # new.  The rows are appended, so the previous ones are a prefix.
        grown = _with_cuts(table, np.arange(6) < 2, np.array([[0.9], [0.1]] + [[0.0]] * 4))
        epsilon = np.array([0.005, 0.01, 0.01, 0.01, 0.01, 0.01])
        problem = FiniteSubproblem(case_study, grown, -epsilon[grown.agent])
        assert cut_tuples(case_study, problem) == [
            (1, 0, (0.5,), -0.005),
            (3, 0, (0.2,), -0.01),
            (1, 1, (0.7,), -0.005),
            (1, 2, (0.9,), -0.005),
            (2, 0, (0.1,), -0.01),
        ]
        assert carried_multipliers(previous, problem).tolist() == [1.0, 2.0, 3.0, 0.0, 0.0]
        empty = FiniteSubproblem(case_study, CutTable.empty(case_study.constraint_table))
        assert carried_multipliers(dataclasses.replace(previous, multipliers=np.zeros(0)), empty).shape == (0,)


def random_y_star(rng, table):
    """One maximizer per agent drawn from its uncertainty box, in ``solve_llp``'s layout."""
    y_star = np.zeros((len(table.family), table.n_y))
    for f, boxes in enumerate(table.boxes):
        members = np.flatnonzero(table.family == f)
        y_star[members, : boxes.shape[1]] = boxes[:, :, 0] + rng.random(boxes.shape[:2]) * (boxes[:, :, 1] - boxes[:, :, 0])
    return y_star


class TestCutTable:
    """Table order and carried multipliers against (agent_id, insertion_index, scenario, rhs) tuples.

    Each trial appends random phases, as the oracles do, to a table and to
    a list of tuples, and shrinks random agents' eps_i between phases.
    """

    @pytest.mark.parametrize("families", [1, 2])
    def test_random_append_sequences(self, case_study, rng, families):
        # Two families: agents 4-6 hold a constraint with two-dimensional
        # uncertainty, so the families' scenarios differ in n_y.
        instance = case_study
        if families == 2:
            plane = SemiInfiniteConstraint(
                batch=lambda x, coefficients, ys: None, coefficients=np.zeros(0), uncertainty_box=np.array([[0.0, 1.0]] * 2)
            )
            instance = dataclasses.replace(case_study, constraints=case_study.constraints[:3] + (plane,) * 3)
        table = instance.constraint_table
        for _ in range(40):
            cuts, tuples, epsilon = CutTable.empty(table), [], np.full(instance.m, 0.01)
            previous = FiniteSubproblem(instance, cuts, -epsilon[cuts.agent])
            assert cut_tuples(instance, previous) == []
            for _ in range(int(rng.integers(0, 6))):
                violated = rng.random(instance.m) < rng.choice([0.0, 0.3, 1.0])
                y_star = random_y_star(rng, table)
                cuts = _with_cuts(cuts, violated, y_star)
                for a in np.flatnonzero(violated).tolist():
                    k = sum(1 for t in tuples if t[0] == a + 1)
                    width = table.boxes[table.family[a]].shape[1]
                    tuples.append((a + 1, k, tuple(y_star[a, :width].tolist())))
                epsilon = np.where(rng.random(instance.m) < 0.5, epsilon / 2.0, epsilon)
                problem = FiniteSubproblem(instance, cuts, -epsilon[cuts.agent])
                assert cut_tuples(instance, problem) == [(a, k, y, -float(epsilon[a - 1])) for a, k, y in tuples]
                assert cuts.count.tolist() == np.bincount([t[0] - 1 for t in tuples], minlength=instance.m).tolist()
                multipliers = rng.random(len(previous.cuts)) * (rng.random(len(previous.cuts)) < 0.5)
                report = SolveReport(
                    minimizer=np.zeros(2),
                    objective_value=0.0,
                    max_violation=0.0,
                    iterations=0,
                    status=SolveStatus.OPTIMAL,
                    multipliers=multipliers,
                    objectives=np.zeros(instance.m),
                )
                # Each cut keeps its own multiplier, matched by (agent_id, insertion_index); a new one starts at 0.
                by_cut = dict(zip((t[:2] for t in cut_tuples(instance, previous)), multipliers.tolist()))
                oracle = [by_cut.get(t[:2], 0.0) for t in cut_tuples(instance, problem)]
                assert carried_multipliers(report, problem).tolist() == oracle
                previous = problem


class TestMatchesPerSlotOracle:
    """Returning the table equals flooding each agent's own rows slot by slot, from any start slot.

    This is the flooding argument the union rests on: when every T-slot
    window is strongly connected, T*(m-1) slots from any start give every
    agent every payload.
    """

    def test_random_schedules_and_start_slots(self, rng):
        windows = set()
        for _ in range(300):
            schedule = random_connected_schedule(rng, m_max=6, p_max=3)
            windows.add(schedule.window)
            # Rows of random agents; some agents hold none.
            cuts = table_of_agents(rng.integers(0, schedule.m, int(rng.integers(0, 4 * schedule.m))), schedule.m)
            payloads = own_rows(cuts)
            start = int(rng.integers(0, 3 * schedule.period))
            held, slots = per_slot_flood(payloads, schedule, start)
            assert held == [frozenset(range(len(cuts)))] * schedule.m
            union, union_slots = flood_constraints(cuts, schedule)
            assert (held_rows(union), union_slots) == (held, slots)
        assert max(windows) > 1
