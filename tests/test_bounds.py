import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from drcopt.bounds import (
    accuracy_sweep,
    method1_accuracy,
    method2_accuracy,
    neighborhood_weights,
)
from drcopt.graph import complete, customized, directed_cycle, make_schedule

from helpers import aggregate_gap_load, box_lp_vertex_max, random_connected_schedule

EPS_F = 0.01


class TestMethod1:
    def test_formula(self):
        assert method1_accuracy(6, 0.01) == pytest.approx(0.06)
        assert method1_accuracy(1, 0.01) == pytest.approx(0.01)
        assert method1_accuracy(50, 0.01) == pytest.approx(0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            method1_accuracy(0, 0.01)
        with pytest.raises(ValueError):
            method1_accuracy(3, 0.0)
        with pytest.raises(ValueError):
            method1_accuracy(3, float("nan"))
        with pytest.raises(ValueError):
            method1_accuracy(3, float("inf"))


class TestWeights:
    def test_static_graph_weights(self):
        assert neighborhood_weights(complete(4)) == [4, 4, 4, 4]
        assert neighborhood_weights(directed_cycle(5)) == [2, 2, 2, 2, 2]
        # customized(4): clique {1,2,3} + pendant 4 on node 3
        assert neighborhood_weights(customized(4)) == [3, 3, 4, 2]

    def test_window_plus_out_degrees(self, rng):
        for _ in range(30):
            s = random_connected_schedule(rng)
            sends = [j for t in range(s.window) for j, _ in s.slots[t % s.period]]
            assert neighborhood_weights(s) == [s.window + sends.count(node) for node in range(1, s.m + 1)]

    def test_identity_against_triple_sum(self, rng):
        # w_j must equal the coefficient of e_j in the literal aggregate.
        for _ in range(30):
            schedule = random_connected_schedule(rng)
            weights = neighborhood_weights(schedule)
            gaps = list(rng.uniform(0, 1, size=schedule.m))
            literal = aggregate_gap_load(schedule, gaps)
            assert literal == pytest.approx(sum(w * e for w, e in zip(weights, gaps)))


class TestMethod2:
    def test_complete_closed_form(self):
        for m in range(2, 51):
            assert method2_accuracy(complete(m), EPS_F) == pytest.approx(EPS_F)

    def test_cycle_closed_form(self):
        for m in range(2, 51):
            assert method2_accuracy(directed_cycle(m), EPS_F) == pytest.approx(m * EPS_F / 2)

    @pytest.mark.parametrize("eps_f", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_eps_f(self, eps_f):
        with pytest.raises(ValueError):
            method2_accuracy(complete(3), eps_f)

    def test_single_agent(self):
        schedule = make_schedule(1, [set()])
        assert method2_accuracy(schedule, EPS_F) == pytest.approx(EPS_F)

    def test_peak_memory_stays_below_one_mib(self):
        # A random Hamiltonian cycle on 1024 agents, each edge in one of 16
        # slots: a dense (period, m, m) bool mask alone would take 16 MiB.
        m, period = 1024, 16
        rng = np.random.default_rng(0)
        order = [int(i) for i in rng.permutation(m) + 1]
        slots = [set() for _ in range(period)]
        for k, phase in enumerate(rng.integers(period, size=m)):
            slots[phase].add((order[k], order[(k + 1) % m]))
        schedule = make_schedule(m, slots)
        assert schedule.window == period
        tracemalloc.start()
        try:
            method2_accuracy(schedule, EPS_F)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_customized_between_complete_and_cycle(self):
        for m in range(3, 20):
            mid = method2_accuracy(customized(m), EPS_F)
            assert method2_accuracy(complete(m), EPS_F) <= mid + 1e-12
            assert mid <= method2_accuracy(directed_cycle(m), EPS_F) + 1e-12

    def test_never_exceeds_method1(self, rng):
        for _ in range(20):
            schedule = random_connected_schedule(rng)
            bound = method2_accuracy(schedule, EPS_F)
            assert EPS_F - 1e-12 <= bound <= schedule.m * EPS_F + 1e-12

    def test_greedy_matches_vertex_enumeration(self, rng):
        for generator, m in [(complete, 4), (directed_cycle, 5), (customized, 6)]:
            schedule = generator(m)
            weights = neighborhood_weights(schedule)
            capacity = schedule.m * schedule.window * EPS_F
            brute = box_lp_vertex_max(weights, capacity, EPS_F)
            assert method2_accuracy(schedule, EPS_F) == pytest.approx(brute, abs=1e-12)
        for _ in range(25):
            schedule = random_connected_schedule(rng, m_max=6)
            weights = neighborhood_weights(schedule)
            capacity = schedule.m * schedule.window * EPS_F
            brute = box_lp_vertex_max(weights, capacity, EPS_F)
            assert method2_accuracy(schedule, EPS_F) == pytest.approx(brute, abs=1e-12)

    def test_greedy_matches_linprog(self, rng):
        for _ in range(15):
            schedule = random_connected_schedule(rng)
            weights = neighborhood_weights(schedule)
            capacity = schedule.m * schedule.window * EPS_F
            res = linprog(
                c=[-1.0] * schedule.m,
                A_ub=[weights],
                b_ub=[capacity],
                bounds=[(0.0, EPS_F)] * schedule.m,
                method="highs",
            )
            assert method2_accuracy(schedule, EPS_F) == pytest.approx(-res.fun, abs=1e-9)


class TestSweep:
    def test_rows_and_closed_forms(self):
        rows = accuracy_sweep("cycle", directed_cycle, range(2, 11), EPS_F)
        rows += accuracy_sweep("complete", complete, range(2, 11), EPS_F)
        assert len(rows) == 18
        for row in rows:
            assert row.method1_bound == pytest.approx(row.m * EPS_F)
            if row.topology == "cycle":
                assert row.method2_bound == pytest.approx(row.m * EPS_F / 2)
            else:
                assert row.method2_bound == pytest.approx(EPS_F)
