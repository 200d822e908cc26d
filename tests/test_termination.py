import functools
import logging
import math
import operator

import numpy as np
import pytest

from drcopt import termination
from drcopt.graph import complete, directed_cycle, make_schedule
from drcopt.termination import run_stopping_round, stop_threshold

from helpers import closed_in, edge_scan_in_neighbors, per_slot_stopping_round, random_connected_schedule
from workloads import period3_cycle

EPS_F = 0.01


def criterion_method1(gaps, eps_f):
    return all(e <= eps_f for e in gaps)


def criterion_method2(gaps, schedule, eps_f, start_slot, n_slots):
    for offset in range(n_slots):
        slot = start_slot + offset
        for i in range(1, schedule.m + 1):
            neighborhood = (i,) + edge_scan_in_neighbors(schedule, i, slot)
            if functools.reduce(operator.add, (gaps[j - 1] for j in neighborhood)) > eps_f:
                return False
    return True


def final_counters(gaps, schedule, method, start_slot=0):
    """(h, c) after the round's last slot, from the per-slot oracle, once the round agrees with it."""
    stop, slots, counters = per_slot_stopping_round(gaps, schedule, method, EPS_F, start_slot)
    assert_same_outcome(gaps, schedule, method, start_slot, (stop, slots, counters))
    return [n.h for n in counters], [n.c for n in counters]


def assert_same_outcome(gaps, schedule, method, start_slot, oracle):
    """``run_stopping_round`` gives the oracle's (stop, slots), and its (h, c) whenever it returns them.

    Returns whether the round was decided before its last slot.
    """
    stop, slots, counters = run_stopping_round(gaps, schedule, method, EPS_F, start_slot)
    want_stop, want_slots, want = oracle
    assert (stop, slots) == (want_stop, want_slots)
    if counters is None:
        assert not stop
        return True
    h, c = counters
    assert h.tolist() == [n.h for n in want]
    assert c.tolist() == [n.c for n in want]
    return False


class TestStepMethod1:
    def test_counters_grow_when_gaps_small(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        assert stop_threshold(schedule) == 2
        assert final_counters([0.005, 0.009], schedule, "I") == ([2, 2], [2, 2])

    def test_infinite_gap_blocks_everyone(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        h, c = final_counters([math.inf, 0.0], schedule, "I")
        assert c == [0, 0]  # agent 2 sees agent 1's bad gap
        assert max(h) <= 1

    def test_nan_gap_blocks_everyone(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        assert final_counters([math.nan, 0.0], schedule, "I")[1] == [0, 0]

    def test_gap_at_threshold_passes(self):
        schedule = directed_cycle(3)
        assert final_counters([EPS_F] * 3, schedule, "I") == ([3, 3, 3], [3, 3, 3])

    def test_zero_gaps_identical_to_small_gaps(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        assert final_counters([0.0, 0.0], schedule, "I") == final_counters([0.005, 0.009], schedule, "I")

    def test_bad_gap_resets_only_its_closed_out_neighborhood(self):
        # Cycle 1 -> 2 -> 3 -> 1: agent 2's gap fails agents 2 and 3 only.
        h, c = final_counters([0.0, 0.02, 0.0], directed_cycle(3), "I")
        assert c == [3, 0, 0]
        assert h == [1, 1, 1]

    def test_counters_are_integer_arrays(self):
        # Every test holds (closed form), or the round runs to its last
        # slot (a Method II test that fails only in the second phase).
        rounds = (
            ([0.0] * 3, directed_cycle(3), "I", 0),
            ([0.005, 0.003, 0.003], make_schedule(3, [{(2, 1)}, {(3, 1), (3, 2), (1, 3), (2, 1)}]), "II", 2),
        )
        for gaps, schedule, method, start in rounds:
            _, _, (h, c) = run_stopping_round(gaps, schedule, method, EPS_F, start)
            assert h.dtype.kind == c.dtype.kind == "i"
            assert h.shape == c.shape == (schedule.m,)
        # A round decided early returns no counters.
        assert run_stopping_round([0.0, 0.02, 0.0], directed_cycle(3), "I", EPS_F) == (False, 3, None)


class TestStepMethod2:
    def test_neighborhood_sum_at_threshold_grows(self):
        schedule = complete(6)
        assert final_counters([EPS_F / 6] * 6, schedule, "II") == ([6] * 6, [6] * 6)

    def test_neighborhood_sum_above_threshold_resets(self):
        h, c = final_counters([EPS_F / 3] * 6, complete(6), "II")
        assert c == [0] * 6
        assert max(h) <= 1

    def test_single_agent_reduces_to_local_test(self):
        schedule = make_schedule(1, [set()])
        assert final_counters([0.009], schedule, "II") == ([1], [1])
        assert final_counters([0.011], schedule, "II") == ([1], [0])
        # The one slot's h is 1 whatever the test: the test alone decides.
        for method in ("I", "II"):
            assert run_stopping_round([0.009], schedule, method, EPS_F)[0]
            assert run_stopping_round([0.011], schedule, method, EPS_F) == (False, 1, None)

    def test_gap_sum_is_a_left_fold_in_neighborhood_order(self):
        # Own gap first, then the in-neighbors ascending.  On complete(3),
        # agents 1 and 2 add up to 0.010000000000000002 and fail, agent 3's
        # order 0.001 + 0.007 + 0.002 gives 0.01 and passes; a compensated
        # sum, as builtin sum is from Python 3.12 on, would pass all three.
        # Past 8 terms np.sum adds pairwise: on complete(9) it gives 0.01
        # for agent 1, whose left fold is 0.010000000000000002 and fails.
        # On a cycle where every agent also sends to agent 1, that sum is
        # the only one that fails, so a pairwise sum would stop the round.
        long_gaps = [EPS_F * n / 10 for n in (1, 3, 0, 3, 0, 1, 1, 1, 0)]
        to_agent_1 = make_schedule(9, [{(i, i % 9 + 1) for i in range(1, 10)} | {(j, 1) for j in range(2, 10)}])
        rounds = (
            ([0.007, 0.002, 0.001], complete(3), ([1, 1, 1], [0, 0, 3])),
            (long_gaps, complete(9), ([1] * 9, [0] * 9)),
            (long_gaps, to_agent_1, ([1, 1, 2, 3, 4, 5, 6, 7, 8], [0] + [9] * 8)),
        )
        for gaps, schedule, want in rounds:
            assert final_counters(gaps, schedule, "II") == want
            stop, _, counters = per_slot_stopping_round(gaps, schedule, "II", EPS_F)
            assert not stop
            assert ([n.h for n in counters], [n.c for n in counters]) == want

    def test_time_varying_neighborhood(self):
        # Agent 2 hears agent 1 in even slots, agent 1 hears agent 2 in odd
        # ones: whoever listens fails the sum 0.006 + 0.006 in that slot.
        schedule = make_schedule(2, [{(1, 2)}, {(2, 1)}])
        h, c = final_counters([0.006, 0.006], schedule, "II")
        assert stop_threshold(schedule) == 3
        assert c == [1, 0]  # slots 0, 1, 2: agent 1 fails in slot 1, agent 2 in slots 0 and 2
        assert h == [1, 1]


class TestStoppingRound:
    def test_method1_stop_on_cycle(self):
        schedule = directed_cycle(6)
        stop, slots, _ = run_stopping_round([0.001] * 6, schedule, "I", EPS_F)
        assert stop
        assert slots == 6
        _, _, counters = per_slot_stopping_round([0.001] * 6, schedule, "I", EPS_F)
        assert [n.h for n in counters] == [6] * 6

    def test_method1_single_bad_gap_blocks(self):
        schedule = directed_cycle(6)
        stop, _, _ = run_stopping_round([0.001] * 5 + [0.02], schedule, "I", EPS_F)
        assert not stop

    def test_method2_stop_on_complete(self):
        schedule = complete(6)
        stop, _, _ = run_stopping_round([EPS_F / 6] * 6, schedule, "II", EPS_F)
        assert stop

    def test_gap_count_validated(self):
        with pytest.raises(ValueError):
            run_stopping_round([0.0], directed_cycle(3), "I", EPS_F)

    def test_method_validated(self):
        with pytest.raises(ValueError, match="method"):
            run_stopping_round([0.0] * 3, directed_cycle(3), "III", EPS_F)


class TestRandomizedSoundness:
    def test_method1_no_false_positives(self, rng):
        stops = 0
        for _ in range(150):
            schedule = random_connected_schedule(rng)
            gaps = list(EPS_F * rng.uniform(0, 2, size=schedule.m))
            start = int(rng.integers(0, 2 * schedule.period))
            stop, _, _ = run_stopping_round(gaps, schedule, "I", EPS_F, start)
            if stop:
                stops += 1
                assert criterion_method1(gaps, EPS_F)
        assert stops > 0

    def test_method2_no_false_positives(self, rng):
        stops = 0
        for _ in range(150):
            schedule = random_connected_schedule(rng)
            gaps = list(EPS_F * rng.uniform(0, 0.8, size=schedule.m))
            start = int(rng.integers(0, 2 * schedule.period))
            stop, slots, _ = run_stopping_round(gaps, schedule, "II", EPS_F, start)
            if stop:
                stops += 1
                assert criterion_method2(gaps, schedule, EPS_F, start, slots)
        assert stops > 0

    def test_method1_stops_exactly_when_every_gap_is_within_eps_f(self, rng):
        # Over one round Method I is the global test itself, on any
        # uniformly connected schedule and from any start slot.
        outcomes = set()
        for _ in range(200):
            schedule = random_connected_schedule(rng)
            gaps = list(EPS_F * rng.uniform(0, 1.2, size=schedule.m))
            start = int(rng.integers(0, 2 * schedule.period))
            stop, _, _ = run_stopping_round(gaps, schedule, "I", EPS_F, start)
            assert stop == criterion_method1(gaps, EPS_F)
            outcomes.add(stop)
        assert outcomes == {True, False}

    def test_completeness_for_static_criteria(self, rng):
        # When the condition holds for every agent at every slot, the
        # counters must grow linearly and the round must stop.
        for _ in range(60):
            schedule = random_connected_schedule(rng)
            gaps = list(EPS_F * rng.uniform(0, 1, size=schedule.m))
            stop, _, _ = run_stopping_round(gaps, schedule, "I", EPS_F)
            assert stop
            _, _, counters = per_slot_stopping_round(gaps, schedule, "I", EPS_F)
            assert all(n.h >= stop_threshold(schedule) for n in counters)

    def test_method1_round_with_a_failing_gap_runs_no_slot(self, monkeypatch):
        # A threshold of 2 on the cycle 1 -> 2 -> 3 -> 4 -> 1 is too short
        # to carry agent 3's bad gap to agent 2, two hops away, so slot by
        # slot agent 2 would stop alone.  Agent 3's own test fails in the
        # first slot, which decides a Method I round before any slot runs,
        # whatever the threshold: a Method I stop is always simultaneous.
        monkeypatch.setattr(termination, "stop_threshold", lambda schedule: 2)
        assert run_stopping_round([0.0, 0.0, 0.02, 0.0], directed_cycle(4), "I", EPS_F) == (False, 2, None)

    def test_method2_stop_need_not_be_simultaneous(self, caplog):
        schedule = make_schedule(3, [{(2, 1)}, {(3, 1), (3, 2), (1, 3), (2, 1)}])
        with caplog.at_level(logging.WARNING, logger="drcopt.termination"):
            stop, _, _ = run_stopping_round([0.005, 0.003, 0.003], schedule, "II", EPS_F, 2)
        assert stop
        assert "not simultaneous" in caplog.text
        _, _, counters = per_slot_stopping_round([0.005, 0.003, 0.003], schedule, "II", EPS_F, 2)
        assert [(n.h, n.c) for n in counters] == [(1, 1), (5, 5), (3, 5)]


def random_gaps(rng, schedule):
    """Gaps that put closed-neighborhood tests on their edge.

    Either one random closed neighborhood gets gaps eps_f * n_j / 10 with
    the integers n_j summing to 10, so its sum is eps_f up to a rounding
    that depends on the order of the terms, or each agent draws from
    zero, eps_f itself, the next float above it, inf, NaN and uniform
    values.
    """
    m = schedule.m
    if rng.random() < 0.5:
        gaps = [float(rng.uniform(0, EPS_F / m)) for _ in range(m)]
        row = closed_in(schedule)[rng.integers(schedule.period), rng.integers(m)]
        members = np.flatnonzero(row)
        tenths = np.bincount(rng.integers(0, len(members), size=10), minlength=len(members))
        for j, n in zip(members, tenths):
            gaps[j] = EPS_F * int(n) / 10
        return gaps
    edge = [0.0, EPS_F, float(np.nextafter(EPS_F, 1.0)), math.inf, math.nan, EPS_F / 2]
    return [float(rng.choice(edge)) if rng.random() < 0.5 else float(rng.uniform(0, 2 * EPS_F)) for _ in range(m)]


class TestMatchesPerSlotOracle:
    """The round equals the per-agent CounterState recursion."""

    @staticmethod
    def assert_same_round(gaps, schedule, method, start):
        oracle = per_slot_stopping_round(gaps, schedule, method, EPS_F, start)
        assert_same_outcome(gaps, schedule, method, start, oracle)
        return oracle[0]

    def test_random_schedules_both_methods(self, rng):
        outcomes = set()
        sums_at_threshold = 0
        for trial in range(400):
            method = "I" if trial % 2 == 0 else "II"
            schedule = random_connected_schedule(rng, m_max=6, p_max=3)
            gaps = random_gaps(rng, schedule)
            start = int(rng.integers(0, 3 * schedule.period))
            outcomes.add((method, self.assert_same_round(gaps, schedule, method, start)))
            if method == "II":
                sums_at_threshold += any(
                    sum(gaps[j - 1] for j in (i,) + edge_scan_in_neighbors(schedule, i, t)) == EPS_F
                    for t in range(schedule.period)
                    for i in range(1, schedule.m + 1)
                )
        assert outcomes == {("I", True), ("I", False), ("II", True), ("II", False)}
        assert sums_at_threshold > 0

    @pytest.mark.parametrize("method", ["I", "II"])
    def test_complete_graphs_at_the_threshold(self, method):
        # One closed neighborhood holds every agent, so Method II sums m
        # copies of eps_f / m: at eps_f up to rounding in either direction.
        for m in range(2, 10):
            for start in range(2):
                self.assert_same_round([EPS_F / m] * m, complete(m), method, start)

    def test_decided_rounds_on_cycles_complete_and_random_schedules(self, rng):
        # Rounds decided early report the oracle's (stop, slots); the rest
        # also its final (h, c).  Gaps include NaN and inf (random_gaps).
        builders = (directed_cycle, complete, period3_cycle)
        decided, outcomes = 0, set()
        for trial in range(2400):
            method = "I" if trial % 2 == 0 else "II"
            kind = trial // 2 % 4
            if kind < 3:
                schedule = builders[kind](int(rng.integers(2 if kind < 2 else 3, 13)))
            else:
                schedule = random_connected_schedule(rng, m_max=7, p_max=3)
            gaps = random_gaps(rng, schedule)
            start = int(rng.integers(0, 8))
            oracle = per_slot_stopping_round(gaps, schedule, method, EPS_F, start)
            decided += assert_same_outcome(gaps, schedule, method, start, oracle)
            outcomes.add((method, oracle[0]))
        assert outcomes == {("I", True), ("I", False), ("II", True), ("II", False)}
        assert 0 < decided < 2400
