import math

import numpy as np
import pytest

from drcopt.graph import complete, directed_cycle, make_schedule
from drcopt.termination import CounterState, run_stopping_round, step_counters, stop_threshold

from helpers import random_connected_schedule

EPS_F = 0.01


def criterion_method1(gaps, eps_f):
    return all(e <= eps_f for e in gaps)


def criterion_method2(gaps, schedule, eps_f, start_slot, n_slots):
    for offset in range(n_slots):
        slot = start_slot + offset
        for i in range(1, schedule.m + 1):
            neighborhood = (i,) + schedule.in_neighbors(i, slot)
            if sum(gaps[j - 1] for j in neighborhood) > eps_f:
                return False
    return True


class TestStepMethod1:
    def test_counters_grow_when_gaps_small(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        counters = [CounterState(e=0.005), CounterState(e=0.009)]
        for t in range(2):
            counters = step_counters(counters, schedule, t, "I", EPS_F)
        assert all(c.h == 2 and c.c == 2 for c in counters)
        assert stop_threshold(schedule) == 2

    def test_infinite_gap_blocks_everyone(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        counters = [CounterState(e=math.inf), CounterState(e=0.0)]
        for t in range(10):
            counters = step_counters(counters, schedule, t, "I", EPS_F)
        assert counters[0].c == 0
        assert counters[1].c == 0  # neighbor sees agent 1's bad gap
        assert max(c.h for c in counters) <= 1

    def test_zero_gaps_identical_to_small_gaps(self):
        schedule = make_schedule(2, [{(1, 2), (2, 1)}])
        a = [CounterState(e=0.0), CounterState(e=0.0)]
        b = [CounterState(e=0.005), CounterState(e=0.009)]
        for t in range(3):
            a = step_counters(a, schedule, t, "I", EPS_F)
            b = step_counters(b, schedule, t, "I", EPS_F)
        assert [(c.h, c.c) for c in a] == [(c.h, c.c) for c in b]


class TestStepMethod2:
    def test_neighborhood_sum_at_threshold_grows(self):
        schedule = complete(6)
        counters = [CounterState(e=EPS_F / 6) for _ in range(6)]
        for t in range(6):
            counters = step_counters(counters, schedule, t, "II", EPS_F)
        assert all(c.h == 6 for c in counters)

    def test_neighborhood_sum_above_threshold_resets(self):
        schedule = complete(6)
        counters = [CounterState(e=EPS_F / 3) for _ in range(6)]
        for t in range(6):
            counters = step_counters(counters, schedule, t, "II", EPS_F)
        assert all(c.c == 0 for c in counters)
        assert all(c.h <= 1 for c in counters)

    def test_single_agent_reduces_to_local_test(self):
        schedule = make_schedule(1, [set()])
        counters = [CounterState(e=0.009)]
        counters = step_counters(counters, schedule, 0, "II", EPS_F)
        assert counters[0].c == 1


class TestStoppingRound:
    def test_method1_stop_on_cycle(self):
        schedule = directed_cycle(6)
        stop, slots, counters = run_stopping_round([0.001] * 6, schedule, "I", EPS_F)
        assert stop
        assert slots == 6
        assert all(c.h == 6 for c in counters)

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

    def test_completeness_for_static_criteria(self, rng):
        # When the condition holds for every agent at every slot, the
        # counters must grow linearly and the round must stop.
        for _ in range(60):
            schedule = random_connected_schedule(rng)
            gaps = list(EPS_F * rng.uniform(0, 1, size=schedule.m))
            stop, _, counters = run_stopping_round(gaps, schedule, "I", EPS_F)
            assert stop
            assert all(c.h >= stop_threshold(schedule) for c in counters)
