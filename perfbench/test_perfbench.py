"""Tests of the benchmark's own inputs, reference and checks."""

import dataclasses

import numpy as np

import drcopt.consensus
from checks import CASE_STUDY_OPTIMUM, check_run, reference_optimum
from drcopt.sim import run
from measure import Call, _best_per_job
from spans import Tracer
from workloads import custom_llp_jobs, numeric_llp, period3_cycle, scaled_instance, table2_jobs


def test_scaled_instance_is_bitwise_reproducible():
    a, ca, va = scaled_instance(48, 7)
    b, cb, vb = scaled_instance(48, 7)
    assert ca.tobytes() == cb.tobytes() and va.tobytes() == vb.tobytes()
    x, y = np.array([0.3, -0.2]), np.array([0.4])
    for fa, fb, ga, gb in zip(a.objectives, b.objectives, a.constraints, b.constraints):
        assert fa.evaluate(x).hex() == fb.evaluate(x).hex()
        assert ga.evaluate(x, y).hex() == gb.evaluate(x, y).hex()
    assert np.all(ca[::6, 1] == 6.0)
    assert scaled_instance(48, 8)[1].tobytes() != ca.tobytes()


def test_reference_reproduces_the_case_study_optimum():
    job = table2_jobs(0)[0]
    ref = reference_optimum(job.centers, job.v)
    assert abs(ref.value - CASE_STUDY_OPTIMUM) <= ref.resolution


def test_period3_cycle_and_numeric_llp():
    schedule = period3_cycle(6)
    assert (schedule.period, schedule.window) == (3, 3)
    assert frozenset().union(*schedule.slots) == {(i, i % 6 + 1) for i in range(1, 7)}
    jobs = custom_llp_jobs(0)
    assert all(c.analytic_argmax is None for c in jobs[0].instance.constraints)
    assert numeric_llp(jobs[0].instance).constraints[0].concave_in_y


def test_check_run_accepts_a_run_and_flags_a_wrong_bound():
    job = table2_jobs(0)[0]
    ref = reference_optimum(job.centers, job.v)
    result = run(job.instance, job.schedule, job.params)
    assert check_run(job, result, ref) == []
    last = dataclasses.replace(result.records[-1], lower=ref.value + 1e-3)
    bad = dataclasses.replace(result, records=result.records[:-1] + [last])
    assert any("above reference optimum" in p for p in check_run(job, bad, ref))


def test_tracer_self_times_add_up_and_uninstall_restores():
    job = table2_jobs(0)[0]
    original = drcopt.consensus.flood_constraints
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("sim.run")
        run(job.instance, job.schedule, job.params)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert drcopt.consensus.flood_constraints is original
    own = tracer.self_times()
    assert abs(sum(own.values()) - tracer.root_time()) <= 1e-9
    assert tracer.counts["solve_calls"] == 16 and tracer.counts["stop_rounds"] == 8


def test_best_case_sums_the_fastest_time_of_each_iteration():
    job_a, job_b = table2_jobs(0)[:2]
    calls = [
        Call(job_a, 4.0, 8.0, False, [(3.0, 6.0), (1.0, 2.0)], result=object()),
        Call(job_a, 7.0, 5.0, False, [(2.0, 4.0), (5.0, 1.0)], result=object()),
    ]
    assert _best_per_job(calls, 0) == 3.0
    assert _best_per_job(calls, 1) == 5.0
    calls.append(Call(job_b, 1.0, 1.0, False, [(1.0, 1.0)], error="AssertionError: at iteration 1"))
    assert _best_per_job(calls, 0) is None  # one of two jobs failed: the median is +inf
