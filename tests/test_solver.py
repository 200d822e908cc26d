import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy

from drcopt import solver
from drcopt.problem import example1_constraint
from drcopt.solver import (
    SolveStatus,
    Tolerances,
    build_subproblem,
    solve,
    stationarity_residual,
)

from helpers import case_study_grid_min, subproblem_cut_view


def all_agent_cuts(y, rhs):
    return [(i, 0, (y,), rhs) for i in range(1, 7)]


def without_batch(instance):
    """The instance with every ``batch`` hook stripped: the per-member loop only."""
    return dataclasses.replace(
        instance,
        objectives=tuple(dataclasses.replace(f, batch=None) for f in instance.objectives),
        constraints=tuple(dataclasses.replace(g, batch=None) for g in instance.constraints),
    )


def counting(instance, calls: Counter):
    """The instance with each scalar closure counting its calls in ``calls``."""

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    return dataclasses.replace(
        instance,
        objectives=tuple(
            dataclasses.replace(
                f, evaluate=counted("evaluate", f.evaluate), gradient=counted("gradient", f.gradient)
            )
            for f in instance.objectives
        ),
        constraints=tuple(
            dataclasses.replace(
                g, evaluate=counted("evaluate", g.evaluate), x_gradient=counted("x_gradient", g.x_gradient)
            )
            for g in instance.constraints
        ),
    )


def random_points(rng, k):
    """k points around the case-study box, half of them with |x2| > 1."""
    inside = rng.uniform(-1.0, 1.0, k // 2)
    outside = rng.choice([-1.0, 1.0], k - k // 2) * rng.uniform(1.0, 2.0, k - k // 2)
    return np.column_stack([rng.uniform(-2.5, 2.5, k), np.concatenate([inside, outside])])


def random_cuts(rng):
    """Two cuts per agent of the case study, one with rhs 0 and one negative."""
    return [
        (agent, k, (float(rng.uniform(-1.0, 1.0)),), 0.0 if k == 0 else float(-rng.uniform(0.0, 0.1)))
        for agent in range(1, 7)
        for k in range(2)
    ]


def assert_reports_bitwise_equal(a, b):
    assert a.status is b.status
    assert a.iterations == b.iterations
    assert a.minimizer.tobytes() == b.minimizer.tobytes()
    assert a.multipliers.tobytes() == b.multipliers.tobytes()
    assert np.float64(a.objective_value).tobytes() == np.float64(b.objective_value).tobytes()
    assert np.float64(a.max_violation).tobytes() == np.float64(b.max_violation).tobytes()


class TestHandDerivedSubproblems:
    def test_unconstrained_minimizer(self, case_study):
        report = solve(build_subproblem(case_study, []))
        assert report.status is SolveStatus.OPTIMAL
        assert np.allclose(report.minimizer, [0.0, 1.0], atol=1e-8)
        assert report.objective_value == pytest.approx(38.0, abs=1e-8)

    def test_single_cut_minimizer(self, case_study):
        report = solve(build_subproblem(case_study, all_agent_cuts(1.0, 0.0)))
        assert report.status is SolveStatus.OPTIMAL
        assert np.allclose(report.minimizer, [0.0, 0.71875], atol=1e-6)
        assert report.objective_value == pytest.approx(38.474609375, abs=1e-6)
        assert report.max_violation <= 1e-9

    def test_empty_feasible_set_detected(self, case_study):
        problem = build_subproblem(case_study, all_agent_cuts(1.0, -10.0))
        report = solve(problem)
        assert report.status is SolveStatus.INFEASIBLE


class TestStationarity:
    def test_zero_at_unconstrained_minimum(self, case_study):
        problem = build_subproblem(case_study, [])
        assert stationarity_residual(problem, np.array([0.0, 1.0])) <= 1e-12

    def test_positive_away_from_minimum(self, case_study):
        problem = build_subproblem(case_study, [])
        assert stationarity_residual(problem, np.array([0.5, 0.5])) > 0.1

    def test_small_at_constrained_minimum_with_multipliers(self, case_study):
        problem = build_subproblem(case_study, all_agent_cuts(1.0, 0.0))
        report = solve(problem)
        residual = stationarity_residual(problem, report.minimizer, report.multipliers)
        assert residual <= 1e-8


class TestProperties:
    def test_determinism_bitwise(self, case_study):
        problem = build_subproblem(case_study, all_agent_cuts(1.0, 0.0))
        a = solve(problem)
        b = solve(problem)
        assert np.array_equal(a.minimizer, b.minimizer)
        assert a.objective_value == b.objective_value

    def test_monotone_restriction(self, case_study, rng):
        # Adding constraints never decreases the optimal value.
        pool = [
            (int(rng.integers(1, 7)), 0, (float(rng.uniform(-1, 1)),), 0.0) for _ in range(6)
        ]
        values = []
        for size in range(len(pool) + 1):
            cuts = sorted(pool[:size])
            cuts = [(a, k, y, r) for k, (a, _, y, r) in enumerate(cuts)]
            values.append(solve(build_subproblem(case_study, cuts)).objective_value)
        for earlier, later in zip(values, values[1:]):
            # slack: the feasibility tolerance lets the optimum dip by
            # roughly multiplier * 1e-9 per active cut
            assert later >= earlier - 1e-8

    def test_canonical_order_enforced(self, case_study):
        from drcopt.solver import FiniteSubproblem

        with pytest.raises(ValueError, match="canonical"):
            FiniteSubproblem(
                objectives=case_study.objectives,
                constraint_functions=case_study.constraints,
                box=case_study.box,
                cuts=((2, 0, (0.5,), 0.0), (1, 0, (0.5,), 0.0)),
            )

    def test_positive_rhs_rejected(self, case_study):
        with pytest.raises(ValueError, match="<= 0"):
            build_subproblem(case_study, [(1, 0, (0.5,), 0.1)])

    def test_scenario_outside_box_rejected(self, case_study):
        with pytest.raises(ValueError, match="uncertainty box"):
            build_subproblem(case_study, [(1, 0, (1.5,), 0.0)])


class TestGridOracle:
    def test_hand_cases_match_grid(self, case_study):
        for cuts in ([], all_agent_cuts(1.0, 0.0)):
            report = solve(build_subproblem(case_study, cuts))
            grid_val, grid_pt = case_study_grid_min(
                [(a, y, r) for a, _, y, r in cuts]
            )
            assert report.objective_value == pytest.approx(grid_val, abs=5e-3)
            assert np.allclose(report.minimizer, grid_pt, atol=2e-3)

    def test_random_subproblems_match_grid(self, case_study, rng):
        for _ in range(8):
            n_cuts = int(rng.integers(1, 4))
            cuts = sorted(
                (
                    int(rng.integers(1, 7)),
                    k,
                    (float(rng.uniform(-1, 1)),),
                    float(-rng.uniform(0, 0.01)),
                )
                for k in range(n_cuts)
            )
            problem = build_subproblem(case_study, cuts)
            report = solve(problem)
            assert report.status is SolveStatus.OPTIMAL
            grid_val, _ = case_study_grid_min(subproblem_cut_view(problem))
            assert report.objective_value == pytest.approx(grid_val, abs=5e-3)


def blas_threads(set_local) -> int:
    """The calling thread's OpenBLAS thread count; setting it is the only way to read it."""
    count = set_local(1)
    set_local(count)
    return count


@pytest.fixture
def set_local():
    """scipy's OpenBLAS at two threads for the test, then back to where it was."""
    fn = solver._openblas_set_num_threads_local()
    if fn is None:
        pytest.skip("scipy bundles no OpenBLAS with per-thread control")
    before = blas_threads(fn)
    fn(2)
    yield fn
    fn(before)


class TestSingleBlasThread:
    def test_bundled_openblas_is_found(self):
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if blas["name"] != "scipy-openblas":
            pytest.skip(f"scipy is built against {blas['name']}")
        assert solver._openblas_set_num_threads_local() is not None

    def test_one_thread_inside_and_previous_count_after(self, set_local):
        with solver.single_blas_thread():
            assert blas_threads(set_local) == 1
        assert blas_threads(set_local) == 2

    def test_previous_count_restored_when_body_raises(self, set_local):
        with pytest.raises(RuntimeError, match="inside"):
            with solver.single_blas_thread():
                raise RuntimeError("raised inside the guard")
        assert blas_threads(set_local) == 2

    def test_restore_sequence_with_a_stand_in_library(self, monkeypatch):
        calls = []

        def fake_set_local(count):
            calls.append(count)
            return 7

        monkeypatch.setattr(solver, "_openblas_set_num_threads_local", lambda: fake_set_local)
        with pytest.raises(ZeroDivisionError):
            with solver.single_blas_thread():
                assert calls == [1]
                1 / 0
        assert calls == [1, 7]

    def test_noop_when_no_library_is_found(self, monkeypatch, set_local):
        monkeypatch.setattr(solver, "_openblas_set_num_threads_local", lambda: None)
        ran = False
        with solver.single_blas_thread():
            ran = True
            assert blas_threads(set_local) == 2
        assert ran
        assert blas_threads(set_local) == 2

    def test_solve_is_bitwise_identical_with_and_without_the_guard(self, case_study):
        cuts = all_agent_cuts(1.0, 0.0) + [(i, 1, (-0.5,), -0.01) for i in range(1, 7)]
        problem = build_subproblem(case_study, cuts)
        guarded = solve(problem)
        bypassed = solve.__wrapped__(problem)
        assert guarded.status is bypassed.status is SolveStatus.OPTIMAL
        assert guarded.minimizer.tobytes() == bypassed.minimizer.tobytes()
        assert guarded.multipliers.tobytes() == bypassed.multipliers.tobytes()
        assert guarded.iterations == bypassed.iterations


class TestFusedEvaluation:
    def test_kernels_bitwise_equal_scalar_closures(self, case_study, rng):
        objectives, constraints = case_study.objectives, case_study.constraints
        centers = np.array([f.coefficients for f in objectives])
        coefficients = np.array([g.coefficients for g in constraints])
        for x in random_points(rng, 200):
            ys = rng.uniform(-1.0, 1.0, (6, 1))
            values, grads = objectives[0].batch(x, centers)
            assert values.tobytes() == np.array([f.evaluate(x) for f in objectives]).tobytes()
            assert grads.tobytes() == np.array([f.gradient(x) for f in objectives]).tobytes()
            values, grads = constraints[0].batch(x, coefficients, ys)
            pairs = list(zip(constraints, ys))
            assert values.tobytes() == np.array([g.evaluate(x, y) for g, y in pairs]).tobytes()
            assert grads.tobytes() == np.array([g.x_gradient(x, y) for g, y in pairs]).tobytes()

    def test_fused_evaluation_bitwise_equal_per_cut_loop(self, case_study, rng):
        scalar_only = without_batch(case_study)
        for _ in range(10):
            cuts = random_cuts(rng)
            fused = build_subproblem(case_study, cuts)
            looped = build_subproblem(scalar_only, cuts)
            for x in random_points(rng, 20):
                for a, b in zip(fused.evaluate(x), looped.evaluate(x)):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_case_study_solve_bitwise_equal_per_cut_loop(self, case_study, rng):
        cuts = random_cuts(rng)
        fused = solve(build_subproblem(case_study, cuts))
        assert_reports_bitwise_equal(fused, solve(build_subproblem(without_batch(case_study), cuts)))

    def test_case_study_solve_calls_no_scalar_closure(self, case_study):
        cuts = all_agent_cuts(1.0, 0.0) + [(i, 1, (-0.5,), -0.01) for i in range(1, 7)]
        calls = Counter()
        report = solve(build_subproblem(counting(case_study, calls), cuts))
        assert report.status is SolveStatus.OPTIMAL
        assert calls == Counter()
        # The same counters do see the per-cut loop once the hooks are gone.
        solve(build_subproblem(counting(without_batch(case_study), calls), cuts))
        assert calls["evaluate"] and calls["gradient"] and calls["x_gradient"]

    def test_mixed_family_takes_the_per_cut_loop(self, case_study):
        mixed = dataclasses.replace(
            case_study, constraints=case_study.constraints[:3] + (example1_constraint(),) * 3
        )
        cuts = [(i, 0, (0.5,), 0.0) for i in range(1, 7)]
        cuts += [(i, 1, (-0.5,), -0.01) for i in range(1, 4)]
        calls = Counter()
        report = solve(build_subproblem(counting(mixed, calls), cuts))
        assert calls["x_gradient"] > 0
        assert_reports_bitwise_equal(report, solve(build_subproblem(without_batch(mixed), cuts)))
