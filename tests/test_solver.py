import dataclasses
import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from drcopt import consensus, solver
from drcopt.graph import complete, directed_cycle
from drcopt.problem import (
    LocalObjective,
    NumericalFailure,
    SemiInfiniteConstraint,
    example1_constraint,
    quadratic_distance,
)
from drcopt.sim import RunParams, run
from drcopt.solver import FiniteSubproblem, SolveStatus, family_terms, minimize, solve

import record_digest
from helpers import case_study_grid_min, reference_minimize, reference_solve, scaled_case_study, subproblem_cut_view


def all_agent_cuts(y, rhs):
    return [(i, 0, (y,), rhs) for i in range(1, 7)]


def per_member_kernels(instance):
    """The instance with a distinct kernel object per member, so the solver stacks one-row calls."""
    return dataclasses.replace(
        instance,
        objectives=tuple(dataclasses.replace(f, batch=functools.partial(f.batch)) for f in instance.objectives),
        constraints=tuple(dataclasses.replace(g, batch=functools.partial(g.batch)) for g in instance.constraints),
    )


def example1_mixed(instance):
    """The case study with example1's constraint for agents 4-6: two constraint kernels."""
    return dataclasses.replace(instance, constraints=instance.constraints[:3] + (example1_constraint(),) * 3)


def random_scenario(rng, instance, agent: int):
    """A scenario drawn uniformly from the agent's one-dimensional uncertainty box."""
    lo, hi = instance.constraints[agent - 1].uncertainty_box[0]
    return (rng.uniform(lo, hi),)


def counting(instance, calls: Counter):
    """The instance with each kernel counting its calls and rows in ``calls``.

    Members that share a kernel share its counting wrapper, so the solver
    takes the same path as on ``instance``.
    """

    @functools.cache
    def counted(kind, batch):
        def kernel(x, coefficients, *ys):
            calls[kind] += 1
            calls[kind + " rows"] += len(ys[0]) if ys else len(coefficients)
            return batch(x, coefficients, *ys)

        return kernel

    return dataclasses.replace(
        instance,
        objectives=tuple(dataclasses.replace(f, batch=counted("objective", f.batch)) for f in instance.objectives),
        constraints=tuple(dataclasses.replace(g, batch=counted("constraint", g.batch)) for g in instance.constraints),
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


def decline(problem, x, lam):
    """An active-set finish that always declines: the solve is the multiplier iteration alone."""
    return None


def assert_reports_bitwise_equal(a, b):
    assert a.status is b.status
    assert a.iterations == b.iterations
    assert a.minimizer.tobytes() == b.minimizer.tobytes()
    assert a.multipliers.tobytes() == b.multipliers.tobytes()
    assert np.float64(a.objective_value).tobytes() == np.float64(b.objective_value).tobytes()
    assert np.float64(a.max_violation).tobytes() == np.float64(b.max_violation).tobytes()


class TestHandDerivedSubproblems:
    def test_unconstrained_minimizer(self, case_study):
        report = solve(FiniteSubproblem(case_study, []))
        assert report.status is SolveStatus.OPTIMAL
        assert np.allclose(report.minimizer, [0.0, 1.0], atol=1e-8)
        assert report.objective_value == pytest.approx(38.0, abs=1e-8)

    def test_single_cut_minimizer(self, case_study):
        report = solve(FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0)))
        assert report.status is SolveStatus.OPTIMAL
        assert np.allclose(report.minimizer, [0.0, 0.71875], atol=1e-6)
        assert report.objective_value == pytest.approx(38.474609375, abs=1e-6)
        assert report.max_violation <= 1e-9

    def test_empty_feasible_set_detected(self, case_study):
        problem = FiniteSubproblem(case_study, all_agent_cuts(1.0, -10.0))
        report = solve(problem)
        assert report.status is SolveStatus.INFEASIBLE


def stationarity_residual(problem, x, multipliers=None):
    """The projected KKT residual at x, with zero multipliers when none are given."""
    if multipliers is None:
        multipliers = np.zeros(len(problem.cuts))
    _, grad, _, jac, _, _ = problem.evaluate(x)
    return solver._kkt_residual(x, grad, jac, multipliers, problem.box)


class TestStationarity:
    def test_zero_at_unconstrained_minimum(self, case_study):
        problem = FiniteSubproblem(case_study, [])
        assert stationarity_residual(problem, np.array([0.0, 1.0])) <= 1e-12

    def test_positive_away_from_minimum(self, case_study):
        problem = FiniteSubproblem(case_study, [])
        assert stationarity_residual(problem, np.array([0.5, 0.5])) > 0.1

    def test_small_at_constrained_minimum_with_multipliers(self, case_study):
        problem = FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0))
        report = solve(problem)
        residual = stationarity_residual(problem, report.minimizer, report.multipliers)
        assert residual <= 1e-8


class TestProperties:
    def test_determinism_bitwise(self, case_study):
        problem = FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0))
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
            values.append(solve(FiniteSubproblem(case_study, cuts)).objective_value)
        for earlier, later in zip(values, values[1:]):
            # slack: the feasibility tolerance lets the optimum dip by
            # roughly multiplier * 1e-9 per active cut
            assert later >= earlier - 1e-8

    def test_unsorted_cuts_build_the_same_subproblem_as_sorted_ones(self, case_study, rng):
        cuts = random_cuts(rng)
        shuffled = [cuts[i] for i in rng.permutation(len(cuts))]
        assert shuffled != cuts
        problem = FiniteSubproblem(case_study, shuffled)
        assert problem.cuts == tuple(cuts)
        assert_reports_bitwise_equal(solve(problem), solve(FiniteSubproblem(case_study, cuts)))

    def test_mixed_scenario_dimensions(self, case_study):
        # Agent 1 has a two-dimensional uncertainty box [0, 1]^2, the
        # others the case study's [-1, 1].
        # g(x, y) = x2 + y1 * y2 - 1, linear in x: its x-Hessians are zero.
        def plane_batch(x, coefficients, ys):
            grads = np.zeros((len(ys), 2))
            grads[:, 1] = 1.0
            return x[1] + ys[:, 0] * ys[:, 1] - 1.0, grads, np.zeros((len(ys), 2, 2))

        plane = SemiInfiniteConstraint(
            batch=plane_batch, coefficients=np.zeros(0), uncertainty_box=np.array([[0.0, 1.0], [0.0, 1.0]])
        )
        mixed = dataclasses.replace(case_study, constraints=(plane,) + case_study.constraints[1:])
        report = solve(FiniteSubproblem(mixed, [(1, 0, (0.5, 0.9), 0.0), (2, 0, (-0.9,), 0.0)]))
        assert report.status is SolveStatus.OPTIMAL
        assert report.minimizer[1] == pytest.approx(0.55, abs=1e-8)
        with pytest.raises(ValueError, match="uncertainty box"):
            FiniteSubproblem(mixed, [(1, 0, (0.5, -0.5), 0.0), (2, 0, (-0.9,), 0.0)])
        with pytest.raises(ValueError, match="uncertainty box"):
            FiniteSubproblem(mixed, [(1, 0, (0.5, 0.9), 0.0), (2, 0, (1.5,), 0.0)])

    def test_positive_rhs_rejected(self, case_study):
        with pytest.raises(ValueError, match="<= 0"):
            FiniteSubproblem(case_study, [(1, 0, (0.5,), 0.1)])

    def test_scenario_outside_box_rejected(self, case_study):
        with pytest.raises(ValueError, match="uncertainty box"):
            FiniteSubproblem(case_study, [(1, 0, (1.5,), 0.0)])


class TestGridOracle:
    def test_hand_cases_match_grid(self, case_study):
        for cuts in ([], all_agent_cuts(1.0, 0.0)):
            report = solve(FiniteSubproblem(case_study, cuts))
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
            problem = FiniteSubproblem(case_study, cuts)
            report = solve(problem)
            assert report.status is SolveStatus.OPTIMAL
            grid_val, _ = case_study_grid_min(subproblem_cut_view(problem))
            assert report.objective_value == pytest.approx(grid_val, abs=5e-3)


class TestFusedEvaluation:
    def test_constant_hessians_are_read_only_views(self, case_study):
        # The numeric lower-level problem scans 2001 grid points in one
        # call: a constant Hessian must cost no memory per row.
        g = case_study.constraints[0]
        ys = np.linspace(-1.0, 1.0, 2001)[:, None]
        hessians = g.batch(np.zeros(2), g.coefficients[None, :], ys)[2]
        assert hessians.shape == (2001, 2, 2) and hessians.strides[0] == 0
        assert not hessians.flags.writeable
        with pytest.raises(ValueError):
            g.batch(np.zeros(2), g.coefficients[None, :], ys[:1])[2][0, 0, 0] = 1.0
        f = case_study.objectives[0]
        with pytest.raises(ValueError):
            f.batch(np.zeros(2), f.coefficients[None, :])[2][0, 0, 0] = 1.0

    def test_fused_evaluation_bitwise_equal_per_cut_loop(self, case_study, rng):
        # One kernel call per family against one stacked call per member.
        stacked = per_member_kernels(case_study)
        for _ in range(10):
            cuts = random_cuts(rng)
            fused = FiniteSubproblem(case_study, cuts)
            looped = FiniteSubproblem(stacked, cuts)
            for x in random_points(rng, 20):
                for a, b in zip(fused.evaluate(x), looped.evaluate(x)):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_case_study_solve_bitwise_equal_per_cut_loop(self, case_study, rng):
        cuts = random_cuts(rng)
        fused = solve(FiniteSubproblem(case_study, cuts))
        assert_reports_bitwise_equal(fused, solve(FiniteSubproblem(per_member_kernels(case_study), cuts)))

    def test_case_study_solve_calls_no_scalar_closure(self, case_study, monkeypatch):
        # The one-row ``evaluate`` views are never called, and each point
        # takes one call of each family's kernel.
        def refuse(*args):
            raise AssertionError("one-row evaluate called by the solver")

        monkeypatch.setattr(LocalObjective, "evaluate", refuse)
        monkeypatch.setattr(SemiInfiniteConstraint, "evaluate", refuse)
        cuts = all_agent_cuts(1.0, 0.0) + [(i, 1, (-0.5,), -0.01) for i in range(1, 7)]
        calls = Counter()
        report = solve(FiniteSubproblem(counting(case_study, calls), cuts))
        assert report.status is SolveStatus.OPTIMAL
        points = calls["objective"]
        assert points > 0 and calls["constraint"] == points
        assert calls["objective rows"] == 6 * points and calls["constraint rows"] == 12 * points
        # With a kernel per member the same points take one-row calls.
        calls.clear()
        solve(FiniteSubproblem(counting(per_member_kernels(case_study), calls), cuts))
        assert calls["objective"] == calls["objective rows"] == 6 * points
        assert calls["constraint"] == calls["constraint rows"] == 12 * points

    def test_repeated_point_returns_the_same_read_only_arrays(self, case_study, rng):
        problem = FiniteSubproblem(case_study, random_cuts(rng))
        x = np.array([0.3, -0.2])
        first = problem.evaluate(x)
        second = problem.evaluate(x.copy())
        assert [np.asarray(a).tobytes() for a in first] == [np.asarray(a).tobytes() for a in second]
        assert all(a is b for a, b in zip(first, second))
        for a in first[1:]:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
        # A new point is evaluated afresh, and the earlier arrays are untouched.
        other = problem.evaluate(np.array([0.3, 0.2]))
        assert other[2].tobytes() != first[2].tobytes()
        assert [np.asarray(a).tobytes() for a in first] == [np.asarray(a).tobytes() for a in problem.evaluate(x)]

    def test_objective_hessian_sum_is_reused_only_for_the_same_array(self, case_study):
        # The quadratic-distance kernel returns one cached read-only array.
        problem = FiniteSubproblem(case_study, [])
        first = problem.evaluate(np.array([0.3, -0.2]))[4]
        assert problem.evaluate(np.array([0.1, 0.4]))[4] is first
        assert first.tobytes() == np.diag([12.0, 12.0]).tobytes()

        # A kernel with new Hessians at each point: f(x) = sum_i (x_i - c_i)^4.
        def quartic(x, centers):
            d = x - centers
            hessians = np.zeros((len(centers), 2, 2))
            hessians[:, [0, 1], [0, 1]] = 12.0 * d * d
            return (d**4).sum(axis=1), 4.0 * d**3, hessians

        quartics = tuple(LocalObjective(quartic, f.coefficients) for f in case_study.objectives)
        problem = FiniteSubproblem(dataclasses.replace(case_study, objectives=quartics), [])
        for x in (np.array([0.3, -0.2]), np.array([0.1, 0.4])):
            expected = quartic(x, np.array([f.coefficients for f in quartics]))[2].sum(axis=0)
            assert problem.evaluate(x)[4].tobytes() == expected.tobytes()

    def test_case_study_solve_takes_no_difference_evaluations(self, case_study, monkeypatch):
        cuts = all_agent_cuts(1.0, 0.0) + [(i, 1, (-0.5,), -0.01) for i in range(1, 7)]
        missing, results = Counter(), []
        real_minimize = solver.minimize

        def checking_minimize(fun_grad, x0, box):
            def checked(x):
                f, grad, hess = fun_grad(x)
                missing["calls"] += 1
                missing["no hessian"] += hess() is None
                return f, grad, hess

            results.append(real_minimize(checked, x0, box))
            return results[-1]

        monkeypatch.setattr(solver, "minimize", checking_minimize)
        report = solve(FiniteSubproblem(case_study, cuts))
        assert report.status is SolveStatus.OPTIMAL
        # Every fun_grad call carries the exact Hessian and counts once.
        assert missing["no hessian"] == 0
        assert missing["calls"] == sum(r.nfev for r in results)

    @pytest.mark.parametrize("family", ["objectives", "constraints"])
    @pytest.mark.parametrize("kernels", ["shared", "per-member"])
    def test_kernel_without_hessians_is_refused(self, case_study, family, kernels):
        @functools.cache
        def no_hessians(batch):
            return lambda x, *args: batch(x, *args)[:2] + (None,)

        instance = case_study if kernels == "shared" else per_member_kernels(case_study)
        members = tuple(dataclasses.replace(h, batch=no_hessians(h.batch)) for h in getattr(instance, family))
        problem = FiniteSubproblem(dataclasses.replace(instance, **{family: members}), all_agent_cuts(1.0, 0.0))
        # The first evaluation names the contract, and so does a solve.
        with pytest.raises(TypeError, match="must return the exact x-Hessians"):
            problem.evaluate(np.zeros(2))
        with pytest.raises(TypeError, match="must return the exact x-Hessians"):
            solve(problem)

    @pytest.mark.parametrize("rhs", [0.0, -10.0], ids=["feasible", "infeasible"])
    def test_inner_hessians_match_differences_of_the_gradient(self, case_study, rng, monkeypatch, rhs):
        # Every function minimize is given (the augmented Lagrangians, and
        # the feasibility phase's squared violations when infeasible) has
        # the exact Hessian of its gradient away from the kinks of max(0, .).
        # The active-set finish declines, so that the feasible solve goes
        # through several multiplier updates.
        mixed = example1_mixed(case_study)
        cuts = [(i, 0, (0.5,), rhs) for i in range(1, 7)] + [(i, 1, (0.9,), rhs) for i in range(1, 7)]
        functions = []
        real_minimize = solver.minimize

        def recording_minimize(fun_grad, x0, box):
            functions.append(fun_grad)
            return real_minimize(fun_grad, x0, box)

        monkeypatch.setattr(solver, "minimize", recording_minimize)
        monkeypatch.setattr(solver, "_active_set_finish", decline)
        solve(FiniteSubproblem(mixed, cuts))
        assert len(functions) >= 2
        h = 1e-6
        for fun_grad in functions:
            for x in rng.uniform([-1.9, -0.9], [1.9, 0.9], (10, 2)):
                hess = fun_grad(x)[2]()
                columns = [(fun_grad(x + e)[1] - fun_grad(x - e)[1]) / (2 * h) for e in np.eye(2) * h]
                assert np.allclose(hess, np.column_stack(columns), rtol=1e-5, atol=1e-4)

    def test_empty_family_has_zero_rows(self):
        values, grads, hessians = family_terms([], [])(np.zeros(3))
        assert (values.shape, grads.shape, hessians.shape) == ((0,), (0, 3), (0, 3, 3))

    def test_mixed_family_takes_the_per_cut_loop(self, case_study):
        # Two constraint kernels: every cut is a one-row call of its own.
        mixed = example1_mixed(case_study)
        cuts = [(i, 0, (0.5,), 0.0) for i in range(1, 7)]
        cuts += [(i, 1, (-0.5,), -0.01) for i in range(1, 4)]
        calls = Counter()
        report = solve(FiniteSubproblem(counting(mixed, calls), cuts))
        assert calls["constraint"] == calls["constraint rows"] == 9 * calls["objective"] > 0
        assert_reports_bitwise_equal(report, solve(FiniteSubproblem(per_member_kernels(mixed), cuts)))


def box_quadratic(rng, n: int, case: str):
    """A strictly convex quadratic on [-1, 1]^n with a known minimizer.

    ``case`` is "interior" (minimizer inside the box), "lower" or "upper"
    (the first n // 2 + 1 variables at that bound, the gradient pushing
    them out by at least 0.1).  Returns (fun_grad, box, x_star).
    """
    a = rng.normal(size=(n, n))
    q = a @ a.T + n * np.eye(n)
    x_star = rng.uniform(-0.8, 0.8, n)
    grad_star = np.zeros(n)
    bound = n // 2 + 1
    if case == "lower":
        x_star[:bound] = -1.0
        grad_star[:bound] = rng.uniform(0.1, 1.0, bound)
    elif case == "upper":
        x_star[:bound] = 1.0
        grad_star[:bound] = -rng.uniform(0.1, 1.0, bound)
    b = grad_star - q @ x_star

    def fun_grad(x):
        return float(0.5 * x @ q @ x + b @ x), q @ x + b, lambda: q

    return fun_grad, np.array([[-1.0, 1.0]] * n), x_star


def lbfgsb(fun_grad, x0, box):
    """scipy's L-BFGS-B at the settings the solver used before its own minimizer."""
    bounds = [(float(lo), float(hi)) for lo, hi in box]
    options = {"maxiter": 500, "ftol": 1e-22, "gtol": 1e-12}
    return scipy_minimize(
        lambda x: fun_grad(x)[:2], x0, jac=True, method="L-BFGS-B", bounds=bounds, options=options
    ).x


class TestMinimize:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("case", ["interior", "lower", "upper"])
    def test_matches_lbfgsb_on_box_quadratics(self, rng, n, case):
        for _ in range(5):
            fun_grad, box, x_star = box_quadratic(rng, n, case)
            x0 = rng.uniform(-1.0, 1.0, n)
            reference = lbfgsb(fun_grad, x0, box)
            f_reference = fun_grad(reference)[0]
            result = minimize(fun_grad, x0, box)
            assert np.max(np.abs(result.x - reference)) <= 1e-8
            assert np.max(np.abs(result.x - x_star)) <= 1e-8
            # Newton steps: two on an interior quadratic (one, then a
            # polish at rounding level), a few more to find the bounds.
            assert result.nit <= (2 if case == "interior" else 6)
            # No higher than the reference's, up to the rounding of f.
            assert fun_grad(result.x)[0] <= f_reference + 16 * np.spacing(abs(f_reference))

    def test_repeated_call_is_bitwise_equal(self, rng):
        fun_grad, box, _ = box_quadratic(rng, 4, "lower")
        x0 = rng.uniform(-1.0, 1.0, 4)
        a, b = minimize(fun_grad, x0, box), minimize(fun_grad, x0, box)
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.nit, a.nfev) == (b.nit, b.nfev)

    def test_counts_iterations_and_evaluations(self, rng):
        fun_grad, box, _ = box_quadratic(rng, 3, "upper")
        calls = []

        def counted(x):
            calls.append(x)
            return fun_grad(x)

        result = minimize(counted, np.zeros(3), box)
        # nfev counts the start and every trial point, one per call; each
        # accepted step took at least one trial.
        assert result.nit >= 1 and result.nfev == len(calls) >= 1 + result.nit

    @pytest.mark.parametrize("case", ["interior", "lower", "upper"])
    def test_returns_at_once_from_the_optimum(self, rng, case):
        fun_grad, box, x_star = box_quadratic(rng, 2, case)
        # The constructed optimum only up to rounding: start from the
        # minimizer's own answer, which passes the 1e-12 test.
        x_opt = minimize(fun_grad, x_star, box).x
        result = minimize(fun_grad, x_opt, box)
        assert (result.nit, result.nfev) == (0, 1)
        assert result.x.tobytes() == x_opt.tobytes()


class TestExitTest:
    def test_stale_multiplier_on_a_slack_cut_is_refused(self, case_study):
        # The optimum of the tighter problem (cuts at rhs -0.05) with its
        # multipliers: the objective's gradient is cancelled by them.
        tight = solve(FiniteSubproblem(case_study, all_agent_cuts(1.0, -0.05)))
        assert tight.status is SolveStatus.OPTIMAL
        # The same point and multipliers on the looser problem (rhs 0):
        # every cut is slack by 0.05, so the multipliers are stale.
        loose = FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0))
        x, lam = tight.minimizer, tight.multipliers
        _, grad, c, jac, _, _ = loose.evaluate(x)
        assert np.all(c < -0.04) and np.max(lam) > 1e-3
        # Feasibility and the projected KKT residual alone would accept it.
        assert max(0.0, c.max()) <= solver.FEASIBILITY_TOL
        assert solver._kkt_residual(x, grad, jac, lam, loose.box) <= solver.STATIONARITY_TOL
        assert not solver._kkt_satisfied(x, grad, c, jac, lam, loose.box)
        # The solve itself moves on to the looser problem's optimum.
        report = solve(loose)
        assert report.objective_value < tight.objective_value - 1e-3

    def test_accepts_the_solver_optimum(self, case_study):
        problem = FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0))
        report = solve(problem)
        _, grad, c, jac, _, _ = problem.evaluate(report.minimizer)
        assert solver._kkt_satisfied(report.minimizer, grad, c, jac, report.multipliers, problem.box)

    def test_stale_start_reaches_the_cold_optimum(self, case_study):
        # Start the looser problem from the tighter one's report: every
        # cut is slack by 0.05 there and every multiplier is stale.
        tight = solve(FiniteSubproblem(case_study, all_agent_cuts(1.0, -0.05)))
        loose = FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0))
        warm = solve(loose, tight.minimizer, tight.multipliers)
        cold = solve(loose)
        assert warm.status is SolveStatus.OPTIMAL and cold.status is SolveStatus.OPTIMAL
        assert np.abs(warm.minimizer - cold.minimizer).max() <= 1e-8
        assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)

    @pytest.mark.parametrize("lam0", [np.ones(5), -np.ones(6), np.full(6, np.nan)], ids=["length", "negative", "nan"])
    def test_bad_start_multipliers_rejected(self, case_study, lam0):
        with pytest.raises(ValueError, match="one nonnegative multiplier per cut"):
            solve(FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0)), None, lam0)

    def test_zero_start_multipliers_are_the_cold_solve(self, case_study, rng):
        problem = FiniteSubproblem(case_study, random_cuts(rng))
        assert_reports_bitwise_equal(solve(problem, None, np.zeros(len(problem.cuts))), solve(problem))


class TestNearDuplicateCuts:
    def test_near_duplicate_cuts_solve(self, case_study):
        # Near y = sqrt(0.4375) the two cuts of each agent bound x2 alike to
        # second order: one is slack by about 1e-9 while the other is active.
        # The violation stays flat while the multipliers move between them,
        # which must not end the solve.
        cuts = [(a, k, (y,), 0.0) for a in (1, 6) for k, y in enumerate((0.66137, 0.66144))]
        report = solve(FiniteSubproblem(case_study, cuts))
        assert report.status is SolveStatus.OPTIMAL

    def test_warm_near_parallel_pair_solve(self):
        # The lower solve of iteration 5 of scaled_instance(2560, 0) on
        # directed_cycle(2560), Method I, cut down to the two agents whose
        # pairs are near-parallel (y = 0.66372 slack by 2.6e-6, y = 0.66144
        # violated).  The carried multipliers sit on the slack cuts, and
        # each outer iteration moves about mu |c| of them to the violated
        # ones while x and the violation stay put.
        instance = scaled_case_study(2560, 0)
        ys = (1.0, 0.7187500000001887, 0.6637228260909734, 0.6614417610555782)
        cuts = [(a, k, (y,), 0.0) for a in (1, 2560) for k, y in enumerate(ys)]
        x0 = np.array([-1.8750912213070415e-13, 0.6614417610555782])
        lam0 = np.zeros(len(cuts))
        lam0[2], lam0[6] = 651.1825582681677, 670.1189914609281
        report = solve(FiniteSubproblem(instance, cuts), x0, lam0)
        # The active-set finish ends it after the first outer iteration
        # (11 outer iterations without it).  Its working set is ordered by
        # violation: ordered by multiplier it would keep the slack twins,
        # which carry the large multipliers, and decline.
        assert (report.status, report.iterations) == (SolveStatus.OPTIMAL, 1)

    def test_separated_cuts_solve(self, case_study):
        cuts = [(a, k, (y,), 0.0) for a in (1, 6) for k, y in enumerate((0.6613, 0.6615))]
        assert solve(FiniteSubproblem(case_study, cuts)).status is SolveStatus.OPTIMAL


class TestIterationCount:
    """``SolveReport.iterations`` counts the outer iterations run, on every exit."""

    def test_near_duplicate_exit(self, case_study):
        cuts = [(a, k, (y,), 0.0) for a in (1, 6) for k, y in enumerate((0.66137, 0.66144))]
        report = solve(FiniteSubproblem(case_study, cuts))
        # 12 without the active-set finish.
        assert (report.status, report.iterations) == (SolveStatus.OPTIMAL, 1)

    def test_infeasible_exit(self, case_study):
        # mu reaches its cap at the end of iteration 6, whose feasibility
        # phase finds the cuts infeasible.
        report = solve(FiniteSubproblem(case_study, all_agent_cuts(1.0, -10.0)))
        assert (report.status, report.iterations) == (SolveStatus.INFEASIBLE, 6)

    def test_exhausted_loop(self, case_study, monkeypatch):
        problem = FiniteSubproblem(case_study, all_agent_cuts(1.0, 0.0))
        assert solve(problem).iterations == 1
        # Without the active-set finish the multiplier iteration needs 4.
        monkeypatch.setattr(solver, "_active_set_finish", decline)
        assert solve(problem).iterations == 4
        monkeypatch.setattr(solver, "MAX_OUTER", 2)
        report = solve(problem)
        assert (report.status, report.iterations) == (SolveStatus.ITERATION_LIMIT, 2)

    @pytest.mark.parametrize("m, iterations", [(12, 6), (48, 8)])
    def test_multiplier_iteration_alone_ends_the_scaled_runs(self, monkeypatch, m, iterations):
        # The finish declines, so every solve rests on the penalty
        # schedule: without its decay, or with a plain x10 while
        # infeasible, a solve of these runs hits the iteration limit.
        monkeypatch.setattr(solver, "_active_set_finish", decline)
        result = run(scaled_case_study(m, 0), complete(m), RunParams())
        assert (result.terminated, result.iterations) == (True, iterations)


def recorded_finishes(monkeypatch):
    """Patch ``solver._active_set_finish`` to record ``(x, lam, result)`` of every call; returns the list."""
    finishes = []
    real_finish = solver._active_set_finish

    def recording_finish(problem, x, lam):
        result = real_finish(problem, x, lam)
        finishes.append((x, lam, result))
        return result

    monkeypatch.setattr(solver, "_active_set_finish", recording_finish)
    return finishes


class TestActiveSetFinish:
    def test_near_duplicate_working_set_keeps_an_independent_subset(self, case_study, monkeypatch):
        # Three near-duplicate cuts for each of agents 1 and 6: after the
        # first outer iteration all six carry a positive multiplier, more
        # than the two variables.  The finish keeps the most violated cut
        # of each agent (the largest y), whose gradients are independent.
        ys = (0.66137, 0.66140, 0.66144)
        cuts = [(a, k, (y,), 0.0) for a in (1, 6) for k, y in enumerate(ys)]
        problem = FiniteSubproblem(case_study, cuts)
        finishes = recorded_finishes(monkeypatch)
        report = solve(problem)
        assert (report.status, report.iterations) == (SolveStatus.OPTIMAL, 1)
        [(_, lam, result)] = finishes
        assert np.count_nonzero(lam) == 6
        x, multipliers = result
        assert multipliers.tobytes() == report.multipliers.tobytes()
        assert [cut[:3] for cut, m in zip(problem.cuts, multipliers) if m > 0.0] == [(1, 2, (0.66144,)), (6, 2, (0.66144,))]
        val, _ = case_study_grid_min(subproblem_cut_view(problem))
        assert report.objective_value <= val + 1e-6

    def test_optimum_on_a_box_bound(self, case_study, monkeypatch):
        # Every objective pulls to (0, 3), above the box, so x2 sits at its
        # upper bound 1; the cut (x1 - 0.75)^2 + x2 - 1.25 <= 0 then holds
        # x1 at 0.25 with multiplier 3.  The finish fixes x2 at the bound
        # and solves for x1 and the multiplier.
        instance = dataclasses.replace(case_study, objectives=(quadratic_distance([0.0, 3.0]),) * 6)
        problem = FiniteSubproblem(instance, [(6, 0, (0.5,), 0.0)])
        finishes = recorded_finishes(monkeypatch)
        report = solve(problem)
        assert report.status is SolveStatus.OPTIMAL
        assert report.minimizer[1] == 1.0
        assert report.minimizer[0] == pytest.approx(0.25, abs=1e-8)
        assert report.multipliers[0] == pytest.approx(3.0, abs=1e-6)
        [(_, _, result)] = finishes
        assert result[0].tobytes() == report.minimizer.tobytes()

    @pytest.mark.parametrize("family", ["kernel", "mixed"])
    def test_infeasible_cut_set_declines_and_ends_infeasible(self, case_study, rng, monkeypatch, family):
        # Every finish declines, so the solve is the multiplier iteration
        # alone, bit for bit, and the feasibility phase decides.
        instance = case_study if family == "kernel" else example1_mixed(case_study)
        cuts = all_agent_cuts(1.0, -10.0) + [(i, 1, random_scenario(rng, instance, i), -0.5) for i in range(1, 7)]
        finishes = recorded_finishes(monkeypatch)
        report = solve(FiniteSubproblem(instance, cuts))
        assert report.status is SolveStatus.INFEASIBLE
        assert finishes and all(result is None for *_, result in finishes)
        monkeypatch.setattr(solver, "_active_set_finish", decline)
        assert_reports_bitwise_equal(report, solve(FiniteSubproblem(instance, cuts)))

    def test_declining_finish_reproduces_the_multiplier_iteration(self, case_study, monkeypatch):
        # The SHA-256 digest of table2's I/cycle run over every record
        # field, terminated, iterations and x_opt (tests/record_digest.py),
        # as the multiplier iteration alone computes it: a finish that
        # declines must leave no trace.
        monkeypatch.setattr(solver, "_active_set_finish", decline)
        run_list = [("I/cycle", case_study, directed_cycle(6), RunParams(method="I"))]
        assert record_digest.digest(run_list) == "4f762f5a73a214f0e77fa6bbb7fb5de39b57a540c6b61f5502904cafe68cd244"


@pytest.fixture(scope="module")
def table2_solves(case_study):
    """(problem, x0, lam0, report) of every consensus solve of table2's I/cycle run, and the work counts.

    The kernels count their calls and rows (see :func:`counting`); the
    counts are copied when the run ends, so later solves leave them alone.
    """
    calls, work, kernels = [], Counter(), Counter()
    real_solve, real_minimize, real_curvature = consensus.solve, solver.minimize, solver._cut_curvature

    def recording_solve(problem, x0=None, lam0=None):
        before = kernels["constraint"]
        report = real_solve(problem, x0, lam0)
        work["solver constraint"] += kernels["constraint"] - before
        calls.append((problem, x0, lam0, report))
        return report

    def counting_minimize(fun_grad, x0, box):
        result = real_minimize(fun_grad, x0, box)
        work["newton"] += result.nit
        work["fun_grad"] += result.nfev
        return result

    def counting_curvature(*args):
        work["curvature"] += 1
        return real_curvature(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consensus, "solve", recording_solve)
        mp.setattr(solver, "minimize", counting_minimize)
        mp.setattr(solver, "_cut_curvature", counting_curvature)
        run(counting(case_study, kernels), directed_cycle(6), RunParams(method="I"))
    work.update(kernels)
    return calls, work


def expected_start(previous, cuts):
    """The multipliers of ``previous`` on ``cuts``: a cut's own by (agent, index), else 0."""
    return [
        next((lam for old, lam in zip(previous.cuts, previous.multipliers) if old[:2] == cut[:2]), 0.0)
        for cut in cuts
    ]


class TestWarmStart:
    def test_every_later_solve_is_warm_started(self, table2_solves):
        calls, _ = table2_solves
        assert len(calls) == 16
        assert [x0 is None and lam0 is None for _, x0, lam0, _ in calls] == [True, True] + [False] * 14
        # Each side starts from its own previous report.
        for i, (problem, x0, lam0, _) in enumerate(calls[2:], start=2):
            previous = calls[i - 2][3]
            assert x0 is previous.minimizer
            assert lam0.tolist() == expected_start(previous, problem.cuts)

    def test_new_cuts_start_at_zero(self, table2_solves):
        calls, _ = table2_solves
        new = 0
        for i, (problem, _, lam0, _) in enumerate(calls[2:], start=2):
            known = {cut[:2] for cut in calls[i - 2][3].cuts}
            for cut, lam in zip(problem.cuts, lam0):
                if cut[:2] not in known:
                    assert lam == 0.0
                    new += 1
        assert new > 0

    def test_upper_cut_keeps_its_multiplier_when_eps_shrinks(self, table2_solves):
        calls, _ = table2_solves
        kept = 0
        # The upper solves are the odd ones.
        for i in range(3, len(calls), 2):
            problem, _, lam0, _ = calls[i]
            previous = {cut[:2]: (cut[3], lam) for cut, lam in zip(calls[i - 2][3].cuts, calls[i - 2][3].multipliers)}
            for cut, lam in zip(problem.cuts, lam0):
                old_rhs, old_lam = previous.get(cut[:2], (None, 0.0))
                if old_rhs is not None and cut[3] > old_rhs and old_lam > 0.0:
                    assert lam == old_lam
                    kept += 1
        assert kept > 0

    def test_warm_reports_agree_with_cold_solves(self, table2_solves):
        for problem, _, _, warm in table2_solves[0]:
            cold = solve(problem)
            assert warm.status is SolveStatus.OPTIMAL and cold.status is SolveStatus.OPTIMAL
            assert abs(warm.max_violation - cold.max_violation) <= solver.FEASIBILITY_TOL
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)

    def test_warm_solve_is_bitwise_repeatable(self, table2_solves):
        problem, x0, lam0, report = table2_solves[0][-1]
        assert_reports_bitwise_equal(solve(problem, x0, lam0), report)

    def test_work_counts(self, table2_solves):
        # Exact, so losing the warm start or the active-set finish fails
        # here and not only in timings: with cold multipliers the same run
        # takes 28 Newton steps and 73 fun_grad calls, and without the
        # finish 47 outer iterations, 56 Newton steps and 117 fun_grad calls.
        calls, work = table2_solves
        assert len(calls) == 16
        assert sum(report.iterations for *_, report in calls) == 16
        assert (work["newton"], work["fun_grad"]) == (23, 52)

    def test_curvature_only_before_newton_steps(self, table2_solves):
        # minimize builds the penalty curvature only at an iterate about to
        # take a Newton step; built at every fun_grad call, as it once was,
        # the same run makes 46.
        assert table2_solves[1]["curvature"] == 19

    def test_constraint_kernel_calls(self, table2_solves):
        # The lower-level problem checks all agents at the consensus point
        # in one call of the shared kernel: 2 per iteration for 8
        # iterations, and 1 for the exit check.  With one call per agent
        # the same run makes 161 calls (102 from the lower-level problem)
        # of the same 644 rows.
        work = table2_solves[1]
        assert (work["constraint"], work["constraint rows"]) == (76, 644)
        assert work["constraint"] - work["solver constraint"] == 17


class TestNonFinite:
    def test_infinite_objective_center_raises(self, case_study):
        instance = dataclasses.replace(
            case_study, objectives=(quadratic_distance([0.0, np.inf]),) + case_study.objectives[1:]
        )
        problem = FiniteSubproblem(instance, all_agent_cuts(1.0, 0.0))
        with pytest.raises(NumericalFailure, match="at the start point"):
            solve(problem)

    def test_non_finite_accepted_iterate_raises(self):
        def fun_grad(x):
            return (float(x @ x) if x[0] > 0.5 else -np.inf), 2.0 * x, lambda: 2.0 * np.eye(2)

        with pytest.raises(NumericalFailure, match="at an accepted iterate"):
            minimize(fun_grad, np.array([1.0, 1.0]), np.array([[-2.0, 2.0], [-2.0, 2.0]]))

    def test_non_finite_supplied_hessian_raises(self):
        def fun_grad(x):
            return float(x @ x), 2.0 * x, lambda: np.array([[2.0, np.inf], [np.inf, 2.0]])

        with pytest.raises(NumericalFailure, match="non-finite Hessian"):
            minimize(fun_grad, np.array([1.0, 1.0]), np.array([[-2.0, 2.0], [-2.0, 2.0]]))


class TestReferenceSolver:
    """The solver against :func:`helpers.reference_solve`, its untrimmed form, bit for bit."""

    def test_random_case_study_subproblems(self, case_study, rng):
        # Shared kernels, one-row calls per member, and two constraint
        # families, whose cuts take one-row calls with example1's
        # point-dependent Hessians.
        families = (case_study, per_member_kernels(case_study), example1_mixed(case_study))
        for trial in range(200):
            instance = families[trial % 3]
            n_cuts = 0 if trial % 25 == 0 else int(rng.integers(1, 25))
            agents = rng.integers(1, 7, n_cuts).tolist()
            cuts = [
                (a, k, random_scenario(rng, instance, a), 0.0 if k % 3 == 0 else -rng.uniform(0.0, 0.1))
                for k, a in enumerate(agents)
            ]
            x0 = None if trial % 4 == 0 else rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            report = solve(FiniteSubproblem(instance, cuts), x0)
            assert_reports_bitwise_equal(report, reference_solve(FiniteSubproblem(instance, cuts), x0))

    @pytest.mark.parametrize("family", ["kernel", "mixed"])
    def test_infeasible_cut_set_runs_the_feasibility_phase(self, case_study, rng, family):
        instance = case_study if family == "kernel" else example1_mixed(case_study)
        cuts = all_agent_cuts(1.0, -10.0) + [(i, 1, random_scenario(rng, instance, i), -0.5) for i in range(1, 7)]
        report = solve(FiniteSubproblem(instance, cuts))
        assert report.status is SolveStatus.INFEASIBLE
        assert_reports_bitwise_equal(report, reference_solve(FiniteSubproblem(instance, cuts)))

    @pytest.mark.parametrize("case", ["interior", "lower", "upper"])
    def test_minimize_on_box_quadratics(self, rng, case):
        for n in (2, 3, 5):
            fun_grad, box, _ = box_quadratic(rng, n, case)
            x0 = rng.uniform(-1.0, 1.0, n)
            a, b = minimize(fun_grad, x0, box), reference_minimize(fun_grad, x0, box, 500)
            assert a.x.tobytes() == b.x.tobytes()
            assert (a.nit, a.nfev) == (b.nit, b.nfev)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 729])
    def test_projection_equals_clip_bytewise(self, n):
        # Every (x, lower, upper) triple of signed zeros, infinities, NaN
        # and finite values, in vectors of n entries: numpy picks its inner
        # loop by length.  The bounds are box columns, as in the solver;
        # np.clip with scalar bounds can differ in the sign of a zero.
        values = [0.0, -0.0, 0.5, -0.5, 2.0, -2.0, np.inf, -np.inf, np.nan]
        triples = np.array(list(itertools.product(values, repeat=3)))
        for start in range(0, len(triples), n):
            x, lo, hi = triples[start : start + n].T
            box = np.column_stack([lo, hi])
            assert solver._project(x, box).tobytes() == np.clip(x, box[:, 0], box[:, 1]).tobytes()

