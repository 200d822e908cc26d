import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from drcopt import consensus, solver
from drcopt.graph import directed_cycle
from drcopt.problem import NumericalFailure, SemiInfiniteConstraint, example1_constraint, quadratic_distance
from drcopt.sim import RunParams, run
from drcopt.solver import FiniteSubproblem, SolveStatus, minimize, solve

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
    _, grad, _, jac = problem.evaluate(x)
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
        plane = SemiInfiniteConstraint(
            evaluate=lambda x, y: float(x[1] + y[0] * y[1] - 1.0),
            x_gradient=lambda x, y: np.array([0.0, 1.0]),
            uncertainty_box=np.array([[0.0, 1.0], [0.0, 1.0]]),
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
            fused = FiniteSubproblem(case_study, cuts)
            looped = FiniteSubproblem(scalar_only, cuts)
            for x in random_points(rng, 20):
                for a, b in zip(fused.evaluate(x), looped.evaluate(x)):
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_case_study_solve_bitwise_equal_per_cut_loop(self, case_study, rng):
        cuts = random_cuts(rng)
        fused = solve(FiniteSubproblem(case_study, cuts))
        assert_reports_bitwise_equal(fused, solve(FiniteSubproblem(without_batch(case_study), cuts)))

    def test_case_study_solve_calls_no_scalar_closure(self, case_study):
        cuts = all_agent_cuts(1.0, 0.0) + [(i, 1, (-0.5,), -0.01) for i in range(1, 7)]
        calls = Counter()
        report = solve(FiniteSubproblem(counting(case_study, calls), cuts))
        assert report.status is SolveStatus.OPTIMAL
        assert calls == Counter()
        # The same counters do see the per-cut loop once the hooks are gone.
        solve(FiniteSubproblem(counting(without_batch(case_study), calls), cuts))
        assert calls["evaluate"] and calls["gradient"] and calls["x_gradient"]

    def test_mixed_family_takes_the_per_cut_loop(self, case_study):
        mixed = dataclasses.replace(
            case_study, constraints=case_study.constraints[:3] + (example1_constraint(),) * 3
        )
        cuts = [(i, 0, (0.5,), 0.0) for i in range(1, 7)]
        cuts += [(i, 1, (-0.5,), -0.01) for i in range(1, 4)]
        calls = Counter()
        report = solve(FiniteSubproblem(counting(mixed, calls), cuts))
        assert calls["x_gradient"] > 0
        assert_reports_bitwise_equal(report, solve(FiniteSubproblem(without_batch(mixed), cuts)))


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
        return float(0.5 * x @ q @ x + b @ x), q @ x + b

    return fun_grad, np.array([[-1.0, 1.0]] * n), x_star


def lbfgsb(fun_grad, x0, box):
    """scipy's L-BFGS-B at the settings the solver used before its own minimizer."""
    bounds = [(float(lo), float(hi)) for lo, hi in box]
    options = {"maxiter": 500, "ftol": 1e-22, "gtol": 1e-12}
    return scipy_minimize(fun_grad, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=options).x


class TestMinimize:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("case", ["interior", "lower", "upper"])
    def test_matches_lbfgsb_on_box_quadratics(self, rng, n, case):
        for _ in range(5):
            fun_grad, box, x_star = box_quadratic(rng, n, case)
            x0 = rng.uniform(-1.0, 1.0, n)
            result = minimize(fun_grad, x0, box, 500)
            reference = lbfgsb(fun_grad, x0, box)
            assert np.max(np.abs(result.x - reference)) <= 1e-8
            assert np.max(np.abs(result.x - x_star)) <= 1e-8
            # Newton steps: two on an interior quadratic (one, then a
            # polish at rounding level), a few more to find the bounds.
            assert result.nit <= (2 if case == "interior" else 6)
            # No higher than the reference's, up to the rounding of f.
            f_reference = fun_grad(reference)[0]
            assert fun_grad(result.x)[0] <= f_reference + 16 * np.spacing(abs(f_reference))

    def test_repeated_call_is_bitwise_equal(self, rng):
        fun_grad, box, _ = box_quadratic(rng, 4, "lower")
        x0 = rng.uniform(-1.0, 1.0, 4)
        a, b = minimize(fun_grad, x0, box, 500), minimize(fun_grad, x0, box, 500)
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.nit, a.nfev) == (b.nit, b.nfev)

    def test_counts_iterations_and_evaluations(self, rng):
        fun_grad, box, _ = box_quadratic(rng, 3, "upper")
        result = minimize(fun_grad, np.zeros(3), box, 500)
        assert result.nit >= 1 and result.nfev >= 1

    @pytest.mark.parametrize("case", ["interior", "lower", "upper"])
    def test_returns_at_once_from_the_optimum(self, rng, case):
        fun_grad, box, x_star = box_quadratic(rng, 2, case)
        # The constructed optimum only up to rounding: start from the
        # minimizer's own answer, which passes the 1e-12 test.
        x_opt = minimize(fun_grad, x_star, box, 500).x
        result = minimize(fun_grad, x_opt, box, 500)
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
        _, grad, c, jac = loose.evaluate(x)
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
        _, grad, c, jac = problem.evaluate(report.minimizer)
        assert solver._kkt_satisfied(report.minimizer, grad, c, jac, report.multipliers, problem.box)


@pytest.fixture(scope="module")
def table2_solves(case_study):
    """(problem, x0, report) of every consensus solve of one table2 run."""
    calls = []
    real_solve = consensus.solve

    def recording_solve(problem, x0=None):
        report = real_solve(problem, x0)
        calls.append((problem, x0, report))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consensus, "solve", recording_solve)
        run(case_study, directed_cycle(6), RunParams(method="I"))
    return calls


class TestWarmStart:
    def test_every_later_solve_is_warm_started(self, table2_solves):
        assert len(table2_solves) == 16
        assert [x0 is None for _, x0, _ in table2_solves] == [True, True] + [False] * 14
        # Each side starts from its own previous minimizer.
        for i, (_, x0, _) in enumerate(table2_solves[2:], start=2):
            assert x0 is table2_solves[i - 2][2].minimizer

    def test_warm_reports_agree_with_cold_solves(self, table2_solves):
        for problem, _, warm in table2_solves:
            cold = solve(problem)
            assert warm.status is SolveStatus.OPTIMAL and cold.status is SolveStatus.OPTIMAL
            assert abs(warm.max_violation - cold.max_violation) <= solver.FEASIBILITY_TOL
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-8)

    def test_warm_solve_is_bitwise_repeatable(self, table2_solves):
        problem, x0, report = table2_solves[-1]
        assert_reports_bitwise_equal(solve(problem, x0), report)


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
            return (float(x @ x) if x[0] > 0.5 else -np.inf), 2.0 * x

        with pytest.raises(NumericalFailure, match="at an accepted iterate"):
            minimize(fun_grad, np.array([1.0, 1.0]), np.array([[-2.0, 2.0], [-2.0, 2.0]]), 500)

    def test_non_finite_difference_hessian_raises(self):
        x0 = np.array([1.0, 1.0])

        def fun_grad(x):
            return float(x @ x), 2.0 * x if np.array_equal(x, x0) else np.full(2, np.nan)

        with pytest.raises(NumericalFailure, match="Hessian"):
            minimize(fun_grad, x0, np.array([[-2.0, 2.0], [-2.0, 2.0]]), 500)
