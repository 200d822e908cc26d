import math

import numpy as np
import pytest

from drcopt.cli import _build_from_config
from drcopt.llp import solve_llp
from drcopt.problem import (
    CASE_STUDY_V,
    case_study_instance,
    example1_constraint,
)
from drcopt.sim import ConfigError

import helpers
from helpers import F_STAR, X_STAR, member_argmax


def central_difference(f, x, h=1e-6):
    grad = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2 * h)
    return grad


def difference_jacobian(grad, x, h=1e-6):
    """Central differences of a vector function: column i is d grad / d x_i."""
    columns = []
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        columns.append((grad(x + e) - grad(x - e)) / (2 * h))
    return np.column_stack(columns)


def objective_row(f, x):
    """(value, gradient, Hessian) of objective f at x: row 0 of its kernel."""
    values, grads, hessians = f.batch(x, f.coefficients[None, :])
    return values[0], grads[0], hessians[0]


def constraint_row(g, x, y):
    """(value, x-gradient, x-Hessian) of constraint g at (x, y): row 0 of its kernel."""
    values, grads, hessians = g.batch(x, g.coefficients[None, :], y[None, :])
    return values[0], grads[0], hessians[0]


class TestCaseStudyInstance:
    def test_parameters(self, case_study):
        assert case_study.m == 6
        assert case_study.n == 2
        vs = tuple(CASE_STUDY_V)
        assert vs == (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)
        assert np.array_equal(case_study.box, np.array([[-2.0, 2.0], [-1.0, 1.0]]))

    def test_g1_direct_evaluation(self, case_study):
        g = case_study.constraints[0]
        assert g.evaluate(np.array([0.0, 0.0]), np.array([0.0])) == pytest.approx(-0.4375)

    def test_known_optimum_value(self, case_study):
        assert X_STAR.tolist() == [0.0, math.sqrt(7.0) / 4.0]
        assert F_STAR == pytest.approx(38.687746, abs=1e-5)
        assert sum(f.evaluate(X_STAR) for f in case_study.objectives) == pytest.approx(F_STAR, abs=1e-9)

    def test_known_optimum_feasible_all_agents(self, case_study):
        g_max, _ = solve_llp(case_study.constraint_table, X_STAR)
        assert (g_max <= 1e-10).all()

    def test_objective_gradients_match_finite_differences(self, case_study, rng):
        for _ in range(100):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            for f in case_study.objectives:
                num = central_difference(lambda z: objective_row(f, z)[0], x)
                assert np.allclose(objective_row(f, x)[1], num, rtol=1e-5, atol=1e-5)

    def test_constraint_x_gradients_match_finite_differences(self, case_study, rng):
        for _ in range(50):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            y = np.array([rng.uniform(-1, 1)])
            for g in case_study.constraints:
                num = central_difference(lambda z: constraint_row(g, z, y)[0], x)
                assert np.allclose(constraint_row(g, x, y)[1], num, rtol=1e-5, atol=1e-5)

    def test_objective_hessians_match_finite_differences(self, case_study, rng):
        for _ in range(100):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            for f in case_study.objectives:
                num = difference_jacobian(lambda z: objective_row(f, z)[1], x)
                assert np.allclose(objective_row(f, x)[2], num, rtol=1e-5, atol=1e-5)

    def test_constraint_x_hessians_match_finite_differences(self, case_study, rng):
        for _ in range(50):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            y = np.array([rng.uniform(-1, 1)])
            for g in case_study.constraints:
                num = difference_jacobian(lambda z: constraint_row(g, z, y)[1], x)
                assert np.allclose(constraint_row(g, x, y)[2], num, rtol=1e-5, atol=1e-5)

    def test_feasibility_matches_closed_form(self, case_study, rng):
        # x feasible for agent i iff (x1 - v_i)^2 + clamp(x2)^2 adjustments <= 1
        for _ in range(200):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            g_maxes, _ = solve_llp(case_study.constraint_table, x)
            for v, g_max in zip(CASE_STUDY_V, g_maxes):
                closed_form = (x[0] - v) ** 2 + x[1] ** 2 - 1.0
                assert g_max == pytest.approx(closed_form, abs=1e-12)


class TestExample1:
    def test_direct_evaluation(self):
        g = example1_constraint()
        val = g.evaluate(np.array([1.0, 0.5]), np.array([1.0]))
        assert val == pytest.approx(0.5 - math.exp(-2.0), abs=1e-12)

    def test_x_derivatives_match_finite_differences(self, rng):
        # x1 inside [0, 2], where g is concave in y, and on both sides of it.
        g = example1_constraint()
        for x1 in np.concatenate([rng.uniform(0.0, 2.0, 25), rng.uniform(-2.0, 0.0, 15), rng.uniform(2.0, 3.0, 10)]):
            x, y = np.array([x1, rng.uniform(-1.0, 1.0)]), np.array([rng.uniform(0.0, 2.0)])
            num = central_difference(lambda z: constraint_row(g, z, y)[0], x)
            assert np.allclose(constraint_row(g, x, y)[1], num, rtol=1e-5, atol=1e-5)
            num = difference_jacobian(lambda z: constraint_row(g, z, y)[1], x)
            assert np.allclose(constraint_row(g, x, y)[2], num, rtol=1e-5, atol=1e-5)

    def test_argmax_matches_grid_brute_force(self):
        g = example1_constraint()
        x = np.array([1.0, 0.5])
        y_star = member_argmax(g, x)
        assert y_star[0] == pytest.approx(1.0)
        ys = np.arange(0.0, 2.0 + 1e-9, 1e-4)
        vals = [g.evaluate(x, np.array([y])) for y in ys]
        assert g.evaluate(x, y_star) >= max(vals) - 1e-8

    def test_degenerate_coefficient(self):
        g = example1_constraint()
        x = np.array([0.0, 0.0])
        for y in (0.0, 0.7, 2.0):
            assert g.evaluate(x, np.array([y])) == 0.0

    def test_uncertainty_bound_parameter(self):
        g = example1_constraint(y_upper=1.0)
        assert g.uncertainty_box[0, 1] == 1.0
        assert member_argmax(g, np.array([1.5, 0.0]))[0] == 1.0


class TestFamilyMaximizers:
    """One family call of ``analytic_argmax`` against the former per-member closed forms, bit for bit."""

    @staticmethod
    def family_call(constraints, x):
        coefficients = np.array([c.coefficients for c in constraints])
        boxes = np.array([c.uncertainty_box for c in constraints])
        (argmax,) = {c.analytic_argmax for c in constraints}
        return argmax(x, coefficients, boxes)

    @staticmethod
    def points(rng):
        # x1 inside [0, 2], on both sides of it and on its ends (signed
        # zero included); x2 inside [-1, 1], outside it and on its ends.
        edges = [(0.0, 1.0), (-0.0, -1.0), (2.0, 0.0), (0.5, -0.0), (-1e-300, 0.5), (2.0 + 1e-15, -0.5)]
        return [np.array(x) for x in edges] + list(rng.uniform([-1.0, -2.0], [3.0, 2.0], (200, 2)))

    def test_paper_quadratic(self, case_study, rng):
        for x in self.points(rng):
            ys = self.family_call(case_study.constraints, x)
            assert ys.shape == (6, 1)
            want = helpers.former_paper_quadratic_argmax(x)
            assert all(y.tobytes() == want.tobytes() for y in ys)

    def test_example1_with_mixed_uncertainty_bounds(self, rng):
        uppers = (2.0, 0.5, 1.0, 3.0, 2.5)
        constraints = [example1_constraint(u) for u in uppers]
        inside = outside = 0
        for x in self.points(rng):
            ys = self.family_call(constraints, x)
            assert ys.shape == (len(uppers), 1)
            for y, upper in zip(ys, uppers):
                assert y.tobytes() == helpers.former_example1_argmax(x, upper).tobytes()
            inside += 0.0 <= x[0] <= 2.0
            outside += not 0.0 <= x[0] <= 2.0
        assert inside > 50 and outside > 50


class TestOneDefinition:
    def test_evaluate_is_row_zero_of_the_kernel(self, case_study, rng):
        constraints = case_study.constraints + (example1_constraint(),)
        for _ in range(50):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            for f in case_study.objectives:
                value = f.evaluate(x)
                assert type(value) is float
                assert value.hex() == float(objective_row(f, x)[0]).hex()
            for g in constraints:
                y = rng.uniform(g.uncertainty_box[:, 0], g.uncertainty_box[:, 1])
                value = g.evaluate(x, y)
                assert type(value) is float
                assert value.hex() == float(constraint_row(g, x, y)[0]).hex()


class TestConfig:
    def test_case_study_roundtrip(self, case_study):
        config = {
            "n": 2,
            "m": 6,
            "box": [[-2, 2], [-1, 1]],
            "agents": [
                {
                    "objective": {"kind": "quadratic-distance", "center": list(c)},
                    "constraint": {"kind": "paper-quadratic", "v": v},
                }
                for c, v in zip(
                    [[0, 6], [0, 0], [1, 1], [-1, -1], [1, -1], [-1, 1]], CASE_STUDY_V
                )
            ],
        }
        instance, _, _ = _build_from_config({"instance": config})
        x = np.array([0.3, -0.2])
        assert [f.evaluate(x) for f in instance.objectives] == pytest.approx(
            [f.evaluate(x) for f in case_study.objectives]
        )

    def test_unknown_kind_rejected(self):
        config = {
            "n": 2,
            "m": 1,
            "box": [[0, 1], [0, 1]],
            "agents": [
                {
                    "objective": {"kind": "cubic", "center": [0, 0]},
                    "constraint": {"kind": "example1"},
                }
            ],
        }
        with pytest.raises(ConfigError, match="objective kind"):
            _build_from_config({"instance": config})

    def test_agent_count_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="agents"):
            _build_from_config({"instance": {"n": 2, "m": 3, "box": [[0, 1], [0, 1]], "agents": []}})
