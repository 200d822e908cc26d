import dataclasses
import math

import numpy as np
import pytest

from drcopt.llp import (
    UnsupportedDimension,
    Verdict,
    feasibility_verdict,
    solve_llp,
    solve_llp_numeric,
)
from drcopt.problem import SemiInfiniteConstraint, example1_constraint, with_numeric_llp

from helpers import X_STAR


def row_by_row(batch):
    """A constraint kernel that calls ``batch`` once per row of Y and stacks the rows."""

    def kernel(x, coefficients, ys):
        coefficients = np.broadcast_to(coefficients, (len(ys), coefficients.shape[1]))
        rows = [batch(x, coefficients[j : j + 1], ys[j : j + 1]) for j in range(len(ys))]
        hessians = [h for _, _, h in rows]
        return (
            np.concatenate([v for v, _, _ in rows]),
            np.concatenate([g for _, g, _ in rows]),
            None if hessians[0] is None else np.concatenate(hessians),
        )

    return kernel


def asymmetric(x, coefficients, ys):
    """g(x, y) = sin(3y + x1) + a y + 0.5 y^3 x2 - 1 with a = coefficients[:, 0]: neither concave nor symmetric in y."""
    y = ys[:, 0]
    values = np.sin(3.0 * y + x[0]) + coefficients[:, 0] * y + 0.5 * y**3 * x[1] - 1.0
    return values, np.zeros((len(y), 2)), None


def reference_max(g, lo, hi, points=20_001):
    """Max of the vectorized g over [lo, hi]: a dense grid, then golden-section search on the best point's two cells."""
    ys = np.linspace(lo, hi, points)
    i = int(np.argmax(g(ys)))
    a, b = ys[max(i - 1, 0)], ys[min(i + 1, points - 1)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        if g(np.array([c]))[0] >= g(np.array([d]))[0]:
            b = d
        else:
            a = c
    return float(g(np.array([ys[i], (a + b) / 2.0])).max())


def solve_one(constraint, x):
    """``solve_llp`` for a single constraint: its g_max and maximizer."""
    g_max, y_star = solve_llp([constraint], x)
    return g_max[0], y_star[0]


def random_xs(rng, k):
    """k decision points around the case-study box, half of them with |x2| > 1.

    With |x2| > 1 the maximum of g(x, .) sits on a box endpoint.
    """
    inside = rng.uniform(-1.0, 1.0, k // 2)
    outside = rng.choice([-1.0, 1.0], k - k // 2) * rng.uniform(1.0, 2.0, k - k // 2)
    x1 = rng.uniform(-2.5, 2.5, k)
    return list(np.column_stack([x1, np.concatenate([inside, outside])]))


class TestCaseStudyLLP:
    def test_maximizer_clamped_to_boundary(self, case_study):
        g_max, y_star = solve_one(case_study.constraints[0], np.array([0.0, 1.0]))
        assert g_max == pytest.approx(0.5625)
        assert y_star[0] == pytest.approx(1.0)

    def test_interior_stationary_point(self, case_study):
        # agent with v = 0.5 queried at the origin
        g_max, y_star = solve_one(case_study.constraints[4], np.array([0.0, 0.0]))
        assert g_max == pytest.approx(-0.75)
        assert y_star[0] == pytest.approx(0.0)

    def test_active_at_known_optimum(self, case_study):
        for idx in (0, 5):  # v = -0.75 and v = 0.75
            g_max, _ = solve_one(case_study.constraints[idx], X_STAR)
            assert abs(g_max) <= 1e-10


class TestVerdict:
    def test_violated(self):
        assert feasibility_verdict(0.5625) is Verdict.VIOLATED

    def test_boundary_counts_feasible(self):
        assert feasibility_verdict(0.0) is Verdict.FEASIBLE

    def test_clearly_feasible(self):
        assert feasibility_verdict(-0.75) is Verdict.FEASIBLE


class TestNumericPath:
    def test_agreement_with_analytic_case_study(self, case_study, rng):
        for _ in range(200):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            constraint = case_study.constraints[int(rng.integers(0, 6))]
            g_ana, _ = solve_one(constraint, x)
            g_num, _ = solve_llp_numeric(constraint, x)
            assert g_num == pytest.approx(g_ana, abs=1e-8)

    def test_agreement_with_analytic_example1(self, rng):
        constraint = example1_constraint()
        for _ in range(200):
            x = np.array([rng.uniform(0, 2), rng.uniform(0, 1)])
            g_ana, _ = solve_one(constraint, x)
            g_num, _ = solve_llp_numeric(constraint, x)
            assert g_num == pytest.approx(g_ana, abs=1e-8)

    def test_maximizer_dominates_random_samples(self, case_study, rng):
        constraint = case_study.constraints[2]
        for x in (np.array([0.3, 0.4]), np.array([-1.0, 0.9]), np.array([1.5, -0.6])):
            g_max, y_star = solve_one(constraint, x)
            ys = rng.uniform(-1, 1, size=10_000)
            vals = (x[0] - (-0.25)) ** 2 + 2 * ys * x[1] - ys**2 - 1
            assert g_max >= vals.max() - 1e-9

    def test_nonconcave_flag_uses_multistart(self):
        # Two-bump function: global maximum near y = 1.7, local bump near 0.3.
        def two_bumps(x, coefficients, ys):
            y = ys[:, 0]
            return 0.8 * np.exp(-60 * (y - 0.3) ** 2) + np.exp(-60 * (y - 1.7) ** 2), np.zeros((len(y), 2)), None

        constraint = SemiInfiniteConstraint(
            batch=two_bumps,
            coefficients=np.zeros(0),
            uncertainty_box=np.array([[0.0, 2.0]]),
            concave_in_y=False,
        )
        g_max, y_star = solve_one(constraint, np.zeros(2))
        assert y_star[0] == pytest.approx(1.7, abs=1e-6)
        assert g_max == pytest.approx(1.0, abs=1e-9)

    def test_nonconcave_asymmetric_kernel_matches_a_dense_reference(self, rng):
        # A parabola vertex through three grid values misses the maximum by
        # about h^4 in g, more where the third y-derivative is large against
        # the second: over 6,000 random draws of these ranges the worst
        # miss is 1.4e-12.
        for _ in range(25):
            a, x = rng.uniform(-1.0, 1.0), rng.uniform([-2.0, -1.0], [2.0, 1.0])
            constraint = SemiInfiniteConstraint(
                batch=asymmetric,
                coefficients=np.array([a]),
                uncertainty_box=np.array([[-1.0, 1.0]]),
                concave_in_y=False,
            )
            g_max, _ = solve_llp_numeric(constraint, x)
            reference = reference_max(lambda ys: asymmetric(x, np.array([[a]]), ys[:, None])[0], -1.0, 1.0)
            assert g_max == pytest.approx(reference, abs=2e-12)

    def test_maximizer_moves_only_by_rounding(self, case_study, rng):
        # Values locate a flat maximum only to about 1e-8 in y; a parabola
        # vertex is a ratio of value differences, so a 1-ulp change in x2
        # moves it by rounding alone, and it matches the closed form.
        for _ in range(300):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            nudged = np.array([x[0], np.nextafter(x[1], np.inf)])
            constraint = case_study.constraints[int(rng.integers(0, 6))]
            _, y_star = solve_llp_numeric(constraint, x)
            assert abs(y_star[0] - solve_llp_numeric(constraint, nudged)[1][0]) <= 1e-11
            assert abs(y_star[0] - solve_one(constraint, x)[1][0]) <= 1e-11

    def test_scalar_only_concave_constraint(self):
        # A custom kernel that computes its rows one by one in Python floats.
        def kernel(x, coefficients, ys):
            values = np.array([-((y - float(x[0])) ** 2) for y in ys[:, 0].tolist()])
            return values, np.zeros((len(values), 2)), None

        constraint = SemiInfiniteConstraint(
            batch=kernel,
            coefficients=np.zeros(0),
            uncertainty_box=np.array([[-1.0, 1.0]]),
            concave_in_y=True,
        )
        for x0, y_expected in ((0.3, 0.3), (-0.8, -0.8), (1.7, 1.0)):
            g_max, y_star = solve_one(constraint, np.array([x0, 0.0]))
            assert y_star[0] == pytest.approx(y_expected, abs=1e-6)
            assert g_max == pytest.approx(-((y_expected - x0) ** 2), abs=1e-9)

    def test_multidimensional_without_argmax_rejected(self):
        constraint = SemiInfiniteConstraint(
            batch=lambda x, coefficients, ys: (np.zeros(len(ys)), np.zeros((len(ys), 2)), None),
            coefficients=np.zeros(0),
            uncertainty_box=np.array([[0.0, 1.0], [0.0, 1.0]]),
        )
        with pytest.raises(UnsupportedDimension):
            solve_one(constraint, np.zeros(2))


class TestBatchedGrid:
    @pytest.mark.parametrize("agent", range(6))
    def test_numeric_solve_bitwise_equal_without_kernel(self, case_study, rng, agent):
        # Without the batched grid call: one kernel call per point.
        constraint = case_study.constraints[agent]
        one_by_one = dataclasses.replace(constraint, batch=row_by_row(constraint.batch))
        for x in random_xs(rng, 30):
            g, y = solve_llp_numeric(constraint, x)
            g_ref, y_ref = solve_llp_numeric(one_by_one, x)
            assert np.float64(g).tobytes() == np.float64(g_ref).tobytes()
            assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("concave_in_y", [True, False])
    def test_two_kernel_calls_per_solve(self, case_study, concave_in_y):
        # One call scans the grid, one scores the starts' parabola vertices.
        calls = []
        constraint = case_study.constraints[2]

        def counted(x, coefficients, ys):
            calls.append(len(ys))
            return constraint.batch(x, coefficients, ys)

        counting = dataclasses.replace(constraint, batch=counted, concave_in_y=concave_in_y)
        solve_llp_numeric(counting, np.array([0.3, 0.4]))
        assert calls == [2001, 1 if concave_in_y else 5]


def bilinear(x, coefficients, ys):
    """g(x, y) = a * (x1 y1 + x2 y2) - 1 over y in [-1, 1]^2, elementwise so that rows stay independent."""
    a = coefficients[:, 0]
    grads = a[:, None] * ys
    return a * (ys[:, 0] * x[0] + ys[:, 1] * x[1]) - 1.0, grads, np.zeros((len(ys), 2, 2))


def bilinear_constraint(a: float) -> SemiInfiniteConstraint:
    """Linear in y, so the vertex with y_k = sign(a * x_k) maximizes it."""
    return SemiInfiniteConstraint(
        batch=bilinear,
        coefficients=np.array([a]),
        uncertainty_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        analytic_argmax=lambda x: np.where(a * np.asarray(x) >= 0.0, 1.0, -1.0),
    )


class TestPhasePass:
    """One solve_llp call over a phase's constraints against per-member solves, bit for bit."""

    @staticmethod
    def assert_per_member(constraints, x):
        g_max, y_star = solve_llp(constraints, x)
        assert g_max.shape == (len(constraints),) and len(y_star) == len(constraints)
        for constraint, g, y in zip(constraints, g_max.tolist(), y_star):
            if constraint.analytic_argmax is None:
                g_ref, y_ref = solve_llp_numeric(constraint, x)
            else:
                y_ref = np.asarray(constraint.analytic_argmax(x), dtype=float)
                g_ref = constraint.evaluate(x, y_ref)
            assert g.hex() == g_ref.hex()
            assert y.tobytes() == y_ref.tobytes()

    def test_case_study_and_numeric_llp(self, case_study, rng):
        for instance in (case_study, with_numeric_llp(case_study)):
            for x in random_xs(rng, 20):
                self.assert_per_member(instance.constraints, x)

    def test_mixed_families_and_mixed_llp_paths(self, case_study, rng):
        # test_solver's example1_mixed: two kernels, so one one-row call per
        # analytic member; then every other member on the numeric path.
        mixed = case_study.constraints[:3] + (example1_constraint(),) * 3
        half_numeric = tuple(c if j % 2 else dataclasses.replace(c, analytic_argmax=None) for j, c in enumerate(mixed))
        for constraints in (mixed, half_numeric):
            for x in rng.uniform(case_study.box[:, 0], case_study.box[:, 1], (20, 2)):
                self.assert_per_member(constraints, x)

    def test_two_dimensional_uncertainty(self, rng):
        constraints = [bilinear_constraint(a) for a in (1.0, -2.0, 0.5)]
        for x in rng.uniform(-2.0, 2.0, (20, 2)):
            self.assert_per_member(constraints, x)
            # The closed form is the maximum over the box's four vertices.
            vertices = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
            g_max, _ = solve_llp(constraints, x)
            brute = [max(c.evaluate(x, v) for v in vertices) for c in constraints]
            assert g_max.tolist() == brute
