import dataclasses
import math

import numpy as np
import pytest

from drcopt import llp
from drcopt.agents import dlbd_oracle, dubd_oracle
from drcopt.llp import UnsupportedDimension, solve_llp
from drcopt.problem import (
    NumericalFailure,
    SemiInfiniteConstraint,
    constraint_table,
    example1_constraint,
    with_numeric_llp,
)
from drcopt.solver import CutTable

from helpers import X_STAR, former_solve_llp_numeric, member_argmax


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
    g_max, y_star = solve_llp(constraint_table([constraint]), x)
    return g_max[0], y_star[0]


def solve_numeric(constraint, x):
    """``solve_one`` on the numeric path: the constraint without its closed form."""
    return solve_one(dataclasses.replace(constraint, analytic_argmax=None), x)


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
    """The oracles' verdict: violated iff g_max is positive, so a boundary value counts feasible."""

    @staticmethod
    def verdicts(instance, x):
        """(lower mask, upper mask, g_max, the upper oracle's eps) of every agent at x."""
        empty, eps = CutTable.empty(instance.constraint_table), np.full(instance.m, 0.01)
        lower, g_max, _ = dlbd_oracle(empty, instance, np.asarray(x, dtype=float))
        upper, _, _, eps = dubd_oracle(empty, eps, instance, np.asarray(x, dtype=float), 2.0)
        return lower, upper, g_max, eps

    def test_violated(self, case_study):
        # Agent 1 (v = -0.75) at (0, 1): 0.75^2 + 2 - 1 - 1.
        lower, upper, g_max, eps = self.verdicts(case_study, [0.0, 1.0])
        assert g_max[0] == 0.5625 and lower[0] and upper[0] and eps[0] == 0.01

    def test_boundary_counts_feasible(self, case_study):
        # Agent 4 (v = 0.25) at (1.25, 0): 1 - 1, exactly 0.
        lower, upper, g_max, eps = self.verdicts(case_study, [1.25, 0.0])
        assert g_max[3] == 0.0 and not lower[3] and not upper[3] and eps[3] == 0.005

    def test_clearly_feasible(self, case_study):
        # Agent 1 at (0, 0): 0.75^2 - 1.
        lower, upper, g_max, eps = self.verdicts(case_study, [0.0, 0.0])
        assert g_max[0] == -0.4375 and not lower[0] and not upper[0] and eps[0] == 0.005

    def test_nan_raises(self, case_study):
        # NaN > 0 is False, so a NaN g_max would count feasible: both
        # oracles refuse it and name the first such agent.
        second = case_study.constraints[1]

        def nan_kernel(x, coefficients, ys):
            values, grads, hessians = second.batch(x, coefficients, ys)
            return np.full_like(values, np.nan), grads, hessians

        constraints = list(case_study.constraints)
        constraints[1] = constraints[4] = dataclasses.replace(second, batch=nan_kernel)
        instance = dataclasses.replace(case_study, constraints=tuple(constraints))
        with pytest.raises(NumericalFailure, match="agent 2's lower-level maximum is NaN"):
            self.verdicts(instance, [0.0, 0.0])
        empty, eps = CutTable.empty(instance.constraint_table), np.full(instance.m, 0.01)
        with pytest.raises(NumericalFailure, match="agent 2's lower-level maximum is NaN"):
            dubd_oracle(empty, eps, instance, np.zeros(2), 2.0)


class TestNumericPath:
    def test_agreement_with_analytic_case_study(self, case_study, rng):
        for _ in range(200):
            x = rng.uniform(case_study.box[:, 0], case_study.box[:, 1])
            constraint = case_study.constraints[int(rng.integers(0, 6))]
            g_ana, _ = solve_one(constraint, x)
            g_num, _ = solve_numeric(constraint, x)
            assert g_num == pytest.approx(g_ana, abs=1e-8)

    def test_agreement_with_analytic_example1(self, rng):
        constraint = example1_constraint()
        for _ in range(200):
            x = np.array([rng.uniform(0, 2), rng.uniform(0, 1)])
            g_ana, _ = solve_one(constraint, x)
            g_num, _ = solve_numeric(constraint, x)
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
            g_max, _ = solve_one(constraint, x)
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
            _, y_star = solve_numeric(constraint, x)
            assert abs(y_star[0] - solve_numeric(constraint, nudged)[1][0]) <= 1e-11
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
            g, y = solve_numeric(constraint, x)
            g_ref, y_ref = solve_numeric(one_by_one, x)
            assert np.float64(g).tobytes() == np.float64(g_ref).tobytes()
            assert y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize(
        "concave_in_y, calls",
        [
            ((True,) * 3, [51 * 3, 81 * 3, 3]),
            ((False,) * 3, [2001 * 3, 5 * 3]),
            ((True, False, True), [51 * 2, 81 * 2, 2, 2001, 5]),
        ],
        ids=["concave", "not-concave", "mixed"],
    )
    def test_kernel_calls_per_pass(self, case_study, concave_in_y, calls):
        # The members of a concave family share a call at every 40th grid
        # point and one over the 81 points around their coarse winners; the
        # members of a family that is not concave share one call over their
        # whole grids.  One call scores a family's parabola vertices.  A
        # kernel whose members differ in concave_in_y forms two families,
        # in first-appearance order, each with its own vertex call.
        seen = []
        constraint = case_study.constraints[2]

        def counted(x, coefficients, ys):
            seen.append(len(ys))
            return constraint.batch(x, coefficients, ys)

        members = [
            dataclasses.replace(constraint, batch=counted, concave_in_y=flag, analytic_argmax=None)
            for flag in concave_in_y
        ]
        solve_llp(constraint_table(members), np.array([0.3, 0.4]))
        assert seen == calls

    def test_both_kinds_scanned_in_chunks(self, case_study, rng, monkeypatch):
        # Each chunk of ROWS_PER_CALL // width members takes its own scan
        # calls, which bounds their rows: at 4002 rows, 49 concave members
        # (81-point windows) or 2 whole grids.  Each family's vertices still
        # share one call, and the values are the per-member solver's.  The
        # first member is not concave, so that family is scanned first.
        seen = []

        def counted(x, coefficients, ys):
            seen.append(len(ys))
            return case_study.constraints[0].batch(x, coefficients, ys)

        monkeypatch.setattr(llp, "ROWS_PER_CALL", 2 * 2001)
        members = [
            dataclasses.replace(c, batch=counted, concave_in_y=j % 21 != 0, analytic_argmax=None)
            for j, c in enumerate(case_study.constraints * 21)
        ]
        table = constraint_table(members)
        concave = [51 * 49, 81 * 49, 51 * 49, 81 * 49, 51 * 22, 81 * 22]
        for x in random_xs(rng, 10):
            seen.clear()
            g_max, y_star = solve_llp(table, x)
            assert seen == [2001 * 2, 2001 * 2, 2001 * 2, 5 * 6] + concave + [120]
            for j, member in enumerate(members):
                g_ref, y_ref = former_solve_llp_numeric(member, x)
                assert g_max[j].hex() == g_ref.hex() and y_star[j].tobytes() == y_ref.tobytes()


def kernel_family(g):
    """A constraint kernel from g(x, a, y), with a = coefficients[:, 0]; only its values are read."""

    def batch(x, coefficients, ys):
        return g(x, coefficients[:, 0], ys[:, 0]), np.zeros((len(ys), 2)), np.zeros((len(ys), 2, 2))

    return batch


# Concave in y, in y - x2 so that the maximum moves with x: inside the box,
# on a plateau wider or narrower than the coarse step, or at an end.
CONCAVE_KERNELS = {
    "quadratic": kernel_family(lambda x, a, y: x[0] - a * (y - x[1]) ** 2),
    "constant": kernel_family(lambda x, a, y: x[0] + 0.0 * a * y),
    "linear": kernel_family(lambda x, a, y: a * x[1] * y + x[0]),
    "flat-top": kernel_family(lambda x, a, y: -(np.maximum(np.abs(y - x[1]) - 0.01 * a, 0.0) ** 2)),
    "1e-17-curvature": kernel_family(lambda x, a, y: x[0] - 1e-17 * a * (y - x[1]) ** 2),
    "1e-17-curvature-alone": kernel_family(lambda x, a, y: -1e-17 * a * (y - x[1]) ** 2),
}
# On [-1.1, 0.3] the last grid point is hi itself, not 2000 * h + lo.
BOXES = ([-1.0, 1.0], [0.0, 2.0], [-3.0, -1.0], [-0.5, 0.25], [-1.1, 0.3])


def end_value_kernel(end, value):
    """A concave quadratic in y whose value at the end ``end`` of [-1, 1] is ``value`` (-inf or NaN)."""
    return kernel_family(lambda x, a, y: np.where(y == end, value, x[0] + a * y - (y - x[1]) ** 2))


class TestCoarseToFine:
    """The phase pass against helpers.former_solve_llp_numeric, the per-member full-grid solver, bit for bit."""

    @staticmethod
    def assert_reference(constraints, xs):
        table = constraint_table(constraints)
        for x in xs:
            g_max, y_star = solve_llp(table, x)
            for j, constraint in enumerate(constraints):
                g_ref, y_ref = former_solve_llp_numeric(constraint, x)
                assert g_max[j].hex() == g_ref.hex()
                assert y_star[j].tobytes() == y_ref.tobytes()

    def test_case_study(self, case_study, rng):
        self.assert_reference(with_numeric_llp(case_study).constraints, random_xs(rng, 300))

    def test_example1_mixed_with_paper_quadratic(self, case_study, rng):
        mixed = with_numeric_llp(case_study).constraints[:3] + (dataclasses.replace(example1_constraint(), analytic_argmax=None),) * 3
        self.assert_reference(mixed, rng.uniform([-0.5, -2.0], [2.5, 2.0], (40, 2)))

    @pytest.mark.parametrize("kernel", CONCAVE_KERNELS.values(), ids=CONCAVE_KERNELS.keys())
    def test_concave_kernels_on_different_boxes(self, rng, kernel):
        members = [
            SemiInfiniteConstraint(kernel, np.array([a]), np.array([box]), concave_in_y=True)
            for a in (0.5, 3.0)
            for box in BOXES
        ]
        self.assert_reference(members, rng.uniform([-2.0, -4.0], [2.0, 3.0], (300, 2)))

    @pytest.mark.parametrize("kernel", CONCAVE_KERNELS.values(), ids=CONCAVE_KERNELS.keys())
    def test_kernels_declared_not_concave(self, rng, kernel):
        # The whole-grid scan with its five argsort starts: the constant,
        # linear and flat-top kernels tie on many grid points, and 60
        # members stack into two calls.
        members = [
            SemiInfiniteConstraint(kernel, np.array([a]), np.array([box]), concave_in_y=False)
            for a in np.linspace(0.25, 3.0, 12).tolist()
            for box in BOXES
        ]
        assert len(members) > llp.ROWS_PER_CALL // llp.GRID_POINTS
        self.assert_reference(members, rng.uniform([-2.0, -4.0], [2.0, 3.0], (100, 2)))

    @pytest.mark.parametrize("end", [-1.0, 1.0])
    @pytest.mark.parametrize("value", [-np.inf, np.nan])
    def test_non_finite_value_at_a_grid_end(self, rng, end, value):
        kernel = end_value_kernel(end, value)
        members = [
            SemiInfiniteConstraint(kernel, np.array([a]), np.array([[-1.0, 1.0]]), concave_in_y=concave)
            for a in (0.0, 0.5, -3.0)
            for concave in (True, False)
        ]
        self.assert_reference(members, rng.uniform([-2.0, -3.0], [2.0, 3.0], (60, 2)))


def bilinear(x, coefficients, ys):
    """g(x, y) = a * (x1 y1 + x2 y2) - 1 over y in [-1, 1]^2, elementwise so that rows stay independent."""
    a = coefficients[:, 0]
    grads = a[:, None] * ys
    return a * (ys[:, 0] * x[0] + ys[:, 1] * x[1]) - 1.0, grads, np.zeros((len(ys), 2, 2))


def bilinear_argmax(x, coefficients, boxes):
    """Row j: the vertex of [-1, 1]^2 with y_k = sign(a_j * x_k)."""
    return np.where(coefficients[:, :1] * x >= 0.0, 1.0, -1.0)


def bilinear_constraint(a: float) -> SemiInfiniteConstraint:
    """Linear in y, so the vertex with y_k = sign(a * x_k) maximizes it."""
    return SemiInfiniteConstraint(
        batch=bilinear,
        coefficients=np.array([a]),
        uncertainty_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        analytic_argmax=bilinear_argmax,
    )


class TestPhasePass:
    """One solve_llp call over a phase's constraints against per-member solves, bit for bit."""

    @staticmethod
    def assert_per_member(constraints, x):
        table = constraint_table(constraints)
        g_max, y_star = solve_llp(table, x)
        widths = [len(c.uncertainty_box) for c in constraints]
        assert g_max.shape == (len(constraints),) and y_star.shape == (len(constraints), max(widths))
        for j, (constraint, g, width) in enumerate(zip(constraints, g_max.tolist(), widths)):
            # A narrower family's maximizer fills the first columns, 0 after them.
            y = y_star[j, :width]
            assert not y_star[j, width:].any()
            if constraint.analytic_argmax is None:
                g_ref, y_ref = former_solve_llp_numeric(constraint, x)
            else:
                y_ref = member_argmax(constraint, x)
                g_ref = constraint.evaluate(x, y_ref)
            assert g.hex() == g_ref.hex()
            assert y.tobytes() == y_ref.tobytes()

    def test_case_study_and_numeric_llp(self, case_study, rng):
        for instance in (case_study, with_numeric_llp(case_study)):
            for x in random_xs(rng, 20):
                self.assert_per_member(instance.constraints, x)

    def test_mixed_families_and_mixed_llp_paths(self, case_study, rng):
        # test_solver's example1_mixed: two kernels, so one maximizer call
        # and one kernel call per family; then every other member on the
        # numeric path.
        mixed = case_study.constraints[:3] + (example1_constraint(),) * 3
        half_numeric = tuple(c if j % 2 else dataclasses.replace(c, analytic_argmax=None) for j, c in enumerate(mixed))
        for constraints in (mixed, half_numeric):
            for x in rng.uniform(case_study.box[:, 0], case_study.box[:, 1], (20, 2)):
                self.assert_per_member(constraints, x)

    def test_instance_reads_its_kept_table(self, case_study, rng):
        # An instance's table is built on first use and kept; a pass over
        # it equals the pass over a fresh table of its constraints, bit for bit.
        mixed = case_study.constraints[:3] + (example1_constraint(),) * 3
        half_numeric = tuple(c if j % 2 else dataclasses.replace(c, analytic_argmax=None) for j, c in enumerate(mixed))
        for instance in (case_study, dataclasses.replace(case_study, constraints=half_numeric)):
            assert instance.constraint_table is instance.constraint_table
            fresh = constraint_table(instance.constraints)
            assert fresh is not instance.constraint_table
            for x in random_xs(rng, 10):
                (g, ys), (g_ref, ys_ref) = solve_llp(instance.constraint_table, x), solve_llp(fresh, x)
                assert g.tobytes() == g_ref.tobytes()
                assert ys.tobytes() == ys_ref.tobytes()

    def test_two_dimensional_uncertainty(self, rng):
        constraints = [bilinear_constraint(a) for a in (1.0, -2.0, 0.5)]
        for x in rng.uniform(-2.0, 2.0, (20, 2)):
            self.assert_per_member(constraints, x)
            # The closed form is the maximum over the box's four vertices.
            vertices = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
            g_max, _ = solve_llp(constraint_table(constraints), x)
            brute = [max(c.evaluate(x, v) for v in vertices) for c in constraints]
            assert g_max.tolist() == brute
