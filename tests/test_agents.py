import math

import numpy as np
import pytest

from drcopt.agents import dlbd_oracle, dubd_oracle
from drcopt.problem import family_terms
from drcopt.sim import RunParams, _bounds_and_gaps
from drcopt.solver import CutTable, FiniteSubproblem

from helpers import F_STAR, X_STAR, agent_gap, bound_values, cut_tuples


@pytest.fixture
def empty(case_study):
    return CutTable.empty(case_study.constraint_table)


EPS = np.full(6, 0.01)


class TestLowerOracle:
    def test_first_iteration_cuts_every_agent(self, case_study, empty):
        x_new = np.array([0.0, 1.0])
        violated, g_max, cuts = dlbd_oracle(empty, case_study, x_new)
        assert violated.tolist() == [True] * 6
        assert (g_max > 0).all()
        assert cuts.agent.tolist() == list(range(6)) and cuts.count.tolist() == [1] * 6
        assert cuts.scenarios.tolist() == [[1.0]] * 6
        assert len(empty) == 0

    def test_feasible_point_leaves_set_unchanged(self, case_study, empty):
        violated, g_max, cuts = dlbd_oracle(empty, case_study, X_STAR)
        assert not violated.any()
        assert g_max[3] == pytest.approx(0.0625 + 7 / 16 - 1)  # v = 0.25
        assert len(cuts) == 0 and cuts.count.tolist() == [0] * 6


class TestUpperOracle:
    def test_violation_sets_sentinel(self, case_study, empty):
        # The violated mask is what makes the run's upper bound +inf.
        z = np.array([0.0, 1.0])
        violated, g_max, cuts, epsilon = dubd_oracle(empty, EPS, case_study, z, r=2.0)
        assert violated.tolist() == [True] * 6
        assert (g_max > 0).all()
        assert cuts.scenarios.tolist() == [[1.0]] * 6
        assert epsilon.tolist() == [0.01] * 6

    def test_feasible_point_halves_epsilon(self, case_study, empty):
        z = np.array([0.0, 0.0])
        violated, _, cuts, epsilon = dubd_oracle(empty, EPS, case_study, z, r=2.0)
        assert not violated[0]
        assert epsilon[0] == 0.005
        assert len(cuts) == len(empty) + int(violated.sum()) and cuts.count[0] == 0

    def test_two_feasible_verdicts_quarter_epsilon(self, case_study, empty):
        z = np.array([0.0, 0.0])
        _, _, cuts, epsilon = dubd_oracle(empty, EPS, case_study, z, r=2.0)
        _, _, _, epsilon = dubd_oracle(cuts, epsilon, case_study, z, r=2.0)
        assert epsilon[0] == pytest.approx(0.01 / 4)

    def test_reduction_parameter_validated(self, case_study, empty):
        # NaN fails every comparison: a bare r <= 1 test would let it
        # through and make a feasible agent's epsilon NaN.
        for r in (1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="r must exceed 1"):
                dubd_oracle(empty, EPS, case_study, np.zeros(2), r=r)
        assert EPS.tolist() == [0.01] * 6


class TestSubproblemBuilders:
    def test_empty_sets_give_box_only(self, case_study, empty):
        assert len(FiniteSubproblem(case_study, empty).cuts) == 0
        assert len(FiniteSubproblem(case_study, empty, -EPS[empty.agent]).cuts) == 0

    def test_lower_cuts_have_zero_rhs(self, case_study, empty):
        _, _, cuts = dlbd_oracle(empty, case_study, np.array([0.0, 1.0]))
        problem = FiniteSubproblem(case_study, cuts)
        assert len(problem.cuts) == 6
        assert all(rhs == 0.0 for _, _, _, rhs in cut_tuples(case_study, problem))
        assert [a for a, _, _, _ in cut_tuples(case_study, problem)] == list(range(1, 7))

    def test_upper_cuts_carry_restriction(self, case_study, empty):
        _, _, cuts, epsilon = dubd_oracle(empty, EPS, case_study, np.array([0.0, 1.0]), r=2.0)
        problem = FiniteSubproblem(case_study, cuts, -epsilon[cuts.agent])
        assert len(problem.cuts) == 6
        assert all(rhs == -0.01 for _, _, _, rhs in cut_tuples(case_study, problem))


def assert_matches_oracle(instance, feasible, lower_x, upper_x):
    """drcopt.sim's (lower, upper, gaps) against the per-agent oracle."""
    terms = family_terms(instance.objectives)
    lower, upper, gaps = _bounds_and_gaps(terms(lower_x)[0], terms(upper_x)[0], np.array(feasible))
    gaps = gaps.tolist()
    expected = bound_values(instance, feasible, lower_x, upper_x) + tuple(
        agent_gap(f, ok, lower_x, upper_x) for f, ok in zip(instance.objectives, feasible)
    )
    assert [v.hex() for v in (lower, upper, *gaps)] == [v.hex() for v in expected]
    return lower, upper, gaps


class TestBoundValues:
    def test_sentinel_makes_upper_infinite(self, case_study):
        feasible = [False] * 6
        lower, upper, _ = assert_matches_oracle(case_study, feasible, np.array([0.0, 0.71875]), X_STAR)
        assert lower == pytest.approx(38.474609375)
        assert upper == math.inf

    def test_identical_points_collapse_bounds(self, case_study):
        lower, upper, gaps = assert_matches_oracle(case_study, [True] * 6, X_STAR, X_STAR)
        assert lower == pytest.approx(F_STAR)
        assert upper == pytest.approx(F_STAR)
        assert gaps == [0.0] * 6

    def test_gap_is_infinite_for_sentinel(self, case_study):
        feasible = [False] + [True] * 5
        _, upper, gaps = assert_matches_oracle(case_study, feasible, X_STAR, np.array([0.0, 0.71875]))
        assert upper == math.inf
        assert gaps[0] == math.inf and all(math.isfinite(e) for e in gaps[1:])


class TestValidation:
    def test_positive_eps0_required(self):
        # sim.run builds the agents' states from RunParams, which rejects the bad eps0.
        with pytest.raises(ValueError, match="eps0 must be positive and finite"):
            RunParams(eps0=0.0)
