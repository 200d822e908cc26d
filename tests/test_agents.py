import math

import numpy as np
import pytest

from drcopt.agents import AgentState, dlbd_oracle, dubd_oracle, lower_cuts, upper_cuts
from drcopt.llp import Verdict
from drcopt.problem import family_terms
from drcopt.sim import RunParams, _bounds_and_gaps
from drcopt.solver import FiniteSubproblem

from helpers import F_STAR, X_STAR, agent_gap, bound_values


@pytest.fixture
def states(case_study):
    return [AgentState(agent_id=i + 1, epsilon=0.01) for i in range(case_study.m)]


class TestLowerOracle:
    def test_first_iteration_cuts_every_agent(self, case_study, states):
        x_new = np.array([0.0, 1.0])
        verdicts, g_max = dlbd_oracle(states, case_study, x_new)
        assert verdicts == [Verdict.VIOLATED] * 6
        assert (g_max > 0).all()
        for state in states:
            assert state.lower_scenarios == [(1.0,)]

    def test_feasible_point_leaves_set_unchanged(self, case_study, states):
        state = states[3]  # v = 0.25
        verdicts, g_max = dlbd_oracle([state], case_study, X_STAR)
        assert verdicts == [Verdict.FEASIBLE]
        assert g_max[0] == pytest.approx(0.0625 + 7 / 16 - 1)
        assert state.lower_scenarios == []


class TestUpperOracle:
    def test_violation_sets_sentinel(self, case_study, states):
        # The VIOLATED verdict is what makes the run's upper bound +inf.
        z = np.array([0.0, 1.0])
        verdicts, g_max = dubd_oracle(states, case_study, z, r=2.0)
        assert verdicts == [Verdict.VIOLATED] * 6
        assert (g_max > 0).all()
        for state in states:
            assert state.upper_scenarios == [(1.0,)]
            assert state.epsilon == 0.01

    def test_feasible_point_halves_epsilon(self, case_study, states):
        state = states[0]
        z = np.array([0.0, 0.0])
        verdicts, _ = dubd_oracle([state], case_study, z, r=2.0)
        assert verdicts == [Verdict.FEASIBLE]
        assert state.epsilon == 0.005
        assert state.upper_scenarios == []
        assert state == AgentState(agent_id=1, epsilon=0.005)

    def test_two_feasible_verdicts_quarter_epsilon(self, case_study, states):
        state = states[0]
        z = np.array([0.0, 0.0])
        dubd_oracle([state], case_study, z, r=2.0)
        dubd_oracle([state], case_study, z, r=2.0)
        assert state.epsilon == pytest.approx(0.01 / 4)

    def test_reduction_parameter_validated(self, case_study, states):
        # NaN fails every comparison: a bare r <= 1 test would let it
        # through and make a feasible agent's epsilon NaN.
        for r in (1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="r must exceed 1"):
                dubd_oracle(states, case_study, np.zeros(2), r=r)
            assert [s.epsilon for s in states] == [0.01] * 6


def build_from(states, instance, side_cuts):
    return FiniteSubproblem(instance, [cut for state in states for cut in side_cuts(state)])


class TestSubproblemBuilders:
    def test_empty_sets_give_box_only(self, case_study, states):
        assert build_from(states, case_study, lower_cuts).cuts == ()
        assert build_from(states, case_study, upper_cuts).cuts == ()

    def test_lower_cuts_have_zero_rhs(self, case_study, states):
        dlbd_oracle(states, case_study, np.array([0.0, 1.0]))
        problem = build_from(states, case_study, lower_cuts)
        assert len(problem.cuts) == 6
        assert all(rhs == 0.0 for _, _, _, rhs in problem.cuts)
        assert [a for a, _, _, _ in problem.cuts] == list(range(1, 7))

    def test_upper_cuts_carry_restriction(self, case_study, states):
        dubd_oracle(states, case_study, np.array([0.0, 1.0]), r=2.0)
        problem = build_from(states, case_study, upper_cuts)
        assert len(problem.cuts) == 6
        assert all(rhs == -0.01 for _, _, _, rhs in problem.cuts)


def assert_matches_oracle(instance, feasible, lower_x, upper_x):
    """drcopt.sim's (lower, upper, gaps) against the per-agent oracle."""
    lower, upper, gaps = _bounds_and_gaps(family_terms(instance.objectives), feasible, lower_x, upper_x)
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
