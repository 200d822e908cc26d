"""Global maximization of g(x, .) over the uncertainty box (the lower-level problem)."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .problem import SemiInfiniteConstraint, Vector

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

GRID_POINTS = 2001  # grid of the numeric path over the uncertainty interval
REFINE_TOL = 1e-10  # width in y at which golden-section refinement stops


class UnsupportedDimension(Exception):
    """Numeric path only handles one-dimensional uncertainty."""


class Verdict(Enum):
    FEASIBLE = "feasible"
    VIOLATED = "violated"


def feasibility_verdict(g_max: float) -> Verdict:
    """Violated iff g_max is positive; boundary values count feasible."""
    return Verdict.VIOLATED if g_max > 0.0 else Verdict.FEASIBLE


def golden_section_max(f, a: float, b: float) -> float:
    """Maximizer of a unimodal f on [a, b] located to within ``REFINE_TOL``."""
    if b - a <= REFINE_TOL:
        return (a + b) / 2.0
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > REFINE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def solve_llp_numeric(constraint: SemiInfiniteConstraint, x: Vector) -> tuple[float, Vector]:
    """Grid search plus local refinement, ignoring any analytic maximizer.

    The grid is evaluated in one ``batch`` call when the constraint has
    one (only its values are used), else point by point.  Concave constraints get a
    single golden-section refinement around the best grid cell; otherwise
    the top five grid cells are each refined locally and the best result
    wins.
    """
    if constraint.n_y != 1:
        raise UnsupportedDimension(
            "numeric LLP path requires n_y == 1; provide analytic_argmax instead"
        )
    lo, hi = constraint.uncertainty_box[0]
    ys = np.linspace(lo, hi, GRID_POINTS)
    if constraint.batch is not None:
        vals = constraint.batch(x, constraint.coefficients[None, :], ys[:, None])[0]
    else:
        vals = np.array([constraint.evaluate(x, np.array([y])) for y in ys])

    def f(y: float) -> float:
        return constraint.evaluate(x, np.array([y]))

    if constraint.concave_in_y:
        seeds = [int(np.argmax(vals))]
    else:
        seeds = list(np.argsort(vals)[-5:])

    best_y, best_g = None, -math.inf
    # Box endpoints are candidates in their own right: when the maximum is
    # attained on the boundary with a steep slope, golden-section stops a
    # y-tolerance short, which is not a value-tolerance.
    for idx in seeds:
        a = ys[max(idx - 1, 0)]
        b = ys[min(idx + 1, GRID_POINTS - 1)]
        candidates = [golden_section_max(f, float(a), float(b))]
        if idx in (0, GRID_POINTS - 1):
            candidates.append(float(ys[idx]))
        for y in candidates:
            g = f(y)
            if g > best_g:
                best_y, best_g = y, g
    return best_g, np.array([best_y])


def solve_llp(constraint: SemiInfiniteConstraint, x: Vector) -> tuple[float, Vector]:
    """Return (g_max, y_star) with y_star a global maximizer of g(x, .).

    Uses the constraint's analytic maximizer when available, otherwise
    the numeric grid-and-refine path.
    """
    x = np.asarray(x, dtype=float)
    if constraint.analytic_argmax is not None:
        y_star = np.asarray(constraint.analytic_argmax(x), dtype=float)
        return constraint.evaluate(x, y_star), y_star
    return solve_llp_numeric(constraint, x)
