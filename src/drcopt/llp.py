"""Global maximization of g(x, .) over the uncertainty box (the lower-level problem)."""

from __future__ import annotations

import functools
from enum import Enum
from typing import Sequence

import numpy as np

from .problem import SemiInfiniteConstraint, Vector
from .solver import family_terms

GRID_POINTS = 2001  # grid of the numeric path over the uncertainty interval


class UnsupportedDimension(Exception):
    """Numeric path only handles one-dimensional uncertainty."""


class Verdict(Enum):
    FEASIBLE = "feasible"
    VIOLATED = "violated"


def feasibility_verdict(g_max: float) -> Verdict:
    """Violated iff g_max is positive; boundary values count feasible."""
    return Verdict.VIOLATED if g_max > 0.0 else Verdict.FEASIBLE


@functools.lru_cache(maxsize=64)
def _grid(lo: float, hi: float) -> np.ndarray:
    """The GRID_POINTS points spanning [lo, hi], built once per interval and read-only."""
    ys = np.linspace(lo, hi, GRID_POINTS)
    ys.flags.writeable = False
    return ys


def _vertex_offset(below: float, mid: float, above: float) -> float:
    """Where in [-1, 1] the parabola through (-1, below), (0, mid), (1, above) peaks.

    Without strict concavity it is the larger end, or 0 when the ends tie.
    """
    curvature = below - 2.0 * mid + above
    if curvature < 0.0:
        return min(1.0, max(-1.0, (below - above) / (2.0 * curvature)))
    return 1.0 if above > below else -1.0 if below > above else 0.0


def solve_llp_numeric(constraint: SemiInfiniteConstraint, x: Vector) -> tuple[float, Vector]:
    """Grid search plus one parabola vertex per start, ignoring any analytic maximizer.

    Concave constraints start from the best grid point, others from each
    of the five best.  For each start, the parabola through the grid
    values at the three points centered on it (one grid cell inside the
    box) gives a vertex.  Near a maximum the values locate y only to
    about the square root of the float resolution, but a vertex is a
    ratio of value differences, exact for a quadratic.  The best of the
    vertices and the starts wins; where g(x, .) is not concave a start
    can beat every vertex.  The grid and the vertices are each scored in
    one call of the constraint's kernel: two calls per solve.
    """
    if constraint.n_y != 1:
        raise UnsupportedDimension(
            "numeric LLP path requires n_y == 1; provide analytic_argmax instead"
        )
    lo, hi = constraint.uncertainty_box[0].tolist()
    ys = _grid(lo, hi)
    h = (hi - lo) / (GRID_POINTS - 1)

    def values(points) -> np.ndarray:
        return constraint.batch(x, constraint.coefficients[None, :], np.asarray(points)[:, None])[0]

    vals = values(ys)
    seeds = [int(np.argmax(vals))] if constraint.concave_in_y else np.argsort(vals)[-5:].tolist()
    cells = [min(max(i, 1), GRID_POINTS - 2) for i in seeds]
    vertices = [min(hi, max(lo, float(ys[k]) + h * _vertex_offset(*vals[k - 1 : k + 2].tolist()))) for k in cells]
    candidates = vertices + [float(ys[i]) for i in seeds]
    scores = np.concatenate([values(vertices), vals[seeds]])
    best = int(np.argmax(scores))
    return float(scores[best]), np.array([candidates[best]])


def solve_llp(constraints: Sequence[SemiInfiniteConstraint], x: Vector) -> tuple[np.ndarray, list[Vector]]:
    """Return (g_max, y_star) for every constraint at the one point x.

    ``g_max`` is a (k,) array and ``y_star`` a list of k global
    maximizers, member j's of g_j(x, .).  Members with an analytic
    maximizer are evaluated there through one
    :func:`drcopt.solver.family_terms` pass (one kernel call for members
    that share a kernel, one one-row call each otherwise); since a
    kernel's rows are independent, each value equals
    ``constraint.evaluate(x, y_star)`` to the bit.  Each other member
    takes the numeric grid-and-vertex path.
    """
    x = np.asarray(x, dtype=float)
    g_max = np.empty(len(constraints))
    y_star, closed = [], []
    for j, constraint in enumerate(constraints):
        if constraint.analytic_argmax is None:
            g_max[j], y = solve_llp_numeric(constraint, x)
        else:
            y = np.asarray(constraint.analytic_argmax(x), dtype=float)
            closed.append(j)
        y_star.append(y)
    g_max[closed] = family_terms([constraints[j] for j in closed], [y_star[j] for j in closed])(x)[0]
    return g_max, y_star
