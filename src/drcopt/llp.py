"""Global maximization of g(x, .) over the uncertainty box (the lower-level problem)."""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .problem import ProblemInstance, SemiInfiniteConstraint, Vector, constraint_table

GRID_POINTS = 2001  # grid of the numeric path over the uncertainty interval


class UnsupportedDimension(Exception):
    """Numeric path only handles one-dimensional uncertainty."""


class Verdict(Enum):
    """An oracle's two verdicts; the oracles return them as a bool mask, True where ``g_max > 0``."""

    FEASIBLE = "feasible"
    VIOLATED = "violated"


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


def solve_llp(constraints, x: Vector) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Return (g_max, y_star) for every constraint at the one point x.

    ``constraints`` is a :class:`~drcopt.problem.ProblemInstance`, whose
    :class:`~drcopt.problem.ConstraintTable` is kept, or a sequence of
    constraints.  ``g_max`` is (k,); ``y_star`` holds one (k, n_y) array
    per family of the table, in which member j's maximizer is row j (0
    in the other families' arrays).  Each entry of the table's
    ``maximizers`` takes one maximizer call and one kernel call; rows
    are independent, so each value equals ``constraint.evaluate(x, y)``
    to the bit.  A member without an ``analytic_argmax`` takes the
    numeric grid-and-vertex path.
    """
    if isinstance(constraints, ProblemInstance):
        table, constraints = constraints.constraint_table, constraints.constraints
    else:
        table = constraint_table(constraints)
    x = np.asarray(x, dtype=float)
    g_max = np.empty(len(constraints))
    y_star = tuple(np.zeros((len(constraints), boxes.shape[1])) for boxes in table.boxes)
    for f, argmax, agents, coefficients, boxes in table.maximizers:
        if argmax is None:
            for j in agents.tolist():
                g_max[j], y_star[f][j] = solve_llp_numeric(constraints[j], x)
            continue
        ys = np.asarray(argmax(x, coefficients, boxes), dtype=float)
        g_max[agents] = table.batches[f](x, coefficients, ys)[0]
        y_star[f][agents] = ys
    return g_max, y_star
