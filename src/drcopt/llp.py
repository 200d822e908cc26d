"""Global maximization of g(x, .) over the uncertainty box (the lower-level problem).

:func:`solve_llp` checks a whole phase at its one consensus point.  The
members of a family that share a closed-form maximizer take one
maximizer call and one kernel call.  The members without one take one
numeric pass per family: a GRID_POINTS-point grid over each member's
uncertainty interval, searched coarse to fine where the member declares
``concave_in_y`` and scanned whole otherwise, then a parabola vertex per
start.  The pass keeps nothing between calls; for a g(x, .) that is
concave it finds the whole grid's first best point, as a scan would.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .problem import ProblemInstance, Vector, constraint_table, families

GRID_POINTS = 2001  # grid of the numeric path over the uncertainty interval
COARSE_STEP = 40  # a concave member's first scan reads every 40th grid point; 40 divides 2000, so both ends are read
_COARSE = np.arange(0, GRID_POINTS, COARSE_STEP)
_WINDOW = np.arange(2 * COARSE_STEP + 1)
CONCAVE_PER_CALL = 1024  # concave members per coarse-to-fine pair of calls: at most 83,000 rows a call


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


def _vertex_offsets(below: np.ndarray, mid: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Where in [-1, 1] each parabola through (-1, below), (0, mid), (1, above) peaks.

    Without strict concavity it is the larger end, or 0 when the ends tie.
    ``fmin`` and ``fmax`` keep the bound where the ratio is NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = below - 2.0 * mid + above
        peak = np.fmin(1.0, np.fmax(-1.0, (below - above) / (2.0 * curvature)))
    return np.where(curvature < 0.0, peak, np.where(above > below, 1.0, np.where(below > above, -1.0, 0.0)))


def _starts(ys: np.ndarray, vals: np.ndarray, seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per start, from the grid points ``ys`` and values ``vals`` (r, w) and the seed columns (r, s).

    Each seed's cell is the seed moved one point inside the row; the
    result is the cell's point, the values at the cell's three points
    and the seed's point and value, each flattened to (r * s,).
    """
    rows = np.arange(len(ys))[:, None]
    cells = np.minimum(np.maximum(seeds, 1), ys.shape[1] - 2)
    picks = (ys, cells), (vals, cells - 1), (vals, cells), (vals, cells + 1), (ys, seeds), (vals, seeds)
    return tuple(array[rows, columns].ravel() for array, columns in picks)


def _concave_starts(batch, x: Vector, coefficients: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """The :func:`_starts` of concave members, one start each: the first best point of the grid.

    One kernel call reads every COARSE_STEP-th grid point of every
    member, and a second the 2 * COARSE_STEP + 1 points centered on each
    member's coarse winner (moved inside the grid).  Where g(x, .) is
    concave no other peak lies between two coarse points, so these hold
    the grid's first best point and the three points around it.
    """
    grids = [(_grid(lo, hi), np.array(group)) for (lo, hi), group in families(ends.tolist(), tuple)]

    def scan(first, span):
        """Each member's grid points ``first[i] + span`` and its values there."""
        ys = np.empty((len(ends), len(span)))
        for grid, group in grids:
            ys[group] = grid[first[group, None] + span]
        vals = batch(x, coefficients.repeat(len(span), axis=0), ys.reshape(-1, 1))[0]
        return ys, vals.reshape(ys.shape)

    _, coarse = scan(np.zeros(len(ends), dtype=np.intp), _COARSE)
    # Each window starts one coarse step before its winner, moved inside the grid.
    first = np.minimum(np.maximum(coarse.argmax(axis=1) - 1, 0) * COARSE_STEP, GRID_POINTS - len(_WINDOW))
    ys, vals = scan(first, _WINDOW)
    return _starts(ys, vals, vals.argmax(axis=1)[:, None])


def _numeric_maxima(batch, x: Vector, coefficients: np.ndarray, boxes: np.ndarray, concave: np.ndarray):
    """(g_max, y_star) of k members of one family without a closed form: (k,) and (k, 1).

    Each member's start is the first best point of its GRID_POINTS-point
    grid, or, unless ``concave[j]``, each of its five best.  The concave
    members find theirs coarse to fine (:func:`_concave_starts`), up to
    CONCAVE_PER_CALL members per pair of kernel calls, which bounds the
    calls' rows.  A member that is not concave scans its whole grid in a
    call of its own.  For each start, the parabola through the grid
    values at the three points centered on it (one point inside the box)
    gives a vertex.  Near a maximum the values locate y only to about the
    square root of the float resolution, but a vertex is a ratio of value
    differences, exact for a quadratic.  All vertices are scored in one
    kernel call, and each member keeps the first best of its vertices,
    then its starts: where g(x, .) is not concave a start can beat every
    vertex.
    """
    if boxes.shape[1] != 1:
        raise UnsupportedDimension("numeric LLP path requires n_y == 1; provide analytic_argmax instead")
    ends = boxes[:, 0]
    blocks = []  # (members, starts per member, the _starts of their starts)
    concave_rows = concave.nonzero()[0]
    for i in range(0, len(concave_rows), CONCAVE_PER_CALL):
        rows = concave_rows[i : i + CONCAVE_PER_CALL]
        blocks.append((rows, 1, _concave_starts(batch, x, coefficients[rows], ends[rows])))
    for j in (~concave).nonzero()[0].tolist():
        ys = _grid(*ends[j].tolist())
        vals = batch(x, coefficients[j : j + 1], ys[:, None])[0]
        blocks.append(([j], 5, _starts(ys[None], vals[None], np.argsort(vals)[None, -5:])))

    owner = np.concatenate([np.repeat(members, s) for members, s, _ in blocks])
    cell_y, below, mid, above, seed_y, seed_g = (np.concatenate(parts) for parts in zip(*(b[2] for b in blocks)))
    lo, hi = ends[owner, 0], ends[owner, 1]
    vertices = np.fmin(hi, np.fmax(lo, cell_y + (hi - lo) / (GRID_POINTS - 1) * _vertex_offsets(below, mid, above)))
    vertex_g = batch(x, coefficients[owner], vertices[:, None])[0]
    g_max, y_star = np.empty(len(ends)), np.empty((len(ends), 1))
    done = 0
    for members, s, _ in blocks:
        part = slice(done, done + len(members) * s)
        done = part.stop
        scores = np.concatenate([vertex_g[part].reshape(-1, s), seed_g[part].reshape(-1, s)], axis=1)
        points = np.concatenate([vertices[part].reshape(-1, s), seed_y[part].reshape(-1, s)], axis=1)
        best = np.arange(len(members)), scores.argmax(axis=1)
        g_max[members], y_star[members, 0] = scores[best], points[best]
    return g_max, y_star


def solve_llp(constraints, x: Vector) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Return (g_max, y_star) for every constraint at the one point x.

    ``constraints`` is a :class:`~drcopt.problem.ProblemInstance`, whose
    :class:`~drcopt.problem.ConstraintTable` is kept, or a sequence of
    constraints.  ``g_max`` is (k,); ``y_star`` holds one (k, n_y) array
    per family of the table, in which member j's maximizer is row j (0
    in the other families' arrays).  Each entry of the table's
    ``maximizers`` takes one maximizer call and one kernel call; rows
    are independent, so each value equals ``constraint.evaluate(x, y)``
    to the bit.  The members of a family without an ``analytic_argmax``
    take one numeric grid-and-vertex pass (:func:`_numeric_maxima`).
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
            concave = np.array([constraints[j].concave_in_y for j in agents.tolist()], dtype=bool)
            g_max[agents], y_star[f][agents] = _numeric_maxima(table.batches[f], x, coefficients, boxes, concave)
            continue
        ys = np.asarray(argmax(x, coefficients, boxes), dtype=float)
        g_max[agents] = table.batches[f](x, coefficients, ys)[0]
        y_star[f][agents] = ys
    return g_max, y_star
