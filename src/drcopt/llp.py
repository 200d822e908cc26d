"""Global maximization of g(x, .) over the uncertainty box (the lower-level problem).

:func:`solve_llp` checks a whole phase at its one consensus point, from
the :class:`~drcopt.problem.ConstraintTable` alone.  The members of a
family that share a closed-form maximizer take one maximizer call and
one kernel call.  The members without one take one numeric pass per
family: a GRID_POINTS-point grid over each member's uncertainty
interval, read coarse to fine where the member declares
``concave_in_y`` and whole otherwise, in calls of at most ROWS_PER_CALL
rows, then a parabola vertex per start.  The pass keeps nothing between
calls; for a g(x, .) that is concave it finds the whole grid's first
best point, as a scan would.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .problem import ConstraintTable, Vector

GRID_POINTS = 2001  # grid of the numeric path over the uncertainty interval
COARSE_STEP = 40  # a concave member's first scan reads every 40th grid point; 40 divides 2000, so both ends are read
_COARSE = np.arange(0, GRID_POINTS, COARSE_STEP)
_WINDOW = np.arange(2 * COARSE_STEP + 1)
_WHOLE = np.arange(GRID_POINTS)
ROWS_PER_CALL = 83_000  # rows of one scan call: the windows of 1024 concave members, or 41 whole grids


class UnsupportedDimension(Exception):
    """Numeric path only handles one-dimensional uncertainty."""


class Verdict(Enum):
    """An oracle's two verdicts; the oracles return them as a bool mask, True where ``g_max > 0``."""

    FEASIBLE = "feasible"
    VIOLATED = "violated"


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


def _numeric_maxima(batch, x: Vector, coefficients: np.ndarray, boxes: np.ndarray, concave: np.ndarray):
    """(g_max, y_star) of k members of one family without a closed form: (k,) and (k, 1).

    Grid point i of a member's box [lo, hi] is ``i * h + lo`` with
    h = (hi - lo) / (GRID_POINTS - 1), and the last is hi, as
    ``np.linspace`` places them.  One scan serves both kinds of member,
    in chunks of ROWS_PER_CALL // width members, where width is the most
    points a member reads in one call.  A ``concave[j]`` member reads
    every COARSE_STEP-th point, then the 2 * COARSE_STEP + 1 points
    centered on its coarse winner (moved inside the grid): where g(x, .)
    is concave no other peak lies between two coarse points, so these
    hold the grid's first best point and its three-point stencil, its
    one start.  Every other member reads its whole grid and starts from
    its five best points.  For each start, the parabola through the grid
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
    lo, hi = boxes[:, 0, 0], boxes[:, 0, 1]
    step = (hi - lo) / (GRID_POINTS - 1)

    def scan(rows, columns):
        """Members ``rows``' grid points at ``columns`` ((w,) or (len(rows), w)) and the values there."""
        ys = np.where(columns == GRID_POINTS - 1, hi[rows, None], columns * step[rows, None] + lo[rows, None])
        vals = batch(x, coefficients[rows].repeat(ys.shape[1], axis=0), ys.reshape(-1, 1))[0]
        return ys, vals.reshape(ys.shape)

    blocks = []  # (members, starts per member, the _starts of their starts)
    for flag, width in ((True, len(_WINDOW)), (False, GRID_POINTS)):
        members = np.flatnonzero(concave == flag)
        per_call = ROWS_PER_CALL // width
        for i in range(0, len(members), per_call):
            rows = members[i : i + per_call]
            if flag:
                # Each window starts one coarse step before its winner, moved inside the grid.
                winner = scan(rows, _COARSE)[1].argmax(axis=1)
                first = np.minimum(np.maximum(winner - 1, 0) * COARSE_STEP, GRID_POINTS - width)
                ys, vals = scan(rows, first[:, None] + _WINDOW)
                seeds = vals.argmax(axis=1)[:, None]
            else:
                ys, vals = scan(rows, _WHOLE)
                seeds = np.argsort(vals, axis=1)[:, -5:]
            blocks.append((rows, seeds.shape[1], _starts(ys, vals, seeds)))

    owner = np.concatenate([np.repeat(members, s) for members, s, _ in blocks])
    cell_y, below, mid, above, seed_y, seed_g = (np.concatenate(parts) for parts in zip(*(b[2] for b in blocks)))
    vertices = np.fmin(hi[owner], np.fmax(lo[owner], cell_y + step[owner] * _vertex_offsets(below, mid, above)))
    vertex_g = batch(x, coefficients[owner], vertices[:, None])[0]
    g_max, y_star = np.empty(len(boxes)), np.empty((len(boxes), 1))
    done = 0
    for members, s, _ in blocks:
        part = slice(done, done + len(members) * s)
        done = part.stop
        scores = np.concatenate([vertex_g[part].reshape(-1, s), seed_g[part].reshape(-1, s)], axis=1)
        points = np.concatenate([vertices[part].reshape(-1, s), seed_y[part].reshape(-1, s)], axis=1)
        best = np.arange(len(members)), scores.argmax(axis=1)
        g_max[members], y_star[members, 0] = scores[best], points[best]
    return g_max, y_star


def solve_llp(table: ConstraintTable, x: Vector) -> tuple[np.ndarray, np.ndarray]:
    """Return (g_max, y_star) for every constraint of ``table`` at the one point x.

    ``g_max`` is (k,) and ``y_star`` (k, n_y), n_y the table's widest
    family, in the layout of a :class:`~drcopt.solver.CutTable`: member
    j's maximizer is row j, in its family's first n_y_f columns and 0
    after them.  Each entry of the table's ``maximizers`` takes one
    maximizer call and one kernel call; rows are independent, so
    each value equals ``constraint.evaluate(x, y)`` to the bit.  The
    members of a family without an ``analytic_argmax`` take one numeric
    grid-and-vertex pass (:func:`_numeric_maxima`).
    """
    x = np.asarray(x, dtype=float)
    k = len(table.family)
    g_max = np.empty(k)
    y_star = np.zeros((k, table.n_y))
    for f, argmax, agents, coefficients, boxes, concave in table.maximizers:
        if argmax is None:
            g, ys = _numeric_maxima(table.batches[f], x, coefficients, boxes, concave)
        else:
            ys = np.asarray(argmax(x, coefficients, boxes), dtype=float)
            g = table.batches[f](x, coefficients, ys)[0]
        g_max[agents], y_star[agents, : boxes.shape[1]] = g, ys
    return g_max, y_star
