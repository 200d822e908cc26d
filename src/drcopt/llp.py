"""Global maximization of g(x, .) over the uncertainty box (the lower-level problem).

:func:`solve_llp` checks a whole phase at its one consensus point, from
the :class:`~drcopt.problem.ConstraintTable` alone, one family at a
time: its members share a kernel, a closed-form maximizer or none, and
a ``concave_in_y`` flag.  A family with a closed-form maximizer takes one
maximizer call and one kernel call.  A family without one takes one
numeric pass: a GRID_POINTS-point grid over each member's uncertainty
interval, read coarse to fine for a concave family and whole otherwise,
in calls of at most ROWS_PER_CALL rows, then one kernel call that scores
a parabola vertex per start.  The pass keeps nothing between
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


def _numeric_maxima(batch, x: Vector, coefficients: np.ndarray, boxes: np.ndarray, concave: bool):
    """(g_max, y_star) of the k members of one family without a closed form: (k,) and (k, 1).

    Grid point i of a member's box [lo, hi] is ``i * h + lo`` with
    h = (hi - lo) / (GRID_POINTS - 1), and the last is hi, as
    ``np.linspace`` places them.  The family is scanned in chunks of
    ROWS_PER_CALL // width members, where width is the most points a
    member reads in one call.  A ``concave`` family's members read every
    COARSE_STEP-th point, then the 2 * COARSE_STEP + 1 points centered on
    their coarse winner (moved inside the grid): where g(x, .) is concave
    no other peak lies between two coarse points, so these hold the
    grid's first best point and its three-point stencil, the member's one
    start.  Otherwise each member reads its whole grid and starts from
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
        """Members ``rows``' grid points at ``columns`` ((w,) or (rows, w)) and the values there."""
        ys = np.where(columns == GRID_POINTS - 1, hi[rows, None], columns * step[rows, None] + lo[rows, None])
        vals = batch(x, coefficients[rows].repeat(ys.shape[1], axis=0), ys.reshape(-1, 1))[0]
        return ys, vals.reshape(ys.shape)

    width, starts = (len(_WINDOW), 1) if concave else (GRID_POINTS, 5)
    per_call = ROWS_PER_CALL // width
    chunks = []  # the _starts of each chunk's starts
    for i in range(0, len(boxes), per_call):
        rows = slice(i, i + per_call)
        if concave:
            # Each window starts one coarse step before its winner, moved inside the grid.
            winner = scan(rows, _COARSE)[1].argmax(axis=1)
            first = np.minimum(np.maximum(winner - 1, 0) * COARSE_STEP, GRID_POINTS - width)
            ys, vals = scan(rows, first[:, None] + _WINDOW)
            seeds = vals.argmax(axis=1)[:, None]
        else:
            ys, vals = scan(rows, _WHOLE)
            seeds = np.argsort(vals, axis=1)[:, -starts:]
        chunks.append(_starts(ys, vals, seeds))

    owner = np.arange(len(boxes)).repeat(starts)
    cell_y, below, mid, above, seed_y, seed_g = map(np.concatenate, zip(*chunks))
    vertices = np.fmin(hi[owner], np.fmax(lo[owner], cell_y + step[owner] * _vertex_offsets(below, mid, above)))
    vertex_g = batch(x, coefficients[owner], vertices[:, None])[0]
    scores = np.concatenate([vertex_g.reshape(-1, starts), seed_g.reshape(-1, starts)], axis=1)
    points = np.concatenate([vertices.reshape(-1, starts), seed_y.reshape(-1, starts)], axis=1)
    best = np.arange(len(boxes)), scores.argmax(axis=1)
    return scores[best], points[best][:, None]


def solve_llp(table: ConstraintTable, x: Vector) -> tuple[np.ndarray, np.ndarray]:
    """Return (g_max, y_star) for every constraint of ``table`` at the one point x.

    ``g_max`` is (k,) and ``y_star`` (k, n_y), n_y the table's widest
    family, in the layout of a :class:`~drcopt.solver.CutTable`: member
    j's maximizer is row j, in its family's first n_y_f columns and 0
    after them.  A family with an ``analytic_argmax`` takes one maximizer
    call and one kernel call; rows are independent, so each value equals
    ``constraint.evaluate(x, y)`` to the bit.  A family without one takes
    one numeric grid-and-vertex pass (:func:`_numeric_maxima`).
    """
    x = np.asarray(x, dtype=float)
    g_max, y_star = np.empty(len(table.family)), np.zeros((len(table.family), table.n_y))
    families = zip(table.batches, table.argmaxes, table.concave, table.agents, table.coefficients, table.boxes)
    for batch, argmax, concave, agents, coefficients, boxes in families:
        if argmax is None:
            g, ys = _numeric_maxima(batch, x, coefficients, boxes, concave)
        else:
            ys = np.asarray(argmax(x, coefficients, boxes), dtype=float)
            g = batch(x, coefficients, ys)[0]
        g_max[agents], y_star[agents, : boxes.shape[1]] = g, ys
    return g_max, y_star
