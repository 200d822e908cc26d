"""Problem instances: convex objectives, semi-infinite constraints, boxes.

An instance bundles m agents, each with a convex local objective f_i(x)
and a constraint g_i(x, y) <= 0 that must hold for every y in a compact
uncertainty box Y_i, plus a shared bounded box on the decision vector.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class NumericalFailure(RuntimeError):
    """A run cannot go on: a solve or the cut growth hit its limit, or an invariant failed.

    The command line reports it and exits 3; any other exception is a bug.
    """


def require_integer(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is an integer (``bool`` is not one)."""
    # A plain int skips the ABC check, which costs about 0.5 us per call
    # and a GraphSchedule checks every edge endpoint.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a real number (``bool`` and ``str`` are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@functools.lru_cache(maxsize=256)
def _constant_hessians(k: int, diagonal: tuple[float, ...]) -> np.ndarray:
    """k rows of diag(diagonal) as one read-only broadcast view: no memory per row.

    Cached, because ``np.broadcast_to`` costs about 5 us a call and the
    solver asks for the same k at every point.
    """
    hessian = np.diag(diagonal)
    hessian.flags.writeable = False
    return np.broadcast_to(hessian, (k, len(diagonal), len(diagonal)))


def families(members, key=operator.attrgetter("batch")) -> list[tuple[object, list[int]]]:
    """``members``' positions grouped by ``key`` (by default the ``batch`` kernel), in first-appearance order."""
    groups: dict = {}
    for j, k in enumerate(map(key, members)):
        groups.setdefault(k, []).append(j)
    return list(groups.items())


def _exact(terms):
    """A kernel's (values, gradients, Hessians), refused when the Hessians are missing."""
    if terms[2] is None:
        raise TypeError("a batch kernel must return the exact x-Hessians (k, n, n) as its third array, not None")
    return terms


def stacked_terms(calls, k: int):
    """x -> (values, gradients, Hessians) of k rows from kernel calls ``(batch, rows, *args)``.

    Call j is ``batch(x, *args)`` and fills the rows ``rows`` (an index
    array) of the result; together the calls fill every row once.  A
    single call's arrays are returned as they are; with none, x gives
    (0,), (0, n) and (0, n, n) arrays.  A kernel that returns None for
    the Hessians raises ``TypeError`` at its first call.
    """
    if len(calls) == 1:
        batch, _, *args = calls[0]
        return lambda x: _exact(batch(x, *args))

    def terms(x):
        n = len(x)
        out = np.empty(k), np.empty((k, n)), np.empty((k, n, n))
        for batch, rows, *args in calls:
            for whole, part in zip(out, _exact(batch(x, *args))):
                whole[rows] = part
        return out

    return terms


def family_terms(members):
    """x -> (values, gradients, Hessians) of objectives, one row per member.

    ``members`` are objectives (see the ``batch`` contract below).  The
    members that share one ``batch`` form a family and take one call with
    their coefficients stacked (see :func:`stacked_terms`).
    """
    calls = [(batch, np.array(js), np.array([members[j].coefficients for j in js])) for batch, js in families(members)]
    return stacked_terms(calls, len(members))


@dataclass(frozen=True)
class LocalObjective:
    """Convex local objective, defined by its family's kernel and its own coefficients.

    ``batch`` is a function shared by a whole family of objectives, told
    apart by their ``coefficients`` (a 1-D array).  It takes (x, P), with
    P holding one member's coefficients per row, and returns the values
    (k,), gradients (k, n) and exact, symmetric Hessians (k, n, n) of
    those k members at x, never None.  A constant Hessian may be a
    read-only ``np.broadcast_to`` view of one array.  Row j must not
    depend on the other rows: :func:`family_terms` calls the kernel once
    for the members that share it, whatever the other members are.
    """

    batch: Callable[[Vector, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    coefficients: np.ndarray

    def evaluate(self, x: Vector) -> float:
        """f(x): row 0 of the kernel at this member's coefficients."""
        return float(self.batch(np.asarray(x, dtype=float), self.coefficients[None, :])[0][0])


def _quadratic_distance_batch(x: Vector, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = x - centers
    k, n = centers.shape
    return (d * d).sum(axis=1), 2.0 * d, _constant_hessians(k, (2.0,) * n)


def quadratic_distance(center) -> LocalObjective:
    """Objective ||x - center||^2, the case-study form."""
    return LocalObjective(_quadratic_distance_batch, np.asarray(center, dtype=float))


@dataclass(frozen=True)
class SemiInfiniteConstraint:
    """Constraint g(x, y) <= 0 for all y in a compact box, defined by its family's kernel.

    ``batch`` is a function shared by a whole family of constraints, told
    apart by their ``coefficients`` (a 1-D array).  It takes (x, P, Y),
    with P of shape (k, p) holding one member's coefficients per row (or
    a single row for all k) and Y of shape (k, n_y), and returns the
    values g_j(x, Y[j]) (k,), x-gradients (k, n) and exact, symmetric
    x-Hessians (k, n, n) of those k pairs, never None: the solver's Newton
    steps use them as they are.  A constant Hessian may be a read-only
    ``np.broadcast_to`` view of one array, which costs nothing per row.
    Row j must not depend on the other rows: a subproblem evaluates the
    cuts of one family in one call (:class:`ConstraintTable`), and the
    numeric lower-level problem scans its grid in one call.

    ``analytic_argmax``, when present, is a family function too.  It
    takes (x, P, B), with P of shape (k, p) holding members'
    coefficients and B of shape (k, n_y, 2) their uncertainty boxes, and
    returns the (k, n_y) global maximizers of g_j(x, .) over box j; row j
    must not depend on the other rows.  Without it, ``concave_in_y`` tells
    the numeric path of :func:`drcopt.llp.solve_llp` how to read its
    grid; :func:`constraint_table` reads the flag once.  A member that
    declares g(x, .) concave is read coarse to fine, which finds the
    grid's best point only because a concave g has no other peak, and
    polishes that one point; the others read the whole grid and polish
    the five best grid points.
    """

    batch: Callable[[Vector, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    coefficients: np.ndarray
    uncertainty_box: Vector  # shape (n_y, 2)
    concave_in_y: bool = False
    analytic_argmax: Optional[Callable[[Vector, np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def n_y(self) -> int:
        return self.uncertainty_box.shape[0]

    def evaluate(self, x: Vector, y: Vector) -> float:
        """g(x, y): row 0 of the kernel at this member's coefficients."""
        ys = np.asarray(y, dtype=float)[None, :]
        return float(self.batch(np.asarray(x, dtype=float), self.coefficients[None, :], ys)[0][0])


@dataclass(frozen=True)
class ConstraintTable:
    """Constraints stacked by family, to gather cut data by agent id.

    The constraints that share one ``batch`` kernel form family f, with
    ``batches[f]`` its kernel and ``coefficients[f]`` (k_f, p) and
    ``boxes[f]`` (k_f, n_y, 2) its members' data.  Agent a + 1's
    constraint is row ``row[a]`` of family ``family[a]``.  Each entry
    ``(f, argmax, agents, coefficients, boxes, concave)`` of
    ``maximizers`` holds the gathered data of the agents of family f that
    share one ``analytic_argmax``, with their ``concave_in_y`` flags as a
    bool array, for :func:`drcopt.llp.solve_llp`, which reads nothing else.
    """

    batches: tuple[Callable, ...]
    coefficients: tuple[np.ndarray, ...]
    boxes: tuple[np.ndarray, ...]
    family: np.ndarray  # (m,)
    row: np.ndarray  # (m,)
    maximizers: tuple[tuple, ...]


def constraint_table(constraints) -> ConstraintTable:
    """The :class:`ConstraintTable` of a sequence of constraints, agent a + 1's at position a."""
    family = np.empty(len(constraints), dtype=np.intp)
    row = np.empty(len(constraints), dtype=np.intp)
    batches, coefficients, boxes, maximizers = [], [], [], []
    for f, (batch, agents) in enumerate(families(constraints)):
        family[agents], row[agents] = f, np.arange(len(agents))
        members = [constraints[a] for a in agents]
        batches.append(batch)
        coefficients.append(np.array([c.coefficients for c in members]))
        boxes.append(np.array([c.uncertainty_box for c in members]))
        concave, agents = np.array([c.concave_in_y for c in members], dtype=bool), np.array(agents)
        for argmax, rows in families(members, operator.attrgetter("analytic_argmax")):
            maximizers.append((f, argmax, agents[rows], coefficients[f][rows], boxes[f][rows], concave[rows]))
    return ConstraintTable(tuple(batches), tuple(coefficients), tuple(boxes), family, row, tuple(maximizers))


@dataclass(frozen=True)
class ProblemInstance:
    """A DRCO instance in standard form.

    Its objectives' :func:`family_terms` and its :class:`ConstraintTable`
    are built on first use and kept, so construction does no further work.
    """

    n: int
    m: int
    objectives: tuple[LocalObjective, ...]
    constraints: tuple[SemiInfiniteConstraint, ...]
    box: Vector  # shape (n, 2)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("instance needs at least one agent")
        if len(self.objectives) != self.m or len(self.constraints) != self.m:
            raise ValueError("objectives/constraints must have one entry per agent")
        if self.box.shape != (self.n, 2):
            raise ValueError("box must have shape (n, 2)")
        if not np.all(np.isfinite(self.box)) or np.any(self.box[:, 0] > self.box[:, 1]):
            raise ValueError("box must be bounded and nonempty")

    @cached_property
    def objective_terms(self):
        """x -> (values, gradients, Hessians) of the objectives: their :func:`family_terms`."""
        return family_terms(self.objectives)

    @cached_property
    def constraint_table(self) -> ConstraintTable:
        """The constraints' :class:`ConstraintTable`, to gather a cut's data by its agent id."""
        return constraint_table(self.constraints)


CASE_STUDY_CENTERS = ((0.0, 6.0), (0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
CASE_STUDY_V = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)


def _paper_quadratic_batch(
    x: Vector, coefficients: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = x[0] - coefficients[:, 0]
    y = ys[:, 0]
    two_y = 2.0 * y  # the y-gradient, and the first factor of 2*y*x2
    grads = np.empty((len(y), 2))
    grads[:, 0] = 2.0 * d
    grads[:, 1] = two_y
    return d * d + two_y * x[1] - y * y - 1.0, grads, _constant_hessians(len(y), (2.0, 0.0))


def _paper_quadratic_argmax(x: Vector, coefficients: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    return np.minimum(boxes[:, :, 1], np.maximum(boxes[:, :, 0], x[1]))


def paper_quadratic_constraint(v: float) -> SemiInfiniteConstraint:
    """g(x, y) = (x1 - v)^2 + 2*y*x2 - y^2 - 1 over y in [-1, 1].

    Concave in y with stationary point y = x2, so the maximizer is the
    clamp of x2 to the uncertainty interval.
    """
    if not math.isfinite(v):
        raise ValueError(f"paper-quadratic v must be finite, got {v}")
    return SemiInfiniteConstraint(
        batch=_paper_quadratic_batch,
        coefficients=np.array([float(v)]),
        uncertainty_box=np.array([[-1.0, 1.0]]),
        concave_in_y=True,
        analytic_argmax=_paper_quadratic_argmax,
    )


def _example1_batch(x: Vector, coefficients: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Row by row in Python floats, so that math.exp reports an overflow.
    x1, x2 = float(x[0]), float(x[1])
    c = x1 * x1 - 2.0 * x1
    rows = []
    for yy in ys[:, 0].tolist():
        try:
            e = math.exp(-x1 * x1 + yy * yy - 2.0 * x1 * yy)
        except OverflowError:
            raise NumericalFailure(f"example1 constraint overflows at x1 = {x1!r}, y = {yy!r}") from None
        # e has d e / d x1 = e * u; only d^2 g / d x1^2 is nonzero.
        u = -2.0 * x1 - 2.0 * yy
        d11 = e * (2.0 + 2.0 * (2.0 * x1 - 2.0) * u + c * (u * u - 2.0))
        rows.append((x2 + c * e, (2.0 * x1 - 2.0) * e + c * e * u, d11))
    values, d1, d11 = np.array(rows, dtype=float).reshape(len(ys), 3).T
    grads = np.ones((len(ys), 2))
    grads[:, 0] = d1
    hessians = np.zeros((len(ys), 2, 2))
    hessians[:, 0, 0] = d11
    return values, grads, hessians


def _example1_argmax(x: Vector, coefficients: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    x1 = float(x[0])
    y_upper = boxes[:, :, 1]
    if 0.0 <= x1 <= 2.0:
        return np.minimum(y_upper, max(0.0, x1))
    # Both ends of every box in one call: the lower ends, then the upper.
    ends = np.concatenate([np.zeros_like(y_upper), y_upper])
    at_lo, at_hi = _example1_batch(x, np.concatenate([coefficients, coefficients]), ends)[0].reshape(2, -1)
    return np.where((at_lo >= at_hi)[:, None], 0.0, y_upper)


def example1_constraint(y_upper: float = 2.0) -> SemiInfiniteConstraint:
    """g(x, y) = x2 + (x1^2 - 2*x1) * exp(-x1^2 + y^2 - 2*x1*y) over y in [0, y_upper].

    In y the constraint is x2 + c * exp(y^2 - 2*x1*y - x1^2) with
    c = x1^2 - 2*x1.  For x1 in [0, 2] the coefficient is nonpositive, g
    is concave in y and the maximizer is the clamp of x1 to the box; for
    c > 0 the exponential is convex, so the maximum sits at a box
    endpoint.  An overflow of the exponential raises
    :class:`NumericalFailure`.
    """
    # Negated comparison so that NaN is rejected too.
    if not 0.0 < y_upper < math.inf:
        raise ValueError(f"example1 y_upper must be positive and finite, got {y_upper}")
    return SemiInfiniteConstraint(
        batch=_example1_batch,
        coefficients=np.zeros(0),
        uncertainty_box=np.array([[0.0, y_upper]]),
        concave_in_y=False,
        analytic_argmax=_example1_argmax,
    )


def case_study_instance() -> ProblemInstance:
    """The 6-agent benchmark: quadratic objectives, quadratic-in-x constraints."""
    objectives = tuple(quadratic_distance(c) for c in CASE_STUDY_CENTERS)
    constraints = tuple(paper_quadratic_constraint(v) for v in CASE_STUDY_V)
    box = np.array([[-2.0, 2.0], [-1.0, 1.0]])
    return ProblemInstance(n=2, m=6, objectives=objectives, constraints=constraints, box=box)


def with_numeric_llp(instance: ProblemInstance) -> ProblemInstance:
    """The same instance with every analytic maximizer dropped.

    Each agent's lower-level problem then takes the numeric grid path, as
    it does for a constraint without a closed form; a run on the result
    cross-checks the closed forms.
    """
    return replace(
        instance, constraints=tuple(replace(c, analytic_argmax=None) for c in instance.constraints)
    )
