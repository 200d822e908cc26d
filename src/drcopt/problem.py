"""Problem instances: convex objectives, semi-infinite constraints, boxes.

An instance bundles m agents, each with a convex local objective f_i(x)
and a constraint g_i(x, y) <= 0 that must hold for every y in a compact
uncertainty box Y_i, plus a shared bounded box on the decision vector.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
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


def _require_reals(values, name: str) -> np.ndarray:
    """A (nested) list of real numbers as a float array; ValueError on any other entry."""
    array = np.asarray(values, dtype=object)
    for value in array.flat:
        require_real(value, name)
    return array.astype(float)


@functools.lru_cache(maxsize=256)
def _constant_hessians(k: int, diagonal: tuple[float, ...]) -> np.ndarray:
    """k rows of diag(diagonal) as one read-only broadcast view: no memory per row.

    Cached, because ``np.broadcast_to`` costs about 5 us a call and the
    solver asks for the same k at every point.
    """
    hessian = np.diag(diagonal)
    hessian.flags.writeable = False
    return np.broadcast_to(hessian, (k, len(diagonal), len(diagonal)))


@dataclass(frozen=True)
class LocalObjective:
    """Convex local objective, defined by its family's kernel and its own coefficients.

    ``batch`` is a function shared by a whole family of objectives, told
    apart by their ``coefficients`` (a 1-D array).  It takes (x, P), with
    P holding one member's coefficients per row, and returns the values
    (k,), gradients (k, n) and exact, symmetric Hessians (k, n, n) of
    those k members at x, never None.  A constant Hessian may be a
    read-only ``np.broadcast_to`` view of one array.  Row j must not
    depend on the other rows: :func:`drcopt.solver.family_terms` calls
    the kernel once for a family and row by row for mixed objectives.
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
    Row j must not depend on the other rows: the solver evaluates a
    subproblem's cuts through :func:`drcopt.solver.family_terms`, and the
    numeric lower-level problem scans its grid in one call.
    ``analytic_argmax``, when present, maps x to the global maximizer of
    g(x, .) over the uncertainty box.  Without it, ``concave_in_y`` tells
    :func:`drcopt.llp.solve_llp_numeric` how many grid starts to polish:
    one when g(x, .) is concave, the five best grid points otherwise.
    """

    batch: Callable[[Vector, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    coefficients: np.ndarray
    uncertainty_box: Vector  # shape (n_y, 2)
    concave_in_y: bool = False
    analytic_argmax: Optional[Callable[[Vector], Vector]] = None

    @property
    def n_y(self) -> int:
        return self.uncertainty_box.shape[0]

    def evaluate(self, x: Vector, y: Vector) -> float:
        """g(x, y): row 0 of the kernel at this member's coefficients."""
        ys = np.asarray(y, dtype=float)[None, :]
        return float(self.batch(np.asarray(x, dtype=float), self.coefficients[None, :], ys)[0][0])


@dataclass(frozen=True)
class ProblemInstance:
    """A DRCO instance in standard form."""

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


def paper_quadratic_constraint(v: float) -> SemiInfiniteConstraint:
    """g(x, y) = (x1 - v)^2 + 2*y*x2 - y^2 - 1 over y in [-1, 1].

    Concave in y with stationary point y = x2, so the maximizer is the
    clamp of x2 to the uncertainty interval.
    """
    if not math.isfinite(v):
        raise ValueError(f"paper-quadratic v must be finite, got {v}")
    lo, hi = -1.0, 1.0

    def analytic_argmax(x: Vector) -> Vector:
        return np.array([min(hi, max(lo, float(x[1])))])

    return SemiInfiniteConstraint(
        batch=_paper_quadratic_batch,
        coefficients=np.array([float(v)]),
        uncertainty_box=np.array([[lo, hi]]),
        concave_in_y=True,
        analytic_argmax=analytic_argmax,
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
    no_coefficients = np.zeros(0)

    def analytic_argmax(x: Vector) -> Vector:
        x1 = float(x[0])
        if 0.0 <= x1 <= 2.0:
            return np.array([min(y_upper, max(0.0, x1))])
        ends = np.array([[0.0], [y_upper]])
        at_lo, at_hi = _example1_batch(x, no_coefficients, ends)[0].tolist()
        return ends[0] if at_lo >= at_hi else ends[1]

    return SemiInfiniteConstraint(
        batch=_example1_batch,
        coefficients=no_coefficients,
        uncertainty_box=np.array([[0.0, y_upper]]),
        concave_in_y=False,
        analytic_argmax=analytic_argmax,
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


def instance_from_config(config: dict) -> ProblemInstance:
    """Build an instance from the JSON configuration schema.

    Built-in kinds only: objectives of kind "quadratic-distance" with a
    center, constraints of kind "paper-quadratic" (field v) or "example1".
    Both constraint kinds are functions of (x1, x2), so n must be 2.
    """
    n = require_integer(config["n"], "n")
    if n != 2:
        raise ValueError(f"the built-in constraint kinds need n = 2, got n = {n}")
    m = require_integer(config["m"], "m")
    box = _require_reals(config["box"], "box entry")
    agents = config["agents"]
    if len(agents) != m:
        raise ValueError(f"config declares m={m} but lists {len(agents)} agents")
    objectives = []
    constraints = []
    for spec in agents:
        obj = spec["objective"]
        if obj["kind"] != "quadratic-distance":
            raise ValueError(f"unknown objective kind {obj['kind']!r}")
        center = _require_reals(obj["center"], "objective center entry")
        if center.shape != (n,):
            raise ValueError("objective center has wrong dimension")
        if not np.all(np.isfinite(center)):
            raise ValueError(f"objective center must be finite, got {center.tolist()}")
        objectives.append(quadratic_distance(center))
        con = spec["constraint"]
        if con["kind"] == "paper-quadratic":
            constraints.append(paper_quadratic_constraint(require_real(con["v"], "paper-quadratic v")))
        elif con["kind"] == "example1":
            constraints.append(example1_constraint(require_real(con.get("y_upper", 2.0), "example1 y_upper")))
        else:
            raise ValueError(f"unknown constraint kind {con['kind']!r}")
    return ProblemInstance(
        n=n, m=m, objectives=tuple(objectives), constraints=tuple(constraints), box=box
    )
