"""Deterministic solver for the finite convex subproblems.

Minimizes the sum of the agents' objectives over the shared box subject
to a finite, canonically ordered list of scenario cuts
g_a(x, y) <= rhs.  Method: augmented Lagrangian on the inequality
constraints with a box-constrained projected Newton inner solve
(:func:`minimize`).  The first solve on each side (lower, upper) of a
run starts from the box center with zero multipliers; every later one
starts from the previous report on the same side (:func:`solve`'s
``start``): its minimizer, and its multipliers for the cuts the new
problem still holds unchanged.  After flooding every agent holds that
report, so the start is a function of the agents' common history; every
step is a pure function of the problem and the start, so consensus and
bitwise repeatability hold as with a fixed start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .problem import LocalObjective, NumericalFailure, ProblemInstance, SemiInfiniteConstraint, Vector

# (agent_id, insertion_index, scenario coords, rhs); the first two fields
# define the canonical ordering shared by every agent after flooding.
Cut = tuple[int, int, tuple[float, ...], float]

# The exit test of :func:`solve`: the largest cut violation is at most
# FEASIBILITY_TOL, the projected KKT residual and complementarity at most
# STATIONARITY_TOL.
FEASIBILITY_TOL = 1e-9
STATIONARITY_TOL = 1e-8
MAX_OUTER = 1000  # augmented-Lagrangian multiplier updates per solve
MAX_INNER = 500  # Newton steps per inner minimization


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration-limit"


def _shared_batch(members):
    """The ``batch`` function every member has, or None (no members, none, or several)."""
    kernels = {member.batch for member in members}
    return kernels.pop() if len(kernels) == 1 else None


def _objective_terms(objectives):
    """x -> (values, gradients) of the objectives, one row per objective."""
    batch = _shared_batch(objectives)
    if batch is not None:
        coefficients = np.array([f.coefficients for f in objectives])
        return lambda x: batch(x, coefficients)
    return lambda x: (
        np.array([f.evaluate(x) for f in objectives]),
        np.array([f.gradient(x) for f in objectives]),
    )


def _cut_terms(constraints, scenarios, n: int):
    """x -> (values, x-gradients) of g_a(x, y_j), one row per cut."""
    batch = _shared_batch(constraints)
    if batch is not None:
        coefficients = np.array([g.coefficients for g in constraints])
        ys = np.array(scenarios)
        return lambda x: batch(x, coefficients, ys)
    rows = tuple(zip(constraints, scenarios))
    return lambda x: (
        np.array([g.evaluate(x, y) for g, y in rows]),
        np.array([g.x_gradient(x, y) for g, y in rows]).reshape(len(rows), n),
    )


@dataclass(frozen=True)
class FiniteSubproblem:
    """Canonical finite convex program: sum of objectives + box + cuts.

    On construction the objectives' and the cuts' data are gathered into
    arrays once.  :meth:`evaluate` computes each family (the objectives,
    the cuts) with one kernel call when its members share one ``batch``
    function, and with one scalar call per member otherwise.  Both paths
    give bitwise equal results (see the ``batch`` contract in
    :mod:`drcopt.problem`).
    """

    objectives: tuple[LocalObjective, ...]
    constraint_functions: tuple[SemiInfiniteConstraint, ...]
    box: Vector
    cuts: tuple[Cut, ...]
    _objective_terms: Callable = field(init=False, repr=False, compare=False)
    _cut_terms: Callable = field(init=False, repr=False, compare=False)
    _rhs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(sorted(self.cuts)) != self.cuts:
            raise ValueError("cuts must be in canonical (agent_id, index) order")
        for agent_id, _, scenario, rhs in self.cuts:
            if rhs > 0.0:
                raise ValueError("cut right-hand sides must be <= 0")
            y_box = self.constraint_functions[agent_id - 1].uncertainty_box
            y = np.asarray(scenario)
            if np.any(y < y_box[:, 0] - 1e-12) or np.any(y > y_box[:, 1] + 1e-12):
                raise ValueError("cut scenario lies outside its agent's uncertainty box")
        constraints = [self.constraint_functions[agent_id - 1] for agent_id, _, _, _ in self.cuts]
        scenarios = [np.asarray(scenario, dtype=float) for _, _, scenario, _ in self.cuts]
        object.__setattr__(self, "_objective_terms", _objective_terms(self.objectives))
        object.__setattr__(self, "_cut_terms", _cut_terms(constraints, scenarios, self.n))
        object.__setattr__(self, "_rhs", np.array([rhs for _, _, _, rhs in self.cuts], dtype=float))

    @property
    def n(self) -> int:
        return self.box.shape[0]

    def evaluate(self, x: Vector) -> tuple[float, Vector, np.ndarray, np.ndarray]:
        """(f, grad f, c, Jacobian of c) at x.

        f is the sum of the objectives; c_j(x) = g_a(x, y_j) - rhs_j is cut
        j's value, violated when positive, and row j of the Jacobian its
        gradient.
        """
        f_values, f_grads = self._objective_terms(x)
        g_values, g_grads = self._cut_terms(x)
        return float(f_values.sum()), f_grads.sum(axis=0), g_values - self._rhs, g_grads


def build_subproblem(instance: ProblemInstance, cuts: Sequence[Cut]) -> FiniteSubproblem:
    return FiniteSubproblem(
        objectives=instance.objectives,
        constraint_functions=instance.constraints,
        box=instance.box,
        cuts=tuple(sorted(cuts)),
    )


@dataclass(frozen=True)
class SolveReport:
    minimizer: Vector
    objective_value: float
    max_violation: float
    iterations: int
    status: SolveStatus
    multipliers: np.ndarray = field(default=None, repr=False)
    cuts: tuple[Cut, ...] = field(default=(), repr=False)  # the canonical cuts solved on


def _project(x: Vector, box: Vector) -> Vector:
    return np.clip(x, box[:, 0], box[:, 1])


def _kkt_residual(x: Vector, grad: Vector, jac: np.ndarray, multipliers, box: Vector) -> float:
    """|| x - proj_box(x - (grad f + sum lambda_j grad c_j)) ||, lambda zero when omitted."""
    if multipliers is not None and len(jac):
        grad = grad + jac.T @ np.asarray(multipliers)
    return float(np.linalg.norm(x - _project(x - grad, box)))


@dataclass(frozen=True)
class MinimizeResult:
    x: Vector
    nit: int  # Newton steps taken
    nfev: int  # fun_grad calls, finite differences included


def _projected_gradient(x: Vector, grad: Vector, box: Vector) -> float:
    return float(np.max(np.abs(x - _project(x - grad, box))))


_FD_STEP = math.sqrt(np.finfo(float).eps)


def _require_finite(f: float, grad: Vector, where: str) -> None:
    # Non-finite values spread into the Newton direction, and a NaN trial
    # point never equals x and fails every test, so halving would not end.
    if not (math.isfinite(f) and np.isfinite(grad).all()):
        raise NumericalFailure(f"non-finite objective or gradient {where}")


def minimize(fun_grad, x0: Vector, box: Vector, max_iter: int) -> MinimizeResult:
    """Minimize a smooth convex ``fun_grad(x) -> (f, grad)`` over a box.

    Projected Newton method (Bertsekas, SIAM J. Control Optim. 1982).
    Each step splits the variables by an epsilon-active set: a variable
    within ``eps = min(1e-3, ||x - P(x - grad)||_inf)`` of a bound, with
    the gradient pushing it out, moves along the negative gradient; the
    others take a Newton step with a Hessian built by forward differences
    of ``fun_grad``, symmetrized and with its eigenvalues floored.  The
    step ``P(x + alpha d)`` is halved until the Armijo test holds.  When
    the predicted decrease is below the resolution of ``f``, the full
    step is taken only if it shrinks the projected gradient.

    Stops when ``max|x - P(x - grad)| <= 1e-12``, or when a step can no
    longer change ``x`` or ``f`` at float resolution, or after
    ``max_iter`` steps.  Every operation is a fixed function of the
    input, so repeated calls agree bit for bit.  A non-finite ``f`` or
    gradient at the start or at an accepted iterate, or a non-finite
    difference Hessian, raises :class:`NumericalFailure`.
    """
    lo, hi = box[:, 0], box[:, 1]
    x = _project(np.asarray(x0, dtype=float), box)
    f, grad = fun_grad(x)
    _require_finite(f, grad, "at the start point")
    nit, nfev = 0, 1
    while nit < max_iter:
        pg = _projected_gradient(x, grad, box)
        if pg <= 1e-12:
            break
        eps = min(1e-3, pg)
        active = ((x <= lo + eps) & (grad > 0.0)) | ((x >= hi - eps) & (grad < 0.0))
        free = np.flatnonzero(~active)
        d = -grad
        if len(free):
            hessian = np.empty((len(free), len(free)))
            for col, j in enumerate(free):
                # Step into the box, so every evaluation point is feasible.
                h = _FD_STEP * max(1.0, abs(x[j]))
                xh = x.copy()
                xh[j] += h if x[j] + h <= hi[j] else -h
                hessian[:, col] = (fun_grad(xh)[1][free] - grad[free]) / (xh[j] - x[j])
            nfev += len(free)
            if not np.isfinite(hessian).all():
                raise NumericalFailure("non-finite difference Hessian")
            w, v = np.linalg.eigh(0.5 * (hessian + hessian.T))
            w = np.maximum(w, 1e-8 * max(1.0, float(np.max(np.abs(w)))))
            d[free] = -(v @ ((v.T @ grad[free]) / w))
        alpha, accepted = 1.0, False
        while not accepted:
            x_new = _project(x + alpha * d, box)
            if np.array_equal(x_new, x):
                break
            f_new, grad_new = fun_grad(x_new)
            nfev += 1
            armijo = f + 1e-4 * float(grad @ (x_new - x))
            if armijo < f:
                accepted = f_new <= armijo
            elif armijo == f:
                # The predicted decrease is invisible in f: take the full
                # step only if it shrinks the projected gradient, else x
                # is as good as floats allow.
                accepted = alpha == 1.0 and _projected_gradient(x_new, grad_new, box) < pg
                if not accepted:
                    break
            alpha *= 0.5
        if not accepted:
            break
        _require_finite(f_new, grad_new, "at an accepted iterate")
        x, f, grad = x_new, f_new, grad_new
        nit += 1
    return MinimizeResult(x, nit, nfev)


def _feasibility_phase(problem: FiniteSubproblem) -> float:
    """Minimize the sum of squared violations; returns the residual max violation."""

    def fun_grad(x):
        _, _, c, jac = problem.evaluate(x)
        pos = np.maximum(c, 0.0)
        grad = jac.T @ pos if len(c) else np.zeros(problem.n)
        return 0.5 * float(pos @ pos), grad

    x = minimize(fun_grad, problem.box.mean(axis=1), problem.box, MAX_INNER).x
    _, _, c, _ = problem.evaluate(x)
    return float(max(0.0, c.max())) if len(c) else 0.0


def _kkt_satisfied(x: Vector, grad: Vector, c: np.ndarray, jac: np.ndarray, lam_next: np.ndarray, box: Vector) -> bool:
    """The exit test: feasibility, the projected KKT residual and complementarity.

    ``lam_next`` are the updated multipliers.  Complementary slackness
    ``max_j lam_j |c_j|`` must also be small: otherwise a large stale
    multiplier on a slack cut could cancel the objective's gradient at a
    point that is not optimal.
    """
    viol = float(max(0.0, c.max())) if len(c) else 0.0
    complementarity = float(np.max(lam_next * np.abs(c))) if len(c) else 0.0
    return (
        viol <= FEASIBILITY_TOL
        and _kkt_residual(x, grad, jac, lam_next, box) <= STATIONARITY_TOL
        and complementarity <= STATIONARITY_TOL
    )


def _carried_multipliers(start: SolveReport, cuts: tuple[Cut, ...]) -> np.ndarray:
    """Each cut's multiplier in ``start`` if ``start.cuts`` holds an equal cut, else 0."""
    carried = dict(zip(start.cuts, start.multipliers))
    return np.array([carried.get(cut, 0.0) for cut in cuts])


def solve(problem: FiniteSubproblem, start: SolveReport | None = None) -> SolveReport:
    """Solve the subproblem to ``FEASIBILITY_TOL`` and ``STATIONARITY_TOL``.

    Without ``start`` the augmented-Lagrangian iteration starts from the
    box center with zero multipliers.  With ``start``, the report of an
    earlier solve, it starts from ``start.minimizer``, and a cut's
    multiplier is carried over only when ``start.cuts`` holds a cut equal
    to it in all four fields (agent, index, scenario, rhs); every other
    cut starts at zero, so a cut whose scenario or rhs changed (an upper
    cut whose ``eps_i`` shrank) brings no stale multiplier.
    Deterministic: every step is a pure function of the canonical input
    and the start.  :func:`drcopt.sim.run` passes the previous report on
    the same side, which every agent holds, so every agent would compute
    the same solve and repeated runs agree bit for bit.
    """
    n_cuts = len(problem.cuts)
    if start is None:
        x = problem.box.mean(axis=1)
        lam = np.zeros(n_cuts)
    else:
        x = start.minimizer
        lam = _carried_multipliers(start, problem.cuts)
    # The multiplier iteration converges linearly, faster as mu grows
    # (Bertsekas 1982; Nocedal & Wright, ch. 17).  The Newton inner solve
    # builds the penalty's curvature into its Hessian, so a base of 1000
    # costs it few extra steps.  The penalty grows while the iterate stays
    # infeasible and decays back to the base once the violation is within
    # tolerance, which bounds the curvature while stationarity is polished.
    mu_base, mu_cap = 1000.0, 1e8
    mu = mu_base
    prev_viol = math.inf
    stalled = 0

    for outer in range(1, MAX_OUTER + 1):

        def fun_grad(z, lam=lam, mu=mu):
            f, grad, c, jac = problem.evaluate(z)
            if n_cuts:
                shifted = np.maximum(0.0, lam + mu * c)
                f += float((shifted @ shifted - lam @ lam) / (2.0 * mu))
                grad = grad + jac.T @ shifted
            return f, grad

        x = minimize(fun_grad, x, problem.box, MAX_INNER).x

        f, grad, c, jac = problem.evaluate(x)
        if n_cuts:
            viol = float(max(0.0, c.max()))
            lam_next = np.maximum(0.0, lam + mu * c)
        else:
            viol = 0.0
            lam_next = lam

        if _kkt_satisfied(x, grad, c, jac, lam_next, problem.box):
            return SolveReport(
                minimizer=x,
                objective_value=f,
                max_violation=viol,
                iterations=outer,
                status=SolveStatus.OPTIMAL,
                multipliers=lam_next,
                cuts=problem.cuts,
            )

        lam = lam_next
        if viol > FEASIBILITY_TOL:
            if viol > 0.25 * prev_viol:
                mu = min(mu * 10.0, mu_cap)
        else:
            mu = max(mu / 10.0, mu_base)
        # Penalty exhausted and no progress: candidate for infeasibility.
        if mu >= mu_cap and viol >= prev_viol - 1e-12:
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0
        prev_viol = viol

    residual_viol = _feasibility_phase(problem)
    status = SolveStatus.INFEASIBLE if residual_viol > 1e-7 else SolveStatus.ITERATION_LIMIT
    f, _, c, _ = problem.evaluate(x)
    return SolveReport(
        minimizer=x,
        objective_value=f,
        max_violation=float(max(0.0, c.max())) if n_cuts else 0.0,
        iterations=MAX_OUTER,
        status=status,
        multipliers=lam,
        cuts=problem.cuts,
    )
