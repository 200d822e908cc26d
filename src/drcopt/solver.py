"""Deterministic solver for the finite convex subproblems.

Minimizes the sum of the agents' objectives over the shared box subject
to the scenario cuts g_a(x, y) <= rhs of one side's cut table, in
table order.  Method: an exact Newton finish on the KKT system of
the cuts found active (:func:`_active_set_finish`), tried at the start
point and after each outer iteration of an augmented Lagrangian with a
box-constrained projected Newton inner solve (:func:`minimize`).  Every
step is a pure function of the problem and the start ``(x0, lam0)``, so
every agent that holds the same table and start computes the same
solve, bit for bit (see :func:`drcopt.consensus.consensus_solve`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .problem import ConstraintTable, NumericalFailure, ProblemInstance, Vector, stacked_terms

# The exit test of :func:`solve`: the largest cut violation is at most
# FEASIBILITY_TOL, the projected KKT residual and complementarity at most
# STATIONARITY_TOL.
FEASIBILITY_TOL = 1e-9
STATIONARITY_TOL = 1e-8
MAX_OUTER = 1000  # augmented-Lagrangian multiplier updates per solve
MAX_INNER = 500  # Newton steps per inner minimization
FINISH_STEPS = 3  # Newton steps per active-set finish
# A cut joins the working set when the part of its gradient outside the
# span of the cuts already kept is above this fraction of its norm.
_INDEPENDENCE_TOL = 1e-6


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration-limit"


def _read_only(a):
    """``a`` if it is read-only, else a read-only view; the caller's array keeps its flags."""
    if not a.flags.writeable:
        return a
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CutTable:
    """One side's scenario cuts: the union every agent holds after flooding.

    Row j is a cut of agent ``agent[j]`` (0-based) at ``scenarios[j]``, in
    the first n_y_f columns of the (K, n_y) array and 0 after them (see
    :class:`~drcopt.problem.ConstraintTable`).  ``count[a]`` is agent a's
    number of rows.  Rows are only appended, so a row id names the same
    cut from one iteration to the next.
    """

    agent: np.ndarray  # (K,)
    scenarios: np.ndarray  # (K, n_y)
    count: np.ndarray  # (m,)

    @classmethod
    def empty(cls, table: ConstraintTable) -> CutTable:
        return cls(np.zeros(0, dtype=np.intp), np.zeros((0, table.n_y)), np.zeros(len(table.family), dtype=np.intp))

    def __len__(self) -> int:
        return len(self.agent)


class FiniteSubproblem:
    """Finite convex program: sum of objectives + box + cuts.

    Built from an instance, a :class:`CutTable` and each row's
    right-hand side ``rhs`` (zeros when None); cut j is table row j, an
    order every agent holding the table shares.  Construction gathers
    each cut's coefficients and box from the instance's
    :class:`~drcopt.problem.ConstraintTable`, so :meth:`evaluate` makes
    one kernel call per constraint family, on its members' scenarios'
    first n_y_f columns.  It remembers the last point it evaluated.
    """

    def __init__(self, instance: ProblemInstance, cuts: CutTable, rhs: np.ndarray | None = None):
        self.box = instance.box
        self.cuts = cuts
        self.rhs = np.zeros(len(cuts)) if rhs is None else np.asarray(rhs, dtype=float)
        # Negated comparisons so that NaN is rejected too.
        if not self.rhs.max(initial=0.0) <= 0.0:
            raise ValueError("cut right-hand sides must be <= 0")
        table = instance.constraint_table
        calls = []
        for f, batch in enumerate(table.batches):
            # With one family every cut is a member.
            members = np.flatnonzero(table.family[cuts.agent] == f) if len(table.batches) > 1 else slice(None)
            family_rows = table.row[cuts.agent[members]]
            if len(family_rows):
                y_box = table.boxes[f][family_rows]
                y = cuts.scenarios[members, : y_box.shape[1]]
                if not np.maximum(y_box[:, :, 0] - y, y - y_box[:, :, 1]).max() <= 1e-12:
                    raise ValueError("cut scenario lies outside its agent's uncertainty box")
                calls.append((batch, members, table.coefficients[f][family_rows], y))
        self._f_terms = instance.objective_terms
        self._g_terms = stacked_terms(calls, len(cuts))
        self._memo_key, self._memo, self._f_values = None, None, None
        self._hess_terms, self._hess_sum = None, None

    def evaluate(self, x: Vector):
        """(f, grad f, c, Jacobian of c, Hessian of f, Hessians of c) at x.

        f is the sum of the objectives; c_j(x) = g_a(x, y_j) - rhs_j is cut
        j's value, violated when positive, and row j of the Jacobian its
        gradient.  The Hessians are (n, n) and (n_cuts, n, n), the exact
        second derivatives the kernels return.  The arrays are read-only,
        and a repeated call at the same x returns the same ones; the
        objectives' Hessian sum is reused while their kernel returns the
        same read-only array.
        """
        key = x.tobytes()
        if key != self._memo_key:
            f_values, f_grads, f_hess = self._f_terms(x)
            g_values, g_grads, g_hess = self._g_terms(x)
            # A constant family Hessian comes back as the same read-only
            # array at every point: sum it once.
            if f_hess is not self._hess_terms or f_hess.flags.writeable:
                self._hess_sum = f_hess.sum(axis=0)
                self._hess_sum.flags.writeable = False
                self._hess_terms = f_hess
            grad = f_grads.sum(axis=0)
            c = g_values - self.rhs
            grad.flags.writeable = c.flags.writeable = False
            self._memo = (float(f_values.sum()), grad, c, _read_only(g_grads), self._hess_sum, _read_only(g_hess))
            self._memo_key, self._f_values = key, f_values
        return self._memo

    def objective_values(self, x: Vector) -> np.ndarray:
        """Each agent's objective at x: the kernel rows whose sum :meth:`evaluate` returns."""
        self.evaluate(x)
        return self._f_values


@dataclass(frozen=True)
class SolveReport:
    minimizer: Vector
    objective_value: float
    max_violation: float
    iterations: int  # outer iterations run, on every exit; 0 when the finish at the start ends the solve
    status: SolveStatus
    multipliers: np.ndarray = field(repr=False)  # one per cut, in table order
    objectives: np.ndarray = field(repr=False)  # each agent's objective at the minimizer


def _project(x: Vector, box: Vector) -> Vector:
    # The bytes np.clip gives with array bounds, without its Python-level dispatch.
    return np.minimum(np.maximum(x, box[:, 0]), box[:, 1])


def _kkt_residual(x: Vector, grad: Vector, jac: np.ndarray, multipliers: np.ndarray, box: Vector) -> float:
    """|| x - proj_box(x - (grad f + sum lambda_j grad c_j)) ||."""
    grad = grad + jac.T.dot(multipliers)
    # What np.linalg.norm computes for a vector, without its dispatch.
    r = x - _project(x - grad, box)
    return math.sqrt(float(r.dot(r)))


@dataclass(frozen=True)
class MinimizeResult:
    x: Vector
    nit: int  # Newton steps taken
    nfev: int  # fun_grad calls: the start, then every trial point


def _projected_gradient(x: Vector, grad: Vector, box: Vector) -> float:
    return float(abs(x - _project(x - grad, box)).max())


def _bound_split(x: Vector, grad: Vector, lo: Vector, hi: Vector, pg: float):
    """``(at_lo, at_hi, free)``: :func:`minimize`'s epsilon-active masks at each bound, the others' indices."""
    eps = min(1e-3, pg)
    at_lo, at_hi = (x <= lo + eps) & (grad > 0.0), (x >= hi - eps) & (grad < 0.0)
    return at_lo, at_hi, (~(at_lo | at_hi)).nonzero()[0]


def _require_finite(f: float, grad: Vector, where: str) -> None:
    # Non-finite values spread into the Newton direction, and a NaN trial
    # point never equals x and fails every test, so halving would not end.
    # Per element as Python floats: cheaper than a numpy reduction for a few variables.
    if not (math.isfinite(f) and all(map(math.isfinite, grad.tolist()))):
        raise NumericalFailure(f"non-finite objective or gradient {where}")


def minimize(fun_grad, x0: Vector, box: Vector) -> MinimizeResult:
    """Minimize a smooth convex ``fun_grad(x) -> (f, grad, hess)`` over a box.

    ``hess`` takes no arguments and returns the exact, symmetric Hessian
    of ``f`` at ``x``; it is called only at an iterate about to take a
    Newton step, so a trial point that is rejected, or the point the
    method stops at, never builds one.
    Projected Newton method (Bertsekas, SIAM J. Control Optim. 1982).
    Each step splits the variables by an epsilon-active set: a variable
    within ``eps = min(1e-3, ||x - P(x - grad)||_inf)`` of a bound, with
    the gradient pushing it out, moves along the negative gradient; the
    others take a Newton step with ``hess`` restricted to them and its
    eigenvalues floored.  The step ``P(x + alpha d)`` is halved until the
    Armijo test holds.  When the predicted decrease is below the
    resolution of ``f``, the full step is taken only if it shrinks the
    projected gradient.

    Stops when ``max|x - P(x - grad)| <= 1e-12``, or when a step can no
    longer change ``x`` or ``f`` at float resolution, or after
    ``MAX_INNER`` steps.  Every operation is a fixed function of the
    input, so repeated calls agree bit for bit.  A non-finite ``f`` or
    gradient at the start or at an accepted iterate, or a non-finite
    Hessian, raises :class:`NumericalFailure`.
    """
    lo, hi = box[:, 0], box[:, 1]
    x = _project(np.asarray(x0, dtype=float), box)
    f, grad, hess = fun_grad(x)
    _require_finite(f, grad, "at the start point")
    nit, nfev = 0, 1
    while nit < MAX_INNER:
        pg = _projected_gradient(x, grad, box)
        if pg <= 1e-12:
            break
        free = _bound_split(x, grad, lo, hi, pg)[2]
        whole = len(free) == len(x)
        d = -grad
        if len(free):
            hessian = hess() if whole else hess()[np.ix_(free, free)]
            if not np.isfinite(hessian).all():
                raise NumericalFailure("non-finite Hessian")
            w, v = np.linalg.eigh(hessian)
            w = np.maximum(w, 1e-8 * max(1.0, float(abs(w).max())))
            if whole:
                d = -v.dot(v.T.dot(grad) / w)
            else:
                d[free] = -v.dot(v.T.dot(grad[free]) / w)
        alpha, accepted = 1.0, False
        while not accepted:
            x_new = _project(x + d if alpha == 1.0 else x + alpha * d, box)
            if x_new.tolist() == x.tolist():  # elementwise ==, cheaper than numpy's for a few variables
                break
            f_new, grad_new, hess_new = fun_grad(x_new)
            nfev += 1
            armijo = f + 1e-4 * float(grad.dot(x_new - x))
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
        x, f, grad, hess = x_new, f_new, grad_new, hess_new
        nit += 1
    return MinimizeResult(x, nit, nfev)


def _cut_curvature(jac: np.ndarray, cut_hess: np.ndarray, weights: np.ndarray, scale: float) -> np.ndarray:
    """``scale * J_A^T J_A + sum_j weights_j * cut_hess_j`` over A = {j : weights_j > 0}.

    The generalized Hessian of ``sum_j phi(c_j)`` for a penalty phi whose
    derivative is ``weights`` and whose second derivative is ``scale`` on
    A and 0 off it.  The products are formed row by row before the sum,
    so the result does not depend on the memory layout of ``cut_hess``.
    """
    on = weights > 0.0
    if np.count_nonzero(on) < len(on):
        jac, weights, cut_hess = jac[on], weights[on], cut_hess[on]
    return scale * jac.T.dot(jac) + (weights[:, None, None] * cut_hess).sum(axis=0)


def _feasibility_phase(problem: FiniteSubproblem) -> float:
    """Minimize the sum of squared violations; returns the residual max violation."""

    def fun_grad(x):
        _, _, c, jac, _, cut_hess = problem.evaluate(x)
        pos = np.maximum(c, 0.0)
        grad = jac.T @ pos
        return 0.5 * float(pos @ pos), grad, lambda: _cut_curvature(jac, cut_hess, pos, 1.0)

    x = minimize(fun_grad, problem.box.mean(axis=1), problem.box).x
    return float(problem.evaluate(x)[2].max(initial=0.0))


def _kkt_satisfied(x: Vector, grad: Vector, c: np.ndarray, jac: np.ndarray, lam_next: np.ndarray, box: Vector) -> bool:
    """The exit test: feasibility, the projected KKT residual and complementarity.

    ``lam_next`` are the updated multipliers.  Complementary slackness
    ``max_j lam_j |c_j|`` must also be small: otherwise a large stale
    multiplier on a slack cut could cancel the objective's gradient at a
    point that is not optimal.
    """
    return (
        float(c.max(initial=0.0)) <= FEASIBILITY_TOL
        and _kkt_residual(x, grad, jac, lam_next, box) <= STATIONARITY_TOL
        and float((lam_next * abs(c)).max(initial=0.0)) <= STATIONARITY_TOL
    )


def _active_set_finish(problem: FiniteSubproblem, x: Vector, lam: np.ndarray):
    """Newton's method on the KKT system of a working set; ``(x, lam)`` at an optimum, else None.

    ``x`` and ``lam`` are the solve's start point and multipliers, or an
    augmented-Lagrangian iterate and its updated multipliers.  The
    variables that :func:`_bound_split`, :func:`minimize`'s rule, holds at
    a bound (for the Lagrangian's gradient) are fixed there; the others are free.
    The candidates for the working set W are the cuts with a positive
    multiplier or a positive violation: at a warm start the carried active
    cuts and the newly violated ones, after an update the cuts with a
    positive ``max(0, lam + mu c)``, which include every violated one.
    W takes the candidates, most violated first, and keeps each one whose
    gradient on the free variables is linearly independent of those
    already kept, up to the number of free variables: of near-duplicate
    cuts it keeps the more violated one.  Then at most ``FINISH_STEPS``
    Newton steps on ``[[H_f + sum_W lam_j H_j]_FF, J_WF^T; J_WF, 0]``,
    with the kernels' exact Hessians, solve for the free variables and
    lam_W.  The result is accepted once the iterate is in the box,
    lam_W >= 0 and :func:`_kkt_satisfied` holds with lam zero off W; a
    step that leaves the box, a negative lam_W or a singular system
    declines.  Nothing the caller holds is changed, so a declined finish
    leaves the solve as it was.
    """
    box = problem.box
    lo, hi = box[:, 0], box[:, 1]
    _, grad, c, jac, _, _ = problem.evaluate(x)
    grad = grad + jac.T.dot(lam)
    at_lo, at_hi, free = _bound_split(x, grad, lo, hi, _projected_gradient(x, grad, box))
    n_free = len(free)
    if not n_free:
        return None
    whole = n_free == len(x)
    if not whole:
        x = np.where(at_lo, lo, np.where(at_hi, hi, x))
    working, basis = [], []
    violation = c.tolist()
    for j in sorted(((lam > 0.0) | (c > 0.0)).nonzero()[0].tolist(), key=lambda j: -violation[j]):
        row = jac[j] if whole else jac[j, free]
        residual = row - sum(q.dot(row) * q for q in basis)
        norm = math.sqrt(float(residual.dot(residual)))
        if norm > _INDEPENDENCE_TOL * math.sqrt(float(row.dot(row))):
            working.append(j)
            basis.append(residual / norm)
            if len(working) == n_free:
                break
    lam_w = lam[working]
    kkt = np.zeros((n_free + len(working),) * 2)
    for _ in range(FINISH_STEPS):
        _, grad, c, jac, hess, cut_hess = problem.evaluate(x)
        hess = hess + (lam_w[:, None, None] * cut_hess[working]).sum(axis=0)
        jac_w = jac[working]
        if not whole:
            hess, jac_w, grad = hess[free][:, free], jac_w[:, free], grad[free]
        kkt[:n_free, :n_free] = hess
        kkt[n_free:, :n_free] = jac_w
        kkt[:n_free, n_free:] = jac_w.T
        try:
            step = np.linalg.solve(kkt, -np.concatenate([grad, c[working]]))
        except np.linalg.LinAlgError:
            return None
        x = x.copy()
        x[free] += step[:n_free]
        lam_w = step[n_free:]
        # Elementwise as Python floats; NaN fails every comparison.
        if x.tolist() != _project(x, box).tolist() or not all(v >= 0.0 for v in lam_w.tolist()):
            return None
        _, grad, c, jac, _, _ = problem.evaluate(x)
        lam = np.zeros(len(lam))
        lam[working] = lam_w
        if _kkt_satisfied(x, grad, c, jac, lam, box):
            return x, lam
    return None


def solve(problem: FiniteSubproblem, x0: Vector | None = None, lam0: np.ndarray | None = None) -> SolveReport:
    """Solve the subproblem to ``FEASIBILITY_TOL`` and ``STATIONARITY_TOL``.

    The solve starts from ``x0`` (the box center when None) and from the
    multipliers ``lam0``, one nonnegative value per cut in table order
    (zeros when None).  :func:`_active_set_finish` is tried first at the
    start, where it takes the carried active cuts and the newly violated
    ones; when it is accepted the solve ends ``OPTIMAL`` with
    ``iterations`` 0.  Otherwise the augmented-Lagrangian
    iteration runs from the unchanged start.  Each inner minimization
    gets the exact generalized Hessian ``H_f + mu J_A^T J_A + sum_j s_j
    H_j`` with ``s = max(0, lam + mu c)`` and ``A = {j : s_j > 0}``; the
    update ``max(0, lam + mu c)`` lowers stale multipliers on slack cuts,
    and the exit test requires complementarity.  After every outer
    iteration that fails the exit test the finish is tried again on the
    cuts the updated multipliers mark active.  Infeasibility is decided
    once, by the problem: the first outer iteration that ends with a
    violation above ``FEASIBILITY_TOL`` and the penalty at its cap runs
    the feasibility phase, and a residual violation above 1e-7 ends the
    solve ``INFEASIBLE``.  ``ITERATION_LIMIT`` means it ran ``MAX_OUTER``
    outer iterations.  A subproblem with no cuts takes the same path.
    """
    n_cuts = len(problem.cuts)
    x = problem.box.mean(axis=1) if x0 is None else np.asarray(x0, dtype=float)
    lam = np.zeros(n_cuts) if lam0 is None else np.asarray(lam0, dtype=float)
    if lam.shape != (n_cuts,) or not (lam >= 0.0).all():
        raise ValueError("lam0 needs one nonnegative multiplier per cut")
    # The multiplier iteration converges linearly, faster as mu grows
    # (Bertsekas 1982; Nocedal & Wright, ch. 17).  The Newton inner solve
    # builds the penalty's curvature into its Hessian, so a base of 1000
    # costs it few extra steps.  The penalty grows while the iterate stays
    # infeasible and decays back to the base once the violation is within
    # tolerance, which bounds the curvature while stationarity is polished.
    # Without the active-set finish the scaled runs on complete(12) and
    # complete(48) need the decay: without it, or with a plain x10 while
    # infeasible, they hit MAX_OUTER (pinned in tests/test_solver.py).
    mu_base, mu_cap = 1000.0, 1e8
    mu = mu_base
    prev_viol = math.inf
    status = SolveStatus.ITERATION_LIMIT
    phase_run = False

    # No exit test on the start alone: a carried point meets its binding
    # cuts only to FEASIBILITY_TOL, and the oracles read a violation that
    # small as a new cut, which stalls the large-r runs of
    # tests/test_sim.py.  The finish's Newton step makes them hold to
    # rounding.
    finish = _active_set_finish(problem, x, lam)
    if finish is not None:
        (x, lam), status = finish, SolveStatus.OPTIMAL
    outer = 0
    while status is SolveStatus.ITERATION_LIMIT and outer < MAX_OUTER:
        outer += 1

        def fun_grad(z, lam=lam, mu=mu, lam_sq=lam.dot(lam), two_mu=2.0 * mu):
            f, grad, c, jac, hess, cut_hess = problem.evaluate(z)
            shifted = np.maximum(0.0, lam + mu * c)
            f += float((shifted.dot(shifted) - lam_sq) / two_mu)
            grad = grad + jac.T.dot(shifted)

            def curvature():
                # With every cut slack the penalty adds no curvature.
                return hess + _cut_curvature(jac, cut_hess, shifted, mu) if shifted.any() else hess

            return f, grad, curvature

        x = minimize(fun_grad, x, problem.box).x

        _, grad, c, jac, _, _ = problem.evaluate(x)
        viol = float(c.max(initial=0.0))
        lam = np.maximum(0.0, lam + mu * c)
        if _kkt_satisfied(x, grad, c, jac, lam, problem.box):
            status = SolveStatus.OPTIMAL
            break
        finish = _active_set_finish(problem, x, lam)
        if finish is not None:
            (x, lam), status = finish, SolveStatus.OPTIMAL
            break

        if viol > FEASIBILITY_TOL:
            if viol > 0.25 * prev_viol:
                mu = min(mu * 10.0, mu_cap)
            # Still infeasible with the penalty at its cap: ask the problem, once.
            if mu >= mu_cap and not phase_run:
                if _feasibility_phase(problem) > 1e-7:
                    status = SolveStatus.INFEASIBLE
                    break
                phase_run = True
        else:
            mu = max(mu / 10.0, mu_base)
        prev_viol = viol

    f, _, c, _, _, _ = problem.evaluate(x)
    return SolveReport(
        minimizer=x,
        objective_value=f,
        max_violation=float(c.max(initial=0.0)),
        iterations=outer,
        status=status,
        multipliers=lam,
        objectives=problem.objective_values(x),
    )
