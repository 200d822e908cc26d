"""Deterministic solver for the finite convex subproblems.

Minimizes the sum of the agents' objectives over the shared box subject
to a finite list of scenario cuts g_a(x, y) <= rhs, kept in canonical
order.  Method: augmented Lagrangian on the inequality constraints with
a box-constrained projected Newton inner solve (:func:`minimize`), and
after each outer iteration an exact Newton finish on the KKT system of
the cuts it found active (:func:`_active_set_finish`).
Every solve starts from the point ``x0`` and the multipliers ``lam0``
given to :func:`solve`.  The first solve on each side (lower, upper) of
a run starts at the box center with zero multipliers; every later one
starts from the previous report on the same side, its minimizer and its
multipliers carried onto the new cuts (see
:func:`drcopt.consensus.consensus_solve`).  After flooding every agent
holds that report, so the start is a function of the agents' common
history; every step is a pure function of the problem and the start, so
consensus and bitwise repeatability hold as with a fixed start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .problem import NumericalFailure, ProblemInstance, Vector

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
FINISH_STEPS = 3  # Newton steps per active-set finish
# A cut joins the working set when the part of its gradient outside the
# span of the cuts already kept is above this fraction of its norm.
_INDEPENDENCE_TOL = 1e-6


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration-limit"


def _exact(terms):
    """A kernel's (values, gradients, Hessians), refused when the Hessians are missing."""
    if terms[2] is None:
        raise TypeError("a batch kernel must return the exact x-Hessians (k, n, n) as its third array, not None")
    return terms


def family_terms(members, *rows):
    """x -> (values, gradients, Hessians) of a kernel family, one row per member.

    ``members`` are objectives or constraints (see the ``batch`` contract
    in :mod:`drcopt.problem`).  Each of ``rows`` holds one further kernel
    argument per member, a 1-D array (a cut's scenario).  Members that
    share one ``batch`` take one call with their coefficients and rows
    stacked; mixed members take one one-row call each, stacked in order.
    An empty family gives (0,), (0, n) and (0, n, n) arrays for an
    n-vector x.  A kernel that returns None for the Hessians raises
    ``TypeError`` at its first call.
    """
    kernels = {member.batch for member in members}
    if len(kernels) == 1:
        batch = kernels.pop()
        args = [np.array([member.coefficients for member in members]), *map(np.array, rows)]
        return lambda x: _exact(batch(x, *args))
    calls = [
        (member.batch, member.coefficients[None, :], *(row[None, :] for row in member_rows))
        for member, *member_rows in zip(members, *rows)
    ]

    def terms(x):
        if not calls:
            n = len(x)
            return np.zeros(0), np.zeros((0, n)), np.zeros((0, n, n))
        parts = [_exact(kernel(x, *args)) for kernel, *args in calls]
        return tuple(np.concatenate(part) for part in zip(*parts))

    return terms


def _read_only(a):
    """``a`` if it is read-only, else a read-only view; the caller's array keeps its flags."""
    if not a.flags.writeable:
        return a
    a = a.view()
    a.flags.writeable = False
    return a


class FiniteSubproblem:
    """Canonical finite convex program: sum of objectives + box + cuts.

    Built from an instance and any iterable of cuts, which it sorts into
    canonical order.  On construction the objectives' and the cuts' data
    are gathered into arrays once, and :meth:`evaluate` computes each
    family (the objectives, the cuts) through :func:`family_terms`.  It
    remembers the last point it evaluated: the solver asks for the same
    point several times in a row.
    """

    def __init__(self, instance: ProblemInstance, cuts: Iterable[Cut]):
        self.box = instance.box
        self.cuts = tuple(sorted(cuts))
        constraints = [instance.constraints[agent_id - 1] for agent_id, _, _, _ in self.cuts]
        scenarios = [np.asarray(scenario, dtype=float) for _, _, scenario, _ in self.cuts]
        self._rhs = np.array([rhs for _, _, _, rhs in self.cuts], dtype=float)
        if (self._rhs > 0.0).any():
            raise ValueError("cut right-hand sides must be <= 0")
        if scenarios:
            # One row per scenario coordinate, so agents may differ in n_y.
            y = np.concatenate(scenarios)
            y_box = np.concatenate([g.uncertainty_box for g in constraints])
            if (y < y_box[:, 0] - 1e-12).any() or (y > y_box[:, 1] + 1e-12).any():
                raise ValueError("cut scenario lies outside its agent's uncertainty box")
        self._f_terms = family_terms(instance.objectives)
        self._g_terms = family_terms(constraints, scenarios)
        self._memo_key, self._memo = None, None
        self._hess_terms, self._hess_sum = None, None

    @property
    def n(self) -> int:
        return self.box.shape[0]

    def evaluate(self, x: Vector):
        """(f, grad f, c, Jacobian of c, Hessian of f, Hessians of c) at x.

        f is the sum of the objectives; c_j(x) = g_a(x, y_j) - rhs_j is cut
        j's value, violated when positive, and row j of the Jacobian its
        gradient.  The Hessians are (n, n) and (n_cuts, n, n), the exact
        second derivatives the kernels return.  The arrays are read-only:
        a repeated call at the same x returns the same ones.  The sums are
        new arrays, made read-only in place, except that the objectives'
        Hessian sum is reused while their kernel returns the same
        read-only array; a kernel's arrays are wrapped in read-only views
        unless they already are read-only.
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
            c = g_values - self._rhs
            grad.flags.writeable = c.flags.writeable = False
            self._memo = (float(f_values.sum()), grad, c, _read_only(g_grads), self._hess_sum, _read_only(g_hess))
            self._memo_key = key
        return self._memo


@dataclass(frozen=True)
class SolveReport:
    minimizer: Vector
    objective_value: float
    max_violation: float
    iterations: int  # outer iterations run, on every exit
    status: SolveStatus
    multipliers: np.ndarray = field(repr=False)  # one per cut of ``cuts``
    cuts: tuple[Cut, ...] = field(repr=False)  # the canonical cuts solved on


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
        eps = min(1e-3, pg)
        active = ((x <= lo + eps) & (grad > 0.0)) | ((x >= hi - eps) & (grad < 0.0))
        free = (~active).nonzero()[0]
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

    ``x`` is an augmented-Lagrangian iterate and ``lam`` its updated
    multipliers.  The variables that :func:`minimize`'s epsilon-active
    rule holds at a bound (for the Lagrangian's gradient) are fixed there;
    the others are free.  The working set W takes the cuts with a positive
    multiplier, most violated first, and keeps each one whose gradient on
    the free variables is linearly independent of those already kept, up
    to the number of free variables: of near-duplicate cuts it keeps the
    more violated one.  Then at most ``FINISH_STEPS`` Newton steps on
    ``[[H_f + sum_W lam_j H_j]_FF, J_WF^T; J_WF, 0]``, with the kernels'
    exact Hessians, solve for the free variables and lam_W.  The result
    is accepted once the iterate is in the box, lam_W >= 0 and
    :func:`_kkt_satisfied` holds with lam zero off W; a step that leaves
    the box, a negative lam_W or a singular system declines.  Nothing the
    caller holds is changed, so a declined finish leaves the solve as it
    was.
    """
    box = problem.box
    lo, hi = box[:, 0], box[:, 1]
    _, grad, c, jac, _, _ = problem.evaluate(x)
    grad = grad + jac.T.dot(lam)
    eps = min(1e-3, _projected_gradient(x, grad, box))
    at_lo, at_hi = (x <= lo + eps) & (grad > 0.0), (x >= hi - eps) & (grad < 0.0)
    free = (~(at_lo | at_hi)).nonzero()[0]
    n_free = len(free)
    if not n_free:
        return None
    whole = n_free == len(x)
    if not whole:
        x = np.where(at_lo, lo, np.where(at_hi, hi, x))
    working, basis = [], []
    violation = c.tolist()
    for j in sorted(lam.nonzero()[0].tolist(), key=lambda j: -violation[j]):
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

    The augmented-Lagrangian iteration starts from ``x0``, or from the box
    center when it is None, and from the multipliers ``lam0``, one
    nonnegative value per cut of ``problem.cuts``, or zeros when it is
    None.  A cold solve is this same iteration from zero multipliers.
    Multipliers of a tighter problem cost only outer iterations: the
    update ``max(0, lam + mu c)`` lowers them on slack cuts, and the exit
    test requires complementarity, so none survives into an optimal report.
    Each inner minimization gets the exact generalized Hessian of the
    augmented Lagrangian, ``H_f + mu J_A^T J_A + sum_j s_j H_j`` with
    ``s = max(0, lam + mu c)`` and ``A = {j : s_j > 0}``, from the
    kernels' exact Hessians.  A subproblem with no cuts takes the same
    path: its empty arrays add no penalty, no violation and no
    multiplier term.  After every outer iteration whose updated
    multipliers fail the exit test, :func:`_active_set_finish` tries
    Newton's method on the KKT system of the cuts those multipliers mark
    active; when it is accepted the solve ends ``OPTIMAL`` with the
    finish's point and multipliers, and otherwise it goes on from the
    unchanged iterate.  Infeasibility is decided once, by the problem and
    not by the iterate's progress: the first outer iteration that ends
    with a violation above ``FEASIBILITY_TOL`` and the penalty at its
    cap runs the feasibility phase, and a residual violation above 1e-7
    ends the solve ``INFEASIBLE``.  Otherwise the iteration goes on until
    it is ``OPTIMAL``; ``ITERATION_LIMIT`` means it ran ``MAX_OUTER``
    outer iterations.  Deterministic: every step is a pure function of
    the canonical input, ``x0`` and ``lam0``.  :func:`drcopt.sim.run`
    passes the previous report on the same side, which every agent
    holds, so every agent would compute the same solve and repeated runs
    agree bit for bit.
    """
    n_cuts = len(problem.cuts)
    x = problem.box.mean(axis=1) if x0 is None else x0
    lam = np.zeros(n_cuts) if lam0 is None else np.asarray(lam0, dtype=float)
    if lam.shape != (n_cuts,) or not (lam >= 0.0).all():
        raise ValueError("lam0 needs one nonnegative multiplier per cut")
    # The multiplier iteration converges linearly, faster as mu grows
    # (Bertsekas 1982; Nocedal & Wright, ch. 17).  The Newton inner solve
    # builds the penalty's curvature into its Hessian, so a base of 1000
    # costs it few extra steps.  The penalty grows while the iterate stays
    # infeasible and decays back to the base once the violation is within
    # tolerance, which bounds the curvature while stationarity is polished.
    # The active-set finish ends every benchmark solve before the decay
    # lowers mu, but without the finish the scaled runs on complete(12) and
    # complete(48) need it: without the decay, or with a plain x10 while
    # infeasible, they hit MAX_OUTER (pinned in tests/test_solver.py).
    mu_base, mu_cap = 1000.0, 1e8
    mu = mu_base
    prev_viol = math.inf
    status = SolveStatus.ITERATION_LIMIT
    phase_run = False

    for outer in range(1, MAX_OUTER + 1):

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
        cuts=problem.cuts,
    )
