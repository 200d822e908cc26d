"""Shared independent oracles and random generators for the test suite."""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
from dataclasses import dataclass

import numpy as np

from drcopt.consensus import flood_slots
from drcopt.graph import GraphSchedule, NotUniformlyConnected, make_schedule
from drcopt.problem import (
    CASE_STUDY_V,
    NumericalFailure,
    ProblemInstance,
    Vector,
    paper_quadratic_constraint,
    quadratic_distance,
)
from drcopt.solver import (
    FEASIBILITY_TOL,
    MAX_INNER,
    MAX_OUTER,
    STATIONARITY_TOL,
    Cut,
    FiniteSubproblem,
    MinimizeResult,
    SolveReport,
    SolveStatus,
)
from drcopt.termination import stop_threshold

logger = logging.getLogger(__name__)

# The case study's robust optimum x* and its objective value f* = sum_i f_i(x*).
F_STAR = 38.68774606680623
X_STAR = np.array([0.0, np.sqrt(7.0) / 4.0])


def case_study_grid_min(cuts, step=1e-3, refine=True):
    """Dense-grid minimization oracle for case-study subproblems.

    Pure enumeration over the box, evaluating the case-study formulas
    directly; independent of the solver implementation.  ``cuts`` is a
    list of (agent_id, scenario_tuple, rhs).  Optionally refines with a
    1e-5 grid around the coarse winner.
    """

    def masked_min(x1_lo, x1_hi, x2_lo, x2_hi, h):
        x1 = np.arange(x1_lo, x1_hi + h / 2, h)
        x2 = np.arange(x2_lo, x2_hi + h / 2, h)
        best_val, best_pt = np.inf, None
        # Chunk rows of x1 to bound memory.
        for lo in range(0, len(x1), 512):
            a = x1[lo : lo + 512][:, None]
            b = x2[None, :]
            obj = 6.0 * (a * a + b * b) - 12.0 * b + 44.0
            feas = np.ones(obj.shape, dtype=bool)
            for agent_id, scenario, rhs in cuts:
                v = CASE_STUDY_V[agent_id - 1]
                y = scenario[0]
                g = (a - v) ** 2 + 2.0 * y * b - y * y - 1.0
                feas &= g <= rhs
            if not feas.any():
                continue
            masked = np.where(feas, obj, np.inf)
            idx = np.unravel_index(np.argmin(masked), masked.shape)
            if masked[idx] < best_val:
                best_val = float(masked[idx])
                best_pt = np.array([float(a[idx[0], 0]), float(b[0, idx[1]])])
        return best_val, best_pt

    val, pt = masked_min(-2.0, 2.0, -1.0, 1.0, step)
    if refine and pt is not None:
        w = 2.5 * step
        val2, pt2 = masked_min(
            max(-2.0, pt[0] - w),
            min(2.0, pt[0] + w),
            max(-1.0, pt[1] - w),
            min(1.0, pt[1] + w),
            1e-5,
        )
        if val2 < val:
            val, pt = val2, pt2
    return val, pt


def scaled_case_study(m: int, seed: int) -> ProblemInstance:
    """The case-study recipe at m agents.

    Centers uniform in [-1, 1]^2 with every 6th x2 set to 6, offsets
    v = linspace(-0.75, 0.75, m), on the case-study box.
    """
    centers = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, 2))
    centers[::6, 1] = 6.0
    return ProblemInstance(
        n=2,
        m=m,
        objectives=tuple(quadratic_distance(c) for c in centers),
        constraints=tuple(paper_quadratic_constraint(float(v)) for v in np.linspace(-0.75, 0.75, m)),
        box=np.array([[-2.0, 2.0], [-1.0, 1.0]]),
    )


def subproblem_cut_view(problem: FiniteSubproblem):
    """(agent_id, scenario, rhs) triples of a subproblem, for the grid oracle."""
    return [(agent_id, scenario, rhs) for agent_id, _, scenario, rhs in problem.cuts]


def random_connected_schedule(rng: np.random.Generator, m_max=5, p_max=3) -> GraphSchedule:
    """Random periodic schedule whose union over a period is strongly connected."""
    while True:
        m = int(rng.integers(2, m_max + 1))
        period = int(rng.integers(1, p_max + 1))
        slots = []
        for _ in range(period):
            edges = {
                (j, i)
                for j in range(1, m + 1)
                for i in range(1, m + 1)
                if j != i and rng.random() < 0.4
            }
            slots.append(edges)
        try:
            return make_schedule(m, slots)
        except NotUniformlyConnected:
            continue


def edge_scan_in_neighbors(schedule: GraphSchedule, node: int, t: int) -> tuple[int, ...]:
    """Sorted in-neighbors of node at slot t by a scan over every edge of the slot."""
    return tuple(sorted(j for j, i in schedule.slots[t % schedule.period] if i == node))


def aggregate_gap_load(schedule: GraphSchedule, gaps: list[float]) -> float:
    """Literal triple sum over agents, the first T slots and closed in-neighborhoods."""
    total = 0.0
    for i in range(1, schedule.m + 1):
        for t in range(schedule.window):
            for j in (i,) + edge_scan_in_neighbors(schedule, i, t):
                total += gaps[j - 1]
    return total


def box_lp_vertex_max(weights, capacity, upper):
    """Brute-force optimum of max sum(e) s.t. w.e <= capacity, 0 <= e_i <= upper.

    Enumerates candidate vertices: every subset pinned at the upper bound
    with at most one remaining coordinate fractional.
    """
    m = len(weights)
    best = 0.0
    for pinned in itertools.product((0.0, upper), repeat=m):
        used = sum(w * e for w, e in zip(weights, pinned))
        if used > capacity + 1e-12:
            continue
        value = sum(pinned)
        best = max(best, value)
        for j in range(m):
            if pinned[j] == 0.0:
                extra = min(upper, (capacity - used) / weights[j])
                best = max(best, value + extra)
    return best


# The per-agent bounds and gaps that drcopt.sim.run computed before it
# evaluated all objectives in one kernel call per consensus minimizer, as
# a bitwise oracle for the batched form.


def bound_values(
    instance: ProblemInstance, feasible: list[bool], lower_x: Vector, upper_x: Vector
) -> tuple[float, float]:
    """(lower, upper) objective sums at ``lower_x`` and ``upper_x``; upper is +inf unless every agent is feasible."""
    lower = 0.0
    upper = 0.0
    for f, ok in zip(instance.objectives, feasible):
        lower += f.evaluate(lower_x)
        if not ok:
            upper = math.inf
        elif math.isfinite(upper):
            upper += f.evaluate(upper_x)
    return lower, upper


def agent_gap(objective, feasible: bool, lower_x: Vector, upper_x: Vector) -> float:
    """e_i = |f_i(upper_x) - f_i(lower_x)|, +inf when agent i found ``upper_x`` infeasible."""
    if not feasible:
        return math.inf
    return abs(objective.evaluate(upper_x) - objective.evaluate(lower_x))


# Per-agent, per-slot simulations of the flooding and stopping protocols,
# as oracles for drcopt's union flood and array stopping round.  Each reads
# the schedule's edge sets directly, not ``closed_in``.


def per_slot_flood(
    payloads: list[frozenset[Cut]],
    schedule: GraphSchedule,
    start_slot: int = 0,
) -> tuple[list[frozenset[Cut]], int]:
    """Flooding with one frozenset union per agent and slot; returns what each agent holds."""
    m = schedule.m
    if len(payloads) != m:
        raise ValueError("one payload per agent required")
    held = [frozenset(p) for p in payloads]
    n_slots = flood_slots(schedule)
    for slot in range(start_slot, start_slot + n_slots):
        snapshot = held
        held = [
            snapshot[i - 1].union(*(snapshot[j - 1] for j in edge_scan_in_neighbors(schedule, i, slot)))
            for i in range(1, m + 1)
        ]
    return held, n_slots


@dataclass(frozen=True)
class CounterState:
    h: int = 0
    c: int = 0
    e: float = math.inf  # local gap, fixed within one outer iteration


def step_counters(
    counters: list[CounterState], schedule: GraphSchedule, slot: int, method: str, eps_f: float
) -> list[CounterState]:
    """One lock-step slot of the counter recursion.

    Each agent looks at its closed in-neighborhood: h becomes the minimum
    of min(h, c) there plus one, and c grows while the method's test
    holds there (Method I: every gap at most eps_f; Method II: the gap
    sum, a left fold from the own gap through the in-neighbors ascending,
    at most eps_f), else resets to 0.
    """
    out = []
    for i in range(1, schedule.m + 1):
        neighborhood = [counters[j - 1] for j in (i,) + edge_scan_in_neighbors(schedule, i, slot)]
        gaps = [n.e for n in neighborhood]
        ok = all(e <= eps_f for e in gaps) if method == "I" else functools.reduce(operator.add, gaps) <= eps_f
        own = counters[i - 1]
        h = min(min(n.h, n.c) for n in neighborhood) + 1
        out.append(CounterState(h=h, c=own.c + 1 if ok else 0, e=own.e))
    return out


def per_slot_stopping_round(
    gaps: list[float],
    schedule: GraphSchedule,
    method: str,
    eps_f: float,
    start_slot: int = 0,
) -> tuple[bool, int, list[CounterState]]:
    """One stopping round of T*(m-1)+1 slots of :func:`step_counters`."""
    if len(gaps) != schedule.m:
        raise ValueError("one gap value per agent required")
    if method not in ("I", "II"):
        raise ValueError("method must be 'I' or 'II'")
    threshold = stop_threshold(schedule)
    counters = [CounterState(e=e) for e in gaps]
    for offset in range(threshold):
        counters = step_counters(counters, schedule, start_slot + offset, method, eps_f)
    stop = any(c.h >= threshold for c in counters)
    if stop and not all(c.h >= threshold for c in counters):
        if method == "I":
            raise NumericalFailure("Method I stop must be simultaneous across agents")
        logger.warning("Method II stop was not simultaneous across agents")
    return stop, threshold, counters


# The solver's minimize and solve before their per-call numpy overhead was
# trimmed, verbatim except for the names and shortened docstrings, as a
# bitwise oracle: the trimmed solver must give the same iterates to the
# last bit.


def _ref_project(x: Vector, box: Vector) -> Vector:
    return np.clip(x, box[:, 0], box[:, 1])


def _ref_kkt_residual(x: Vector, grad: Vector, jac: np.ndarray, multipliers, box: Vector) -> float:
    """|| x - proj_box(x - (grad f + sum lambda_j grad c_j)) ||, lambda zero when omitted."""
    if multipliers is not None and len(jac):
        grad = grad + jac.T @ np.asarray(multipliers)
    return float(np.linalg.norm(x - _ref_project(x - grad, box)))


def _ref_projected_gradient(x: Vector, grad: Vector, box: Vector) -> float:
    return float(np.max(np.abs(x - _ref_project(x - grad, box))))


def _ref_require_finite(f: float, grad: Vector, where: str) -> None:
    # Non-finite values spread into the Newton direction, and a NaN trial
    # point never equals x and fails every test, so halving would not end.
    if not (math.isfinite(f) and np.isfinite(grad).all()):
        raise NumericalFailure(f"non-finite objective or gradient {where}")


def reference_minimize(fun_grad, x0: Vector, box: Vector, max_iter: int) -> MinimizeResult:
    """Minimize a smooth convex ``fun_grad(x) -> (f, grad, hess)`` over a box; ``hess()`` is the Hessian."""
    lo, hi = box[:, 0], box[:, 1]
    x = _ref_project(np.asarray(x0, dtype=float), box)
    f, grad, hess = fun_grad(x)
    _ref_require_finite(f, grad, "at the start point")
    nit, nfev = 0, 1
    while nit < max_iter:
        pg = _ref_projected_gradient(x, grad, box)
        if pg <= 1e-12:
            break
        eps = min(1e-3, pg)
        active = ((x <= lo + eps) & (grad > 0.0)) | ((x >= hi - eps) & (grad < 0.0))
        free = np.flatnonzero(~active)
        d = -grad
        if len(free):
            hessian = hess() if len(free) == len(x) else hess()[np.ix_(free, free)]
            if not np.isfinite(hessian).all():
                raise NumericalFailure("non-finite Hessian")
            w, v = np.linalg.eigh(0.5 * (hessian + hessian.T))
            w = np.maximum(w, 1e-8 * max(1.0, float(np.max(np.abs(w)))))
            d[free] = -(v @ ((v.T @ grad[free]) / w))
        alpha, accepted = 1.0, False
        while not accepted:
            x_new = _ref_project(x + alpha * d, box)
            if np.array_equal(x_new, x):
                break
            f_new, grad_new, hess_new = fun_grad(x_new)
            nfev += 1
            armijo = f + 1e-4 * float(grad @ (x_new - x))
            if armijo < f:
                accepted = f_new <= armijo
            elif armijo == f:
                # The predicted decrease is invisible in f: take the full
                # step only if it shrinks the projected gradient, else x
                # is as good as floats allow.
                accepted = alpha == 1.0 and _ref_projected_gradient(x_new, grad_new, box) < pg
                if not accepted:
                    break
            alpha *= 0.5
        if not accepted:
            break
        _ref_require_finite(f_new, grad_new, "at an accepted iterate")
        x, f, grad, hess = x_new, f_new, grad_new, hess_new
        nit += 1
    return MinimizeResult(x, nit, nfev)


def _ref_cut_curvature(jac: np.ndarray, cut_hess: np.ndarray, weights: np.ndarray, scale: float) -> np.ndarray:
    """``scale * J_A^T J_A + sum_j weights_j * cut_hess_j`` over A = {j : weights_j > 0}."""
    on = weights > 0.0
    rows = jac[on]
    return scale * (rows.T @ rows) + (weights[on, None, None] * cut_hess[on]).sum(axis=0)


def _ref_feasibility_phase(problem: FiniteSubproblem) -> float:
    """Minimize the sum of squared violations; returns the residual max violation."""

    def fun_grad(x):
        _, _, c, jac, _, cut_hess = problem.evaluate(x)
        pos = np.maximum(c, 0.0)
        grad = jac.T @ pos if len(c) else np.zeros(problem.n)
        return 0.5 * float(pos @ pos), grad, lambda: _ref_cut_curvature(jac, cut_hess, pos, 1.0)

    x = reference_minimize(fun_grad, problem.box.mean(axis=1), problem.box, MAX_INNER).x
    c = problem.evaluate(x)[2]
    return float(max(0.0, c.max())) if len(c) else 0.0


def _ref_kkt_satisfied(x: Vector, grad: Vector, c: np.ndarray, jac: np.ndarray, lam_next: np.ndarray, box: Vector) -> bool:
    """The exit test: feasibility, the projected KKT residual and complementarity."""
    viol = float(max(0.0, c.max())) if len(c) else 0.0
    complementarity = float(np.max(lam_next * np.abs(c))) if len(c) else 0.0
    return (
        viol <= FEASIBILITY_TOL
        and _ref_kkt_residual(x, grad, jac, lam_next, box) <= STATIONARITY_TOL
        and complementarity <= STATIONARITY_TOL
    )


def reference_solve(problem: FiniteSubproblem, x0: Vector | None = None) -> SolveReport:
    """Solve the subproblem to ``FEASIBILITY_TOL`` and ``STATIONARITY_TOL``."""
    n_cuts = len(problem.cuts)
    x = problem.box.mean(axis=1) if x0 is None else x0
    lam = np.zeros(n_cuts)
    # The multiplier iteration converges linearly, faster as mu grows
    # (Bertsekas 1982; Nocedal & Wright, ch. 17).  The Newton inner solve
    # builds the penalty's curvature into its Hessian, so a base of 1000
    # costs it few extra steps.  The penalty grows while the iterate stays
    # infeasible and decays back to the base once the violation is within
    # tolerance, which bounds the curvature while stationarity is polished.
    mu_base, mu_cap = 1000.0, 1e8
    mu = mu_base
    prev_viol = math.inf
    status = SolveStatus.ITERATION_LIMIT
    phase_run = False

    for outer in range(1, MAX_OUTER + 1):

        def fun_grad(z, lam=lam, mu=mu):
            f, grad, c, jac, hess, cut_hess = problem.evaluate(z)
            if n_cuts:
                shifted = np.maximum(0.0, lam + mu * c)
                f += float((shifted @ shifted - lam @ lam) / (2.0 * mu))
                grad = grad + jac.T @ shifted
                # With every cut slack the penalty adds no curvature.
                if shifted.any():
                    return f, grad, lambda: hess + _ref_cut_curvature(jac, cut_hess, shifted, mu)
            return f, grad, lambda: hess

        x = reference_minimize(fun_grad, x, problem.box, MAX_INNER).x

        f, grad, c, jac, _, _ = problem.evaluate(x)
        if n_cuts:
            viol = float(max(0.0, c.max()))
            lam_next = np.maximum(0.0, lam + mu * c)
        else:
            viol = 0.0
            lam_next = lam

        if _ref_kkt_satisfied(x, grad, c, jac, lam_next, problem.box):
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
            # Still infeasible with the penalty at its cap: ask the problem, once.
            if mu >= mu_cap and not phase_run:
                if _ref_feasibility_phase(problem) > 1e-7:
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
        max_violation=float(max(0.0, c.max())) if n_cuts else 0.0,
        iterations=outer,
        status=status,
        multipliers=lam,
        cuts=problem.cuts,
    )
