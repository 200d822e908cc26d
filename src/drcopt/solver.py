"""Deterministic solver for the finite convex subproblems.

Minimizes the sum of the agents' objectives over the shared box subject
to a finite, canonically ordered list of scenario cuts
g_a(x, y) <= rhs.  Method: augmented Lagrangian on the inequality
constraints with a box-constrained quasi-Newton inner solve, started
from the box center so identical inputs always yield identical outputs.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy
from scipy.optimize import minimize

from .problem import LocalObjective, ProblemInstance, SemiInfiniteConstraint, Vector

# (agent_id, insertion_index, scenario coords, rhs); the first two fields
# define the canonical ordering shared by every agent after flooding.
Cut = tuple[int, int, tuple[float, ...], float]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration-limit"


@dataclass(frozen=True)
class FiniteSubproblem:
    """Canonical finite convex program: sum of objectives + box + cuts."""

    objectives: tuple[LocalObjective, ...]
    constraint_functions: tuple[SemiInfiniteConstraint, ...]
    box: Vector
    cuts: tuple[Cut, ...]

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

    @property
    def n(self) -> int:
        return self.box.shape[0]

    def objective_value(self, x: Vector) -> float:
        return sum(f.evaluate(x) for f in self.objectives)

    def objective_gradient(self, x: Vector) -> Vector:
        g = np.zeros(self.n)
        for f in self.objectives:
            g = g + f.gradient(x)
        return g

    def constraint_values(self, x: Vector) -> np.ndarray:
        """c_j(x) = g_a(x, y_j) - rhs_j, violated when positive."""
        vals = np.empty(len(self.cuts))
        for k, (agent_id, _, scenario, rhs) in enumerate(self.cuts):
            g = self.constraint_functions[agent_id - 1]
            vals[k] = g.evaluate(x, np.asarray(scenario)) - rhs
        return vals

    def constraint_gradients(self, x: Vector) -> np.ndarray:
        grads = np.empty((len(self.cuts), self.n))
        for k, (agent_id, _, scenario, _) in enumerate(self.cuts):
            g = self.constraint_functions[agent_id - 1]
            grads[k] = g.x_gradient(x, np.asarray(scenario))
        return grads


def build_subproblem(instance: ProblemInstance, cuts: Sequence[Cut]) -> FiniteSubproblem:
    return FiniteSubproblem(
        objectives=instance.objectives,
        constraint_functions=instance.constraints,
        box=instance.box,
        cuts=tuple(sorted(cuts)),
    )


@dataclass(frozen=True)
class Tolerances:
    feasibility_tol: float = 1e-9
    stationarity_tol: float = 1e-8
    max_outer: int = 1000
    max_inner: int = 500


@dataclass(frozen=True)
class SolveReport:
    minimizer: Vector
    objective_value: float
    max_violation: float
    iterations: int
    status: SolveStatus
    multipliers: np.ndarray = field(default=None, repr=False)


def _project(x: Vector, box: Vector) -> Vector:
    return np.clip(x, box[:, 0], box[:, 1])


def stationarity_residual(problem: FiniteSubproblem, x: Vector, multipliers=None) -> float:
    """Norm of the projected KKT direction at x.

    Uses the supplied constraint multipliers (zero when omitted): the
    residual is || x - proj_box(x - (grad f + sum lambda_j grad c_j)) ||.
    """
    grad = problem.objective_gradient(x)
    if multipliers is not None and len(problem.cuts):
        grad = grad + problem.constraint_gradients(x).T @ np.asarray(multipliers)
    return float(np.linalg.norm(x - _project(x - grad, problem.box)))


def _inner_minimize(fun_grad, x0: Vector, box: Vector, max_inner: int) -> Vector:
    bounds = [(float(lo), float(hi)) for lo, hi in box]
    res = minimize(
        fun_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        # ftol far below float resolution: stop only on the gradient test
        # or outright stagnation, never on a small-but-nonzero f change.
        options={"maxiter": max_inner, "ftol": 1e-22, "gtol": 1e-12},
    )
    return res.x


def _feasibility_phase(problem: FiniteSubproblem, tolerances: Tolerances) -> float:
    """Minimize the sum of squared violations; returns the residual max violation."""

    def fun_grad(x):
        c = problem.constraint_values(x)
        pos = np.maximum(c, 0.0)
        grad = problem.constraint_gradients(x).T @ pos if len(c) else np.zeros(problem.n)
        return 0.5 * float(pos @ pos), grad

    x = problem.box.mean(axis=1)
    for _ in range(20):
        x = _inner_minimize(fun_grad, x, problem.box, tolerances.max_inner)
    c = problem.constraint_values(x)
    return float(max(0.0, c.max())) if len(c) else 0.0


@functools.cache
def _openblas_set_num_threads_local():
    """``openblas_set_num_threads_local`` of scipy's bundled OpenBLAS, or None.

    The function sets the calling thread's BLAS thread count and returns
    the previous one.  It is None when scipy links another BLAS (conda,
    distro and MKL builds) or its OpenBLAS predates the symbol.
    """
    package = Path(scipy.__file__).parent
    for lib_dir in (package.parent / "scipy.libs", package / ".dylibs"):
        for path in sorted(lib_dir.glob("libscipy_openblas*")):
            try:
                set_local = ctypes.CDLL(str(path)).openblas_set_num_threads_local
            except (OSError, AttributeError):
                continue
            set_local.argtypes = [ctypes.c_int]
            set_local.restype = ctypes.c_int
            return set_local
    return None


@contextmanager
def single_blas_thread():
    """Run the body with one scipy OpenBLAS thread on the calling thread.

    The subproblems have a handful of variables, so a second BLAS thread
    has no work to share; once woken it spins and doubles the process CPU
    time.  At these sizes OpenBLAS does not split an operation between
    threads, so results are bitwise the same either way.  Without a
    bundled OpenBLAS this does nothing.
    """
    set_local = _openblas_set_num_threads_local()
    if set_local is None:
        yield
        return
    previous = set_local(1)
    try:
        yield
    finally:
        set_local(previous)


@single_blas_thread()
def solve(problem: FiniteSubproblem, tolerances: Tolerances = Tolerances()) -> SolveReport:
    """Solve the subproblem to the configured feasibility and stationarity tolerances.

    Deterministic: the start point is always the box center and every
    step is a pure function of the canonical input.  Runs on one BLAS
    thread (see :func:`single_blas_thread`).
    """
    x = problem.box.mean(axis=1)
    n_cuts = len(problem.cuts)
    lam = np.zeros(n_cuts)
    # The penalty moves in both directions: growth speeds the multiplier
    # iteration while the iterate is infeasible, but a large mu leaves the
    # inner problem too ill-conditioned to polish stationarity, so it
    # decays back to the base value once the violation is within tolerance.
    mu_base, mu_cap = 10.0, 1e8
    mu = mu_base
    prev_viol = math.inf
    stalled = 0

    for outer in range(1, tolerances.max_outer + 1):

        def fun_grad(z, lam=lam, mu=mu):
            f = problem.objective_value(z)
            grad = problem.objective_gradient(z)
            if n_cuts:
                c = problem.constraint_values(z)
                shifted = np.maximum(0.0, lam + mu * c)
                f += float((shifted @ shifted - lam @ lam) / (2.0 * mu))
                grad = grad + problem.constraint_gradients(z).T @ shifted
            return f, grad

        x = _inner_minimize(fun_grad, x, problem.box, tolerances.max_inner)

        if n_cuts:
            c = problem.constraint_values(x)
            viol = float(max(0.0, c.max()))
            lam_next = np.maximum(0.0, lam + mu * c)
        else:
            viol = 0.0
            lam_next = lam

        residual = stationarity_residual(problem, x, lam_next)
        if viol <= tolerances.feasibility_tol and residual <= tolerances.stationarity_tol:
            return SolveReport(
                minimizer=x,
                objective_value=problem.objective_value(x),
                max_violation=viol,
                iterations=outer,
                status=SolveStatus.OPTIMAL,
                multipliers=lam_next,
            )

        lam = lam_next
        if viol > tolerances.feasibility_tol:
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

    residual_viol = _feasibility_phase(problem, tolerances)
    status = SolveStatus.INFEASIBLE if residual_viol > 1e-7 else SolveStatus.ITERATION_LIMIT
    return SolveReport(
        minimizer=x,
        objective_value=problem.objective_value(x),
        max_violation=float(max(0.0, problem.constraint_values(x).max())) if n_cuts else 0.0,
        iterations=tolerances.max_outer,
        status=status,
        multipliers=lam,
    )
