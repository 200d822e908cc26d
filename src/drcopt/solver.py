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
from typing import Callable, Sequence

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
    _, grad, _, jac = problem.evaluate(x)
    return _kkt_residual(x, grad, jac, multipliers, problem.box)


def _kkt_residual(x: Vector, grad: Vector, jac: np.ndarray, multipliers, box: Vector) -> float:
    if multipliers is not None and len(jac):
        grad = grad + jac.T @ np.asarray(multipliers)
    return float(np.linalg.norm(x - _project(x - grad, box)))


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
        _, _, c, jac = problem.evaluate(x)
        pos = np.maximum(c, 0.0)
        grad = jac.T @ pos if len(c) else np.zeros(problem.n)
        return 0.5 * float(pos @ pos), grad

    x = problem.box.mean(axis=1)
    for _ in range(20):
        x = _inner_minimize(fun_grad, x, problem.box, tolerances.max_inner)
    _, _, c, _ = problem.evaluate(x)
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
            f, grad, c, jac = problem.evaluate(z)
            if n_cuts:
                shifted = np.maximum(0.0, lam + mu * c)
                f += float((shifted @ shifted - lam @ lam) / (2.0 * mu))
                grad = grad + jac.T @ shifted
            return f, grad

        x = _inner_minimize(fun_grad, x, problem.box, tolerances.max_inner)

        f, grad, c, jac = problem.evaluate(x)
        if n_cuts:
            viol = float(max(0.0, c.max()))
            lam_next = np.maximum(0.0, lam + mu * c)
        else:
            viol = 0.0
            lam_next = lam

        residual = _kkt_residual(x, grad, jac, lam_next, problem.box)
        if viol <= tolerances.feasibility_tol and residual <= tolerances.stationarity_tol:
            return SolveReport(
                minimizer=x,
                objective_value=f,
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
    f, _, c, _ = problem.evaluate(x)
    return SolveReport(
        minimizer=x,
        objective_value=f,
        max_violation=float(max(0.0, c.max())) if n_cuts else 0.0,
        iterations=tolerances.max_outer,
        status=status,
        multipliers=lam,
    )
