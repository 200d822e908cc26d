"""Correctness checks on every returned run, independent of the solver.

For this constraint family, ``max_y g_i(x, y)`` over ``y in [-1, 1]`` is
attained at ``y = x2`` (the box keeps ``|x2| <= 1``), so the robust
feasible set is the box intersected with the unit discs centred at
``(v_i, 0)``.  The objective is ``sum ||x - c_i||^2 = m ||x - cbar||^2 +
const``.  The reference optimum is a dense-grid minimum over that set,
refined twice around the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import BOX, Job

CASE_STUDY_OPTIMUM = 38.68774606680623
FEASIBILITY_TOL = 1e-9
_CHUNK = 16  # grid rows per block, keeps the reference's memory small


@dataclass(frozen=True)
class Reference:
    value: float  # objective at the best feasible grid point, so value >= F*
    resolution: float  # how far above F* the grid minimum may sit


def objective(x: np.ndarray, centers: np.ndarray) -> float:
    cbar = centers.mean(axis=0)
    const = float((centers * centers).sum()) - len(centers) * float(cbar @ cbar)
    d = x - cbar
    return len(centers) * float(d @ d) + const


def _grid_min(centers, v, x1_lo, x1_hi, x2_lo, x2_hi, h):
    cbar = centers.mean(axis=0)
    x1 = np.arange(x1_lo, x1_hi + h / 2, h)
    x2 = np.arange(x2_lo, x2_hi + h / 2, h)[None, :]
    best, best_pt = math.inf, None
    for lo in range(0, len(x1), _CHUNK):
        a = x1[lo : lo + _CHUNK, None]
        feasible = np.ones((a.shape[0], x2.shape[1]), dtype=bool)
        for vi in v:
            feasible &= (a - vi) ** 2 + x2 * x2 - 1.0 <= 0.0
        if not feasible.any():
            continue
        dist = np.where(feasible, (a - cbar[0]) ** 2 + (x2 - cbar[1]) ** 2, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] < best:
            best, best_pt = float(dist[i, j]), np.array([float(a[i, 0]), float(x2[0, j])])
    return best_pt


def reference_optimum(centers: np.ndarray, v: np.ndarray) -> Reference:
    (b1_lo, b1_hi), (b2_lo, b2_hi) = BOX
    # Outside [max v - 1, min v + 1] some disc excludes every x2.
    h = 1e-3
    pt = _grid_min(centers, v, max(b1_lo, v.max() - 1.0), min(b1_hi, v.min() + 1.0), b2_lo, b2_hi, h)
    for _ in range(2):
        w, h = 2.5 * h, h / 100.0
        pt = _grid_min(
            centers, v,
            max(b1_lo, pt[0] - w), min(b1_hi, pt[0] + w),
            max(b2_lo, pt[1] - w), min(b2_hi, pt[1] + w),
            h,
        )
    grad = 2.0 * len(centers) * np.linalg.norm(pt - centers.mean(axis=0))
    value = objective(pt, centers)
    # A feasible grid point lies within a few steps of the optimum: the
    # set is a finite intersection of discs with non-degenerate corners.
    return Reference(value, 10.0 * grad * h + 1e-9 * abs(value))


def robust_violation(x: np.ndarray, v: np.ndarray) -> float:
    """max_i max_y g_i(x, y), in closed form for |x2| <= 1."""
    return float(np.max((x[0] - v) ** 2 + x[1] * x[1] - 1.0))


def check_run(job: Job, result, ref: Reference) -> list[str]:
    """Every way the returned result disagrees with what the run guarantees."""
    if not result.terminated:
        return [f"did not terminate within {job.params.max_iter} iterations"]
    problems = []
    lower, upper = result.final_lower, result.final_upper
    if not lower <= ref.value + ref.resolution:
        problems.append(f"lower {lower!r} above reference optimum {ref.value!r}")
    if not ref.value <= upper + ref.resolution:
        problems.append(f"upper {upper!r} below reference optimum {ref.value!r}")
    if not upper - lower <= result.accuracy_bound:
        problems.append(f"gap {upper - lower!r} exceeds accuracy bound {result.accuracy_bound!r}")
    x = result.x_opt[0]
    if any(not np.array_equal(xi, x) for xi in result.x_opt):
        problems.append("terminal points differ across agents")
    (b1_lo, b1_hi), (b2_lo, b2_hi) = BOX
    if not (b1_lo <= x[0] <= b1_hi and b2_lo <= x[1] <= b2_hi):
        problems.append(f"terminal point {x.tolist()} outside the box")
    if robust_violation(x, job.v) > FEASIBILITY_TOL:
        problems.append(f"terminal point {x.tolist()} is not robustly feasible")
    if abs(objective(x, job.centers) - upper) > 1e-9 * max(1.0, abs(upper)):
        problems.append("upper bound is not the objective at the terminal point")
    per_iteration = 3 * job.window * (job.instance.m - 1) + 1
    if any(rec.slots_consumed != per_iteration for rec in result.records):
        problems.append(f"an iteration did not use the protocol's {per_iteration} slots")
    return problems


def fingerprint(result) -> tuple:
    """What repeated runs of one job must reproduce bit for bit."""
    return (
        float(result.final_lower).hex(),
        float(result.final_upper).hex(),
        tuple(np.asarray(x, dtype=float).tobytes() for x in result.x_opt),
        result.iterations,
        sum(rec.slots_consumed for rec in result.records),
    )
