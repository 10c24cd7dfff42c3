"""Deterministic maximizers for the capacity optimizations.

Two tools: a coarse-to-fine grid search over the diagonal input simplex
{alpha, beta, delta >= 0, alpha + 2 beta + delta = 1}, parametrized by
(alpha, delta) with beta eliminated, and a one-dimensional golden-section
search cross-checked against a flat grid.  Both report the best point
actually evaluated, so the returned value always equals the objective at
the returned point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt

import numpy as np

__all__ = [
    "OptimResult",
    "SimplexPoint",
    "maximize_1d",
    "maximize_simplex",
    "scan_simplex",
]

SIMPLEX_TOL = 1e-12
# simplex search: coarse grid step, and the stencil step below which refinement stops
COARSE_STEP = 1e-2
REFINE_TOL = 1e-7
_INV_PHI = (sqrt(5.0) - 1.0) / 2.0
_LINE_TOL = 1e-9
_LINE_GRID_POINTS = 1000
_MAX_MOVES_PER_LEVEL = 10_000
_SCAN_BLOCK = 1 << 16
# (di, dj) offsets of the refine stencil, centre excluded, in scan order
_STENCIL = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)], dtype=float).T


@dataclass(frozen=True)
class SimplexPoint:
    """Populations (alpha, beta, beta, delta) of a diagonal two-qubit state."""

    alpha: float
    beta: float
    delta: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name in ("alpha", "beta", "delta"):
            value = getattr(self, name)
            if not (value >= -SIMPLEX_TOL):
                raise ValueError(f"{name} must be nonnegative, got {value}")
        total = self.alpha + 2.0 * self.beta + self.delta
        if not (abs(total - 1.0) <= SIMPLEX_TOL):
            raise ValueError(f"populations must satisfy alpha + 2 beta + delta = 1, got {total}")

    @classmethod
    def from_alpha_delta(cls, alpha: float, delta: float) -> "SimplexPoint":
        return cls(alpha, max(0.0, 0.5 * (1.0 - alpha - delta)), delta)


@dataclass(frozen=True)
class OptimResult:
    """Best value found, where it was found, and search diagnostics."""

    value: float
    point: "SimplexPoint | float"
    evaluations: int
    grid_step_final: float


def _scan_triangle(grid_objective, step: float) -> tuple[float, float, float, int]:
    """Best point of the flat (alpha, delta) grid, as (value, alpha, delta, evaluations).

    Points are visited row-major (alpha, then delta), a block of whole rows
    of at most about ``_SCAN_BLOCK`` points per ``grid_objective`` call;
    ties keep the first point.
    """
    n = int(round(1.0 / step))
    if n * step > 1.0 + SIMPLEX_TOL:  # a step that does not divide 1 would overshoot the simplex
        n -= 1
    rows_per_block = max(1, _SCAN_BLOCK // (n + 1))
    evaluations = 0
    best_value, best_a, best_d = -inf, 0.0, 0.0
    for first in range(0, n + 1, rows_per_block):
        i, j = np.mgrid[first : min(first + rows_per_block, n + 1), 0 : n - first + 1]
        inside = i + j <= n
        alphas = i[inside] * step
        deltas = j[inside] * step
        values = np.asarray(grid_objective(alphas, deltas), dtype=float)
        evaluations += values.size
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value, best_a, best_d = float(values[k]), float(alphas[k]), float(deltas[k])
    return best_value, best_a, best_d, evaluations


def maximize_simplex(objective, grid_objective) -> OptimResult:
    """Grid scan of the (alpha, delta) triangle at ``COARSE_STEP`` followed
    by local refinement.

    The coarse scan walks alpha, then delta, in ascending order; ties keep
    the first point found, which makes the search deterministic.  The local
    stage is a steepest ascent on a 5x5 stencil: it moves to the best
    feasible stencil point while that beats the centre, then halves the
    step until it drops below ``REFINE_TOL``, so the reported value never
    falls under the coarse optimum.  Boundary faces are evaluated directly,
    relying on the objective treating 0 log 0 as 0.

    ``grid_objective`` takes (alpha, delta) numpy arrays and drives both
    the coarse scan and every stencil pass.  ``objective`` is the same
    function on a :class:`SimplexPoint`; it is called once, to score the
    returned point.
    """
    best_value, best_a, best_d, evaluations = _scan_triangle(grid_objective, COARSE_STEP)

    # With h <= COARSE_STEP / 2 < 1/4 every point of the triangle keeps at
    # least one feasible stencil neighbour, so no pass is empty.
    step = COARSE_STEP
    h = COARSE_STEP / 2.0
    while h >= REFINE_TOL:
        step = h
        for _ in range(_MAX_MOVES_PER_LEVEL):
            a = best_a + _STENCIL[0] * h
            d = best_d + _STENCIL[1] * h
            feasible = (a >= 0.0) & (d >= 0.0) & (a + d <= 1.0 + SIMPLEX_TOL)
            a, d = a[feasible], d[feasible]
            values = np.asarray(grid_objective(a, d), dtype=float)
            evaluations += values.size
            k = int(np.argmax(values))
            if not values[k] > best_value:
                break
            best_value, best_a, best_d = float(values[k]), float(a[k]), float(d[k])
        h /= 2.0

    point = SimplexPoint.from_alpha_delta(best_a, best_d)
    return OptimResult(float(objective(point)), point, evaluations, step)


def scan_simplex(grid_objective, step: float) -> OptimResult:
    """Exhaustive flat grid scan, the slow verification mode.

    ``grid_objective(alpha, delta)`` must broadcast over numpy arrays.
    """
    value, a, d, evaluations = _scan_triangle(grid_objective, step)
    return OptimResult(value, SimplexPoint.from_alpha_delta(a, d), evaluations, step)


def maximize_1d(objective, lo: float, hi: float) -> OptimResult:
    """Golden-section ascent cross-checked against a flat grid scan.

    Golden section assumes a unimodal objective; the grid pass protects
    the result when that assumption is off.  The better of the two
    candidates is returned (ties keep the golden-section point).

    The search stops once the bracket is narrower than ``_LINE_TOL``.
    ``objective`` is called with a float during the golden-section search
    and once with the 1-D array of all ``_LINE_GRID_POINTS + 1`` grid
    abscissae, so it must broadcast over numpy arrays.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    evaluations = 0
    best_x = lo
    best_f = -inf

    def consider(x: float, f: float) -> None:
        nonlocal best_x, best_f
        if f > best_f:
            best_x, best_f = x, f

    for x in (lo, hi):
        f = objective(x)
        evaluations += 1
        consider(x, f)

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = objective(c)
    fd = objective(d)
    evaluations += 2
    consider(c, fc)
    consider(d, fd)
    while b - a > _LINE_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
            evaluations += 1
            consider(c, fc)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
            evaluations += 1
            consider(d, fd)

    spacing = (hi - lo) / _LINE_GRID_POINTS
    xs = lo + spacing * np.arange(_LINE_GRID_POINTS + 1)
    fs = np.asarray(objective(xs), dtype=float)
    evaluations += fs.size
    k = int(np.argmax(fs))
    consider(float(xs[k]), float(fs[k]))

    return OptimResult(best_f, best_x, evaluations, min(b - a, spacing))
