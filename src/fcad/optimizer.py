"""Deterministic maximizers for the capacity optimizations.

One scheme, in one and two dimensions: a flat grid scan, then a steepest
stencil ascent from its best point with a halving step.  In two
dimensions it runs over the diagonal input simplex
{alpha, beta, delta >= 0, alpha + 2 beta + delta = 1}, parametrized by
(alpha, delta) with beta eliminated; in one dimension over an interval.
Both report the best point actually evaluated, so the returned value
always equals the objective at the returned point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

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
# interval search: grid intervals, and the stencil step below which refinement stops
_LINE_GRID_POINTS = 1000
_LINE_TOL = 1e-9
_MAX_MOVES_PER_LEVEL = 10_000
_SCAN_BLOCK = 1 << 16
# (di, dj) offsets of the refine stencil, centre excluded, in scan order
_STENCIL = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)], dtype=float).T
# offsets of the interval search's stencil, centre excluded, in scan order
_LINE_STENCIL = np.array([[-2.0, -1.0, 1.0, 2.0]])


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


def _ascend(grid_objective, feasible, stencil, value, best, h, tol):
    """Steepest stencil ascent from ``best``, a (dim,) point scoring ``value``.

    Each pass evaluates the feasible points ``best + h * stencil`` (stencil
    columns in their given order, ``feasible`` masking a (dim, n) array) in
    one ``grid_objective`` call on the n coordinate rows.  The ascent moves
    to the best of them while that beats the centre, ties keeping the first
    point, then halves ``h`` until it drops below ``tol``, so the returned
    value never falls under the starting one.  Boundary faces are evaluated
    directly, relying on the objective treating 0 log 0 as 0.

    Returns (value, point, evaluations, last step used).
    """
    evaluations = 0
    step = h
    while h >= tol:
        step = h
        for _ in range(_MAX_MOVES_PER_LEVEL):
            points = best[:, None] + stencil * h
            points = points[:, feasible(points)]
            values = np.asarray(grid_objective(*points), dtype=float)
            evaluations += values.size
            k = int(np.argmax(values))
            if not values[k] > value:
                break
            value, best = float(values[k]), points[:, k]
        h /= 2.0
    return value, best, evaluations, step


def _in_triangle(points):
    a, d = points
    return (a >= 0.0) & (d >= 0.0) & (a + d <= 1.0 + SIMPLEX_TOL)


def maximize_simplex(objective, grid_objective) -> OptimResult:
    """Grid scan of the (alpha, delta) triangle at ``COARSE_STEP`` followed
    by local refinement.

    The coarse scan walks alpha, then delta, in ascending order; ties keep
    the first point found, which makes the search deterministic.  The local
    stage is :func:`_ascend` on a 5x5 stencil, from half the grid step down
    to ``REFINE_TOL``.

    ``grid_objective`` takes (alpha, delta) numpy arrays and drives both
    the coarse scan and every stencil pass.  ``objective`` is the same
    function on a :class:`SimplexPoint`; it is called once, to score the
    returned point.
    """
    value, a, d, scanned = _scan_triangle(grid_objective, COARSE_STEP)
    # With h <= COARSE_STEP / 2 < 1/4 every point of the triangle keeps at
    # least one feasible stencil neighbour, so no pass is empty.
    _, best, refined, step = _ascend(
        grid_objective, _in_triangle, _STENCIL, value, np.array([a, d]), COARSE_STEP / 2.0, REFINE_TOL
    )
    point = SimplexPoint.from_alpha_delta(float(best[0]), float(best[1]))
    return OptimResult(float(objective(point)), point, scanned + refined, step)


def scan_simplex(grid_objective, step: float) -> OptimResult:
    """Exhaustive flat grid scan, the slow verification mode.

    ``grid_objective(alpha, delta)`` must broadcast over numpy arrays.
    """
    value, a, d, evaluations = _scan_triangle(grid_objective, step)
    return OptimResult(value, SimplexPoint.from_alpha_delta(a, d), evaluations, step)


def maximize_1d(objective, lo: float, hi: float) -> OptimResult:
    """Flat grid scan of [lo, hi] followed by local refinement.

    The scan evaluates ``_LINE_GRID_POINTS + 1`` evenly spaced abscissae,
    ends included, in one call; ties keep the first (lowest) point.  The
    grid protects the result when the objective is not unimodal.  The local
    stage is :func:`_ascend` on the stencil (-2, -1, 1, 2), from half the
    grid spacing down to ``_LINE_TOL``.  ``objective`` is only ever called
    with 1-D numpy arrays, so it must broadcast.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, _LINE_GRID_POINTS + 1)
    values = np.asarray(objective(xs), dtype=float)
    k = int(np.argmax(values))
    # With h <= spacing / 2 every point of [lo, hi] keeps at least one
    # feasible stencil neighbour, so no pass is empty.
    value, best, refined, step = _ascend(
        objective,
        lambda x: (x[0] >= lo) & (x[0] <= hi),
        _LINE_STENCIL,
        float(values[k]),
        xs[k : k + 1],
        0.5 * (hi - lo) / _LINE_GRID_POINTS,
        _LINE_TOL,
    )
    return OptimResult(value, float(best[0]), values.size + refined, step)
