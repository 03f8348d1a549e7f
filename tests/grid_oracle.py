"""Exhaustive simplex grid search over the rate split, with zoom
refinement around the incumbent: an independent reference for
``optimize``.  It shares nothing with the exact solver but the instance
check, the cap RHO_MAX * mu_j on each rate, and the delay formula,
which ``grid_objective`` vectorizes.  Supports M <= 4.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from bandsplit.model import RHO_MAX, BandStats
from bandsplit.optimizer import _validate_instance

_GRID_RESOLUTION = 256
_GRID_REFINE_ROUNDS = 2


def grid_objective(
    lams: np.ndarray, stats: Sequence[BandStats], lambda_total: float
) -> np.ndarray:
    """Vectorized objective over an array of allocations, shape (..., M).

    Mirrors band_delay/aggregate_delay for stable inputs; unstable points
    must be masked out by the caller.
    """
    total = np.zeros(lams.shape[:-1])
    for j, st in enumerate(stats):
        lam = lams[..., j]
        t_j = lam * st.x2 / (2.0 * (1.0 - lam / st.mu)) + st.v2 / (2.0 * st.vbar) + 1.0 / st.mu
        total = total + t_j * lam
    return total / lambda_total


def _grid_pass(
    lambda_total: float,
    stats: Sequence[BandStats],
    window: tuple[tuple[float, float], ...],
    n: int,
) -> tuple[np.ndarray, float]:
    """Best point of an n-per-axis grid over the M-1 free rates in
    ``window``; the last rate is what the sum leaves."""
    axes = [np.linspace(lo, hi, n) for lo, hi in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    free = np.stack([g.ravel() for g in mesh], axis=-1)
    last = lambda_total - free.sum(axis=-1)
    ok = (last > 0.0) & (last <= RHO_MAX * stats[-1].mu)
    for j in range(free.shape[-1]):
        ok &= free[:, j] > 0.0
    free = free[ok]
    if free.size == 0:
        raise ValueError("grid found no feasible points in window")
    pts = np.concatenate([free, (lambda_total - free.sum(axis=-1))[:, None]], axis=-1)
    vals = grid_objective(pts, stats, lambda_total)
    best = int(np.argmin(vals))
    return pts[best], float(vals[best])


def solve_grid(lambda_total: float, stats: Sequence[BandStats]) -> tuple[float, ...]:
    """The best split the grid finds, as per-band rates summing to
    ``lambda_total``.  Raises ValueError for M > 4."""
    _validate_instance(lambda_total, stats)
    m = len(stats)
    if m > 4:
        raise ValueError(f"grid oracle supports M <= 4, got {m}")
    if m == 1:
        return (float(lambda_total),)

    n = _GRID_RESOLUTION if m <= 3 else 64
    tiny = 1e-9 * lambda_total
    caps = [RHO_MAX * st.mu for st in stats]
    window = tuple(
        (
            max(tiny, lambda_total - sum(caps[k] for k in range(m) if k != j)),
            min(caps[j], lambda_total - tiny),
        )
        for j in range(m - 1)
    )
    best_pt, best_val = _grid_pass(lambda_total, stats, window, n)
    for _ in range(_GRID_REFINE_ROUNDS):
        steps = [(hi - lo) / (n - 1) for lo, hi in window]
        window = tuple(
            (
                max(tiny, best_pt[j] - 2.0 * steps[j]),
                min(min(RHO_MAX * stats[j].mu, lambda_total - tiny), best_pt[j] + 2.0 * steps[j]),
            )
            for j in range(m - 1)
        )
        pt, val = _grid_pass(lambda_total, stats, window, n)
        if val < best_val:
            best_pt, best_val = pt, val
    lams = list(best_pt)
    # Snap the dependent coordinate so the components sum exactly.
    lams[-1] = lambda_total - sum(lams[:-1])
    return tuple(float(x) for x in lams)
