"""Optimal rate split across bands.

Minimizes the arrival-weighted mean delay F(lam_1..lam_M) subject to
sum(lam_j) = lam, 0 < lam_j < mu_j.  F is strictly convex on that set, so
the stationarity system has a unique solution.  Setting dF/dlam_j equal to
a common multiplier ``gamma`` turns each band's condition into a quadratic
whose only root below mu_j is

    lam_j(gamma) = mu_j - mu_j^2 * sqrt(vbar_j * x2_j) / sqrt(D_j(gamma))
    D_j(gamma)   = mu_j^2 * vbar_j * x2_j - mu_j * v2_j
                   + (2 * lam * gamma * mu_j - 2) * vbar_j

(the other root exceeds mu_j and is never feasible).

* optimize: the exact split.  gamma is found by bisection on
  sum(lam_j(gamma)) - lam, which is monotone in gamma; bands driven
  non-positive are excluded and the reduced system re-solved (active
  set).  Falls back to the grid oracle if bracketing or the active-set
  step fails.
* solve_closed_form: the paper's heavy-traffic split, lam_j(gamma) at the
  approximate multiplier gamma_approx rescaled onto the sum constraint;
  close to the optimum only when 2*lam is much larger than every mu_j.
* solve_grid: exhaustive simplex grid search with zoom refinement, kept
  as an independent verification oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BracketFailure, DimensionTooLarge, NoFeasibleBranch, Overload
from .model import RHO_MAX, BandStats, RateAllocation, aggregate_delay

CLOSED_FORM = "closed_form_approx"
NUMERIC = "numeric_gamma"
GRID = "grid_fallback"

_GRID_RESOLUTION = 256
_GRID_REFINE_ROUNDS = 2
_GAMMA_BRACKET = (1e-12, 1.0)
_TOLERANCE = 1e-12


@dataclass(frozen=True)
class LagrangeSolution:
    """Result of one solve.

    ``gamma`` is the sum-constraint multiplier (NaN for the grid oracle),
    ``method`` one of CLOSED_FORM / NUMERIC / GRID.  ``alloc`` components
    are strictly positive except for bands excluded by the active-set
    step, which are exactly 0.0.
    """

    gamma: float
    alloc: RateAllocation
    objective: float
    method: str


def gamma_approx(lambda_total: float, mus: Sequence[float]) -> float:
    """Heavy-traffic approximation of the multiplier.

    gamma ~= (sum_j mu_j^(3/2))^2 / (2 * lam * (sum_j mu_j - lam)^2).
    """
    if any(mu <= 0 for mu in mus):
        raise ValueError("service rates must be positive")
    mu_sum = sum(mus)
    if lambda_total >= mu_sum:
        raise Overload(f"lambda={lambda_total} >= total capacity {mu_sum}")
    if lambda_total <= 0:
        raise ValueError("lambda_total must be positive")
    num = sum(mu**1.5 for mu in mus) ** 2
    return num / (2.0 * lambda_total * (mu_sum - lambda_total) ** 2)


def _radicand(gamma: float, st: BandStats, lambda_total: float) -> float:
    return (
        st.mu**2 * st.vbar * st.x2
        - st.mu * st.v2
        + (2.0 * lambda_total * gamma * st.mu - 2.0) * st.vbar
    )


def lambda_star_given_gamma(
    gamma: float, stats: Sequence[BandStats], lambda_total: float
) -> list[float]:
    """Per-band stationary rates lam_j(gamma) for a given multiplier.

    No feasibility guarantee; callers filter.  Raises NoFeasibleBranch
    when any radicand is non-positive.
    """
    out = []
    for st in stats:
        d = _radicand(gamma, st, lambda_total)
        if d <= 0.0:
            raise NoFeasibleBranch(f"radicand {d} <= 0 at gamma={gamma}")
        out.append(st.mu - st.mu**2 * math.sqrt(st.vbar * st.x2) / math.sqrt(d))
    return out


def _validate_instance(lambda_total: float, stats: Sequence[BandStats]) -> None:
    if not stats:
        raise ValueError("need at least one band")
    for st in stats:
        st.validate()
    cap = RHO_MAX * sum(st.mu for st in stats)
    if lambda_total >= cap:
        raise Overload(f"lambda={lambda_total} >= {RHO_MAX} * capacity ({cap})")
    if lambda_total <= 0:
        raise ValueError("lambda_total must be positive")


def _finish(
    gamma: float, lambdas: Sequence[float], stats: Sequence[BandStats], method: str
) -> LagrangeSolution:
    alloc = RateAllocation(lambdas)
    return LagrangeSolution(
        gamma=gamma, alloc=alloc, objective=aggregate_delay(alloc, stats), method=method
    )


def solve_closed_form(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Heavy-traffic split: lam_j(gamma_approx), rescaled onto the sum
    constraint.  Raises NoFeasibleBranch when the candidate is infeasible."""
    _validate_instance(lambda_total, stats)
    gamma = gamma_approx(lambda_total, [st.mu for st in stats])
    cand = lambda_star_given_gamma(gamma, stats, lambda_total)
    if any(lam <= 0.0 for lam in cand):
        raise NoFeasibleBranch(f"non-positive rate at gamma={gamma}")
    # The approximate gamma does not satisfy sum(cand) == lam exactly;
    # project onto the constraint before the feasibility check.
    scale = lambda_total / sum(cand)
    cand = [lam * scale for lam in cand]
    if any(lam > RHO_MAX * st.mu for lam, st in zip(cand, stats)):
        raise NoFeasibleBranch(f"rate above the utilisation cap at gamma={gamma}")
    return _finish(gamma, cand, stats, CLOSED_FORM)


def _sum_minus_branch(
    gamma: float, stats: Sequence[BandStats], lambda_total: float
) -> float | None:
    """sum_j lam_j(gamma), None below its domain."""
    total = 0.0
    for st in stats:
        d = _radicand(gamma, st, lambda_total)
        if d <= 0.0:
            return None
        total += st.mu - st.mu**2 * math.sqrt(st.vbar * st.x2) / math.sqrt(d)
    return total


def _bisect_gamma(
    lambda_total: float, stats: Sequence[BandStats]
) -> tuple[float, list[float]]:
    """Root of sum(lam_j(gamma)) = lam.

    lam_j(gamma) is non-decreasing in gamma wherever its radicand is
    positive, so the sum crosses lam exactly once between the radicand
    domain edge and large gamma.
    """
    lo = _GAMMA_BRACKET[0]
    hi = max(gamma_approx(lambda_total, [st.mu for st in stats]) * 2.0, _GAMMA_BRACKET[1])
    for _ in range(60):
        s = _sum_minus_branch(hi, stats, lambda_total)
        if s is not None and s >= lambda_total:
            break
        hi *= 2.0
    else:
        raise BracketFailure(f"no sign change up to gamma={hi}")
    for _ in range(500):
        if hi - lo <= _TOLERANCE * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        s = _sum_minus_branch(mid, stats, lambda_total)
        if s is None or s < lambda_total:
            lo = mid
        else:
            hi = mid
    return hi, lambda_star_given_gamma(hi, stats, lambda_total)


def _solve_active_set(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    m = len(stats)
    active = list(range(m))
    while True:
        sub = [stats[j] for j in active]
        gamma, lams = _bisect_gamma(lambda_total, sub)
        drops = [j for j, lam in zip(active, lams) if lam <= 0.0]
        if not drops:
            break
        active = [j for j in active if j not in drops]
        if not active:
            raise NoFeasibleBranch("active-set exclusion emptied the band set")
    # Kill the bisection residual so the sum constraint holds exactly.
    scale = lambda_total / sum(lams)
    full = [0.0] * m
    for j, lam in zip(active, lams):
        full[j] = lam * scale
    for j in active:
        if full[j] >= RHO_MAX * stats[j].mu:
            raise NoFeasibleBranch(f"band {j} at utilisation cap in numeric solution")
    return _finish(gamma, full, stats, NUMERIC)


def optimize(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Exact split via bisection on the multiplier with active-set
    exclusion; the grid oracle if bracketing or the active-set step fails.

    With one band the sum constraint pins the rate, so no search runs;
    that result carries the heavy-traffic multiplier and CLOSED_FORM.
    """
    _validate_instance(lambda_total, stats)
    if len(stats) == 1:
        return _finish(
            gamma_approx(lambda_total, [stats[0].mu]), [lambda_total], stats, CLOSED_FORM
        )
    try:
        return _solve_active_set(lambda_total, stats)
    except (BracketFailure, NoFeasibleBranch):
        return solve_grid(lambda_total, stats)


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


def _grid_axis(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _grid_pass_2d(
    lambda_total: float,
    stats: Sequence[BandStats],
    window: tuple[tuple[float, float], ...],
    n: int,
) -> tuple[np.ndarray, float]:
    x = _grid_axis(window[0][0], window[0][1], n)
    lam2 = lambda_total - x
    ok = (lam2 > 0.0) & (lam2 <= RHO_MAX * stats[1].mu) & (x > 0.0)
    x = x[ok]
    if x.size == 0:
        raise NoFeasibleBranch("grid found no feasible points in window")
    pts = np.stack([x, lambda_total - x], axis=-1)
    vals = grid_objective(pts, stats, lambda_total)
    best = int(np.argmin(vals))
    return pts[best], float(vals[best])


def _grid_pass_nd(
    lambda_total: float,
    stats: Sequence[BandStats],
    window: tuple[tuple[float, float], ...],
    n: int,
) -> tuple[np.ndarray, float]:
    axes = [_grid_axis(lo, hi, n) for lo, hi in window]
    mesh = np.meshgrid(*axes, indexing="ij")
    free = np.stack([g.ravel() for g in mesh], axis=-1)
    last = lambda_total - free.sum(axis=-1)
    ok = (last > 0.0) & (last <= RHO_MAX * stats[-1].mu)
    for j in range(free.shape[-1]):
        ok &= free[:, j] > 0.0
    free = free[ok]
    if free.size == 0:
        raise NoFeasibleBranch("grid found no feasible points in window")
    pts = np.concatenate([free, (lambda_total - free.sum(axis=-1))[:, None]], axis=-1)
    vals = grid_objective(pts, stats, lambda_total)
    best = int(np.argmin(vals))
    return pts[best], float(vals[best])


def solve_grid(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Exhaustive simplex grid search, with zoom refinement around the
    incumbent.  Verification oracle; supports M <= 4."""
    _validate_instance(lambda_total, stats)
    m = len(stats)
    if m > 4:
        raise DimensionTooLarge(f"grid oracle supports M <= 4, got {m}")
    if m == 1:
        return _finish(math.nan, [lambda_total], stats, GRID)

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
    search = _grid_pass_2d if m == 2 else _grid_pass_nd
    best_pt, best_val = search(lambda_total, stats, window, n)
    for _ in range(_GRID_REFINE_ROUNDS):
        steps = [(hi - lo) / (n - 1) for lo, hi in window]
        window = tuple(
            (
                max(tiny, best_pt[j] - 2.0 * steps[j]),
                min(min(RHO_MAX * stats[j].mu, lambda_total - tiny), best_pt[j] + 2.0 * steps[j]),
            )
            for j in range(m - 1)
        )
        pt, val = search(lambda_total, stats, window, n)
        if val < best_val:
            best_pt, best_val = pt, val
    lams = list(best_pt)
    # Snap the dependent coordinate so the components sum exactly.
    lams[-1] = lambda_total - sum(lams[:-1])
    return _finish(math.nan, lams, stats, GRID)
