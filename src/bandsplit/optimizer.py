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

* optimize: the exact split.  gamma is the root of sum(lam_j(gamma)) - lam,
  which is monotone in gamma.  Newton steps in a transform of gamma in
  which the sum is convex fall onto the root from above (_root_gamma).
  Both bounds on a rate are active constraints: bands driven
  non-positive are excluded and the reduced system re-solved, and bands
  driven to the utilisation cap are pinned there and the others
  re-solved over the rate left.  The KKT signs of the bound bands are
  checked at the end.
* the paper's heavy-traffic split, lam_j(gamma_approx) rescaled onto the
  sum constraint, is a test reference (``tests/closed_form.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BracketFailure, NoFeasibleBranch, Overload
from .model import RHO_MAX, BandStats

NUMERIC = "numeric_gamma"

# Cap on Newton steps per root.  The stop rule of _root_gamma ends a root
# find long before it: the tests bound one at 15 sum evaluations.
_MAX_NEWTON = 50
# Slack of the KKT sign checks on bound bands, times max(gamma, 1).  The
# root leaves gamma within a few ulps of the sum's crossing, but near the
# cap the marginal cost moves 2 / (1 - RHO_MAX) = 2000 times faster than
# a rate, which magnifies the rates' rounding.
_KKT_SLACK = 1e-8

# Per-band constants (mu, vbar, a, q, c) of lam_j(gamma); see _band_terms.
_Bands = list[tuple[float, float, float, float, float]]


@dataclass(frozen=True)
class LagrangeSolution:
    """Result of one solve.

    ``gamma`` is the sum-constraint multiplier, ``method`` the solver
    that found it (NUMERIC from optimize).  ``lambdas`` holds
    the per-band rates in the order of the stats solved over, each
    strictly between 0 and RHO_MAX * mu_j except for bands at a bound of
    the active-set step: excluded bands are exactly 0.0 and capped bands
    exactly RHO_MAX * mu_j.
    """

    gamma: float
    lambdas: tuple[float, ...]
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


def lambda_star_given_gamma(
    gamma: float, stats: Sequence[BandStats], lambda_total: float
) -> list[float]:
    """Per-band stationary rates lam_j(gamma) for a given multiplier.

    No feasibility guarantee; callers filter.  Raises NoFeasibleBranch
    when any radicand is non-positive.
    """
    return _rates(gamma, _band_terms(stats, lambda_total), lambda_total)


def _rates(gamma: float, bands: _Bands, lambda_total: float) -> list[float]:
    """lam_j(gamma) from the per-band constants of _band_terms."""
    two_lam = 2.0 * lambda_total
    out = []
    for mu, vbar, a, q, _ in bands:
        d = a + (two_lam * gamma * mu - 2.0) * vbar
        if d <= 0.0:
            raise NoFeasibleBranch(f"radicand {d} <= 0 at gamma={gamma}")
        out.append(mu - q / math.sqrt(d))
    return out


def _validate_instance(lambda_total: float, stats: Sequence[BandStats]) -> None:
    """Checks what the stats alone cannot: a band set, a positive rate,
    and a total below capacity (measured stats can overload a band).
    Each BandStats checked its own moments when it was built."""
    if not stats:
        raise ValueError("need at least one band")
    cap = RHO_MAX * sum(st.mu for st in stats)
    if lambda_total >= cap:
        raise Overload(f"lambda={lambda_total} >= {RHO_MAX} * capacity ({cap})")
    if lambda_total <= 0:
        raise ValueError("lambda_total must be positive")


def _band_terms(stats: Sequence[BandStats], lambda_total: float) -> _Bands:
    """Per-band constants of lam_j(gamma): (mu, vbar, a, q, c) with
    a = mu^2 * vbar * x2 - mu * v2, q = mu^2 * sqrt(vbar * x2) and
    c = q * lam * mu * vbar for the slope.  The radicand is then
    D_j = a + (2 * lam * gamma * mu - 2) * vbar and the rate mu - q / sqrt(D_j)."""
    out = []
    for st in stats:
        q = st.mu**2 * math.sqrt(st.vbar * st.x2)
        a = st.mu**2 * st.vbar * st.x2 - st.mu * st.v2
        out.append((st.mu, st.vbar, a, q, q * lambda_total * st.mu * st.vbar))
    return out


def _sum_minus_branch(
    gamma: float, bands: _Bands, lambda_total: float
) -> tuple[float | None, float]:
    """sum_j lam_j(gamma) and its slope, the closed form
    d/dgamma sum_j lam_j = sum_j mu_j^3 * lam * vbar_j * sqrt(vbar_j * x2_j)
    * D_j^(-3/2); (None, 0.0) below the domain.  ``bands`` comes from
    _band_terms, and each term of the sum is _rates', bit for bit, as
    both evaluate the same expression."""
    two_lam = 2.0 * lambda_total
    total = 0.0
    slope = 0.0
    for mu, vbar, a, q, c in bands:
        d = a + (two_lam * gamma * mu - 2.0) * vbar
        if d <= 0.0:
            return None, 0.0
        root = math.sqrt(d)
        total += mu - q / root
        slope += c / (d * root)
    return total, slope


def _root_gamma(
    lambda_total: float, stats: Sequence[BandStats]
) -> tuple[float, list[float]]:
    """Root of sum(lam_j(gamma)) = lam, and the rates there.

    The start doubles from max(2 * gamma_approx, 1) until the sum reaches
    lam.  From there plain Newton steps run in tau = (gamma - e)^(-1/2),
    where e = max_j(-A_j / B_j) is the domain edge of the radicands
    D_j = A_j + B_j * gamma, B_j = 2 * lam * mu_j * vbar_j.  Each rate is
    then mu_j - q_j * tau / sqrt(A'_j * tau^2 + B_j) with A'_j = D_j(e) >= 0,
    so the sum is convex and decreasing in tau, and Newton from above the
    root falls onto it monotonically without overshooting (one band's
    rate is linear in tau, so one step lands, up to rounding).  The loop stops at the
    first iterate whose rounded sum is below lam, or at the first step
    that does not lower gamma: either is the root to the last ulps of
    the sum.
    """
    bands = _band_terms(stats, lambda_total)
    gamma = max(gamma_approx(lambda_total, [st.mu for st in stats]) * 2.0, 1.0)
    for _ in range(60):
        s, slope = _sum_minus_branch(gamma, bands, lambda_total)
        if s is not None and s >= lambda_total:
            break
        gamma *= 2.0
    else:
        raise BracketFailure(f"no sign change up to gamma={gamma}")
    edge = max((2.0 * vbar - a) / (2.0 * lambda_total * mu * vbar) for mu, vbar, a, _, _ in bands)
    for _ in range(_MAX_NEWTON):
        # tau' = tau + (s - lam) / (2 u^(3/2) slope), u = gamma - e.
        u = gamma - edge
        tau = 1.0 / math.sqrt(u) + (s - lambda_total) / (2.0 * u * math.sqrt(u) * slope)
        step = edge + 1.0 / (tau * tau)
        if not step < gamma:
            break
        gamma = step
        s, slope = _sum_minus_branch(gamma, bands, lambda_total)
        if s is None or s < lambda_total:
            break
    else:
        raise BracketFailure(f"no root after {_MAX_NEWTON} Newton steps, at gamma={gamma}")
    return gamma, _rates(gamma, bands, lambda_total)


def _marginal(x: float, st: BandStats, lambda_total: float) -> float:
    """dF/dlam_j at lam_j = x: (T_j(x) + x * T_j'(x)) / lam, with
    T_j'(x) = x2_j / (2 * (1 - x / mu_j)^2)."""
    u = 1.0 - x / st.mu
    wait = x * st.x2 / (2.0 * u) * (1.0 + 1.0 / u)
    return (wait + st.v2 / (2.0 * st.vbar) + 1.0 / st.mu) / lambda_total


def _solve_active_set(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Exact split with both bounds on each rate active.

    A pass solves the free bands over the rate the capped bands leave,
    excluding bands driven non-positive until none is.  A band whose
    rate then reaches RHO_MAX * mu_j is pinned there, and the next pass
    re-solves every other band, excluded ones included.  Pinning moves
    rate onto the free bands, which raises gamma, so a pinned band stays
    pinned and at most M passes run.  The rates depend on lam * gamma
    alone, so a pass over the rate left ``rem`` yields the full
    problem's rates, and its multiplier scales by rem / lam.
    """
    m = len(stats)
    caps = [RHO_MAX * st.mu for st in stats]
    capped: list[int] = []
    rem = lambda_total
    active = list(range(m))
    while True:
        sub = [stats[j] for j in active]
        gamma, lams = _root_gamma(rem, sub)
        drops = [j for j, lam in zip(active, lams) if lam <= 0.0]
        if drops:
            active = [j for j in active if j not in drops]
            if not active:
                raise NoFeasibleBranch("active-set exclusion emptied the band set")
            continue
        # Rescale onto the sum constraint, which the root meets only to
        # its last ulps; a lone band's rate is then exactly rem.
        total = sum(lams)
        full = [0.0] * m
        for j, lam in zip(active, lams):
            full[j] = lam / total * rem
        pins = [j for j in active if full[j] >= caps[j]]
        if not pins:
            break
        capped += pins
        active = [j for j in range(m) if j not in capped]
        if not active:
            raise NoFeasibleBranch("every band at its utilisation cap")
        rem = lambda_total - sum(caps[j] for j in capped)
    for j in capped:
        full[j] = caps[j]
    gamma *= rem / lambda_total
    slack = _KKT_SLACK * max(gamma, 1.0)
    for j in range(m):
        if full[j] == 0.0 and _marginal(0.0, stats[j], lambda_total) < gamma - slack:
            raise NoFeasibleBranch(f"excluded band {j}: marginal cost at 0 below gamma")
    for j in capped:
        if _marginal(caps[j], stats[j], lambda_total) > gamma + slack:
            raise NoFeasibleBranch(f"capped band {j}: marginal cost at the cap above gamma")
    return LagrangeSolution(gamma, tuple(full), NUMERIC)


def optimize(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Exact split via a Newton root find for the multiplier, with
    active-set exclusion and utilisation caps, for any band count (one
    band gets the whole rate and its marginal cost as the multiplier);
    BracketFailure or NoFeasibleBranch when it cannot be found."""
    _validate_instance(lambda_total, stats)
    return _solve_active_set(lambda_total, stats)
