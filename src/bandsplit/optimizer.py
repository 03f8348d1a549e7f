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
  re-solved over the rate left.  Which bands a root would exclude is
  certified from the rounded sum at the bands' zero-rate multipliers
  (_certified_drops), so a solve with no cap runs one root find, the
  one over the bands it keeps; a pass the certificate cannot settle
  runs its root as well.  The KKT signs of the bound bands are checked
  at the end.
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
# The active-set certificate (_certified_drops): its margin on the sum,
# times the bands' summed service rate, and the relative shift of its
# points off a band's zero-rate multiplier, which gives the band's
# rounded rate there a sure sign.
_CERT_TOL = 1e-5
_CERT_SHIFT = 1e-9
# The root find's bracket doubles from at least 1 for 60 evaluations, so
# it reaches every multiplier up to 2**59.
_BRACKET_REACH = 2.0**59

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
    tg = 2.0 * lambda_total * gamma
    out = []
    for mu, vbar, a, q, _ in bands:
        d = a + (tg * mu - 2.0) * vbar
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
        mu, vbar, x2 = st.mu, st.vbar, st.x2
        mu2 = mu**2
        q = mu2 * math.sqrt(vbar * x2)
        out.append((mu, vbar, mu2 * vbar * x2 - mu * st.v2, q, q * lambda_total * mu * vbar))
    return out


def _sum_minus_branch(
    gamma: float, bands: _Bands, lambda_total: float
) -> tuple[float | None, float]:
    """sum_j lam_j(gamma) and its slope, the closed form
    d/dgamma sum_j lam_j = sum_j mu_j^3 * lam * vbar_j * sqrt(vbar_j * x2_j)
    * D_j^(-3/2); (None, 0.0) below the domain.  ``bands`` comes from
    _band_terms, and each term of the sum is _rates', bit for bit, as
    both evaluate the same expression."""
    tg = 2.0 * lambda_total * gamma
    total = 0.0
    slope = 0.0
    for mu, vbar, a, q, c in bands:
        d = a + (tg * mu - 2.0) * vbar
        if d <= 0.0:
            return None, 0.0
        root = math.sqrt(d)
        total += mu - q / root
        slope += c / (d * root)
    return total, slope


def _root_gamma(lambda_total: float, bands: _Bands) -> tuple[float, list[float]]:
    """Root of sum(lam_j(gamma)) = lam over ``bands`` (from _band_terms),
    and the rates there.

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
    gamma = max(gamma_approx(lambda_total, [mu for mu, _, _, _, _ in bands]) * 2.0, 1.0)
    for _ in range(60):
        s, slope = _sum_minus_branch(gamma, bands, lambda_total)
        if s is not None and s >= lambda_total:
            break
        gamma *= 2.0
    else:
        raise BracketFailure(f"no sign change up to gamma={gamma}")
    edge = max([(2.0 * vbar - a) / (2.0 * lambda_total * mu * vbar) for mu, vbar, a, _, _ in bands])
    for _ in range(_MAX_NEWTON):
        # tau' = tau + (s - lam) / (2 u^(3/2) slope), u = gamma - e.
        u = gamma - edge
        root = math.sqrt(u)
        tau = 1.0 / root + (s - lambda_total) / (2.0 * u * root * slope)
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


def _certified_drops(lambda_total: float, bands: _Bands) -> list[int]:
    """The positions in ``bands`` that the active-set passes over them
    would drop, as far as that is certain without their roots.  A pass
    runs _root_gamma over the bands not yet dropped and drops those
    whose rates there are <= 0; the passes end at one that drops
    nothing.

    Each rate, as rounded, is non-decreasing in gamma, since every IEEE
    operation in it is monotone; so is their rounded sum.  Band j's rate
    crosses zero at z_j = (((q/mu)^2 - a) / vbar + 2) / (2 * lam * mu),
    and a pass drops the bands whose z_j lie above its root, so the
    passes drop a prefix of the bands sorted by z descending.  A pass is
    certain to drop the next ones, up to the k-th, when their rates are
    <= 0 at hi = z_(k) * (1 - _CERT_SHIFT) and its sum there exceeds lam
    by more than tol = _CERT_TOL * sum(mu): the root find stops within
    tol of lam (the tests bound it at tol / 100), so the root lies below
    hi, and the bracket reaches hi.  It is certain to keep the rest when
    their rates are > 0 at lo = z_(k+1) * (1 + _CERT_SHIFT) and its sum
    there falls short of lam by more than tol (a radicand <= 0 counts as
    a rate of -inf).  The next pass then drops nothing when its own sum
    at lo also falls short of lam by tol.  The first pass that is not
    certain ends the search.
    """
    n = len(bands)
    two_lam = 2.0 * lambda_total
    zs = []
    mu_sum = 0.0
    for mu, vbar, a, q, _ in bands:
        zs.append((((q / mu) ** 2 - a) / vbar + 2.0) / (two_lam * mu))
        mu_sum += mu
    order = sorted(range(n), key=zs.__getitem__, reverse=True)
    above = lambda_total + _CERT_TOL * mu_sum
    below = lambda_total - _CERT_TOL * mu_sum
    live = list(range(n))  # the bands not yet dropped, in band order

    def branch(gamma: float) -> tuple[list[float], float]:
        """The live bands' rates at gamma (by position) and their sum."""
        rates = [0.0] * n
        total = 0.0
        tg = two_lam * gamma
        for i in live:
            mu, vbar, a, q, _ = bands[i]
            d = a + (tg * mu - 2.0) * vbar
            rate = mu - q / math.sqrt(d) if d > 0.0 else -math.inf
            rates[i] = rate
            total += rate
        return rates, total

    settled = 0  # the certain passes drop order[:settled]
    for k in range(1, n):
        hi = zs[order[k - 1]] * (1.0 - _CERT_SHIFT)
        rates, total = branch(hi)
        if not (total > above and hi <= _BRACKET_REACH):
            break
        if max([rates[i] for i in order[settled:k]]) > 0.0:
            break
        rates, total = branch(zs[order[k]] * (1.0 + _CERT_SHIFT))
        if total < below:
            if min([rates[i] for i in order[k:]]) <= 0.0:
                break
            settled = k
            live = sorted(order[k:])
            # The next pass drops nothing if its own sum at this lo also
            # falls short of lam by tol.
            total = 0.0
            for i in live:
                total += rates[i]
            if total < below:
                break
    return order[:settled]


def _marginal(x: float, st: BandStats, lambda_total: float) -> float:
    """dF/dlam_j at lam_j = x: (T_j(x) + x * T_j'(x)) / lam, with
    T_j'(x) = x2_j / (2 * (1 - x / mu_j)^2)."""
    u = 1.0 - x / st.mu
    wait = x * st.x2 / (2.0 * u) * (1.0 + 1.0 / u)
    return (wait + st.v2 / (2.0 * st.vbar) + 1.0 / st.mu) / lambda_total


def _solve_active_set(lambda_total: float, stats: Sequence[BandStats]) -> LagrangeSolution:
    """Exact split with both bounds on each rate active.

    A pass solves the free bands over the rate the capped bands leave,
    excluding bands driven non-positive until none is.  Where it is
    certain, _certified_drops settles what the excluding passes drop
    without their roots, so that only the last pass, which drops
    nothing, runs _root_gamma; a pass it cannot settle runs its root
    and drops what the rates there say.  Each root runs on the bands
    and rate it would with a root in every pass, so the result, or the
    error, is the same bit for bit.  A band whose rate then reaches
    RHO_MAX * mu_j is pinned there, and the next pass re-solves every
    other band, excluded ones included.  Pinning moves rate onto the
    free bands, which raises gamma, so a pinned band stays pinned and at
    most M passes run.  The rates depend on lam * gamma alone, so a pass
    over the rate left ``rem`` yields the full problem's rates, and its
    multiplier scales by rem / lam.
    """
    m = len(stats)
    caps = [RHO_MAX * st.mu for st in stats]
    capped: list[int] = []
    rem = lambda_total
    active = list(range(m))
    terms = _band_terms(stats, rem)
    while True:
        bands = [terms[j] for j in active]
        drops = _certified_drops(rem, bands)
        if drops:
            active = [j for i, j in enumerate(active) if i not in drops]
            bands = [terms[j] for j in active]
        gamma, lams = _root_gamma(rem, bands)
        drops = [i for i, lam in enumerate(lams) if lam <= 0.0]
        if drops:
            active = [j for i, j in enumerate(active) if i not in drops]
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
        terms = _band_terms(stats, rem)
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
