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
  which is monotone in gamma.  Safeguarded Newton steps locate the root,
  and the result is pinned to the endpoint of a fixed bisection path:
  the Newton points decide most of its midpoints without evaluating
  them, so the returned bits do not depend on the Newton iterates.
  Both bounds on a rate are active constraints: bands driven
  non-positive are excluded and the reduced system re-solved, and bands
  driven to the utilisation cap are pinned there and the others
  re-solved over the rate left.  The KKT signs of the bound bands are
  checked at the end.
* solve_closed_form: the paper's heavy-traffic split, lam_j(gamma) at the
  approximate multiplier gamma_approx rescaled onto the sum constraint;
  close to the optimum only when 2*lam is much larger than every mu_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BracketFailure, NoFeasibleBranch, Overload
from .model import RHO_MAX, BandStats

CLOSED_FORM = "closed_form_approx"
NUMERIC = "numeric_gamma"

# _GAMMA_BRACKET and _TOLERANCE define the bisection path whose endpoint
# _bisect_gamma returns, not the work it does: the Newton phase decides
# most midpoints of that path without evaluating them.
_GAMMA_BRACKET = (1e-12, 1.0)
_TOLERANCE = 1e-12
# A Newton point decides bisection midpoints only when its rounded sum
# clears lam by this relative margin, about 4 ulps of lam.  The replay is
# exact without it, as the rounded sum is monotone in gamma (see
# _bisect_gamma); the margin keeps a decision from resting on the last
# ulps of one comparison, and costs about one evaluation per root only
# at utilisations above 0.99.
_TRUST_RTOL = 1e-15
# Cap on Newton steps per root; the bisection replay returns the exact
# result however many ran.
_MAX_NEWTON = 50
# Slack of the KKT sign checks on bound bands, times max(gamma, 1): the
# bisection leaves gamma within _TOLERANCE * max(gamma, 1) of the root,
# and near the cap the marginal cost moves 2 / (1 - RHO_MAX) = 2000
# times faster than a rate, which magnifies its rounding.
_KKT_SLACK = 1e-8

# Per-band constants (mu, vbar, a, q, c) of lam_j(gamma); see _band_terms.
_Bands = list[tuple[float, float, float, float, float]]


@dataclass(frozen=True)
class LagrangeSolution:
    """Result of one solve.

    ``gamma`` is the sum-constraint multiplier, ``method`` NUMERIC from
    optimize or CLOSED_FORM from solve_closed_form.  ``lambdas`` holds
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
    two_lam = 2.0 * lambda_total
    out = []
    for mu, vbar, a, q, _ in _band_terms(stats, lambda_total):
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
    return LagrangeSolution(gamma, tuple(cand), CLOSED_FORM)


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
    _band_terms, and each term of the sum is lambda_star_given_gamma's,
    bit for bit, as both evaluate the same expression."""
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


def _locate(
    lambda_total: float, bands: _Bands, gamma: float, s: float, slope: float
) -> tuple[float, float]:
    """Verified bracket (below, above) of the root, about one bisection
    tolerance wide, found by safeguarded Newton from (gamma, s, slope), a
    point whose sum s is >= lam.

    ``below``'s rounded sum is < lam - margin (or undefined) and
    ``above``'s is >= lam + margin.  The starting point is kept as
    ``above`` whatever its margin: it is the top of the bisection path,
    so it decides no midpoint.  Newton runs in tau = (gamma - e)^(-1/2),
    where e >= 0 is the domain edge max_j(-A_j / B_j) of the radicands
    D_j = A_j + B_j * gamma, B_j = 2 * lam * mu_j * vbar_j (at e = 0, tau
    is t = gamma^(-1/2)).  Each rate is then
    mu_j - q_j * tau / sqrt(A'_j * tau^2 + B_j) with A'_j = D_j(e) >= 0,
    so the sum is convex and decreasing in tau, and Newton from above the
    root approaches it from above without overshooting.  A target outside
    the bracket is replaced by the bracket's geometric mean.  Each target
    is nudged above Newton's root by a quarter tolerance, or by the gamma
    step that moves the sum two margins if that is larger; once a step is
    that small, the target is nudged below instead, so the two closest
    points straddle the root.  A point within the margin doubles the
    nudge.
    """
    margin = _TRUST_RTOL * lambda_total
    two_lam = 2.0 * lambda_total
    edge = 0.0
    for mu, vbar, a, _, _ in bands:
        edge = max(edge, (2.0 * vbar - a) / (two_lam * mu * vbar))
    floor = max(edge, _GAMMA_BRACKET[0])
    quarter_tol = 0.25 * _TOLERANCE
    below, above = 0.0, gamma
    widen = 1.0
    nudge = 0.0
    for _ in range(_MAX_NEWTON):
        if s is None or s < lambda_total - margin:
            below = gamma
        elif s >= lambda_total + margin:
            above = gamma
        else:
            widen *= 2.0
        if slope > 0.0:
            # max() spelled out: these loops run on every root find.
            step = quarter_tol * (1.0 if gamma < 1.0 else gamma)
            push = 2.0 * margin / slope
            nudge = widen * (push if push > step else step)
        if above - below <= 4.0 * nudge:
            break
        lo = below if below > floor else floor
        target = math.inf
        if slope > 0.0:
            # Newton in tau: tau' = tau + (s - lam) / (2 u^(3/2) slope), u = gamma - e.
            u = gamma - edge
            tau = 1.0 / math.sqrt(u) + (s - lambda_total) / (2.0 * u * math.sqrt(u) * slope)
            if tau > 0.0:
                root = edge + 1.0 / (tau * tau)
                if s >= lambda_total and gamma - root <= 2.0 * nudge:
                    target = root - nudge
                else:
                    target = root + nudge
        gamma = target if lo < target < above else math.sqrt(lo * above)
        s, slope = _sum_minus_branch(gamma, bands, lambda_total)
    return below, above


def _bisect_gamma(
    lambda_total: float, stats: Sequence[BandStats]
) -> tuple[float, list[float]]:
    """Root of sum(lam_j(gamma)) = lam.

    lam_j(gamma) is increasing in gamma wherever its radicand is
    positive, so the sum crosses lam exactly once between the radicand
    domain edge and large gamma.  The result is the endpoint of a fixed
    bisection path from (_GAMMA_BRACKET[0], H), with H the first doubling
    of the bracket top whose sum reaches lam.  Newton locates the root
    (_locate) and the path pins the result.  The rounded sum is itself
    monotone in gamma: each operation on a gamma-dependent value in it is
    a correctly rounded +, -, sqrt, or * or / with a positive constant,
    and each of those is monotone in that value.  So a point whose
    rounded sum is verified below lam decides every midpoint under it,
    and one verified at or above lam every midpoint over it, without
    evaluating them; only midpoints between the two are evaluated.  The
    returned gamma and rates are those of the plain bisection, bit for
    bit.
    """
    bands = _band_terms(stats, lambda_total)
    lo = _GAMMA_BRACKET[0]
    hi = max(gamma_approx(lambda_total, [st.mu for st in stats]) * 2.0, _GAMMA_BRACKET[1])
    for _ in range(60):
        s, slope = _sum_minus_branch(hi, bands, lambda_total)
        if s is not None and s >= lambda_total:
            break
        hi *= 2.0
    else:
        raise BracketFailure(f"no sign change up to gamma={hi}")
    below, above = _locate(lambda_total, bands, hi, s, slope)
    tol = _TOLERANCE
    for _ in range(500):
        if hi - lo <= tol * (1.0 if hi < 1.0 else hi):
            break
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            s, _ = _sum_minus_branch(mid, bands, lambda_total)
            if s is None or s < lambda_total:
                lo = mid
            else:
                hi = mid
    return hi, lambda_star_given_gamma(hi, stats, lambda_total)


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
        gamma, lams = _bisect_gamma(rem, sub)
        drops = [j for j, lam in zip(active, lams) if lam <= 0.0]
        if drops:
            active = [j for j in active if j not in drops]
            if not active:
                raise NoFeasibleBranch("active-set exclusion emptied the band set")
            continue
        # Kill the bisection residual so the sum constraint holds exactly.
        scale = rem / sum(lams)
        full = [0.0] * m
        for j, lam in zip(active, lams):
            full[j] = lam * scale
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
    """Exact split via bisection on the multiplier, with active-set
    exclusion and utilisation caps, for any band count (one band gets
    the whole rate and its marginal cost as the multiplier);
    BracketFailure or NoFeasibleBranch when it cannot be found."""
    _validate_instance(lambda_total, stats)
    return _solve_active_set(lambda_total, stats)
