"""The multiplier's root find against the plain bisection it replaced.

``_reference_bisect_gamma`` is the gamma bisection the optimizer ran
before Newton steps found the root, kept verbatim (with the sum it
evaluated and its bracket and tolerance) as a test-side oracle, as
grid_oracle.solve_grid is for the split.  On random instances with
M = 2..6 at light and heavy load, with radicand domain edges above the
old bracket floor, with bands that active-set exclusion drops and with
small multipliers, ``optimize`` must meet the KKT conditions to 1e-9
relative, and must exclude and cap the same bands, or raise the same
error, as it does with the oracle in place of ``_root_gamma``.  A second
test checks one-band solves, and a third counts sum evaluations per
root find.
"""

import math
from typing import Sequence

import numpy as np

import bandsplit.optimizer as optimizer
from bandsplit.errors import BracketFailure, OptimizerError
from bandsplit.model import RHO_MAX, BandStats
from bandsplit.optimizer import gamma_approx, lambda_star_given_gamma, optimize
from conftest import random_instance, random_stats
from test_optimizer import _assert_kkt

_GAMMA_BRACKET = (1e-12, 1.0)
_TOLERANCE = 1e-12


def _radicand(gamma: float, st: BandStats, lambda_total: float) -> float:
    return (
        st.mu**2 * st.vbar * st.x2
        - st.mu * st.v2
        + (2.0 * lambda_total * gamma * st.mu - 2.0) * st.vbar
    )


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


def _reference_bisect_gamma(
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


def _weak_band(rng):
    """A slow band with long, highly variable vacations: at light load
    the active set drops it."""
    mu = float(rng.uniform(0.3, 2.0))
    vbar = float(rng.uniform(0.5, 2.0))
    shape = float(rng.uniform(1.0, 3.0))
    spread = float(rng.uniform(20.0, 100.0))
    return BandStats(mu=mu, x2=shape / mu**2, vbar=vbar, v2=spread * vbar**2)


def _instances(n, seed):
    """n instances cycling M = 2..6, 0-2 weak bands, light and heavy
    load; in every fifth instance one band's vacation moments sit at the
    estimator's floor (vbar 1e-9 s), as for an all-zero vacation window."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        m = 2 + i % 5
        weak = min(i % 3, m - 1)
        stats = [random_stats(rng) for _ in range(m - weak)]
        stats += [_weak_band(rng) for _ in range(weak)]
        if i % 5 == 0:
            mu = stats[0].mu
            stats[0] = BandStats(mu=mu, x2=stats[0].x2, vbar=1e-9, v2=1e-18)
        stats = [stats[j] for j in rng.permutation(m)]
        load = (0.05, 0.4) if i % 2 else (0.8, 0.99)
        yield float(rng.uniform(*load)) * sum(st.mu for st in stats), stats


def _small_gamma_instances(n, seed):
    """n instances cycling M = 2..6 with mu log-uniform in 1-1,000 pps,
    vbar log-uniform in 1e-6-1 s and load 0.5-0.9989: fast bands and
    short vacations put gamma far below 1."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        stats = []
        for _ in range(2 + i % 5):
            mu = float(np.exp(rng.uniform(0.0, math.log(1e3))))
            vbar = float(np.exp(rng.uniform(math.log(1e-6), 0.0)))
            shape = float(rng.uniform(1.0, 3.0))
            v2 = float(rng.uniform(1.0, 2.5)) * vbar**2
            stats.append(BandStats(mu=mu, x2=shape / mu**2, vbar=vbar, v2=v2))
        yield float(rng.uniform(0.5, 0.9989)) * sum(st.mu for st in stats), stats


def _domain_edge(lambda_total, stats):
    # max_j(-A_j / B_j) for D_j(gamma) = A_j + B_j * gamma.
    return max(
        (st.mu * st.v2 + 2.0 * st.vbar - st.mu**2 * st.vbar * st.x2)
        / (2.0 * lambda_total * st.mu * st.vbar)
        for st in stats
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OptimizerError as exc:
        return type(exc)


def _active_set(sol, stats):
    """The excluded and the capped bands of a solution, or its error type."""
    if isinstance(sol, type):
        return sol
    excluded = [j for j, x in enumerate(sol.lambdas) if x == 0.0]
    capped = [j for j, (x, st) in enumerate(zip(sol.lambdas, stats)) if x == RHO_MAX * st.mu]
    return excluded, capped


def _check_against_reference(instances, monkeypatch):
    """KKT on every solution, and the oracle's active set or error type
    on every instance; returns the solutions (error types included)."""
    sols = []
    for lam, stats in instances:
        sol = _outcome(optimize, lam, stats)
        with monkeypatch.context() as mp:
            mp.setattr(optimizer, "_root_gamma", _reference_bisect_gamma)
            expected = _active_set(_outcome(optimize, lam, stats), stats)
        assert _active_set(sol, stats) == expected, (lam, stats)
        if not isinstance(sol, type):
            _assert_kkt(sol, stats, lam)
        sols.append(sol)
    return sols


def test_root_find_meets_kkt_and_matches_the_reference_active_set(monkeypatch):
    n = 2400
    instances = list(_instances(n, seed=7))
    sols = _check_against_reference(instances, monkeypatch)
    edges = sum(_domain_edge(lam, stats) > _GAMMA_BRACKET[0] for lam, stats in instances)
    drops = {1: 0, 2: 0}
    for sol in sols:
        if not isinstance(sol, type) and sol.lambdas.count(0.0) in drops:
            drops[sol.lambdas.count(0.0)] += 1
    assert edges >= n // 2
    assert drops[1] >= 100 and drops[2] >= 50


def test_small_gamma_roots_meet_kkt(monkeypatch):
    # The reference bisection's stop is absolute below gamma = 1, so there
    # its free bands' marginal costs missed gamma by up to 5.2e-6 here.
    sols = _check_against_reference(_small_gamma_instances(3000, seed=3), monkeypatch)
    assert sum(not isinstance(sol, type) and sol.gamma < 1e-2 for sol in sols) >= 1000


def test_one_band_solve_returns_the_rate_and_its_marginal_cost():
    # The sum constraint pins a lone band's rate to lam; the multiplier
    # is then that band's marginal cost.
    rng = np.random.default_rng(11)
    for i in range(400):
        st = random_stats(rng)
        if i % 4 == 0:
            st = BandStats(mu=st.mu, x2=st.x2, vbar=1e-9, v2=1e-18)
        lam = float(rng.uniform(0.01, 0.9989)) * st.mu
        sol = optimize(lam, [st])
        assert sol.lambdas == (lam,) and sol.method == optimizer.NUMERIC
        marginal = optimizer._marginal(lam, st, lam)
        assert abs(sol.gamma - marginal) <= 1e-12 * marginal, (lam, st)


def _four_band_feedback_stats():
    """The service shapes of the benchmark's four_band_feedback bands
    (deterministic 0.02 s, exponential 0.04 s, lognormal mu_log -3 /
    sigma_log 0.5, deterministic 0.1 s) with fixed vacation moments."""
    ln_mean = math.exp(-3.0 + 0.5**2 / 2.0)
    ln_x2 = math.exp(2.0 * -3.0 + 2.0 * 0.5**2)
    service = [(50.0, 0.02**2), (25.0, 2.0 * 0.04**2), (1.0 / ln_mean, ln_x2), (10.0, 0.1**2)]
    vacations = [(0.01, 2e-4), (0.02, 6e-4), (0.03, 1.2e-3), (0.05, 4e-3)]
    return [
        BandStats(mu=mu, x2=x2, vbar=vb, v2=v2) for (mu, x2), (vb, v2) in zip(service, vacations)
    ]


def test_root_find_costs_at_most_15_sum_evaluations(monkeypatch):
    # Counts, not times, so host load cannot move the result.  At the
    # flow's 40 pps the active set drops band 3 and solves twice; the
    # plain bisection spends 42-43 evaluations per root here.  Near
    # capacity the sum is steep in gamma, and a stop rule that lets two
    # iterates one ulp of the sum apart swap would run to the step cap.
    sum_minus_branch, root_gamma = optimizer._sum_minus_branch, optimizer._root_gamma
    sums = 0
    per_root = []

    def counted_sum(*args):
        nonlocal sums
        sums += 1
        return sum_minus_branch(*args)

    def counted_root(*args):
        before = sums
        out = root_gamma(*args)
        per_root.append(sums - before)
        return out

    monkeypatch.setattr(optimizer, "_sum_minus_branch", counted_sum)
    monkeypatch.setattr(optimizer, "_root_gamma", counted_root)
    sol = optimize(40.0, _four_band_feedback_stats())
    assert sol.lambdas[3] == 0.0 and len(per_root) == 2
    assert max(per_root) <= 15, per_root
    rng = np.random.default_rng(99)
    for i in range(3000):
        lam, stats = random_instance(rng, 2 + i % 5, load=(0.99, 0.9989))
        _assert_kkt(optimize(lam, stats), stats, lam)
    assert max(per_root) <= 15, max(per_root)
