"""The optimizer's root find and active-set step against the code they
replaced.

``_reference_bisect_gamma`` is the gamma bisection the optimizer ran
before Newton steps found the root, kept (with the sum it evaluated and
its bracket and tolerance) as a test-side oracle, as grid_oracle.solve_grid
is for the split; it reads the per-band constants of ``_band_terms``,
as ``_root_gamma`` does, which give its sum bit for bit.  On random
instances with M = 2..6 at light and heavy load, with radicand domain
edges above the old bracket floor, with bands that active-set exclusion
drops and with small multipliers, ``optimize`` must meet the KKT
conditions to 1e-9 relative, and must exclude and cap the same bands, or
raise the same error, as the two-pass active-set step does with the
oracle as its root find.  A second test checks one-band solves.

``_reference_solve_active_set`` is the active-set step that ran a root
find in every pass to learn which bands to drop, kept verbatim as the
replay reference but for its root call, which passes the per-band
constants that ``_root_gamma`` now takes.  ``optimize`` certifies those drops instead
(``_certified_drops``) and runs one root per solve: on every solve that
the feedback runs of the benchmark's four_band_feedback and the golden
three_band configs make, on 10,000 random ones, near capacity and at
the loads where one more band is excluded, it must return the
reference's ``(gamma, lambdas)`` bit for bit, or raise its error, with
no more root finds.  A third test checks the facts the certificate
rests on, and the last two count root finds and their sum evaluations.
"""

import math
from dataclasses import replace

import numpy as np

import bandsplit.optimizer as optimizer
from bandsplit.errors import BracketFailure, NoFeasibleBranch, OptimizerError
from bandsplit.model import RHO_MAX, BandStats
from bandsplit.optimizer import gamma_approx, optimize
from bandsplit.runner import run_suite
from bandsplit.schedulers import SchedulerSpec
from conftest import random_instance, random_stats
from test_engine import _four_band_cfg
from test_golden_records import CASES as GOLDEN_CASES
from test_optimizer import _assert_kkt

_GAMMA_BRACKET = (1e-12, 1.0)
_TOLERANCE = 1e-12


def _sum_minus_branch(gamma: float, bands, lambda_total: float) -> float | None:
    """sum_j lam_j(gamma), None below its domain."""
    total = 0.0
    for mu, vbar, a, q, _ in bands:
        d = a + (2.0 * lambda_total * gamma * mu - 2.0) * vbar
        if d <= 0.0:
            return None
        total += mu - q / math.sqrt(d)
    return total


def _reference_bisect_gamma(lambda_total: float, bands) -> tuple[float, list[float]]:
    """Root of sum(lam_j(gamma)) = lam.

    lam_j(gamma) is non-decreasing in gamma wherever its radicand is
    positive, so the sum crosses lam exactly once between the radicand
    domain edge and large gamma.
    """
    lo = _GAMMA_BRACKET[0]
    hi = max(gamma_approx(lambda_total, [b[0] for b in bands]) * 2.0, _GAMMA_BRACKET[1])
    for _ in range(60):
        s = _sum_minus_branch(hi, bands, lambda_total)
        if s is not None and s >= lambda_total:
            break
        hi *= 2.0
    else:
        raise BracketFailure(f"no sign change up to gamma={hi}")
    for _ in range(500):
        if hi - lo <= _TOLERANCE * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        s = _sum_minus_branch(mid, bands, lambda_total)
        if s is None or s < lambda_total:
            lo = mid
        else:
            hi = mid
    return hi, optimizer._rates(hi, bands, lambda_total)


def _reference_solve_active_set(lambda_total, stats):
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
        gamma, lams = optimizer._root_gamma(rem, optimizer._band_terms(sub, rem))
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
    slack = optimizer._KKT_SLACK * max(gamma, 1.0)
    for j in range(m):
        if full[j] == 0.0 and optimizer._marginal(0.0, stats[j], lambda_total) < gamma - slack:
            raise NoFeasibleBranch(f"excluded band {j}: marginal cost at 0 below gamma")
    for j in capped:
        if optimizer._marginal(caps[j], stats[j], lambda_total) > gamma + slack:
            raise NoFeasibleBranch(f"capped band {j}: marginal cost at the cap above gamma")
    return optimizer.LagrangeSolution(gamma, tuple(full), optimizer.NUMERIC)


def _reference_optimize(lambda_total, stats):
    optimizer._validate_instance(lambda_total, stats)
    return _reference_solve_active_set(lambda_total, stats)


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
            expected = _active_set(_outcome(_reference_optimize, lam, stats), stats)
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
    # flow's 40 pps the active set drops band 3, which the certificate
    # settles without a root, so the solve runs one root find (the
    # two-pass step ran two); the plain bisection spends 42-43
    # evaluations per root here.  Near
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
    assert sol.lambdas[3] == 0.0 and len(per_root) == 1
    assert max(per_root) <= 15, per_root
    rng = np.random.default_rng(99)
    for i in range(3000):
        lam, stats = random_instance(rng, 2 + i % 5, load=(0.99, 0.9989))
        _assert_kkt(optimize(lam, stats), stats, lam)
    assert max(per_root) <= 15, max(per_root)


def _replay_instances(n, seed):
    """n instances cycling M = 2..6.  Each band is a random_stats band, a
    weak band (which light load drops) or a band with mu log-uniform in
    1-1,000 pps and vbar log-uniform in 1e-9-1 s; the load is uniform in
    0.01-0.995 of capacity."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        stats = []
        for _ in range(2 + i % 5):
            kind = rng.integers(4)
            if kind == 0:
                stats.append(random_stats(rng))
            elif kind == 1:
                stats.append(_weak_band(rng))
            else:
                mu = float(np.exp(rng.uniform(0.0, math.log(1e3))))
                vbar = float(np.exp(rng.uniform(math.log(1e-9), 0.0)))
                shape = float(rng.uniform(1.0, 3.0))
                v2 = float(rng.uniform(1.0, 30.0)) * vbar**2
                stats.append(BandStats(mu=mu, x2=shape / mu**2, vbar=vbar, v2=v2))
        yield float(rng.uniform(0.01, 0.995)) * sum(st.mu for st in stats), stats


def _threshold_instances(n, seed):
    """Instances at the loads where the two-pass step starts excluding
    one more band: for n random instances (M = 2..6, as in
    _replay_instances) whose excluded count differs between light and
    heavy load, the threshold load found by bisection, scaled by
    1 + k * 1e-12 and 1 + k * 1e-8 for k = -5..5.  There a band's rate
    at a root is near zero, so the certificate meets the roots within
    its margin of a zero crossing."""
    rng = np.random.default_rng(seed)
    found = 0
    while found < n:
        _, stats = next(_replay_instances(1, int(rng.integers(2**31))))
        cap = 0.9989 * sum(st.mu for st in stats)

        def excluded(lam):
            return _active_set(_outcome(_reference_optimize, lam, stats), stats)

        lo, hi = 1e-4 * cap, cap
        light = excluded(lo)
        if light == excluded(hi):
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excluded(mid) == light else (lo, mid)
        found += 1
        for k in range(-5, 6):
            yield lo * (1.0 + k * 1e-12), stats
            yield lo * (1.0 + k * 1e-8), stats


def _four_band_feedback(seed):
    """The benchmark's four_band_feedback config: its three policies at
    2 replications from ``seed``, 3,000 packets per flow."""
    policies = tuple(SchedulerSpec(k) for k in ("load_balancing", "minimum_delay", "leaky_bucket"))
    return replace(_four_band_cfg(3000), schedulers=policies, replications=2, seed_base=seed)


def _recorded_solves(solves):
    """Every optimize call of four_band_feedback at the benchmark's seeds
    1 and 2 and of the golden three_band configs."""
    for seed in (1, 2):
        run_suite(_four_band_feedback(seed))
    for case in ("three_band_det", "three_band_exp", "three_band_logn"):
        run_suite(GOLDEN_CASES[case]())
    return list(solves.calls)


def _count_roots(monkeypatch):
    """Patches _root_gamma to count its calls under "calls" and keep each
    call's (lam, bands, gamma) under "found", in the dict it returns."""
    log = {"calls": 0, "found": []}
    root_gamma = optimizer._root_gamma

    def counted(lambda_total, bands):
        log["calls"] += 1
        gamma, lams = root_gamma(lambda_total, bands)
        log["found"].append((lambda_total, bands, gamma))
        return gamma, lams

    monkeypatch.setattr(optimizer, "_root_gamma", counted)
    return log


def test_one_root_per_solve_bit_identical_to_the_two_pass_reference(solves, monkeypatch):
    recorded = _recorded_solves(solves)
    instances = recorded + list(_replay_instances(10_000, seed=17))
    # Near capacity, where bands are pinned at their caps and each pin
    # re-solves with a root of its own.
    rng = np.random.default_rng(1985)
    near_cap = [random_instance(rng, 2 + i % 5, load=(0.9985, 0.9989)) for i in range(1000)]
    thresholds = list(_threshold_instances(60, seed=41))
    log = _count_roots(monkeypatch)
    roots = []
    excluded = capped = 0
    for lam, stats in instances + near_cap + thresholds:
        before = log["calls"]
        got = _outcome(optimize, lam, stats)
        mid = log["calls"]
        want = _outcome(_reference_optimize, lam, stats)
        assert repr(got) == repr(want), (lam, stats)
        # Never more root finds than the two-pass step.
        assert mid - before <= log["calls"] - mid, (lam, stats)
        roots.append(mid - before)
        if not isinstance(got, type):
            excluded += 0.0 in got.lambdas
            capped += _active_set(got, stats)[1] != []
    assert len(recorded) == 4982 and excluded >= 5000 and capped >= 300
    assert roots[: len(recorded)] == [1] * len(recorded)
    # A pass whose root lies within the certificate's margin of a band's
    # zero crossing cannot be settled without that root, so a solve there
    # runs two; on this set none does.
    random_roots = roots[len(recorded) : len(instances)]
    assert max(random_roots) <= 2 and random_roots.count(2) <= 2, random_roots.count(2)


def test_rates_and_sum_rise_with_gamma_and_roots_sit_inside_the_certificate_margin(
    solves, monkeypatch
):
    # Every rounded rate and the rounded sum are non-decreasing in gamma:
    # runs of adjacent floats at each band's zero crossing and at the
    # root, and sorted random multipliers above the domain edge.
    def rising(gamma, bands, lam):
        rates = optimizer._rates(gamma, bands, lam)
        return rates, optimizer._sum_minus_branch(gamma, bands, lam)[0]

    rng = np.random.default_rng(23)
    for lam, stats in _replay_instances(300, seed=29):
        bands = optimizer._band_terms(stats, lam)
        gamma, _ = optimizer._root_gamma(lam, bands)
        edge = max((2.0 * vbar - a) / (2.0 * lam * mu * vbar) for mu, vbar, a, _, _ in bands)
        zeros = [(((q / mu) ** 2 - a) / vbar + 2.0) / (2.0 * lam * mu) for mu, vbar, a, q, _ in bands]
        runs = []
        for start in [gamma] + [z for z in zeros if z > edge]:
            run = [start]
            for _ in range(64):
                run.append(math.nextafter(run[-1], math.inf))
            runs.append(run)
        spread = np.sort(edge + np.abs(edge) * 1e-9 + rng.exponential(2.0 * max(gamma - edge, 1e-12), 64))
        runs.append([float(g) for g in spread])
        for run in runs:
            prev_rates, prev_total = None, None
            for g in run:
                try:
                    rates, total = rising(g, bands, lam)
                except NoFeasibleBranch:
                    continue
                if prev_rates is not None:
                    assert all(r >= p for r, p in zip(rates, prev_rates)), (lam, stats, g)
                    assert total >= prev_total, (lam, stats, g)
                prev_rates, prev_total = rates, total
    # Every root the two-pass reference finds, the dropping passes'
    # included, leaves the sum within 1/100 of the certificate's margin
    # of lam.
    instances = _recorded_solves(solves) + list(_replay_instances(10_000, seed=17))
    log = _count_roots(monkeypatch)
    for lam, stats in instances:
        _outcome(_reference_optimize, lam, stats)
    worst = 0.0
    for lam, bands, gamma in log["found"]:
        total, _ = optimizer._sum_minus_branch(gamma, bands, lam)
        worst = max(worst, abs(total - lam) / sum(b[0] for b in bands))
    assert len(log["found"]) >= 2 * len(instances)
    assert worst <= optimizer._CERT_TOL / 100, worst


def test_four_band_feedback_pass_runs_one_root_find_per_solve(solves, monkeypatch):
    # One pass at seed 1 makes 1,615 solves; the two-pass step ran 3,387
    # root finds for them.
    log = _count_roots(monkeypatch)
    run_suite(_four_band_feedback(1))
    assert solves["optimize"] == 1615 and log["calls"] == 1615
