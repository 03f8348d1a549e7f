"""Rate-solver tests: the multiplier approximation, the stationary rates,
exact solver vs heavy-traffic closed form vs grid agreement, active-set
exclusion, and the stationarity / dominance / scaling properties."""

import numpy as np
import pytest

from bandsplit.errors import DimensionTooLarge, NoFeasibleBranch, Overload
from bandsplit.model import BandStats, RateAllocation, aggregate_delay, objective
from bandsplit.optimizer import (
    CLOSED_FORM,
    NUMERIC,
    gamma_approx,
    grid_objective,
    lambda_star_given_gamma,
    optimize,
    solve_closed_form,
    solve_grid,
)
from conftest import feasible, random_instance


def sym_stats(mu=8.0, n=2):
    return [BandStats(mu=mu, x2=2.0 / mu**2, vbar=0.1, v2=0.011) for _ in range(n)]


def test_gamma_approx_hand_value():
    # (2 * 10^1.5)^2 / (2 * 12 * (20-12)^2) = 4000/1536
    assert gamma_approx(12.0, [10.0, 10.0]) == pytest.approx(4000.0 / 1536.0, rel=1e-12)


def test_gamma_approx_single_band_specialisation():
    mu, lam = 10.0, 4.0
    assert gamma_approx(lam, [mu]) == pytest.approx(mu**3 / (2 * lam * (mu - lam) ** 2), rel=1e-12)


def test_gamma_approx_overload():
    with pytest.raises(Overload):
        gamma_approx(20.0, [10.0, 10.0])
    with pytest.raises(Overload):
        gamma_approx(25.0, [10.0, 10.0])


def test_lambda_star_symmetric_components_equal():
    stats = sym_stats()
    gamma = gamma_approx(10.0, [8.0, 8.0])
    lams = lambda_star_given_gamma(gamma, stats, 10.0)
    assert lams[0] == pytest.approx(lams[1], rel=1e-12)


def test_branch_invalid_on_nonpositive_radicand():
    weak = BandStats(mu=1.0, x2=1.0, vbar=0.1, v2=10.0)
    with pytest.raises(NoFeasibleBranch):
        lambda_star_given_gamma(1e-9, [weak], 0.5)


def test_minus_branch_rate_nondecreasing_in_gamma():
    rng = np.random.default_rng(11)
    for _ in range(30):
        lam, stats = random_instance(rng, 2)
        g0 = gamma_approx(lam, [st.mu for st in stats])
        grid = np.geomspace(g0 * 1e-2, g0 * 1e3, 60)
        prev = None
        for g in grid:
            try:
                lams = lambda_star_given_gamma(float(g), stats, lam)
            except NoFeasibleBranch:
                prev = None
                continue
            if prev is not None:
                assert all(b >= a - 1e-9 * abs(a) for a, b in zip(prev, lams))
            prev = lams


def test_solve_single_band_pins_rate():
    stats = [BandStats(mu=10.0, x2=0.02, vbar=0.2, v2=0.05)]
    for solver in (solve_closed_form, optimize, solve_grid):
        sol = solver(5.0, stats)
        assert sol.alloc.lambdas == pytest.approx((5.0,))


def test_solve_symmetric_splits_evenly():
    stats = sym_stats()
    for solver in (solve_closed_form, optimize):
        sol = solver(10.0, stats)
        assert sol.alloc.lambdas[0] == pytest.approx(5.0, rel=1e-9)
        assert sol.alloc.lambdas[1] == pytest.approx(5.0, rel=1e-9)
    g = solve_grid(10.0, stats)
    assert g.alloc.lambdas[0] == pytest.approx(5.0, rel=1e-4)


def test_known_instance_matches_grid_argmin():
    # mu=(20,10), lam=12, deterministic service, vbar=0.1, v2=0.011.
    # Golden split from an independent 1e-4-step sweep over lam_1:
    # (10.0791, 1.9209), F = 0.13623970.
    stats = [BandStats(20.0, 1 / 400, 0.1, 0.011), BandStats(10.0, 1 / 100, 0.1, 0.011)]
    lam = 12.0
    sol = optimize(lam, stats)
    assert abs(sol.alloc.lambdas[0] - 10.0791) <= 1e-3 * lam
    assert abs(sol.alloc.lambdas[1] - 1.9209) <= 1e-3 * lam
    assert sol.objective == pytest.approx(0.13623969857, rel=1e-8)
    g = solve_grid(lam, stats)
    assert abs(g.alloc.lambdas[0] - sol.alloc.lambdas[0]) <= 1e-3 * lam


def test_numeric_never_worse_than_forced_approximation():
    stats = [BandStats(20.0, 1 / 400, 0.1, 0.011), BandStats(10.0, 1 / 100, 0.1, 0.011)]
    lam = 12.0
    forced = solve_closed_form(lam, stats)
    assert forced.method == CLOSED_FORM
    exact = optimize(lam, stats)
    assert exact.method == NUMERIC
    assert exact.objective <= forced.objective + 1e-9


def test_closed_form_trusted_in_heavy_traffic_regime():
    # Many comparable bands and 2*lam/mu_max well above 1.
    stats = [BandStats(10.0 + 0.5 * j, 2.0 / (10.0 + 0.5 * j) ** 2, 0.05, 0.005) for j in range(8)]
    lam = 0.85 * sum(st.mu for st in stats)
    assert 2 * lam / max(st.mu for st in stats) >= 10.0
    sol = solve_closed_form(lam, stats)
    assert sol.method == CLOSED_FORM
    assert sum(sol.alloc.lambdas) == pytest.approx(lam, rel=1e-12)
    exact = optimize(lam, stats)
    assert sol.objective <= exact.objective * 1.01


def test_active_set_excludes_weak_band():
    # Band 2 is nearly useless: tiny rate, enormous vacation second moment.
    strong = BandStats(mu=20.0, x2=2 / 400, vbar=0.05, v2=0.005)
    weak = BandStats(mu=0.5, x2=2 / 0.25, vbar=1.0, v2=50.0)
    lam = 10.0
    sol = optimize(lam, [strong, weak])
    assert sol.alloc.lambdas[1] == 0.0
    assert sol.alloc.lambdas[0] == pytest.approx(lam, rel=1e-12)
    g = solve_grid(lam, [strong, weak])
    assert sol.objective <= g.objective + 1e-9


def test_grid_dimension_cap():
    stats = sym_stats(n=5)
    with pytest.raises(DimensionTooLarge):
        solve_grid(0.5 * sum(st.mu for st in stats), stats)


def test_overload_rejected_by_all_solvers():
    stats = sym_stats()
    for solver in (solve_closed_form, optimize, solve_grid):
        with pytest.raises(Overload):
            solver(16.0, stats)


def test_grid_objective_matches_scalar_model():
    rng = np.random.default_rng(5)
    lam, stats = random_instance(rng, 3)
    pts = []
    for _ in range(40):
        w = rng.dirichlet((1.0, 1.0, 1.0))
        cand = w * lam
        if all(c < 0.999 * st.mu for c, st in zip(cand, stats)):
            pts.append(cand)
    arr = np.array(pts)
    vec = grid_objective(arr, stats, lam)
    for row, val in zip(arr, vec):
        assert val == pytest.approx(objective(list(row), stats, lam), rel=1e-12)


def test_oracle_agreement_sample():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 10:
        m = 2 + checked % 2
        lam, stats = random_instance(rng, m)
        sol = optimize(lam, stats)
        if any(l == 0.0 for l in sol.alloc.lambdas):
            continue
        g = solve_grid(lam, stats)
        assert sol.objective <= g.objective + max(1e-4 * g.objective, 1e-9)
        checked += 1


def test_dominance_over_even_and_rate_proportional_splits():
    rng = np.random.default_rng(77)
    for _ in range(25):
        m = int(rng.integers(2, 4))
        lam, stats = random_instance(rng, m)
        sol = optimize(lam, stats)
        mus = [st.mu for st in stats]
        even = RateAllocation([lam / m] * m)
        prop = RateAllocation([lam * mu / sum(mus) for mu in mus])
        for rival in (even, prop):
            if feasible(rival, stats, lam):
                assert sol.objective <= aggregate_delay(rival, stats) + 1e-12


def test_grid_oracle_dominates_reference_splits_m3():
    rng = np.random.default_rng(123)
    lam, stats = random_instance(rng, 3)
    g = solve_grid(lam, stats)
    mus = [st.mu for st in stats]
    even = RateAllocation([lam / 3] * 3)
    prop = RateAllocation([lam * mu / sum(mus) for mu in mus])
    for rival in (even, prop):
        if feasible(rival, stats, lam):
            assert g.objective <= aggregate_delay(rival, stats) + 1e-9


def test_dimensional_scaling():
    # Scaling all rates by c (and the time moments to match) scales the
    # optimal split by c.
    rng = np.random.default_rng(31)
    for _ in range(10):
        lam, stats = random_instance(rng, 2)
        base = optimize(lam, stats)
        c = 3.7
        scaled_stats = [
            BandStats(mu=st.mu * c, x2=st.x2 / c**2, vbar=st.vbar / c, v2=st.v2 / c**2)
            for st in stats
        ]
        scaled = optimize(lam * c, scaled_stats)
        for a, b in zip(base.alloc.lambdas, scaled.alloc.lambdas):
            assert b == pytest.approx(a * c, rel=1e-6)


def test_stationarity_spot_check():
    rng = np.random.default_rng(13)
    lam, stats = random_instance(rng, 3)
    sol = optimize(lam, stats)
    if any(l == 0.0 for l in sol.alloc.lambdas):
        pytest.skip("boundary optimum drawn")
    h = 1e-5 * lam
    grads = []
    lams = list(sol.alloc.lambdas)
    for j in range(3):
        hi = lams.copy()
        lo = lams.copy()
        hi[j] += h
        lo[j] -= h
        grads.append((objective(hi, stats, lam) - objective(lo, stats, lam)) / (2 * h))
    spread = (max(grads) - min(grads)) / abs(sum(grads) / 3)
    assert spread <= 1e-4
