"""Delay-model unit tests: hand-evaluated values, error paths, and the
shape properties (monotone and convex in the per-band rate)."""

import numpy as np
import pytest

from bandsplit.errors import Infeasible, InvalidStats, LengthMismatch
from bandsplit.model import (
    BandStats,
    FlowKey,
    RateAllocation,
    aggregate_delay,
    band_delay,
    objective,
)
from conftest import feasible, random_stats

ST = BandStats(mu=10.0, x2=0.02, vbar=0.2, v2=0.05)


def test_band_delay_hand_value():
    # lam*x2/(2(1-rho)) + v2/(2 vbar) = 0.1 + 0.125, plus 0.1 service
    d = band_delay(5.0, ST)
    assert d.waiting == pytest.approx(0.225, rel=1e-12)
    assert d.service == pytest.approx(0.1, rel=1e-12)
    assert d.total == pytest.approx(0.325, rel=1e-12)
    assert d.total == d.waiting + d.service


def test_band_delay_zero_arrival_keeps_vacation_residual():
    st = BandStats(mu=10.0, x2=0.02, vbar=0.2, v2=0.04)
    d = band_delay(0.0, st)
    assert d.waiting == pytest.approx(0.04 / 0.4, rel=1e-12)
    assert d.total == pytest.approx(0.2, rel=1e-12)


def test_band_delay_unstable_rejected():
    with pytest.raises(Infeasible):
        band_delay(10.0, ST)
    with pytest.raises(Infeasible):
        band_delay(11.0, ST)
    with pytest.raises(Infeasible):
        band_delay(-1.0, ST)


def test_band_delay_invalid_stats():
    with pytest.raises(InvalidStats):
        band_delay(1.0, BandStats(mu=-1.0, x2=0.02, vbar=0.1, v2=0.02))
    with pytest.raises(InvalidStats):
        band_delay(1.0, BandStats(mu=10.0, x2=0.001, vbar=0.1, v2=0.02))  # x2 < mean^2
    with pytest.raises(InvalidStats):
        band_delay(1.0, BandStats(mu=10.0, x2=0.02, vbar=0.0, v2=0.0))
    with pytest.raises(InvalidStats):
        band_delay(1.0, BandStats(mu=10.0, x2=0.02, vbar=0.2, v2=0.01))  # v2 < vbar^2


def test_aggregate_delay_symmetric_equals_single_band():
    alloc = RateAllocation((5.0, 5.0))
    assert aggregate_delay(alloc, [ST, ST]) == pytest.approx(0.325, rel=1e-12)


def test_aggregate_delay_single_band_degenerate():
    assert aggregate_delay(RateAllocation((5.0,)), [ST]) == pytest.approx(
        band_delay(5.0, ST).total, rel=1e-15
    )


def test_aggregate_delay_weighted_mean_hand_value():
    # (4, 8) on two identical bands: T(4)=0.2916667, T(8)=0.625
    alloc = RateAllocation((4.0, 8.0))
    f = aggregate_delay(alloc, [ST, ST])
    t4 = band_delay(4.0, ST).total
    t8 = band_delay(8.0, ST).total
    assert f == pytest.approx((4 * t4 + 8 * t8) / 12.0, rel=1e-15)
    assert f == pytest.approx(0.5138888888888888, rel=1e-12)


def test_aggregate_delay_errors():
    with pytest.raises(LengthMismatch):
        aggregate_delay(RateAllocation((1.0,)), [ST, ST])
    with pytest.raises(Infeasible):
        aggregate_delay(RateAllocation((9.99, 10.2)), [ST, ST])


def test_objective_fixed_denominator():
    v = objective((4.0, 8.0), [ST, ST], 12.0)
    assert v == pytest.approx(aggregate_delay(RateAllocation((4.0, 8.0)), [ST, ST]), rel=1e-15)
    # Perturbing one coordinate does not change the denominator.
    up = objective((4.0, 8.1), [ST, ST], 12.0)
    assert up > v


def test_feasible_cases():
    two = [ST, ST]
    assert feasible(RateAllocation((5.0, 5.0)), two, 10.0)
    assert not feasible(RateAllocation((10.0, 0.0)), two, 10.0)  # both boundaries excluded
    assert not feasible(RateAllocation((6.0, 5.0)), two, 10.0)  # sum mismatch
    assert not feasible(RateAllocation((9.0, 1.0 + 1e-5)), two, 10.0)
    assert feasible(RateAllocation((9.0, 1.0)), two, 10.0)
    with pytest.raises(LengthMismatch):
        feasible(RateAllocation((1.0,)), two, 1.0)


def test_flow_key_invariants():
    key = FlowKey(sta_id=2, ac=3)
    assert key.sta_id == 2
    with pytest.raises(ValueError):
        FlowKey(sta_id=-1, ac=0)
    with pytest.raises(ValueError):
        FlowKey(sta_id=0, ac=4)


def test_total_delay_strictly_increasing_in_rate():
    # 1000 random bands, 100 grid points each: T(lam) strictly increasing.
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        st = random_stats(rng)
        grid = np.linspace(0.0, 0.998 * st.mu, 100)
        totals = [band_delay(float(lam), st).total for lam in grid]
        assert all(b > a for a, b in zip(totals, totals[1:]))


def test_weighted_term_convex_spot_check():
    # Centered second difference of f(lam) = T(lam)*lam/L is positive.
    rng = np.random.default_rng(99)
    for _ in range(200):
        st = random_stats(rng)
        lam_total = 0.9 * st.mu
        lam = float(rng.uniform(0.05, 0.95)) * st.mu
        h = 1e-3 * (st.mu - lam)

        def f(x):
            return band_delay(x, st).total * x / lam_total

        second = f(lam + h) - 2.0 * f(lam) + f(lam - h)
        assert second > 0.0


def test_deterministic_vacation_adds_half_length():
    # v2 = vbar^2 (a fixed vacation of length v) adds exactly v/2 of wait.
    rng = np.random.default_rng(7)
    for _ in range(50):
        st = random_stats(rng)
        v = st.vbar
        fixed = BandStats(mu=st.mu, x2=st.x2, vbar=v, v2=v * v)
        lam = 0.5 * st.mu
        pk_term = lam * st.x2 / (2.0 * (1.0 - lam / st.mu))
        d = band_delay(lam, fixed)
        assert d.waiting == pytest.approx(pk_term + v / 2.0, rel=1e-12)
