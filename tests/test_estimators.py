"""Moment-window and distribution tests."""

import math

import numpy as np
import pytest

from bandsplit.distributions import DistributionSpec, Sampler
from bandsplit.errors import ConfigInvalid, InsufficientSamples, InvalidStats
from bandsplit.estimators import VACATION_FLOOR, MomentEstimator, band_stats_from_windows
from bandsplit.model import BandStats


def test_window_matches_exact_moments():
    rng = np.random.default_rng(3)
    est = MomentEstimator(window=512)
    samples = rng.exponential(0.1, 1500)
    for x in samples:
        est.add(float(x))
    tail = samples[-512:]
    assert est.mean() == pytest.approx(tail.mean(), rel=1e-9)
    assert est.mean_sq() == pytest.approx((tail**2).mean(), rel=1e-9)
    assert len(est) == 512


def test_window_never_exceeds_capacity():
    est = MomentEstimator(window=8)
    for i in range(100):
        est.add(float(i))
    assert len(est) == 8
    assert est.mean() == pytest.approx(np.mean(range(92, 100)), rel=1e-12)


def _reference_add(est, x):
    # MomentEstimator.add as it was before batches, with each resync
    # squaring the samples in a generator.
    if len(est._ring) < est.window:
        est._ring.append(x)
        est._sum += x
        est._sum_sq += x * x
    else:
        old = est._ring[est._pos]
        est._ring[est._pos] = x
        est._sum += x - old
        est._sum_sq += x * x - old * old
    est._pos += 1
    if est._pos >= est.window:
        est._pos = 0
        est._sum = math.fsum(est._ring)
        est._sum_sq = math.fsum(v * v for v in est._ring)


def test_add_and_extend_match_the_reference_bit_for_bit():
    # Random batches, empty ones and ones longer than the window among
    # them, so batches start and end on both sides of a wrap; the samples
    # span six orders of magnitude and include zeros of both signs.
    rng = np.random.default_rng(5)
    for _ in range(200):
        window = int(rng.integers(1, 40))
        ref, one, batch = (MomentEstimator(window) for _ in range(3))
        for _ in range(int(rng.integers(1, 12))):
            xs = (rng.exponential(1.0, int(rng.integers(0, 3 * window))) * 10.0 ** rng.integers(-3, 4)).tolist()
            if rng.integers(0, 4) == 0:
                xs = [0.0, -0.0] + xs
            for x in xs:
                _reference_add(ref, x)
                one.add(x)
            batch.extend(xs)
            state = [(e._ring, e._pos, e._sum.hex(), e._sum_sq.hex()) for e in (ref, one, batch)]
            assert state[0] == state[1] == state[2]


def test_repeat_matches_the_reference_bit_for_bit():
    # Random interleavings of extend and repeat, each repeat of 0.0, -0.0,
    # the window's latest sample or a fresh value, m from 0 to 3 windows,
    # so a repeat starts and ends on both sides of a wrap and runs of
    # copies cross resyncs that find the ring all copies.
    rng = np.random.default_rng(13)
    for _ in range(400):
        window = int(rng.integers(1, 41))
        ref, est = MomentEstimator(window), MomentEstimator(window)
        for _ in range(int(rng.integers(1, 16))):
            if rng.integers(0, 4) == 0:
                xs = (rng.exponential(1.0, int(rng.integers(0, 2 * window))) * 10.0 ** rng.integers(-3, 4)).tolist()
                est.extend(xs)
            else:
                pick = int(rng.integers(0, 4))
                if pick == 2 and est._ring:
                    x = est._ring[est._pos - 1]
                elif pick >= 2:
                    x = float(rng.exponential(1.0) * 10.0 ** rng.integers(-3, 4))
                else:
                    x = (0.0, -0.0)[pick]
                m = int(rng.integers(0, 3 * window + 1))
                xs = [x] * m
                est.repeat(x, m)
            for x in xs:
                _reference_add(ref, x)
            state = [
                ([v.hex() for v in e._ring], e._pos, e._sum.hex(), e._sum_sq.hex()) for e in (ref, est)
            ]
            assert state[0] == state[1]


def test_empty_window_raises():
    est = MomentEstimator(window=4)
    with pytest.raises(InsufficientSamples):
        est.mean()


def test_estimator_converges_within_two_over_sqrt_w():
    rng = np.random.default_rng(21)
    w = 4096
    est = MomentEstimator(window=w)
    mean = 0.25
    for x in rng.exponential(mean, w):
        est.add(float(x))
    assert abs(est.mean() - mean) / mean <= 2.0 / np.sqrt(w)


def test_band_stats_constant_service():
    svc = MomentEstimator(64)
    vac = MomentEstimator(64)
    for _ in range(40):
        svc.add(0.1)
        vac.add(0.0)
    st = band_stats_from_windows(svc, vac)
    assert st.mu == pytest.approx(10.0, rel=1e-12)
    assert st.x2 == pytest.approx(0.01, rel=1e-12)
    # All-zero vacations get floored but stay negligible.
    assert st.vbar == VACATION_FLOOR
    assert st.v2 >= st.vbar**2


def test_band_stats_do_not_see_vacation_residue_below_the_floor():
    # A band that one flow has alone under emergent vacations measured
    # the rounding residue of occupied - last - dur as its vacations: at
    # most 2^-30 s while the band's occupied time stays below 2^24 s.
    # The floor hides it, so exact zeros give the same stats.
    svc = MomentEstimator()
    svc.extend([0.1] * 512)
    residue, zeros = MomentEstimator(), MomentEstimator()
    residue.extend([2.0**-30] * 512)
    zeros.extend([0.0] * 512)
    assert residue._sum > 0.0
    st = band_stats_from_windows(svc, zeros)
    assert band_stats_from_windows(svc, residue) == st
    assert (st.vbar, st.v2) == (VACATION_FLOOR, VACATION_FLOOR**2)


def test_band_stats_exponential_second_moment():
    rng = np.random.default_rng(4)
    svc = MomentEstimator(100_000)
    vac = MomentEstimator(100_000)
    for x in rng.exponential(0.1, 100_000):
        svc.add(float(x))
        vac.add(0.01)
    st = band_stats_from_windows(svc, vac)
    assert st.x2 == pytest.approx(2 * 0.1**2, rel=0.03)


def test_band_stats_insufficient_samples():
    svc = MomentEstimator(64)
    vac = MomentEstimator(64)
    for _ in range(10):
        svc.add(0.1)
        vac.add(0.0)
    with pytest.raises(InsufficientSamples):
        band_stats_from_windows(svc, vac)


def test_band_stats_built_from_windows_equal_a_keyword_build():
    rng = np.random.default_rng(8)
    svc = MomentEstimator(64)
    vac = MomentEstimator(64)
    svc.extend(rng.exponential(0.05, 100).tolist())
    vac.extend(rng.exponential(0.01, 100).tolist())
    st = band_stats_from_windows(svc, vac)
    assert st == BandStats(mu=1.0 / svc.mean(), x2=svc.mean_sq(), vbar=vac.mean(), v2=vac.mean_sq())


def test_band_stats_from_windows_still_checks_the_moments():
    # The positional build runs BandStats' checks: a service window whose
    # second moment sits below its squared mean (Jensen) is rejected.
    svc = MomentEstimator(64)
    vac = MomentEstimator(64)
    svc.extend([0.1] * 40)
    vac.extend([0.01] * 40)
    svc._sum_sq = 0.5 * svc._sum**2 / len(svc)
    with pytest.raises(InvalidStats, match="x2="):
        band_stats_from_windows(svc, vac)


def test_distribution_moments():
    det = DistributionSpec("deterministic", mean=0.2)
    assert det.moments() == (0.2, 0.04000000000000001) or det.moments()[1] == pytest.approx(0.04)
    exp = DistributionSpec("exponential", mean=0.2)
    assert exp.moments()[1] == pytest.approx(2 * 0.04, rel=1e-12)
    ln = DistributionSpec("lognormal", mu_log=-2.0, sigma_log=0.5)
    m1, m2 = ln.moments()
    assert m1 == pytest.approx(np.exp(-2 + 0.125), rel=1e-12)
    assert m2 == pytest.approx(np.exp(-4 + 0.5), rel=1e-12)


def test_distribution_validation():
    with pytest.raises(ConfigInvalid):
        DistributionSpec("uniform", mean=1.0)
    with pytest.raises(ConfigInvalid):
        DistributionSpec("exponential", mean=0.0)
    with pytest.raises(ConfigInvalid):
        DistributionSpec("lognormal", mu_log=0.0, sigma_log=-1.0)


def test_sampler_matches_stream_order():
    # 9,000 draws cross two refills of the 4096-draw block.
    spec = DistributionSpec("exponential", mean=0.5)
    a = Sampler(spec, np.random.default_rng(10))
    b = np.random.default_rng(10)
    draws = [a.draw() for _ in range(9000)]
    expect = [x for _ in range(3) for x in b.exponential(0.5, 4096).tolist()]
    assert draws == expect[:9000]


def test_draw_and_take_read_one_stream():
    # The engine reads a sampler through ``take``, the C-level reader of
    # the stream that ``draw`` reads; interleaved, they split one
    # sequence, the same blocks as above.
    spec = DistributionSpec("exponential", mean=0.5)
    a = Sampler(spec, np.random.default_rng(10))
    draws = [a.take() if i % 3 else a.draw() for i in range(9000)]
    b = np.random.default_rng(10)
    expect = [x for _ in range(3) for x in b.exponential(0.5, 4096).tolist()]
    assert draws == expect[:9000]


def test_sampler_empirical_moments():
    rng = np.random.default_rng(8)
    s = Sampler(DistributionSpec("lognormal", mu_log=-2.5, sigma_log=0.4), rng)
    xs = np.array([s.draw() for _ in range(20000)])
    m1, m2 = DistributionSpec("lognormal", mu_log=-2.5, sigma_log=0.4).moments()
    assert xs.mean() == pytest.approx(m1, rel=0.05)
    assert (xs**2).mean() == pytest.approx(m2, rel=0.1)
