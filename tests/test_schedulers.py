"""Policy tests: token traces and fractions, masking for every policy,
round-robin balance, feedback updates and the usable-band contract."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bandsplit.errors import ConfigInvalid, LengthMismatch, Overload
from bandsplit.model import BandStats
from bandsplit.optimizer import optimize
from bandsplit.schedulers import SchedulerSpec, make_scheduler

TWO_EQUAL = [BandStats(10.0, 0.02, 0.1, 0.011), BandStats(10.0, 0.02, 0.1, 0.011)]
TWO_ASYM = [BandStats(20.0, 2 / 400, 0.1, 0.011), BandStats(10.0, 2 / 100, 0.1, 0.011)]


def build(kind, stats=None, lam=8.0, band=None, avail=None, flow_index=0, seed=0):
    stats = stats if stats is not None else TWO_EQUAL
    spec = SchedulerSpec(kind, band=band)
    return make_scheduler(
        spec,
        stats=stats,
        lambda_total=lam,
        flow_index=flow_index,
        avail=avail,
        rng=np.random.default_rng(seed),
    )


def test_spec_parsing_and_names():
    assert SchedulerSpec.parse("leaky_bucket").name == "leaky_bucket"
    assert SchedulerSpec(kind="single_band", band=1).name == "single_band:1"
    assert SchedulerSpec.parse("single_band:0").band == 0
    with pytest.raises(ConfigInvalid):
        SchedulerSpec.parse("round_robin")
    with pytest.raises(ConfigInvalid):
        SchedulerSpec.parse("single_band")


def test_leaky_token_trace_half_quarter():
    # R=(0.5, 0.25): rounds fill to (1.0, 0.5) -> band 0; (1.0, 1.0) ->
    # band 0 on the tie; leftover (0, 1.0) -> band 1; repeat.
    sched = build("leaky_bucket")
    sched.increments = [0.5, 0.25]
    sched.tokens = [0.0, 0.0]
    picks = [sched.next_band() for _ in range(9)]
    assert picks == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_leaky_token_trace_equal_rates_alternates():
    sched = build("leaky_bucket")
    sched.increments = [0.5, 0.5]
    sched.tokens = [0.0, 0.0]
    picks = [sched.next_band() for _ in range(8)]
    assert picks == [0, 1, 0, 1, 0, 1, 0, 1]


def test_leaky_selected_token_was_full_and_stays_bounded():
    sched = build("leaky_bucket", stats=TWO_ASYM, lam=12.0)
    incr_sum = sum(sched.increments)
    lo, hi = -1.0, 1.0 + incr_sum
    for _ in range(5000):
        j = sched.next_band()
        # the chosen bucket held at least one token before the debit
        assert sched.tokens[j] >= -1e-12
        for t in sched.tokens:
            assert lo <= t <= hi
            assert not math.isnan(t)


def test_leaky_equal_rate_bands_match_own_rate_credit():
    # With equal service rates the reference-rate credit coincides with
    # the per-band target-over-own-rate form.
    sched = build("leaky_bucket", stats=TWO_EQUAL, lam=8.0)
    for r, lam_j, st in zip(sched.increments, sched.lambda_star, TWO_EQUAL):
        assert r == pytest.approx(lam_j / st.mu, rel=1e-12)


def test_leaky_long_run_fractions_match_optimal_split():
    sched = build("leaky_bucket", stats=TWO_ASYM, lam=12.0)
    target = [lam / 12.0 for lam in sched.lambda_star]
    n = 20000
    counts = [0, 0]
    for _ in range(n):
        counts[sched.next_band()] += 1
    for j in range(2):
        assert abs(counts[j] / n - target[j]) <= 0.01


def test_leaky_single_band_degenerates_to_fifo():
    sched = build("leaky_bucket", stats=[TWO_EQUAL[0]], lam=5.0)
    assert [sched.next_band() for _ in range(10)] == [0] * 10


def test_even_split_counts_within_one():
    sched = build("even_split", stats=TWO_ASYM)
    counts = [0, 0]
    for _ in range(101):
        counts[sched.next_band()] += 1
        assert abs(counts[0] - counts[1]) <= 1


def test_even_split_mask_rotation():
    sched = build("even_split", avail=(0,))
    assert {sched.next_band() for _ in range(10)} == {0}
    sched = build("even_split", avail=(0, 1))
    picks = [sched.next_band() for _ in range(4)]
    assert picks == [0, 1, 0, 1]
    three = [*TWO_EQUAL, TWO_EQUAL[0]]
    sched = build("even_split", stats=three, avail=(2, 0))
    assert [sched.next_band() for _ in range(5)] == [0, 2, 0, 2, 0]


def test_load_balancing_tracks_rate_ratio():
    sched = build("load_balancing", stats=TWO_ASYM)
    counts = [0, 0]
    for _ in range(3000):
        counts[sched.next_band()] += 1
    assert counts[0] / 3000 == pytest.approx(20 / 30, abs=0.01)


def test_band_per_flow_round_robin_pinning():
    for idx, expect in ((0, 0), (1, 1), (2, 0), (3, 1)):
        sched = build("band_per_flow", flow_index=idx)
        assert {sched.next_band() for _ in range(20)} == {expect}


@pytest.mark.parametrize(
    "kind, band, avail, flow_index",
    [
        ("single_band", 1, None, 0),
        ("band_per_flow", None, (0, 2, 3), 4),
        ("even_split", None, None, 0),
        ("even_split", None, (3, 1, 2), 0),
        ("even_split", None, (2,), 0),
    ],
)
def test_bulk_picks_equal_one_at_a_time_picks(kind, band, avail, flow_index):
    # next_bands(n) gives the next n picks as an int array, equal to n
    # next_band() calls, and leaves the policy where those calls would,
    # whatever mix of the two follows.
    four = [TWO_EQUAL[0]] * 4
    bulk = build(kind, stats=four, band=band, avail=avail, flow_index=flow_index)
    single = build(kind, stats=four, band=band, avail=avail, flow_index=flow_index)
    for n in (1, 2, 5, 7, 64, 3, 4097, 10_000):
        picks = bulk.next_bands(n)
        assert picks.dtype == np.intc
        assert picks.tolist() == [single.next_band() for _ in range(n)]
        assert bulk.next_band() == single.next_band()


def test_minimum_delay_reproducible_and_on_target():
    a = build("minimum_delay", stats=TWO_ASYM, lam=12.0, seed=5)
    b = build("minimum_delay", stats=TWO_ASYM, lam=12.0, seed=5)
    seq_a = [a.next_band() for _ in range(2000)]
    seq_b = [b.next_band() for _ in range(2000)]
    assert seq_a == seq_b
    target = a.lambda_star[0] / 12.0
    frac = seq_a.count(0) / len(seq_a)
    assert abs(frac - target) <= 0.03


def test_minimum_delay_needs_an_rng():
    with pytest.raises(ValueError, match="rng"):
        make_scheduler(SchedulerSpec("minimum_delay"), stats=TWO_EQUAL, lambda_total=8.0)


def test_every_policy_degenerates_on_one_band():
    one = [BandStats(10.0, 0.02, 0.1, 0.011)]
    for kind in ("single_band", "even_split", "load_balancing", "band_per_flow", "minimum_delay", "leaky_bucket"):
        sched = build(kind, stats=one, lam=5.0, band=0 if kind == "single_band" else None)
        assert [sched.next_band() for _ in range(25)] == [0] * 25, kind


def test_single_band_policy():
    sched = build("single_band", band=1)
    assert sched.next_band() == 1
    with pytest.raises(ConfigInvalid):
        build("single_band", band=1, avail=(0,))


def test_masked_band_never_returned_for_any_policy():
    for kind in ("even_split", "load_balancing", "band_per_flow", "minimum_delay", "leaky_bucket"):
        sched = build(kind, stats=TWO_ASYM, lam=8.0, avail=(1,))
        assert all(sched.next_band() == 1 for _ in range(200)), kind


def test_usable_bands_contract():
    assert build("even_split", avail=(1, 0, 1)).avail == (0, 1)
    assert build("even_split").avail == (0, 1)
    for kind in ("even_split", "band_per_flow", "leaky_bucket"):
        for avail in ((), (2,), (-1, 0)):
            with pytest.raises(ConfigInvalid):
                build(kind, avail=avail)


def test_feedback_recomputes_split_and_credits():
    sched = build("leaky_bucket", stats=TWO_EQUAL, lam=8.0)
    before = list(sched.increments)
    # Band 0 doubles its service rate: the split and credits must move.
    sched.update_feedback(TWO_ASYM)
    after = list(sched.increments)
    assert after != before
    sol = optimize(8.0, TWO_ASYM)
    mu_ref = 20.0
    for r, lam_j in zip(after, sol.lambdas):
        assert r == pytest.approx(lam_j / mu_ref, rel=1e-9)


def test_feedback_idempotent_on_identical_stats(solves):
    # Stats equal in value to those that produced the split keep it
    # without a solve; other stats solve once.
    for kind, split in (("minimum_delay", "_bounds"), ("leaky_bucket", "increments")):
        sched = build(kind, stats=TWO_ASYM, lam=8.0)
        lambda_star = list(sched.lambda_star)
        first = list(getattr(sched, split))
        solves.clear()
        sched.update_feedback([replace(st) for st in TWO_ASYM])
        assert solves["optimize"] == 0
        assert sched.lambda_star == lambda_star
        assert getattr(sched, split) == first
        sched.update_feedback(TWO_EQUAL)
        assert solves["optimize"] == 1
        assert getattr(sched, split) != first


def test_feedback_failure_keeps_previous_split():
    sched = build("leaky_bucket", stats=TWO_ASYM, lam=12.0)
    keep_r = list(sched.increments)
    keep_l = list(sched.lambda_star)
    shrunk = [BandStats(5.0, 2 / 25, 0.1, 0.011), BandStats(5.0, 2 / 25, 0.1, 0.011)]
    # The same failing stats twice: each round re-solves and re-raises.
    for _ in range(2):
        with pytest.raises(Overload):
            sched.update_feedback(shrunk)  # 12 >= 0.999 * 10
        assert sched.increments == keep_r
        assert sched.lambda_star == keep_l


def test_feedback_for_another_band_count_is_a_length_mismatch():
    sched = build("load_balancing")
    with pytest.raises(LengthMismatch):
        sched.update_feedback(TWO_EQUAL[:1])


def test_availability_change_resolves_over_subset():
    sched = build("leaky_bucket", stats=TWO_ASYM, lam=8.0, avail=(1,))
    assert sched.lambda_star[0] == 0.0
    assert sched.lambda_star[1] == pytest.approx(8.0, rel=1e-9)
    assert all(sched.next_band() == 1 for _ in range(50))
