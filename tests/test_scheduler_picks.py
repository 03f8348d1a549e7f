"""The feedback policies' picks against the picks they replaced.

``_reference_leaky_pick`` and ``_reference_load_balancing_pick`` are
``LeakyBucket.next_band`` and ``LoadBalancing.next_band`` as they were
before their locals were bound, kept verbatim as test-side oracles, as
``test_gamma_replay`` keeps the bisection.  ``_reference_minimum_delay_pick``
draws each uniform with a scalar ``rng.random()`` call, where
``MinimumDelay`` reads them from blocks.  On random splits, full
buckets, masked bands and feedback rounds between picks, each policy must
pick the same bands as its oracle, and leave the same bits in its state.
"""

import math
from dataclasses import replace

import numpy as np

from bandsplit.schedulers import TOKEN_EPS, SchedulerSpec, make_scheduler
from conftest import random_stats


def _reference_leaky_pick(self) -> int:
    avail = self.avail
    tokens = self.tokens
    incr = self.increments
    full = 1.0 - TOKEN_EPS
    # One pass: stop at a full bucket, else find the fewest rounds
    # (at least one) that fill some bucket.  The available bands'
    # targets sum to lambda > 0, so some increment is positive and
    # the pass ends with rounds >= 1.
    rounds = 0
    for j in avail:
        if tokens[j] >= full:
            break
        r = incr[j]
        if r > 0.0:
            need = max(math.ceil((full - tokens[j]) / r), 1)
            if rounds == 0 or need < rounds:
                rounds = need
    else:
        for j in avail:
            tokens[j] += rounds * incr[j]
    best = avail[0]
    for j in avail[1:]:
        if tokens[j] > tokens[best]:
            best = j
    tokens[best] -= 1.0
    return best


def _reference_load_balancing_pick(self) -> int:
    best = None
    best_load = math.inf
    for j in self.avail:
        load = self.counts[j] / self.stats[j].mu
        if load < best_load:
            best, best_load = j, load
    self.counts[best] += 1
    return best


def _reference_minimum_delay_pick(self, rng: np.random.Generator) -> int:
    u = rng.random()
    for bound, j in self._bounds:
        if u < bound:
            return j
    return self.avail[-1]


def _random_pair(kind, rng):
    """Two equal schedulers of ``kind`` on random bands, some masked, and
    the seed of the stream each was given."""
    m = int(rng.integers(1, 6))
    stats = [random_stats(rng) for _ in range(m)]
    avail = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
    lam = float(rng.uniform(0.2, 0.9)) * sum(stats[j].mu for j in avail)
    seed = int(rng.integers(0, 2**32))
    pair = [
        make_scheduler(
            SchedulerSpec(kind),
            stats=stats,
            lambda_total=lam,
            avail=avail,
            rng=np.random.default_rng(seed),
        )
        for _ in range(2)
    ]
    return pair, seed


def _feedback(pair, rng):
    """One feedback round on both schedulers: every band measured faster
    by up to half, so the load stays feasible and the split moves."""
    stats = [replace(st, mu=st.mu * float(rng.uniform(1.0, 1.5))) for st in pair[0].stats]
    for sched in pair:
        sched.update_feedback(stats)


def _bits(values):
    return [float(v).hex() for v in values]


def test_leaky_bucket_picks_match_the_reference():
    rng = np.random.default_rng(11)
    # Buckets that start empty, exactly full, within the tolerance of
    # full, over full, or at a random level.
    levels = (0.0, 1.0, 1.0 - TOKEN_EPS, 1.0 - TOKEN_EPS / 2, 1.7, None, None)
    for _ in range(60):
        (sched, ref), _ = _random_pair("leaky_bucket", rng)
        start = []
        for k in rng.integers(0, len(levels), len(sched.tokens)):
            level = levels[k]
            start.append(float(rng.uniform(0.0, 1.0)) if level is None else level)
        sched.tokens = list(start)
        ref.tokens = list(start)
        for step in range(400):
            if step % 100 == 99:
                _feedback((sched, ref), rng)
            assert sched.next_band() == _reference_leaky_pick(ref)
            assert _bits(sched.tokens) == _bits(ref.tokens)


def test_load_balancing_picks_match_the_reference():
    rng = np.random.default_rng(12)
    for _ in range(60):
        (sched, ref), _ = _random_pair("load_balancing", rng)
        for step in range(400):
            if step % 100 == 99:
                _feedback((sched, ref), rng)
            assert sched.next_band() == _reference_load_balancing_pick(ref)
            assert sched.counts == ref.counts


def test_minimum_delay_block_draws_match_scalar_draws():
    # 9,000 picks cross two refills of 4,096 draws.
    rng = np.random.default_rng(13)
    spread = 0
    for _ in range(8):
        (sched, ref), seed = _random_pair("minimum_delay", rng)
        scalar = np.random.default_rng(seed)
        picks = [sched.next_band() for _ in range(9000)]
        assert picks == [_reference_minimum_delay_pick(ref, scalar) for _ in range(9000)]
        spread += len(set(picks)) > 1
    assert spread > 0
