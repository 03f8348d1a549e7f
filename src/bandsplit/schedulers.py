"""Per-packet band selection policies.

One scheduler instance serves one flow.  All policies share the same
surface: ``next_band()`` picks a band for the next packet and
``update_feedback()`` refreshes the measured band statistics (and, for
the optimizing policies, the target split).  The band count is the
length of the ``stats`` a policy is built with.  ``avail`` is the sorted,
never empty tuple of usable band indices, built once from the flow's
``available_bands`` (None means every band); a masked band is never
returned.  ``uses_feedback`` marks the policies that read measured
stats; the engine keeps measurement windows only for those.  The
policies that read none also give ``next_bands(n)``, their next n picks
as one int array, equal to n ``next_band()`` calls.

Policy names as they appear in config files:

    single_band      everything on one fixed band
    even_split       round-robin over the available bands
    load_balancing   keep assigned counts proportional to service rates
    band_per_flow    pin the whole flow to one band (round-robin by flow)
    minimum_delay    sample each packet's band at the optimal fractions
    leaky_bucket     token algorithm; buckets fill toward the optimal
                     split and the fullest bucket at or above one token
                     sends and is debited
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import ceil
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, LengthMismatch
from .model import BandStats
from .optimizer import optimize

KINDS = (
    "single_band",
    "even_split",
    "load_balancing",
    "band_per_flow",
    "minimum_delay",
    "leaky_bucket",
)

# Token comparisons use >= 1 - TOKEN_EPS so float dust on the increments
# cannot stall a bucket that is analytically full.
TOKEN_EPS = 1e-12
_FULL = 1.0 - TOKEN_EPS

# Uniforms MinimumDelay draws per refill.
_BLOCK = 4096


@dataclass(frozen=True)
class SchedulerSpec:
    """Parsed scheduler selection from a config file."""

    kind: str
    band: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigInvalid(f"unknown scheduler kind {self.kind!r}")
        if self.kind == "single_band" and self.band is None:
            raise ConfigInvalid("single_band needs a 'band' index")
        if self.kind != "single_band" and self.band is not None:
            raise ConfigInvalid(f"{self.kind} takes no band index")

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.band}" if self.kind == "single_band" else self.kind

    @staticmethod
    def parse(text: str, where: str = "scheduler") -> "SchedulerSpec":
        """The string form of a config entry, ``kind`` or
        ``single_band:<j>``; config.py reads the object form."""
        kind, colon, idx = text.partition(":")
        if colon and not (idx.isascii() and idx.isdigit()):
            raise ConfigInvalid(f"{where}: bad band index in {text!r}")
        try:
            return SchedulerSpec(kind=kind, band=int(idx) if colon else None)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{where}: {exc}") from None


class Scheduler:
    """Shared plumbing for all policies."""

    kind = "base"
    uses_feedback = False

    def __init__(self, stats: Sequence[BandStats], avail: Sequence[int] | None):
        num_bands = len(stats)
        self.stats = list(stats)
        self.avail = tuple(range(num_bands)) if avail is None else tuple(sorted(set(avail)))
        if not self.avail:
            raise ConfigInvalid("no usable band")
        if not 0 <= self.avail[0] <= self.avail[-1] < num_bands:
            raise ConfigInvalid(f"usable bands {self.avail} outside 0..{num_bands - 1}")

    def next_band(self) -> int:
        raise NotImplementedError

    def update_feedback(self, stats: Sequence[BandStats]) -> None:
        if len(stats) != len(self.stats):
            raise LengthMismatch(f"{len(stats)} band stats vs {len(self.stats)} bands")
        self.stats = list(stats)


class SingleBand(Scheduler):
    kind = "single_band"

    def __init__(self, stats, avail, band: int):
        super().__init__(stats, avail)
        if band not in self.avail:
            raise ConfigInvalid(f"single_band index {band} is not among usable bands {self.avail}")
        self.band = band

    def next_band(self) -> int:
        return self.band

    def next_bands(self, n: int) -> np.ndarray:
        return np.full(n, self.band, np.intc)


class EvenSplit(Scheduler):
    """Round-robin: the usable bands in index order, repeated."""

    kind = "even_split"

    def __init__(self, stats, avail):
        super().__init__(stats, avail)
        self._cycle = itertools.cycle(self.avail).__next__

    def next_band(self) -> int:
        return self._cycle()

    def next_bands(self, n: int) -> np.ndarray:
        # The cycle has period len(avail): n picks from the next one on
        # leave it where n % len(avail) picks would.
        avail = self.avail
        first = avail.index(self._cycle())
        for _ in range((n - 1) % len(avail)):
            self._cycle()
        cycle = np.array(avail[first:] + avail[:first], np.intc)
        return np.tile(cycle, -(-n // len(avail)))[:n]


class LoadBalancing(Scheduler):
    """Assign so counts track service rates: pick argmin assigned_j / mu_j.

    Counts restart at every feedback round, whether or not the rates
    changed; otherwise a small drift in the measured rates would trigger
    a catch-up burst sized like the whole history.
    """

    kind = "load_balancing"
    uses_feedback = True

    def __init__(self, stats, avail):
        super().__init__(stats, avail)
        self.counts = [0] * len(self.stats)
        self.rates = [st.mu for st in self.stats]

    def update_feedback(self, stats) -> None:
        super().update_feedback(stats)
        self.counts = [0] * len(self.stats)
        self.rates = [st.mu for st in self.stats]

    def next_band(self) -> int:
        counts = self.counts
        rates = self.rates
        best = None
        best_load = math.inf
        for j in self.avail:
            load = counts[j] / rates[j]
            if load < best_load:
                best = j
                best_load = load
        counts[best] += 1
        return best


class BandPerFlow(Scheduler):
    """Whole flow pinned to one band; flows pick pins round-robin."""

    kind = "band_per_flow"

    def __init__(self, stats, avail, flow_index: int):
        super().__init__(stats, avail)
        self.band = self.avail[flow_index % len(self.avail)]

    def next_band(self) -> int:
        return self.band

    def next_bands(self, n: int) -> np.ndarray:
        return np.full(n, self.band, np.intc)


class _OptimizingScheduler(Scheduler):
    """Shared optimizer plumbing for minimum_delay and leaky_bucket.

    Solves over the available subset only; masked bands carry a zero
    target rate.  The split is a function of the stats that produced
    it, so feedback whose stats compare equal to those keeps the split
    without a solve.  A failed re-solve keeps the previous split and
    re-raises, so callers can continue on stale-but-safe targets; the
    failing stats are not remembered, so the same stats again re-solve
    and re-raise.
    """

    uses_feedback = True

    def __init__(self, stats, avail, lambda_total: float):
        super().__init__(stats, avail)
        self.lambda_total = float(lambda_total)
        self._resolve()

    def _solve_subset(self) -> list[float]:
        sub = [self.stats[j] for j in self.avail]
        sol = optimize(self.lambda_total, sub)
        full = [0.0] * len(self.stats)
        for j, lam in zip(self.avail, sol.lambdas):
            full[j] = lam
        return full

    def _resolve(self) -> None:
        self.lambda_star = self._solve_subset()
        self._solved_stats = self.stats
        self._on_new_split()

    def _on_new_split(self) -> None:
        raise NotImplementedError

    def update_feedback(self, stats: Sequence[BandStats]) -> None:
        super().update_feedback(stats)
        if self.stats != self._solved_stats:
            self._resolve()


class MinimumDelay(_OptimizingScheduler):
    """Assign each packet to a band with probability equal to the optimal
    split fraction, from a seeded stream.

    Probabilistic splitting keeps every band's arrival process Poisson,
    which is exactly the regime the per-band delay model assumes; the
    scheme looks at no packet identity and maintains the optimal ratio in
    expectation.  Runs stay reproducible because the stream is derived
    from the run seed.
    """

    kind = "minimum_delay"

    def __init__(self, stats, avail, lambda_total, rng: np.random.Generator):
        # rng.random() one at a time, read through a C-level chain.
        self._uniform = itertools.chain.from_iterable(_uniform_blocks(rng)).__next__
        super().__init__(stats, avail, lambda_total)

    def _on_new_split(self) -> None:
        total = sum(self.lambda_star)
        # (cumulative fraction, band) over the available bands, summed in
        # avail order, so a pick only compares.
        acc = 0.0
        self._bounds = []
        for j in self.avail:
            acc += self.lambda_star[j] / total
            self._bounds.append((acc, j))

    def next_band(self) -> int:
        u = self._uniform()
        for bound, j in self._bounds:
            if u < bound:
                return j
        return self.avail[-1]


def _uniform_blocks(rng: np.random.Generator):
    """Endless ``_BLOCK``-draw lists of ``rng.random()`` in stream order.

    A module-level generator over ``rng``, not a method, as
    ``distributions._blocks`` is: a generator frame holding its scheduler
    would make a reference cycle.
    """
    while True:
        yield rng.random(_BLOCK).tolist()


class LeakyBucket(_OptimizingScheduler):
    """Token algorithm: per-band buckets fill each round, the fullest
    bucket at or above one token sends and is debited one token.

    Rounds add every band's increment simultaneously until some bucket
    reaches one token; the round loop is advanced in closed form
    (identical token values, no per-round iteration).

    The per-round credit is the target rate over a single reference
    service rate (the fastest available band): R_j = lam_j* / mu_ref.
    With equal service rates this is exactly the target-over-own-rate
    credit, and for any rates the long-run send fraction of band j is
    R_j / sum(R) = lam_j*/lam, i.e. the bucket realizes the optimal
    split.  Normalizing by the band's own rate instead would skew the
    fractions to lam_j*/mu_j whenever the rates differ.
    """

    kind = "leaky_bucket"

    def __init__(self, stats, avail, lambda_total):
        self.tokens = [0.0] * len(stats)
        super().__init__(stats, avail, lambda_total)

    def _on_new_split(self) -> None:
        mu_ref = max(self.stats[j].mu for j in self.avail)
        self.increments = [lam / mu_ref for lam in self.lambda_star]

    def next_band(self) -> int:
        avail = self.avail
        tokens = self.tokens
        incr = self.increments
        # One pass: stop at a full bucket with rounds at 0, so no bucket
        # fills, else find the fewest rounds (at least one) that fill
        # some bucket.  The available bands' targets sum to lambda > 0,
        # so some increment is positive and the pass ends with rounds >= 1.
        rounds = 0
        for j in avail:
            t = tokens[j]
            if t >= _FULL:
                rounds = 0
                break
            r = incr[j]
            if r > 0.0:
                need = ceil((_FULL - t) / r)
                if need < 1:
                    need = 1
                if rounds == 0 or need < rounds:
                    rounds = need
        # Fill, and pick the fullest bucket, the first on a tie.
        best = avail[0]
        top = -math.inf
        for j in avail:
            t = tokens[j]
            if rounds:
                t += rounds * incr[j]
                tokens[j] = t
            if t > top:
                best = j
                top = t
        tokens[best] = top - 1.0
        return best


def make_scheduler(
    spec: SchedulerSpec,
    *,
    stats: Sequence[BandStats],
    lambda_total: float,
    flow_index: int = 0,
    avail: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
) -> Scheduler:
    """Build the policy ``spec`` names; ``avail`` lists the usable bands
    (None: every band).  ``rng`` is the stream minimum_delay draws from,
    required for it and unread by every other policy."""
    if spec.kind == "single_band":
        return SingleBand(stats, avail, band=spec.band)
    if spec.kind == "even_split":
        return EvenSplit(stats, avail)
    if spec.kind == "load_balancing":
        return LoadBalancing(stats, avail)
    if spec.kind == "band_per_flow":
        return BandPerFlow(stats, avail, flow_index=flow_index)
    if spec.kind == "minimum_delay":
        if rng is None:
            raise ValueError("minimum_delay needs an rng")
        return MinimumDelay(stats, avail, lambda_total, rng)
    if spec.kind == "leaky_bucket":
        return LeakyBucket(stats, avail, lambda_total)
    raise ConfigInvalid(f"unknown scheduler kind {spec.kind!r}")
