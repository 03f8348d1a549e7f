"""Per-packet band selection policies.

One scheduler instance serves one flow.  All policies share the same
surface: ``next_band()`` picks a band for the next packet and
``update_feedback()`` refreshes the measured band statistics (and, for
the optimizing policies, the target split).  ``avail`` is the sorted,
never empty tuple of usable band indices, built once from the flow's
``available_bands`` (None means every band); a masked band is never
returned.  ``uses_feedback`` marks the policies that read measured
stats; the engine keeps measurement windows only for those.

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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, OptimizerFailure
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
    def parse(obj, where: str = "scheduler") -> "SchedulerSpec":
        if isinstance(obj, str):
            if ":" in obj:
                kind, _, idx = obj.partition(":")
                if not (idx.isascii() and idx.isdigit()):
                    raise ConfigInvalid(f"{where}: bad band index in {obj!r}")
                return SchedulerSpec(kind=kind, band=int(idx))
            return SchedulerSpec(kind=obj)
        if isinstance(obj, dict):
            for key in obj:
                if key not in ("kind", "band"):
                    raise ConfigInvalid(f"{where}.{key}: unknown field (known: kind, band)")
            band = obj.get("band")
            if band is not None and (isinstance(band, bool) or not isinstance(band, int)):
                raise ConfigInvalid(f"{where}.band: expected an integer, got {band!r}")
            return SchedulerSpec(kind=obj.get("kind"), band=band)
        raise ConfigInvalid(f"{where}: expected a name or an object, got {type(obj).__name__}")


class Scheduler:
    """Shared plumbing for all policies."""

    kind = "base"
    uses_feedback = False

    def __init__(self, num_bands: int, stats: Sequence[BandStats], avail: Sequence[int] | None):
        if num_bands < 1:
            raise ConfigInvalid("need at least one band")
        if len(stats) != num_bands:
            raise ConfigInvalid("stats length does not match band count")
        self.num_bands = num_bands
        self.stats = list(stats)
        self.avail = tuple(range(num_bands)) if avail is None else tuple(sorted(set(avail)))
        if not self.avail:
            raise ConfigInvalid("no usable band")
        if not 0 <= self.avail[0] <= self.avail[-1] < num_bands:
            raise ConfigInvalid(f"usable bands {self.avail} outside 0..{num_bands - 1}")

    def next_band(self) -> int:
        raise NotImplementedError

    def update_feedback(self, stats: Sequence[BandStats], lambda_total: float) -> None:
        if len(stats) != self.num_bands:
            raise ConfigInvalid("stats length does not match band count")
        self.stats = list(stats)


class SingleBand(Scheduler):
    kind = "single_band"

    def __init__(self, num_bands, stats, avail, band: int):
        super().__init__(num_bands, stats, avail)
        if band not in self.avail:
            raise ConfigInvalid(f"single_band index {band} is not among usable bands {self.avail}")
        self.band = band

    def next_band(self) -> int:
        return self.band


class EvenSplit(Scheduler):
    kind = "even_split"

    def __init__(self, num_bands, stats, avail):
        super().__init__(num_bands, stats, avail)
        self._ptr = 0

    def next_band(self) -> int:
        # First usable band at or after the pointer, wrapping around.
        for j in self.avail:
            if j >= self._ptr:
                break
        else:
            j = self.avail[0]
        self._ptr = j + 1
        return j


class LoadBalancing(Scheduler):
    """Assign so counts track service rates: pick argmin assigned_j / mu_j.

    Counts restart whenever the rate snapshot changes; otherwise a small
    drift in the measured rates would trigger a catch-up burst sized like
    the whole history.
    """

    kind = "load_balancing"
    uses_feedback = True

    def __init__(self, num_bands, stats, avail):
        super().__init__(num_bands, stats, avail)
        self.counts = [0] * num_bands

    def update_feedback(self, stats, lambda_total: float) -> None:
        super().update_feedback(stats, lambda_total)
        self.counts = [0] * self.num_bands

    def next_band(self) -> int:
        best = None
        best_load = math.inf
        for j in self.avail:
            load = self.counts[j] / self.stats[j].mu
            if load < best_load:
                best, best_load = j, load
        self.counts[best] += 1
        return best


class BandPerFlow(Scheduler):
    """Whole flow pinned to one band; flows pick pins round-robin."""

    kind = "band_per_flow"

    def __init__(self, num_bands, stats, avail, flow_index: int):
        super().__init__(num_bands, stats, avail)
        self.band = self.avail[flow_index % len(self.avail)]

    def next_band(self) -> int:
        return self.band


class _OptimizingScheduler(Scheduler):
    """Shared optimizer plumbing for minimum_delay and leaky_bucket.

    Solves over the available subset only; masked bands carry a zero
    target rate.  A failed re-solve keeps the previous split and
    re-raises, so callers can continue on stale-but-safe targets.
    """

    uses_feedback = True

    def __init__(self, num_bands, stats, avail, lambda_total: float):
        super().__init__(num_bands, stats, avail)
        self.lambda_total = float(lambda_total)
        self._resolve()

    def _solve_subset(self) -> list[float]:
        sub = [self.stats[j] for j in self.avail]
        sol = optimize(self.lambda_total, sub)
        full = [0.0] * self.num_bands
        for j, lam in zip(self.avail, sol.alloc.lambdas):
            full[j] = lam
        return full

    def _resolve(self) -> None:
        self.lambda_star = self._solve_subset()
        self._on_new_split()

    def _on_new_split(self) -> None:
        raise NotImplementedError

    def update_feedback(self, stats: Sequence[BandStats], lambda_total: float) -> None:
        super().update_feedback(stats, lambda_total)
        self.lambda_total = float(lambda_total)
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

    def __init__(self, num_bands, stats, avail, lambda_total, rng: np.random.Generator):
        self._rng = rng
        super().__init__(num_bands, stats, avail, lambda_total)

    def _on_new_split(self) -> None:
        total = sum(self.lambda_star)
        self.fractions = [lam / total for lam in self.lambda_star]

    def next_band(self) -> int:
        avail = self.avail
        u = self._rng.random()
        acc = 0.0
        for j in avail:
            acc += self.fractions[j]
            if u < acc:
                return j
        return avail[-1]


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

    def __init__(self, num_bands, stats, avail, lambda_total):
        self.tokens = [0.0] * num_bands
        super().__init__(num_bands, stats, avail, lambda_total)

    def _on_new_split(self) -> None:
        mu_ref = max(self.stats[j].mu for j in self.avail)
        self.increments = [lam / mu_ref for lam in self.lambda_star]

    def next_band(self) -> int:
        avail = self.avail
        tokens = self.tokens
        incr = self.increments
        if not any(tokens[j] >= 1.0 - TOKEN_EPS for j in avail):
            rounds = None
            for j in avail:
                r = incr[j]
                if r > 0.0:
                    need = math.ceil((1.0 - TOKEN_EPS - tokens[j]) / r)
                    need = max(need, 1)
                    rounds = need if rounds is None else min(rounds, need)
            if rounds is None:
                raise OptimizerFailure("all token increments are zero")
            for j in avail:
                tokens[j] += rounds * incr[j]
        best = avail[0]
        for j in avail[1:]:
            if tokens[j] > tokens[best]:
                best = j
        tokens[best] -= 1.0
        return best


def make_scheduler(
    spec: SchedulerSpec,
    *,
    num_bands: int,
    stats: Sequence[BandStats],
    lambda_total: float,
    flow_index: int = 0,
    avail: Sequence[int] | None = None,
    rng: np.random.Generator | None = None,
) -> Scheduler:
    """Build the policy ``spec`` names; ``avail`` lists the usable bands
    (None: every band)."""
    if spec.kind == "single_band":
        return SingleBand(num_bands, stats, avail, band=spec.band)
    if spec.kind == "even_split":
        return EvenSplit(num_bands, stats, avail)
    if spec.kind == "load_balancing":
        return LoadBalancing(num_bands, stats, avail)
    if spec.kind == "band_per_flow":
        return BandPerFlow(num_bands, stats, avail, flow_index=flow_index)
    if spec.kind == "minimum_delay":
        if rng is None:
            rng = np.random.default_rng(0)
        return MinimumDelay(num_bands, stats, avail, lambda_total, rng)
    if spec.kind == "leaky_bucket":
        return LeakyBucket(num_bands, stats, avail, lambda_total)
    raise ConfigInvalid(f"unknown scheduler kind {spec.kind!r}")
