"""Analytic delay model for a packet stream split across M bands.

Each band is an M/G/1 queue with server vacations.  With arrival rate
``lam``, service rate ``mu``, second moment of service time ``x2`` and
vacation moments ``vbar``/``v2``, the mean per-packet delay on a band is

    T(lam) = lam * x2 / (2 * (1 - lam/mu)) + v2 / (2 * vbar) + 1/mu

and the objective for a split (lam_1, ..., lam_M) of a total rate ``lam``
is the arrival-weighted mean of the per-band delays.  Everything here is
a pure function over immutable values; estimation and optimization live
elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import Infeasible, InvalidStats, LengthMismatch

# Relative slack applied to moment inequalities so that sample-estimated
# moments sitting exactly on the Jensen boundary are not rejected.
_MOMENT_SLACK = 1e-9

# Utilisations at or above this are treated as unstable by the optimizer
# and the simulator; the pole of the waiting-time formula makes anything
# closer numerically useless.
RHO_MAX = 0.999


@dataclass(frozen=True)
class FlowKey:
    """Identifies one (station, access-category) virtual queue."""

    sta_id: int
    ac: int

    def __post_init__(self) -> None:
        if self.sta_id < 0:
            raise ValueError(f"sta_id must be >= 0, got {self.sta_id}")
        if not 0 <= self.ac < 4:
            raise ValueError(f"ac must be in 0..3, got {self.ac}")


@dataclass(frozen=True)
class BandStats:
    """Measured moments of one band as seen by one flow.

    mu    service rate, packets/second
    x2    second moment of the service time, s^2
    vbar  mean vacation length, s
    v2    second moment of the vacation length, s^2

    Mean service time is 1/mu and is not stored separately.
    """

    mu: float
    x2: float
    vbar: float
    v2: float

    def validate(self) -> None:
        if not self.mu > 0.0:
            raise InvalidStats(f"mu must be > 0, got {self.mu}")
        mean_sq = (1.0 / self.mu) ** 2
        if self.x2 < mean_sq * (1.0 - _MOMENT_SLACK):
            raise InvalidStats(f"x2={self.x2} below (1/mu)^2={mean_sq}")
        if not self.vbar > 0.0:
            raise InvalidStats(f"vbar must be > 0, got {self.vbar}")
        if self.v2 < self.vbar**2 * (1.0 - _MOMENT_SLACK):
            raise InvalidStats(f"v2={self.v2} below vbar^2={self.vbar ** 2}")


@dataclass(frozen=True)
class DelayBreakdown:
    """Mean waiting, service, and total delay of one band, seconds."""

    waiting: float
    service: float
    total: float


@dataclass(frozen=True)
class RateAllocation:
    """Per-band arrival rates, packets/second."""

    lambdas: tuple[float, ...]

    def __init__(self, lambdas: Sequence[float]):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in lambdas))

    def __len__(self) -> int:
        return len(self.lambdas)

    @property
    def total(self) -> float:
        return sum(self.lambdas)


def band_delay(lambda_j: float, stats: BandStats) -> DelayBreakdown:
    """Mean delay of one band at arrival rate ``lambda_j``.

    Accepts lambda_j == 0 (the zero-arrival limit keeps the residual
    vacation term).  Raises Infeasible at or beyond the stability limit,
    InvalidStats if the moments are inconsistent.
    """
    stats.validate()
    if lambda_j < 0.0:
        raise Infeasible(f"negative arrival rate {lambda_j}")
    if lambda_j >= stats.mu:
        raise Infeasible(f"lambda={lambda_j} >= mu={stats.mu}: queue unstable")
    rho = lambda_j / stats.mu
    waiting = lambda_j * stats.x2 / (2.0 * (1.0 - rho)) + stats.v2 / (2.0 * stats.vbar)
    service = 1.0 / stats.mu
    return DelayBreakdown(waiting=waiting, service=service, total=waiting + service)


def aggregate_delay(alloc: RateAllocation, stats: Sequence[BandStats]) -> float:
    """Arrival-weighted mean delay over all bands: sum(T_j * lam_j) / sum(lam_j)."""
    return objective(alloc.lambdas, stats, alloc.total)


def objective(
    lambdas: Sequence[float], stats: Sequence[BandStats], lambda_total: float
) -> float:
    """The split objective with a fixed total-rate denominator.

    Unlike aggregate_delay, the denominator does not follow the (possibly
    perturbed) component sum, which is what finite-difference stationarity
    checks need.
    """
    if len(lambdas) != len(stats):
        raise LengthMismatch(f"{len(lambdas)} rates vs {len(stats)} band stats")
    if lambda_total <= 0.0:
        raise Infeasible("lambda_total must be > 0")
    weighted = 0.0
    for lam_j, st in zip(lambdas, stats):
        weighted += band_delay(lam_j, st).total * lam_j
    return weighted / lambda_total
