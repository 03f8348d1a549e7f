"""Windowed moment estimation for the feedback loop.

Each (band, flow) pair keeps two windows: packet service times and
vacation lengths (time the band spent serving or vacationing away from
this flow's queue between the flow's own consecutive services).  Windowed
means feed BandStats back to the schedulers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from operator import mul

from .errors import InsufficientSamples
from .model import BandStats

# Vacation mean reported when a flow has only ever seen zero-length
# vacations (e.g. it is alone on its band).  Keeps BandStats valid while
# contributing ~5e-10 s of residual delay.
VACATION_FLOOR = 1e-9

DEFAULT_WINDOW = 512
# Samples each window needs before band_stats_from_windows trusts it.
MIN_SAMPLES = 30


class MomentEstimator:
    """Ring buffer with running first/second moment over its contents.

    Running sums are resynced by exact summation every time the ring
    wraps, which bounds float drift to the last window's worth of
    updates; the estimates stay within 1e-9 relative of the exact window
    moments.
    """

    __slots__ = ("window", "_ring", "_pos", "_sum", "_sum_sq")

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._ring: list[float] = []
        self._pos = 0
        self._sum = 0.0
        self._sum_sq = 0.0

    def add(self, x: float) -> None:
        self.extend((x,))

    def extend(self, xs: Iterable[float]) -> None:
        """Add each of ``xs`` in order, on the window's state bound to
        locals."""
        ring = self._ring
        window = self.window
        pos = self._pos
        total = self._sum
        total_sq = self._sum_sq
        filling = len(ring) < window
        for x in xs:
            if filling:
                ring.append(x)
                total += x
                total_sq += x * x
            else:
                old = ring[pos]
                ring[pos] = x
                total += x - old
                total_sq += x * x - old * old
            pos += 1
            if pos >= window:
                pos = 0
                filling = False
                total = math.fsum(ring)
                total_sq = math.fsum(map(mul, ring, ring))
        self._pos = pos
        self._sum = total
        self._sum_sq = total_sq

    def __len__(self) -> int:
        return len(self._ring)

    def mean(self) -> float:
        if not self._ring:
            raise InsufficientSamples("no samples in window")
        return self._sum / len(self._ring)

    def mean_sq(self) -> float:
        if not self._ring:
            raise InsufficientSamples("no samples in window")
        return self._sum_sq / len(self._ring)


def band_stats_from_windows(service: MomentEstimator, vacation: MomentEstimator) -> BandStats:
    """BandStats from measurement windows.

    mu is the reciprocal mean service time and x2 the windowed second
    moment, so x2 >= (1/mu)^2 holds by construction.  All-zero vacation
    windows are floored to keep the stats usable downstream.  Reads each
    window's count and running sums directly: the same divisions as
    ``mean`` and ``mean_sq``, without their calls, as a feedback round
    makes one of these per fresh tap.  For the same reason the stats are
    built from positional arguments (mu, x2, vbar, v2), which
    ``BandStats`` checks as a keyword build would.
    """
    n_service = len(service._ring)
    n_vacation = len(vacation._ring)
    if n_service < MIN_SAMPLES or n_vacation < MIN_SAMPLES:
        raise InsufficientSamples(
            f"need {MIN_SAMPLES} service and vacation samples, "
            f"have {n_service}/{n_vacation}"
        )
    mean_service = service._sum / n_service
    if mean_service <= 0.0:
        raise InsufficientSamples("degenerate service window (non-positive mean)")
    vbar = max(vacation._sum / n_vacation, VACATION_FLOOR)
    v2 = max(vacation._sum_sq / n_vacation, vbar**2)
    return BandStats(1.0 / mean_service, service._sum_sq / n_service, vbar, v2)
