"""Deterministic discrete-event simulation of the multi-band system.

Poisson sources feed per-flow schedulers; each band is a single server
over per-(sta, ac) FIFO queues with strict priority across access
categories and round-robin across stations inside one category.  Served
packets cross an optional fixed propagation latency to the receiver,
which releases each flow's packets in sequence order.

Every run records the same facts, and one report derives every metric
from them:

- Each flow holds per-seq buffers, allocated when the run starts: the
  arrival, service start, receipt and band of each packet.  The
  arrivals are filled then, as ``np.cumsum`` of one bulk draw of the
  flow's gaps (the left fold that t + gap makes); a receipt is the
  departure plus the band's propagation latency.
- ``SimState._report`` derives the rest.  A packet is released at the
  latest receipt of its seq and all lower ones (the running maximum of
  the receipts); its latency is release minus arrival, its wait start
  minus arrival, and its resequencing delay release minus receipt.  It
  was held (out of order) exactly when it waited in the reorder buffer:
  its resequencing delay is positive, so some lower seq was received
  after it.  A receipt at the instant of the latest lower one is
  released at once and is not held, so the count reads receipt times
  alone and no order among same-instant events.  Each sum runs in seq
  order (``np.add.accumulate``), the order of release.  The report
  overwrites the buffers with its results, so it runs once per run.
- The complete-run invariant is checked before any metric is read:
  every flow generated its budget, every seq has exactly one receipt
  (none is left unset, and the run counted as many receipts as
  packets), and no packet is left in a queue or a server.
- The queue cap is checked once, after the run has filled the buffers
  and before the report (``SimState._check_queue_cap``): a band's queue
  just after an arrival is its arrivals up to that instant less its
  service starts up to it, and the run raises ``OverloadDetected`` at
  the earliest arrival that leaves a queue longer than ``QUEUE_CAP``.
  An overflowing run thus runs to its end before it raises.  How many
  packets a flow holds never selects a band's kind or a path.

Determinism: every stochastic source draws from its own named RNG stream
derived from the run seed, so a band's draws depend only on the order of
its own services and vacations.  Events are ordered by time, then kind
(departures, then vacation ends, then arrivals), then the order they
were scheduled in, so identical (config, scheduler, seed) triples
reproduce bit-identical reports.

``SimState.run`` takes the array path when nothing couples one band's
packets to another's: the policy reads no feedback (``uses_feedback``
false, so its picks depend on no time) and no band is reached by two
flows (``shared`` is empty).  Each band is then Lindley's recursion
over the packets its flow sends there, in seq order: a packet starts at
its arrival or its predecessor's departure, whichever is later, and
departs its service later.  Vacations, emergent or parametric, keep it
so: a parametric band's lazy chain is read from the band's own stream,
by its own packets in order, and restarts at its latest departure.
The path takes each flow's packets in chunks of ``_CHUNK``: the picks
come in one call (``next_bands``), each band's services in one draw, or
as one constant where the service is deterministic, and ``_lindley``
steps through the band's packets in the chunk with the walk's own step
(on a parametric band, reading the chain's vacations one at a time, or
adding a deterministic vacation as a constant), over Python floats,
carrying its last departure to the next chunk.  A deterministic stream
returns its one value at every read, so it is the same float
operations in the same order as the walk's, and the buffers are the
walk's bit for bit.

Where the service is deterministic and the vacations are emergent or
deterministic, ``_lindley`` settles the packets one binade at a time in
integer units of the binade's grid (``_grid_scan``), and gets the step's
floats exactly.  Inside the binade [2^(e-1), 2^e) every float is a
multiple of u = 2^(e-53), and adding a constant c there gives
s + round(c/u)·u, unless c/u is an exact half-integer (ties-to-even
then reads the parity of s) or the sum leaves the binade.  So the
service and each vacation step add fixed integers, every departure lies
in a residue class known in advance, a packet starts at the least
integer of its class above floor(arrival/u) or at its predecessor's
departure if later, and one running maximum gives every start:
Lindley's recursion in max-plus form.  The scan takes the running
maximum first and rounds it up to the residue class after it, which is
exact as rounding up never decreases.  The step takes each packet the
scan cannot: the first of a run (no departure yet, or the chain from 0),
one that leaves its binade, and each packet of a binade where a
constant ties.  Departures are start + x, the step's own addition.

Every other run is one walk over every flow's arrivals in event order,
with no event queue:

- Arrivals at one instant come in the order their flows' previous
  arrivals came (flows in index order for their first).  A heap over
  flows keyed by (next arrival time, push count) gives each flow a run of
  arrivals, up to its first at or after the next heap entry's time, as
  that entry was pushed first and wins a tie.  ``g`` counts arrivals.
- A band that one flow alone reaches is that flow's FIFO queue, so each
  packet takes its step of Lindley's recursion (Lindley 1952) there at
  its arrival: it starts at its arrival or its predecessor's departure,
  whichever is later (at a tie the band is idle, as departures come
  first).  On a parametric band an idle arrival waits out the first
  vacation of the chain that ends after it (one ending at the arrival
  counts as passed); the chain starts at 0, then at each departure that
  leaves the band empty.
- A band that several flows reach (``BandServer``) keeps queues for the
  (AC, station) pairs its flows use and is settled lazily: before a
  packet joins it, it runs its one pending departure or vacation end,
  and those they start, up to the arrival, starting queued packets by
  priority and round-robin (``BandServer.pick_queue``): each AC's
  stations take turns, in a row of queues kept rotated so that the next
  turn comes first.  An idle emergent band serves an arrival at once
  (picked, with several queues, so its row rotates past it).
  Parametric vacations run as lazy chains: a departure that leaves the
  band empty draws a vacation, and the first packet to wait runs the
  chain to its arrival and waits out the vacation that ends after it.

Under a feedback policy a band choice depends on the rounds fired before
the arrival.  Each departure leaves its event order key pending with
the flow, and the tap samples that are not known in advance: the
service unless it is deterministic, and the vacation sample, which is
the band's occupied time since the flow's previous departure there less
the service (a departure adds the chain's vacations and then the
service to the occupied time, in time order).  On a band that the flow
has alone under emergent vacations the band never leaves the flow's
queue, so every vacation sample is exactly 0 and the walk keeps no
occupied time there.

- Before an arrival of flow i the walk fires flow i's rounds whose
  departure comes before it, after settling to the arrival the lazily
  settled bands that hold packets of flow i.  Round m fires at the
  departure that makes the flow's served count a multiple of
  ``feedback_interval_pkts``, so none can while fewer packets of the
  flow are pending.  A round touches only the flow's own taps and
  scheduler, so nothing else waits for it.
- A departure's key in the event order is (d, 0, start), where
  ``start`` is the key of the event that started the service, as
  same-instant departures come in that order: (a, 2, g) at the packet's
  own arrival, (end, 1, g) at a vacation end that arrival g woke, or the
  predecessor's departure key for a queued packet.
- At a round each tap takes its samples up to that departure in one
  batch, with ``MomentEstimator.add``'s float operations in the same
  order; the known ones go in as a count of copies
  (``MomentEstimator.repeat``).  The rounds after the last arrival fire
  too, and the samples past the last round are fed, so after the run
  the taps and the scheduler are those of a loop that fed each
  departure as it came.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .config import ScenarioConfig
from .distributions import DistributionSpec, Sampler
from .errors import (
    ConfigInvalid,
    ConservationViolated,
    InsufficientSamples,
    OptimizerError,
    OverloadDetected,
)
from .estimators import VACATION_FLOOR, MomentEstimator, band_stats_from_windows
from .metrics import MetricsReport
from .model import BandStats
from .schedulers import SchedulerSpec, make_scheduler

# Event-kind ranks at one instant: departures before vacation ends
# before arrivals.
_DEPART = 0
_VACATION = 1
_ARRIVAL = 2
# The time of an event order key.
_TIME = itemgetter(0)

# RNG stream domains, combined with the run seed per flow/band.
_DOM_ARRIVAL = 0
_DOM_SERVICE = 1
_DOM_VACATION = 2
_DOM_SCHEDULER = 3

# A run in which a band queue grew longer than this raises
# OverloadDetected when it ends.
QUEUE_CAP = 1_000_000

# The array path takes a flow's packets this many at a time, which
# bounds the lists ``_lindley`` steps over.
_CHUNK = 65_536


class _Tap:
    """Measurement windows of one (band, flow) pair: its service and
    vacation samples, the known ones added as counts of copies by
    ``_Lane.feed``.  ``fresh`` marks a sample added since the last
    feedback round read the windows."""

    __slots__ = ("service", "vacation", "fresh")

    def __init__(self):
        self.service = MomentEstimator()
        self.vacation = MomentEstimator()
        self.fresh = False


class _Lane:
    """One flow's pending feedback on one band: ``keys`` holds the event
    order key of each of its departures there not yet fed to its tap,
    and ``services`` and ``vacations`` the tap's samples from each, or
    None where every sample is known: a deterministic service is always
    ``service_time``, and a band that one flow has alone under emergent
    vacations never leaves the flow's queue, so its vacations are 0.
    ``last`` is the band's occupied time at the flow's latest departure
    there.  On a lazily settled band ``queued`` counts the flow's
    packets there that have not departed yet."""

    __slots__ = ("keys", "services", "vacations", "service_time", "first", "last", "queued")

    def __init__(self, service_time: float | None, vacations: bool = True):
        self.keys: list[tuple] = []
        self.services: list[float] | None = [] if service_time is None else None
        self.vacations: list[float] | None = [] if vacations else None
        self.service_time = service_time
        self.first = 1  # vacation samples to skip at the next feed
        self.last = 0.0
        self.queued = 0

    def feed(self, tap: _Tap, fed: int) -> None:
        """Feed the first ``fed`` pending departures to ``tap``; a known
        sample goes in as a count of copies."""
        services = self.services
        if services is None:
            tap.service.repeat(self.service_time, fed)
        else:
            tap.service.extend(services[:fed])
            del services[:fed]
        # The flow's first departure on the band gives no vacation sample.
        vacations = self.vacations
        if vacations is None:
            tap.vacation.repeat(0.0, fed - self.first)
        else:
            tap.vacation.extend(vacations[self.first : fed])
            del vacations[:fed]
        del self.keys[:fed]
        self.first = 0
        tap.fresh = True


class _FifoBand(_Lane):
    """A band that one flow alone reaches, however many packets the flow
    holds; it is its own flow's lane, which stores no vacation samples
    under emergent vacations and no service samples under a
    deterministic service.  ``done`` is the departure of its latest
    packet, where a parametric band's next vacation chain starts, on
    both the walk and the array path.  ``occupied`` is its occupied time
    so far, which only a parametric band reads (a static walk adds only
    its vacations).  ``service_time`` and ``vacation_time`` are the
    samplers' ``constant`` (a deterministic time, None for any other
    kind), which the array path adds in place of reading the streams."""

    __slots__ = ("done", "occupied", "serve", "serve_many", "vacation", "vacation_time", "prop")
    shared = False

    def __init__(self, service: Sampler, vacation: Sampler | None, prop_latency: float):
        super().__init__(service.constant, vacation is not None)
        # The samplers' C-level stream readers, the bulk reader of the
        # array path, and the constant that each deterministic stream
        # always returns; no vacation sampler means emergent vacations.
        self.serve = service.take
        self.serve_many = service.many
        self.vacation = None if vacation is None else vacation.take
        self.vacation_time = None if vacation is None else vacation.constant
        self.prop = prop_latency
        # An arrival at the instant of ``done`` finds the band idle, as
        # departures come first.  A parametric band's first vacation
        # starts at 0, and each departure that leaves it empty starts the
        # next one.
        self.done = -math.inf if self.vacation is None else 0.0
        self.occupied = 0.0


class BandServer:
    """A band that two or more flows reach: FIFO queues for the (AC rank,
    station) pairs its flows use, and its service and vacation state.
    ``queues`` holds one row of queues per AC rank in use, in priority
    order; each row starts at the station whose round-robin turn is next
    (station order until its first pick).
    ``nxt`` is the time of its one pending event (inf if none): the
    departure in service, or the end of the vacation in progress when
    arrival ``waker`` (at ``woke_at``) found the band idle (on an
    emergent band, that arrival).  Under a feedback policy ``key`` is the
    event order key of the departure in service and ``lanes`` holds each
    flow's lane, by flow index."""

    __slots__ = (
        "queues",
        "queue_of",
        "qlen",
        "current",
        "dur",
        "key",
        "nxt",
        "woke_at",
        "waker",
        "vac_dur",
        "vac_end",
        "occupied",
        "departed",
        "lanes",
        "serve",
        "vacation",
        "prop",
    )
    shared = True

    def __init__(self, pairs, service: Sampler, vacation: Sampler | None, prop_latency: float):
        # Priority runs over the ranks in use, round-robin over each
        # rank's stations in use: a station that no flow uses is always
        # empty, so walking it would never change a pick.
        self.queue_of = {pair: deque() for pair in sorted(set(pairs))}
        ranks = sorted({rank for rank, _ in pairs})
        self.queues = [[q for (r, _), q in self.queue_of.items() if r == rank] for rank in ranks]
        self.qlen = 0
        self.current: tuple[int, int] | None = None  # (flow index, seq)
        self.dur = 0.0
        self.key: tuple | None = None
        self.nxt = math.inf
        self.woke_at = 0.0
        self.waker = 0
        # The vacation in progress; a parametric band's chain starts with
        # a zero-length one that ends at 0.
        self.vac_dur = 0.0
        self.vac_end = 0.0
        self.occupied = 0.0
        self.departed = 0
        self.lanes: list[_Lane | None] | None = None
        self.serve = service.take
        self.vacation = None if vacation is None else vacation.take
        self.prop = prop_latency

    def pick_queue(self) -> deque:
        """Next queue under strict AC priority, round-robin across STAs:
        the first non-empty queue of the first rank that has one.  Each
        rank's row is kept rotated so that the station whose turn is next
        comes first, so a pick rotates the row to put the queue after the
        picked one first (nothing to do when the picked one is the last).
        Called only while some queue of the band holds a packet."""
        for row in self.queues:
            # The index from enumerate: deques compare by content, so
            # row.index could find another queue holding equal packets.
            for i, q in enumerate(row):
                if q:
                    i += 1
                    if i < len(row):
                        row[:] = row[i:] + row[:i]
                    return q

    def settle(self, t: float, flows: list) -> None:
        """Run the band's events at or before ``t``: each departure, and
        the wake-up of the idle band, starts the next queued packet."""
        nxt = self.nxt
        lanes = self.lanes
        while nxt <= t:
            pkt = self.current
            if pkt is None:
                # A vacation ends on a band that a packet woke (on an
                # emergent band, a zero-length one at the arrival).  One
                # ending at or before the waking arrival was passed, and
                # the band takes the next one of its lazy chain.
                self.occupied += self.vac_dur
                vacation = self.vacation
                if vacation is None:
                    kind = _ARRIVAL
                elif nxt <= self.woke_at:
                    dur = vacation()
                    self.vac_dur = dur
                    nxt += dur
                    continue
                else:
                    kind = _VACATION
                key = (nxt, kind, self.waker) if lanes is not None else None
            else:
                fi, seq = pkt
                fr = flows[fi]
                fr.receipt[seq] = nxt + self.prop
                self.departed += 1
                dur = self.dur
                occupied = self.occupied + dur
                self.occupied = occupied
                key = self.key
                if lanes is not None:
                    lane = lanes[fi]
                    lane.keys.append(key)
                    services = lane.services
                    if services is not None:
                        services.append(dur)
                    vac = occupied - lane.last - dur
                    lane.vacations.append(vac if vac > 0.0 else 0.0)
                    lane.last = occupied
                    lane.queued -= 1
                if not self.qlen:
                    self.current = None
                    if self.vacation is not None:
                        dur = self.vacation()
                        self.vac_dur = dur
                        self.vac_end = nxt + dur
                    self.nxt = math.inf
                    return
            pkt = self.pick_queue().popleft()
            self.qlen -= 1
            flows[pkt[0]].start[pkt[1]] = nxt
            dur = self.serve()
            self.current = pkt
            self.dur = dur
            end = nxt + dur
            if lanes is not None:
                self.key = (end, _DEPART, key)
            nxt = end
        self.nxt = nxt


class _FlowRuntime:
    """One flow's source state (``gaps``, its inter-arrival sampler), and
    its per-seq buffers: arrival, service start, receipt and band of
    every packet.  A run allocates the buffers when it starts and fills
    them in place; ``SimState._report`` derives every metric from them.
    Under a feedback policy ``pending`` counts its packets whose samples
    are not yet fed to the taps."""

    __slots__ = (
        "packets",
        "index",
        "rank",
        "sta",
        "scheduler",
        "gaps",
        "next_seq",
        "pending",
        "warmup_cut",
        "taps",
        "arrival",
        "start",
        "receipt",
        "band",
    )

    def __init__(self, cfg, index, rank, scheduler, arrivals: Sampler, warmup_cut, taps):
        self.packets = cfg.packets
        self.index = index
        self.rank = rank
        self.sta = cfg.sta
        self.scheduler = scheduler
        self.gaps = arrivals
        self.next_seq = 0
        self.pending = 0
        self.warmup_cut = warmup_cut
        self.taps = taps
        self.arrival = self.start = self.receipt = self.band = None


def bootstrap_stats(service: DistributionSpec) -> BandStats:
    """Nominal band stats before any measurement: the configured service
    distribution's exact moments plus a floor vacation."""
    mean, m2 = service.moments()
    return BandStats(mu=1.0 / mean, x2=m2, vbar=VACATION_FLOOR, v2=VACATION_FLOOR**2)


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, domain, index)))


def _sampler(spec: DistributionSpec, seed: int, domain: int, index: int) -> Sampler:
    """A sampler of ``spec`` on its own stream.  A deterministic spec
    never draws, so it gets none; streams are independent per (seed,
    domain, index), so no other draw moves."""
    return Sampler(spec, None if spec.kind == "deterministic" else _stream(seed, domain, index))


def _grid_scan(a: np.ndarray, k: int, t: float, x: float, vacation: float | None, start: np.ndarray) -> tuple[int, float]:
    """Settle packets k, k + 1, ... of ``_lindley`` on a band with a
    deterministic service ``x`` and emergent or deterministic vacations,
    whose last departure ``t`` > 0 lies in the binade [2^(e-1), 2^e):
    write the starts of the longest run of them that stays in that
    binade and return the first packet it leaves with the last departure.

    Every float of the binade is an integer multiple of u = 2^(e-53).  For
    s there and a constant c with c/u no exact half-integer, fl(s + c) is
    s + round(c/u)·u while that stays below 2^e, so the service and each
    vacation add the integers dx and dv.  Measured from b_i = t/u + i·dx,
    the i-th packet of the run then starts at c_i = floor(arrival/u) - b_i
    with emergent vacations; on a parametric band at the least multiple of
    dv (a vacation end of the chain) at or above c_i = floor(arrival/u) +
    1 - b_i, as the chain passes a vacation that ends at the arrival; or
    at its predecessor's departure if later: Lindley's recursion in
    max-plus form.  So the scan takes the running maximum of c, seeded
    with the last departure (0), and only then rounds it up to a multiple
    of dv, as (c + dv - 1) // dv · dv: a floor division, which numpy does
    faster than a remainder.  That order is exact because rounding up
    never decreases as c grows, so the running maximum of the rounded c_i
    is the rounded running maximum.  The run stops before the first
    packet with start + dx >= 2^53, so every time it reads stays in the
    binade.  It holds the packets that arrive below 2^e and at most
    (2^53 - t/u)/dx + 1 of them, as each departs at least dx after the one
    before, so no int64 sum overflows.  A c/u that is an exact
    half-integer, 1/2 or less, or 2^52 or more settles none."""
    e = math.frexp(t)[1]
    u = math.ldexp(1.0, e - 53)
    top = 1 << 53
    cx = x / u
    if not 0.5 < cx < top >> 1 or cx % 1.0 == 0.5:
        return k, t
    if vacation is not None:
        cv = vacation / u
        if not 0.5 < cv < top >> 1 or cv % 1.0 == 0.5:
            return k, t
    dx = round(cx)
    t0 = int(t / u)
    hi = min(int(a.searchsorted(math.ldexp(1.0, e))), k + (top - t0) // dx + 1)
    if hi == k:
        return k, t
    base = np.arange(t0, t0 + (hi - k) * dx, dx, dtype=np.int64)
    s = (a[k:hi] / u).astype(np.int64)
    s -= base
    if vacation is not None:
        s += 1
    if s[0] < 0:
        s[0] = 0
    np.maximum.accumulate(s, out=s)
    if vacation is not None:
        dv = round(cv)
        s += dv - 1
        s //= dv
        s *= dv
    s += base
    m = int(s.searchsorted(top - dx))
    if not m:
        return k, t
    k1 = k + m
    np.multiply(s[:m], u, out=start[k:k1])
    return k1, float(start[k1 - 1]) + x


def _lindley(a: np.ndarray, x: np.ndarray | float, done: float, vacation=None) -> tuple[np.ndarray, np.ndarray]:
    """Service starts and departures of packets with arrivals ``a`` on a
    FIFO band whose last departure was ``done``: the walk's own step over
    the values, the same float operations in the same order, so bit for
    bit the walk's.  ``x`` is the packets' services, drawn, or a
    deterministic band's one service time as a float.  A packet that
    finds the band busy starts at its predecessor's departure (at a tie
    the band is idle).  With emergent vacations (``vacation`` None) an
    idle band starts it at its arrival.  On a parametric band it waits
    out the first vacation of the chain from ``done`` that ends after the
    arrival: ``vacation`` is the band's stream reader, or a deterministic
    band's one vacation time as a float.  A busy packet's chain takes no
    step; an idle one (arrival at or after the last departure) takes at
    least one, so one loop serves both.  A departure is start + x_k.

    With a deterministic service and emergent or deterministic vacations,
    ``_grid_scan`` settles the packets in integer units of each binade's
    grid, which gives the step's floats exactly; the step takes each
    packet it cannot: the first (no departure yet, or the chain from 0),
    one that leaves the binade, and those of a binade where x or the
    vacation is an odd multiple of half its unit."""
    t = done
    if isinstance(x, float) and not callable(vacation):
        n = a.size
        start = np.empty(n)
        k = 0
        while k < n:
            if t > 0.0:
                k, t = _grid_scan(a, k, t, x, vacation, start)
                if k == n:
                    break
            ak = float(a[k])
            if vacation is None:
                s = t if ak < t else ak
            else:
                s = t
                while s <= ak:
                    s += vacation
            start[k] = s
            t = s + x
            k += 1
        return start, start + x
    services = zip(a.tolist(), repeat(x) if isinstance(x, float) else x.tolist())
    if vacation is None:
        d = np.fromiter([t := (t if ak < t else ak) + xk for ak, xk in services], float, a.size)
        start = np.empty(a.size)
        start[0] = done
        start[1:] = d[:-1]
        return np.maximum(a, start, out=start), d
    starts = []
    append = starts.append
    if isinstance(vacation, float):
        for ak, xk in services:
            s = t
            while s <= ak:
                s += vacation
            append(s)
            t = s + xk
    else:
        for ak, xk in services:
            s = t
            while s <= ak:
                s += vacation()
            append(s)
            t = s + xk
    start = np.fromiter(starts, float, a.size)
    return start, start + x


def _p95(values: np.ndarray) -> float:
    """``np.percentile(values, 95)`` by its default linear rule, the same
    float operations (``np.percentile`` imports ``numpy.ma`` at its first
    call).  The virtual index is v = (n - 1)·0.95 with fraction g; the
    result is a + (b - a)·g, or b - (b - a)·(1 - g) for g >= 0.5, between
    the order statistics a and b at i = floor(v) and the next, and the
    largest value for v >= n - 1.  One selection in place takes both:
    after ``values.partition(i)`` a is values[i], and the tail past it
    holds every value at or above it, so its minimum is b."""
    n = values.size
    v = (n - 1) * 0.95
    if v >= n - 1:
        return float(values.max())
    i = math.floor(v)
    values.partition(i)
    a = float(values[i])
    b = float(values[i + 1 :].min())
    g = v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


class SimState:
    """A fully wired simulation; run() drives it to completion and
    returns the report derived from the flows' per-seq buffers.
    ``servers`` holds every band, ``shared`` the lazily settled ones
    (``BandServer``, a band that two or more flows reach), and
    ``received`` counts the run's receipts, one per departure.  Neither
    kind of band checks the queue cap as it runs: ``_check_queue_cap``
    reads it from the buffers once either path has filled them.

    Exposed for white-box tests (estimator windows, per-seq buffers,
    which the report overwrites); normal callers use run_scenario().
    """

    def __init__(self, config: ScenarioConfig, scheduler_spec: SchedulerSpec, seed: int):
        if seed < 0:
            raise ConfigInvalid("seed: must be >= 0")
        self.config = config
        self.scheduler_spec = scheduler_spec
        self.seed = seed

        initial = [bootstrap_stats(b.service) for b in config.bands]
        self.flows: list[_FlowRuntime] = []
        reach: list[list[int]] = [[] for _ in config.bands]
        for i, fl in enumerate(config.flows):
            sched = make_scheduler(
                scheduler_spec,
                stats=initial,
                lambda_total=fl.lambda_pps,
                flow_index=i,
                avail=fl.available_bands,
                rng=_stream(seed, _DOM_SCHEDULER, i)
                if scheduler_spec.kind == "minimum_delay"
                else None,
            )
            taps = [_Tap() for _ in config.bands] if sched.uses_feedback else None
            fr = _FlowRuntime(
                cfg=fl,
                index=i,
                rank=config.acs.index(fl.ac),
                scheduler=sched,
                arrivals=_sampler(fl.gap(), seed, _DOM_ARRIVAL, i),
                warmup_cut=int(config.warmup_frac * fl.packets),
                taps=taps,
            )
            self.flows.append(fr)
            for j in sched.avail:
                reach[j].append(i)

        self.servers: list = []
        self.shared: list[BandServer] = []
        for j, band in enumerate(config.bands):
            service = _sampler(band.service, seed, _DOM_SERVICE, j)
            vacation = (
                None if config.vacation is None else _sampler(config.vacation, seed, _DOM_VACATION, j)
            )
            flows = [self.flows[i] for i in reach[j]]
            if len(flows) <= 1:
                srv = _FifoBand(service, vacation, band.prop_latency_s)
            else:
                srv = BandServer([(fr.rank, fr.sta) for fr in flows], service, vacation, band.prop_latency_s)
                if self.flows[0].taps is not None:
                    srv.lanes = [_Lane(service.constant) if i in reach[j] else None for i in range(len(self.flows))]
                self.shared.append(srv)
            self.servers.append(srv)

        self.received = 0  # receipts, one per departure, counted by the run

    # -- calls the run makes ---------------------------------------------

    def _feedback(self, fr: _FlowRuntime) -> None:
        """Rebuild the stats of the flow's fresh taps and hand the
        scheduler the result.  Only the bands the flow reaches have taps
        that a round feeds."""
        scheduler = fr.scheduler
        stats = list(scheduler.stats)
        taps = fr.taps
        for j in scheduler.avail:
            tap = taps[j]
            if tap.fresh:
                tap.fresh = False
                try:
                    stats[j] = band_stats_from_windows(tap.service, tap.vacation)
                except InsufficientSamples:
                    pass
        try:
            scheduler.update_feedback(stats)
        except OptimizerError:
            pass  # stale-but-safe: scheduler keeps its previous split

    def _start_flow(self, fr: _FlowRuntime) -> None:
        """Allocate the flow's per-seq buffers and fill its arrivals: the
        gaps in stream order, summed in order (``np.cumsum``, a left fold),
        as t + gap would."""
        n = fr.packets
        fr.arrival = array("d", [0.0]) * n
        np.cumsum(fr.gaps.many(n), out=np.frombuffer(fr.arrival))
        fr.start = array("d", [0.0]) * n
        fr.receipt = array("d", [math.nan]) * n
        fr.band = array("i", [0]) * n

    def run(self) -> MetricsReport:
        """Fill the flows' per-seq buffers, check the queue cap and return
        the report.

        A run whose policy reads no feedback, with no lazily settled
        band, takes the array path (``_run_arrays``), whatever its
        vacations: each band is Lindley's recursion over its own flow's
        packets, which ``_lindley`` steps through with the walk's own
        step, vacation chains included, so the buffers are the walk's
        bit for bit.  Every other run walks every flow's arrivals in
        event order (``_walk``), and under a feedback policy feeds the
        taps and fires the rounds.
        """
        if self.flows[0].taps is None and not self.shared:
            self._run_arrays()
        else:
            self._walk()
        self._check_queue_cap()
        return self._report()

    def _walk(self) -> None:
        """The walk of ``run``: every flow's arrivals in event order."""
        flows = self.flows
        servers = self.servers
        feedback = flows[0].taps is not None
        interval = self.config.feedback_interval_pkts
        # Per flow, bound once: what its steps use, and under a feedback
        # policy its lazily settled bands, each with its lane there, and
        # what its rounds use: its lanes, their keys and its taps on the
        # bands it reaches.
        walks = []
        for fr in flows:
            self._start_flow(fr)
            reached = [servers[j] for j in fr.scheduler.avail]
            lazy = rounds = None
            if feedback:
                lazy = [(b, b.lanes[fr.index]) for b in reached if b.shared]
                lanes = [b.lanes[fr.index] if b.shared else b for b in reached]
                rounds = (fr, lanes, [lane.keys for lane in lanes], [fr.taps[j] for j in fr.scheduler.avail])
            queues = [b.queue_of.get((fr.rank, fr.sta)) if b.shared else None for b in servers]
            steps = (fr.arrival, fr.band, fr.start, fr.receipt, fr.scheduler.next_band, queues)
            walks.append((fr, steps, lazy, rounds))
        # heappush is read from the module now, at run time, so a patched
        # engine.heappush sees every push.
        push = heappush
        heap = [(fr.arrival[0], fr.index, fr.index) for fr in flows]
        heapify(heap)
        pushes = len(flows)
        g = 0  # arrivals walked so far
        joined = 0  # arrivals that joined a lazily settled band
        while heap:
            _, _, i = heappop(heap)
            fr, steps, lazy, rounds = walks[i]
            arrivals, choices, starts, receipts, next_band, queues = steps
            k0 = fr.next_seq
            k1 = bisect_left(arrivals, heap[0][0], k0 + 1) if heap else fr.packets
            base = g - k0  # g of arrival k is base + k
            pending = fr.pending  # only the flow's own steps and rounds move it
            for k, a in enumerate(arrivals[k0:k1], k0):
                if feedback and pending >= interval:
                    # Fire the rounds whose departure comes before the
                    # arrival (at or before it, as departures come first);
                    # none can while fewer than interval packets are
                    # pending.  The flow's packets on a band with an event
                    # by then may depart by then, so those bands settle.
                    for srv, lane in lazy:
                        if lane.queued and srv.nxt <= a:
                            srv.settle(a, flows)
                    pending = self._fire_rounds(rounds, a, pending)
                j = next_band()
                choices[k] = j
                b = servers[j]
                if b.shared:
                    joined += 1
                    if b.nxt <= a:
                        b.settle(a, flows)
                    queues[j].append((i, k))
                    qlen = b.qlen + 1
                    b.qlen = qlen
                    if qlen == 1 and b.current is None:
                        # The packet wakes the idle band, which starts it
                        # when settled: an emergent band at once, a
                        # parametric one when the vacation in progress at
                        # the arrival ends.
                        b.nxt = a if b.vacation is None else b.vac_end
                        b.woke_at = a
                        b.waker = base + k
                    if feedback:
                        b.lanes[i].queued += 1
                        pending += 1
                    continue
                done = b.done
                if a < done:
                    s = done
                elif b.vacation is None:
                    s = a
                else:
                    vacation = b.vacation
                    occupied = b.occupied
                    dur = vacation()
                    occupied += dur
                    s = done + dur
                    while s <= a:
                        dur = vacation()
                        occupied += dur
                        s += dur
                    b.occupied = occupied
                dur = b.serve()
                b.done = end = s + dur
                starts[k] = s
                receipts[k] = end + b.prop
                if feedback:
                    # The departure's event order key, and the tap's
                    # samples that are not known: a service that is not
                    # deterministic, and on a parametric band the band's
                    # occupied time since its previous departure less the
                    # service.  The band's first departure has no
                    # vacation sample; feed drops the one computed here.
                    keys = b.keys
                    if a < done:
                        start = keys[-1]
                    elif b.vacation is None:
                        start = (a, _ARRIVAL, base + k)
                    else:
                        start = (s, _VACATION, base + k)
                    keys.append((end, _DEPART, start))
                    services = b.services
                    if services is not None:
                        services.append(dur)
                    vacations = b.vacations
                    if vacations is not None:
                        last = b.last
                        b.last = b.occupied = occupied = b.occupied + dur
                        vac = occupied - last - dur
                        vacations.append(vac if vac > 0.0 else 0.0)
                    pending += 1
            fr.pending = pending
            g += k1 - k0
            fr.next_seq = k1
            if k1 < fr.packets:
                push(heap, (arrivals[k1], pushes, i))
                pushes += 1
        for srv in self.shared:
            if srv.nxt < math.inf:
                srv.settle(math.inf, flows)
        if feedback:
            for _, _, _, rounds in walks:
                fr, lanes, _, taps = rounds
                self._fire_rounds(rounds, math.inf, fr.pending)
                for lane, tap in zip(lanes, taps):
                    if lane.keys:
                        lane.feed(tap, len(lane.keys))
        self.received = g - joined + sum(srv.departed for srv in self.shared)

    def _run_arrays(self) -> None:
        """The array path of ``run``: each flow's picks in one call per
        chunk, and each band's starts and departures by ``_lindley``, the
        walk's step over the packets the chunk sends there, its services
        drawn in one call and, on a parametric band, its vacations read
        from the band's stream as the step needs them.  A deterministic
        service or vacation time goes to ``_lindley`` as the constant in
        place of the draws or the reader.  The band carries its last
        departure to the next chunk."""
        servers = self.servers
        for fr in self.flows:
            self._start_flow(fr)
            n = fr.packets
            arrivals = np.frombuffer(fr.arrival)
            starts = np.frombuffer(fr.start)
            receipts = np.frombuffer(fr.receipt)
            choices = np.frombuffer(fr.band, dtype=np.intc)
            for c0 in range(0, n, _CHUNK):
                c1 = min(c0 + _CHUNK, n)
                picks = fr.scheduler.next_bands(c1 - c0)
                choices[c0:c1] = picks
                # Each band's share of the chunk from its own mask:
                # np.bincount converts the picks and scans them for their
                # maximum first, which costs more at one or two bands.
                for j in fr.scheduler.avail:
                    on = picks == j
                    count = int(np.count_nonzero(on))
                    if not count:
                        continue
                    b = servers[j]
                    seqs = slice(c0, c1) if count == c1 - c0 else c0 + np.flatnonzero(on)
                    x = b.service_time
                    v = b.vacation_time
                    starts[seqs], d = _lindley(
                        arrivals[seqs],
                        b.serve_many(count) if x is None else x,
                        b.done,
                        b.vacation if v is None else v,
                    )
                    b.done = float(d[-1])
                    receipts[seqs] = np.add(d, b.prop, out=d)
                    self.received += d.size
            fr.next_seq = n

    def _check_queue_cap(self) -> None:
        """Raise ``OverloadDetected`` at the earliest arrival that left a
        band's queue longer than ``QUEUE_CAP``, naming the lowest band
        when several overflow at that instant (an event loop names the
        band of the first such arrival in event order).  The queue just
        after an arrival at t is the band's arrivals at or before t less
        its service starts at or before t.  Each flow's packets on a band
        join one FIFO queue, so both are sorted per flow and counted by
        ``searchsorted``, ``_CHUNK`` arrivals at a time.  Only a band
        whose flows hold, and that got, more than ``QUEUE_CAP`` packets
        is read, in place where one flow sent it every packet."""
        cap = QUEUE_CAP
        earliest = (math.inf, 0)  # (t, band) of the earliest overflow
        for j in range(len(self.servers)):
            flows = [fr for fr in self.flows if j in fr.scheduler.avail]
            if sum(fr.packets for fr in flows) <= cap:
                continue
            ons = [np.frombuffer(fr.band, dtype=np.intc) == j for fr in flows]
            if sum(map(np.count_nonzero, ons)) <= cap:
                continue
            arrivals = []
            starts = []
            for fr, on in zip(flows, ons):
                a = np.frombuffer(fr.arrival)
                s = np.frombuffer(fr.start)
                if not on.all():
                    a, s = a[on], s[on]
                arrivals.append(a)
                starts.append(s)
            for a in arrivals:
                for c0 in range(0, a.size, _CHUNK):
                    t = a[c0 : c0 + _CHUNK]
                    queued = sum(np.searchsorted(x, t, "right") for x in arrivals)
                    queued -= sum(np.searchsorted(x, t, "right") for x in starts)
                    over = np.flatnonzero(queued > cap)
                    if over.size:
                        earliest = min(earliest, (float(t[over[0]]), j))
                        break
        t, j = earliest
        if t < math.inf:
            raise OverloadDetected(f"band {j} queue exceeded cap {cap} at t={t:.6f}")

    def _fire_rounds(self, rounds: tuple, t: float, pending: int) -> int:
        """Fire every feedback round of the flow whose departure comes at
        or before ``t``: its key sorts before (t, 1), as departures come
        before arrivals.  The flow's departures by ``t`` are known.
        Return its packets still pending, of the ``pending`` before."""
        fr, lanes, keys, taps = rounds
        interval = self.config.feedback_interval_pkts
        # A lane's departures by t are those whose time is at most t: its
        # keys (d, 0, start) sort by d first, and (d, 0, ...) < (t, 1)
        # exactly when d <= t.
        heads = [bisect_right(lane_keys, t, key=_TIME) for lane_keys in keys]
        extra = sum(heads) - interval
        while extra >= 0:
            # The round fires at the interval-th departure in event
            # order, the (extra + 1)-th latest of those before bound,
            # which is among the extra + 1 latest of its band; each band
            # feeds its departures up to that one: with no extra, all.
            feds = heads
            if extra:
                latest = chain.from_iterable([lane.keys[max(h - extra - 1, 0) : h] for lane, h in zip(lanes, heads)])
                last = sorted(latest)[-extra - 1]
                feds = [bisect_right(lane.keys, last, 0, h) for lane, h in zip(lanes, heads)]
            for lane, tap, fed in zip(lanes, taps, feds):
                if fed:
                    lane.feed(tap, fed)
            pending -= interval
            self._feedback(fr)
            heads = [h - fed for h, fed in zip(heads, feds)]
            extra -= interval
        return pending

    # -- accounting ----------------------------------------------------

    def _report(self) -> MetricsReport:
        """Every metric, derived from the flows' per-seq buffers in place.
        The report overwrites the receipts and starts with its results, so
        it runs once per run."""
        # The complete-run invariant, checked before any metric is read:
        # every flow generated its budget, every seq has exactly one
        # receipt (none is missing, and there are as many receipts as
        # packets), and no packet is left in a queue or a server.
        flows = self.flows
        total = 0
        for fr in flows:
            missing = int(np.count_nonzero(np.isnan(np.frombuffer(fr.receipt))))
            if fr.next_seq != fr.packets or missing:
                raise ConservationViolated(
                    f"flow {fr.index}: generated {fr.next_seq} of {fr.packets} packets, "
                    f"{missing} never received"
                )
            total += fr.packets
        queued = sum(srv.qlen + (srv.current is not None) for srv in self.shared)
        if self.received != total or queued:
            raise ConservationViolated(
                f"run ended with {self.received} receipts of {total} packets and {queued} packets "
                f"queued or in service"
            )

        lats = []
        firsts = []
        lasts = []
        held = 0
        reseq_sum = reseq_max = wait_sum = 0.0
        band_counts = [0] * len(self.servers)
        for fr in flows:
            # The band counts' temporaries are freed before the release
            # times are made, and the results overwrite the buffers, so a
            # report adds about one n-length array per flow.
            cut = fr.warmup_cut
            bands = np.frombuffer(fr.band, dtype=np.intc)[cut:]
            for j in range(len(band_counts)):
                band_counts[j] += int(np.count_nonzero(bands == j))
            r = np.frombuffer(fr.receipt)
            # Packet k is released at the latest receipt of packets 0..k.
            released = np.maximum.accumulate(r)
            a = np.frombuffer(fr.arrival)[cut:]
            firsts.append(float(a[0]))
            lasts.append(float(released[-1]))
            reseq = np.subtract(released[cut:], r[cut:], out=r[cut:])
            # A packet is held when it waits for a lower seq: for finite
            # times, released - receipt is 0 exactly when they are equal.
            held += int(np.count_nonzero(reseq))
            reseq_max = max(reseq_max, float(reseq.max()))
            # Each sum runs in seq order, the order of release.
            reseq_sum += float(np.add.accumulate(reseq, out=reseq)[-1])
            lats.append(np.subtract(released[cut:], a, out=released[cut:]))
            wait = np.frombuffer(fr.start)[cut:]
            np.subtract(wait, a, out=wait)
            wait_sum += float(np.add.accumulate(wait, out=wait)[-1])
        lat_all = lats[0] if len(lats) == 1 else np.concatenate(lats)
        measured = int(lat_all.size)
        mean_lat = float(lat_all.mean())
        # The mean is taken; the percentile may reorder the latencies.
        p95 = _p95(lat_all)
        frac = tuple(count / measured for count in band_counts)
        span = max(lasts) - min(firsts)
        goodput = measured / span if span > 0 else 0.0
        return MetricsReport(
            scenario=self.config.name,
            scheduler=self.scheduler_spec.name,
            seed=self.seed,
            delivered=total,
            measured=measured,
            goodput_pps=goodput,
            mean_latency_s=mean_lat,
            p95_latency_s=p95,
            mean_reseq_delay_s=reseq_sum / measured,
            max_reseq_delay_s=reseq_max,
            out_of_order_frac=held / measured,
            per_band_frac=frac,
            mean_wait_s=wait_sum / measured,
        )


def run_scenario(
    config: ScenarioConfig, scheduler_spec: SchedulerSpec, seed: int
) -> MetricsReport:
    """Run one (config, scheduler, seed) replication to completion."""
    return SimState(config, scheduler_spec, seed).run()
