"""Deterministic discrete-event simulation of the multi-band system.

Poisson sources feed per-flow schedulers; each band is a single server
over per-(sta, ac) FIFO queues with strict priority across access
categories and round-robin across stations inside one category.  Served
packets cross an optional fixed propagation latency to the receiver,
which releases each flow's packets in sequence order.

``SimState.run`` takes one of two paths.  A config with one flow of at
most ``QUEUE_CAP`` packets runs as one pass over the arrivals with no
events; any other config runs the event loop.  Both paths record the
same facts, and one report derives every metric from them:

- Each flow holds per-seq buffers, allocated when the run starts: the
  arrival, service start, receipt and band of each packet.  The
  arrivals are filled then, from the flow's gaps; a receipt is the
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
  packets), and no packet is left in the event heap, a queue or a
  server.

The event loop, ``SimState._run_events``, is one flat loop that handles
departures, vacation ends and arrivals inline, on state bound to locals
once per run.  Every push is ``heappush(heap, (t, kind, tick(),
index))``, where ``tick`` is the ``__next__`` of an
``itertools.count(1)`` (the insertion counter) and ``heappush`` is read
from the module when the run starts.  Draws call each sampler's
``take``, the C-level ``__next__`` of its flattened block stream, and a
queued or in-service packet is its ``(flow index, seq)`` tuple, so
neither runs a Python frame.  A packet's one Python call is its
scheduler pick, plus estimator adds and feedback rounds under a
feedback policy.  An arrival pushes the next one from the flow's
arrival buffer; the loop writes each other buffer entry inline, at the
packet's arrival (its band), service start and departure (its receipt),
and ends when the heap empties, at the last departure: a lazy vacation
chain pushes nothing.

Per-packet work is kept to what each packet needs:

- A band with one (AC, station) queue takes its next packet from that
  queue, and when idle under emergent vacations it serves an arriving
  packet at once, without queueing it.  Only a band with several queues
  walks strict priority and the round-robin pointer
  (``BandServer.pick_queue``), also for an arrival at an idle band, so
  the pointer advances as it would for a queued packet.
- Each count is kept once.  A flow's generated packets are its next
  sequence number, and a band is serving exactly when ``current`` holds
  a packet.
- A feedback round rebuilds the stats of a band only when the flow's
  tap on it took a sample since the last round.  Every other band keeps
  the stats the scheduler holds, which are what its unchanged windows
  would give again: the last round stored what they gave, or kept the
  held stats when they were too short.  An optimizing scheduler handed
  the stats that produced its current split keeps it without a solve.

Determinism: every stochastic source draws from its own named RNG stream
derived from the run seed, and simultaneous events are ordered by
(time, event-kind priority, insertion counter) with departures first:
same-instant events of one kind pop in the order they were pushed.
(An arrival pushes its successor before the departure or vacation end
it starts.  That moves counter values but not the push order of any two
events of one kind, so it moves no pop.)  Identical (config, scheduler,
seed) triples therefore reproduce bit-identical reports.

Parametric vacations run as lazy chains.  An idle band keeps the end of
its current vacation in its own state (``vac_end``) and pushes no event
for it.  The first packet that joins the band while it is away runs the
chain forward to the packet's arrival time, drawing and accounting each
vacation it passes in the order the band would have taken them one by
one (a vacation ending exactly at the arrival instant counts as passed,
as vacation ends sort before arrivals), and pushes one event for the end
of the vacation the packet waits out.  A band that no packet reaches
therefore costs no events.  Like every other event, that vacation end
takes the insertion counter at its push, so two bands' vacation ends at
the same instant pop in the order their waking packets arrived.

The one pass, ``SimState._run_pass``, pushes no events.  With one flow,
each band is a FIFO queue (the flow fills one of its queues) and the
bands share no random stream, so the pass walks the arrivals in seq
order and takes each packet's step of Lindley's recursion (Lindley
1952) on its band at once, with the loop's tie rules.

- The set-up both paths share draws the flow's gaps in stream order and
  sums them in order, as ``t + gap`` would; the pass then calls
  ``next_band`` once per packet.
- A packet starts at its arrival or at its predecessor's departure,
  whichever is later.  An arrival at the instant of a departure finds
  the band idle, as departures pop first.  On a parametric band an idle
  arrival instead waits out the first vacation of the chain that ends
  after it (a vacation ending at the arrival instant counts as passed).
  The chain starts at 0 for the band's first packet and at the
  departure that left the band empty otherwise.
- Each band draws its service in service order, and a receipt is the
  departure plus the band's propagation latency.  The buffers the pass
  fills are the ones the loop fills for the same (config, policy,
  seed), so the two paths give equal reports.
- A band's queue never holds more than the flow's packets, so a pass
  run (at most ``QUEUE_CAP`` packets) cannot trip the cap, and the pass
  has no cap check.

Under a static policy (``single_band``, ``even_split``,
``band_per_flow``: band choices that ignore the system state) that is
the whole pass.  Under a feedback policy a band choice depends on the
rounds fired before the arrival, so the pass also keeps the loop's
feedback bookkeeping: each step adds the chain's vacations and then the
service to the band's occupied time, in the loop's order, and leaves
the packet's tap samples pending.

- Before each arrival the pass fires every round whose departure pops
  before it.  Round m fires at the departure that makes the flow's
  served count a multiple of ``feedback_interval_pkts``: the
  interval-th pending departure in the loop's pop order.  It pops before
  arrival k exactly when its time is at most a_k, as departures pop
  first; every such departure is of an earlier packet, so it is known.
- The pop order is the key (d, 0, start).  Same-instant departures pop
  in push order, which is the order of the events that started their
  services, so ``start`` is that event's key: (a, 2, seq) for a service
  that starts at the packet's own arrival, (end, 1, w) for one that
  starts at a vacation end that packet w woke (only arrivals push
  vacation ends, and arrivals pop in seq order), and the predecessor's
  departure key for a queued packet.
- At a round each band's tap takes its pending samples up to that
  departure in one batch, with ``MomentEstimator.add``'s float
  operations in the same order, and the band keeps only the departures
  not yet fed.  The rounds after the last arrival fire too, and the
  samples past the last round are fed, so after the run the taps, the
  served count and the scheduler equal the loop's.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from itertools import accumulate, chain, count, islice

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

# Event-kind tie priorities: departures before vacation ends before
# arrivals.
_EV_DEPART = 0
_EV_VACATION = 1
_EV_ARRIVAL = 2

# RNG stream domains, combined with the run seed per flow/band.
_DOM_ARRIVAL = 0
_DOM_SERVICE = 1
_DOM_VACATION = 2
_DOM_SCHEDULER = 3

# A band queue longer than this aborts the run with OverloadDetected.
QUEUE_CAP = 1_000_000


class _Tap:
    """Measurement window of one (band, flow) pair.  ``fresh`` marks a
    sample added since the last feedback round read the windows."""

    __slots__ = ("service", "vacation", "last_occupied", "fresh")

    def __init__(self):
        self.service = MomentEstimator()
        self.vacation = MomentEstimator()
        self.last_occupied: float | None = None
        self.fresh = False


class BandServer:
    """One band: queues, service process, optional vacation process."""

    __slots__ = (
        "queues",
        "only_queue",
        "rr",
        "qlen",
        "vac_dur",
        "vac_end",
        "occupied",
        "current",
        "current_dur",
        "draw_service",
        "draw_vacation",
        "prop_latency",
    )

    def __init__(
        self,
        num_ranks: int,
        num_stas: int,
        service: Sampler,
        vacation: Sampler | None,
        prop_latency: float,
    ):
        self.queues = [[deque() for _ in range(num_stas)] for _ in range(num_ranks)]
        # With one (AC, station) queue, priority and round-robin have one
        # choice: the run loop takes it without walking the ranks.
        self.only_queue = self.queues[0][0] if num_ranks == 1 and num_stas == 1 else None
        self.rr = [0] * num_ranks
        self.qlen = 0
        self.vac_dur = 0.0
        self.vac_end = 0.0
        self.occupied = 0.0
        self.current: tuple[int, int] | None = None  # (flow index, seq)
        self.current_dur = 0.0
        # The samplers' C-level stream readers; no vacation sampler means
        # emergent vacations.
        self.draw_service = service.take
        self.draw_vacation = None if vacation is None else vacation.take
        self.prop_latency = prop_latency

    def pick_queue(self, num_stas: int) -> deque:
        """Next queue under strict AC priority, round-robin across STAs.
        Called only while some queue of the band holds a packet."""
        rr = self.rr
        for rank, row in enumerate(self.queues):
            ptr = rr[rank]
            for k in range(num_stas):
                sta = ptr + k
                if sta >= num_stas:
                    sta -= num_stas
                q = row[sta]
                if q:
                    rr[rank] = sta + 1 if sta + 1 < num_stas else 0
                    return q


class _FlowRuntime:
    """One flow's source state, and its per-seq buffers: arrival,
    service start, receipt and band of every packet.  A run allocates
    the buffers when it starts and fills them in place;
    ``SimState._report`` derives every metric from them."""

    __slots__ = (
        "packets",
        "index",
        "rank",
        "sta",
        "scheduler",
        "draw_gap",
        "next_seq",
        "served",
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
        self.draw_gap = arrivals.take
        self.next_seq = 0
        self.served = 0
        self.warmup_cut = warmup_cut
        self.taps = taps
        self.arrival = self.start = self.receipt = self.band = None


class _PassBand:
    """One band's state in the one pass.  Under a feedback policy
    ``occupied`` is the band's occupied time so far and ``last`` that
    time at its latest departure, ``keys`` holds the loop's pop-order key
    of each departure not yet fed to the flow's tap, and ``samples`` the
    (service, vacation) samples the tap takes from each, flattened."""

    __slots__ = ("done", "occupied", "last", "keys", "samples", "serve", "vacation", "prop")

    def __init__(self, srv: BandServer):
        self.vacation = srv.draw_vacation
        # done: the departure of the band's latest packet.  An arrival at
        # that instant finds the band idle, as departures pop first.  A
        # parametric band's first vacation starts at 0, and each
        # departure that leaves it empty starts the next one.
        self.done = -math.inf if self.vacation is None else 0.0
        self.occupied = self.last = 0.0
        self.keys: list[tuple] = []
        self.samples: list[float] = []
        self.serve = srv.draw_service
        self.prop = srv.prop_latency

    def feed(self, tap: _Tap, fed: int) -> None:
        """Feed the band's first ``fed`` pending departures to ``tap``."""
        samples = self.samples
        # The band's first departure, fed to an empty tap, gives no
        # vacation sample.
        tap.vacation.extend(samples[1 if len(tap.service) else 3 : 2 * fed : 2])
        tap.service.extend(samples[0 : 2 * fed : 2])
        del self.keys[:fed], samples[: 2 * fed]
        tap.fresh = True


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


class SimState:
    """A fully wired simulation; run() drives it to completion and
    returns the report derived from the flows' per-seq buffers.
    ``received`` counts the run's receipts, one per departure; ``heap``
    holds the loop's pending events and is empty after a complete run.

    Exposed for white-box tests (estimator windows, per-seq buffers,
    which the report overwrites); normal callers use run_scenario().
    """

    def __init__(self, config: ScenarioConfig, scheduler_spec: SchedulerSpec, seed: int):
        if seed < 0:
            raise ConfigInvalid("seed: must be >= 0")
        self.config = config
        self.scheduler_spec = scheduler_spec
        self.seed = seed

        self.servers = [
            BandServer(
                num_ranks=len(config.acs),
                num_stas=config.stas,
                service=_sampler(band.service, seed, _DOM_SERVICE, j),
                vacation=_sampler(config.vacation, seed, _DOM_VACATION, j)
                if config.vacation is not None
                else None,
                prop_latency=band.prop_latency_s,
            )
            for j, band in enumerate(config.bands)
        ]

        initial = [bootstrap_stats(b.service) for b in config.bands]
        self.flows: list[_FlowRuntime] = []
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
            arrivals = _sampler(
                DistributionSpec(kind="exponential", mean=1.0 / fl.lambda_pps), seed, _DOM_ARRIVAL, i
            )
            taps = [_Tap() for _ in config.bands] if sched.uses_feedback else None
            fr = _FlowRuntime(
                cfg=fl,
                index=i,
                rank=config.acs.index(fl.ac),
                scheduler=sched,
                arrivals=arrivals,
                warmup_cut=int(config.warmup_frac * fl.packets),
                taps=taps,
            )
            self.flows.append(fr)

        self.heap: list = []
        self.received = 0  # receipts, one per departure, counted by the run

    # -- calls the run loop makes ---------------------------------------

    def _feedback(self, fr: _FlowRuntime) -> None:
        stats = list(fr.scheduler.stats)
        for j, tap in enumerate(fr.taps):
            if tap.fresh:
                tap.fresh = False
                try:
                    stats[j] = band_stats_from_windows(tap.service, tap.vacation)
                except InsufficientSamples:
                    pass
        try:
            fr.scheduler.update_feedback(stats)
        except OptimizerError:
            pass  # stale-but-safe: scheduler keeps its previous split

    # -- the two paths ---------------------------------------------------

    def run(self) -> MetricsReport:
        """Run to completion: the one pass when the config has one flow of
        no more packets than QUEUE_CAP, the event loop otherwise."""
        flows = self.flows
        # A band's queue never holds more than the flow's packets, so a
        # flow of at most QUEUE_CAP packets cannot trip the cap.
        if len(flows) == 1 and flows[0].packets <= QUEUE_CAP:
            self._run_pass()
            return self._report()
        return self._run_events()

    def _start_flow(self, fr: _FlowRuntime) -> None:
        """Allocate the flow's per-seq buffers and fill its arrivals: the
        gaps in stream order, summed in order, as t + gap would."""
        n = fr.packets
        fr.arrival = array("d", accumulate(islice(iter(fr.draw_gap, None), n)))
        fr.start = array("d", [0.0]) * n
        fr.receipt = array("d", [math.nan]) * n
        fr.band = array("i", [0]) * n

    def _run_pass(self) -> None:
        """Fill the flow's per-seq buffers as the event loop would, and
        under a feedback policy feed its taps and fire its rounds."""
        fr = self.flows[0]
        n = fr.packets
        self._start_flow(fr)
        arrivals = fr.arrival
        choices = fr.band
        starts = fr.start
        receipts = fr.receipt
        next_band = fr.scheduler.next_band
        feedback = fr.taps is not None
        interval = self.config.feedback_interval_pkts
        bands = [_PassBand(srv) for srv in self.servers]
        pending = 0  # departures not yet fed to the taps
        for k, a in enumerate(arrivals):
            j = next_band()
            choices[k] = j
            b = bands[j]
            done = b.done
            if a < done:
                s = done
            elif b.vacation is None:
                s = a
            elif feedback:
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
            else:
                vacation = b.vacation
                s = done + vacation()
                while s <= a:
                    s += vacation()
            dur = b.serve()
            b.done = end = s + dur
            starts[k] = s
            receipts[k] = end + b.prop
            if feedback:
                # The departure's pop-order key, and the tap's samples: the
                # service, and the band's occupied time since its previous
                # departure less the service.  The band's first departure
                # has no vacation sample; feed drops the one computed here.
                keys = b.keys
                if a < done:
                    start = keys[-1]
                elif b.vacation is None:
                    start = (a, _EV_ARRIVAL, k)
                else:
                    start = (s, _EV_VACATION, k)
                keys.append((end, _EV_DEPART, start))
                last = b.last
                b.last = b.occupied = occupied = b.occupied + dur
                vac = occupied - last - dur
                samples = b.samples
                samples.append(dur)
                samples.append(vac if vac > 0.0 else 0.0)
                pending += 1
                # The rounds whose departure pops before the next arrival:
                # at or before it, as departures pop first.
                if pending >= interval and k + 1 < n:
                    pending = self._fire_rounds(fr, bands, pending, (arrivals[k + 1], _EV_VACATION))
        if feedback:
            self._fire_rounds(fr, bands, pending, (math.inf, _EV_VACATION))
            for b, tap in zip(bands, fr.taps):
                if b.keys:
                    b.feed(tap, len(b.keys))
                if len(tap.service):
                    tap.last_occupied = b.occupied
            fr.served = n
        fr.next_seq = self.received = n

    def _fire_rounds(self, fr: _FlowRuntime, bands: list, pending: int, bound: tuple) -> int:
        """Fire every feedback round whose departure key sorts before
        ``bound``; return the departures still pending."""
        interval = self.config.feedback_interval_pkts
        while pending >= interval:
            heads = [bisect_right(b.keys, bound) for b in bands]
            extra = sum(heads) - interval
            if extra < 0:
                break
            # The round fires at the interval-th departure in pop order,
            # the (extra + 1)-th latest of those before bound, which is
            # among the extra + 1 latest of its band; each band feeds its
            # departures up to that one.
            latest = chain.from_iterable([b.keys[max(h - extra - 1, 0) : h] for b, h in zip(bands, heads)])
            last = sorted(latest)[-extra - 1]
            for b, tap, h in zip(bands, fr.taps, heads):
                if h:
                    fed = bisect_right(b.keys, last, 0, h)
                    if fed:
                        b.feed(tap, fed)
            pending -= interval
            self._feedback(fr)
        return pending

    def _run_events(self) -> MetricsReport:
        # Every event kind is handled inline, on state bound to locals
        # here.  heappush is read from the module now, at run time, so a
        # patched engine.heappush sees every push.
        push = heappush
        pop = heappop
        heap = self.heap
        tick = count(1).__next__  # the insertion counter of the tie order
        servers = self.servers
        flows = self.flows
        num_stas = self.config.stas
        interval = self.config.feedback_interval_pkts
        feedback = self._feedback
        for fr in flows:
            self._start_flow(fr)
            push(heap, (fr.arrival[0], _EV_ARRIVAL, tick(), fr.index))
        for srv in servers:
            if srv.draw_vacation is not None:
                dur = srv.draw_vacation()
                srv.vac_dur = dur
                srv.vac_end = dur
        received = 0  # receipts so far, one per departure
        while heap:
            # j is the band of a departure or vacation end, the flow of
            # an arrival.
            t, kind, _, j = pop(heap)
            if kind == _EV_DEPART:
                srv = servers[j]
                fi, seq = srv.current
                dur = srv.current_dur
                occupied = srv.occupied + dur
                srv.occupied = occupied
                fr = flows[fi]
                taps = fr.taps
                if taps is not None:
                    tap = taps[j]
                    tap.service.add(dur)
                    last = tap.last_occupied
                    if last is not None:
                        vac = occupied - last - dur
                        tap.vacation.add(vac if vac > 0.0 else 0.0)
                    tap.last_occupied = occupied
                    tap.fresh = True
                    served = fr.served + 1
                    fr.served = served
                    if served % interval == 0:
                        feedback(fr)
                fr.receipt[seq] = t + srv.prop_latency
                received += 1
                if not srv.qlen:
                    srv.current = None
                    if srv.draw_vacation is not None:
                        dur = srv.draw_vacation()
                        srv.vac_dur = dur
                        srv.vac_end = t + dur
                    continue
                # else: start the next queued packet, below.
            elif kind == _EV_VACATION:
                srv = servers[j]
                srv.occupied += srv.vac_dur
                # The packet that woke the band waits: start it below.
            else:
                fr = flows[j]
                band = fr.scheduler.next_band()
                seq = fr.next_seq
                fr.band[seq] = band
                fr.next_seq = seq + 1
                if seq + 1 < fr.packets:
                    push(heap, (fr.arrival[seq + 1], _EV_ARRIVAL, tick(), j))
                srv = servers[band]
                q = srv.only_queue
                if srv.current is None and srv.draw_vacation is None and q is not None:
                    # An idle emergent band with one queue serves at once.
                    fr.start[seq] = t
                    dur = srv.draw_service()
                    srv.current = (j, seq)
                    srv.current_dur = dur
                    push(heap, (t + dur, _EV_DEPART, tick(), band))
                    continue
                if q is None:
                    srv.queues[fr.rank][fr.sta].append((j, seq))
                else:
                    q.append((j, seq))
                qlen = srv.qlen + 1
                srv.qlen = qlen
                if qlen > QUEUE_CAP:
                    raise OverloadDetected(f"band {band} queue exceeded cap {QUEUE_CAP} at t={t:.6f}")
                if srv.current is not None:
                    continue
                draw_vacation = srv.draw_vacation
                if draw_vacation is not None:
                    # A parametric band with nothing in service is on
                    # vacation.  The first packet to wait runs its lazy
                    # chain up to t and pushes the end it waits out.
                    if qlen == 1:
                        end = srv.vac_end
                        if end <= t:
                            occupied = srv.occupied
                            dur = srv.vac_dur
                            while end <= t:
                                occupied += dur
                                dur = draw_vacation()
                                end += dur
                            srv.occupied = occupied
                            srv.vac_dur = dur
                            srv.vac_end = end
                        push(heap, (end, _EV_VACATION, tick(), band))
                    continue
                # An idle emergent band with several queues: its packet
                # is picked below, so the round-robin pointer advances.
                j = band
            # Start service on band j, whose queue is not empty.
            q = srv.only_queue
            if q is None:
                q = srv.pick_queue(num_stas)
            pkt = q.popleft()
            srv.qlen -= 1
            flows[pkt[0]].start[pkt[1]] = t
            dur = srv.draw_service()
            srv.current = pkt
            srv.current_dur = dur
            push(heap, (t + dur, _EV_DEPART, tick(), j))
        self.received = received
        return self._report()

    # -- accounting ----------------------------------------------------

    def _report(self) -> MetricsReport:
        """Every metric, derived from the flows' per-seq buffers in place.
        The report overwrites the receipts and starts with its results, so
        it runs once per run."""
        # The complete-run invariant, checked before any metric is read:
        # every flow generated its budget, every seq has exactly one
        # receipt (none is missing, and there are as many receipts as
        # packets), and no packet is left in the heap, a queue or a server.
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
        queued = sum(srv.qlen + (srv.current is not None) for srv in self.servers)
        if self.received != total or queued or self.heap:
            raise ConservationViolated(
                f"run ended with {self.received} receipts of {total} packets, {queued} packets "
                f"queued or in service and {len(self.heap)} events in the heap"
            )

        lats = []
        firsts = []
        lasts = []
        held = 0
        reseq_sum = reseq_max = wait_sum = 0.0
        band_counts = 0
        for fr in flows:
            # The band counts' temporary is freed before the release
            # times are made, and the results overwrite the buffers, so a
            # report adds about one n-length array per flow.
            cut = fr.warmup_cut
            bands = np.frombuffer(fr.band, dtype=np.intc)[cut:]
            band_counts = band_counts + np.bincount(bands, minlength=len(self.servers))
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
        p95 = float(np.percentile(lat_all, 95, overwrite_input=True))
        frac = tuple(count / measured for count in band_counts.tolist())
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
