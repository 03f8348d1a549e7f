"""Deterministic discrete-event simulation of the multi-band system.

Poisson sources feed per-flow schedulers; each band is a single server
over per-(sta, ac) FIFO queues with strict priority across access
categories and round-robin across stations inside one category.  Served
packets cross an optional fixed propagation latency and land in a
per-flow reorder buffer that releases in sequence order.

Determinism: every stochastic source draws from its own named RNG stream
derived from the run seed, and simultaneous events are ordered by
(time, event-kind priority, insertion counter) with departures first:
same-instant events of one kind pop in the order they were pushed.
Identical (config, scheduler, seed) triples therefore reproduce
bit-identical reports.

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
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from heapq import heappop, heappush

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
from .reorder import ReorderBuffer
from .schedulers import SchedulerSpec, make_scheduler

# Event-kind tie priorities: departures before receives before vacation
# ends before arrivals.
_EV_DEPART = 0
_EV_RECEIVE = 1
_EV_VACATION = 2
_EV_ARRIVAL = 3

# RNG stream domains, combined with the run seed per flow/band.
_DOM_ARRIVAL = 0
_DOM_SERVICE = 1
_DOM_VACATION = 2
_DOM_SCHEDULER = 3


class Packet:
    """One sequence-numbered packet moving source -> band -> receiver."""

    __slots__ = (
        "seq",
        "created_at",
        "enqueued_band",
        "service_start",
        "received_at",
        "released_at",
        "flow_idx",
        "out_of_order",
    )

    def __init__(self, seq: int, created_at: float, flow_idx: int):
        self.seq = seq
        self.created_at = created_at
        self.flow_idx = flow_idx
        self.enqueued_band = -1
        self.service_start = math.nan
        self.received_at = math.nan
        self.released_at = math.nan
        self.out_of_order = False


class _Tap:
    """Measurement window of one (band, flow) pair."""

    __slots__ = ("service", "vacation", "last_occupied")

    def __init__(self):
        self.service = MomentEstimator()
        self.vacation = MomentEstimator()
        self.last_occupied: float | None = None


class BandServer:
    """One band: queues, service process, optional vacation process."""

    __slots__ = (
        "index",
        "queues",
        "rank_counts",
        "rr",
        "qlen",
        "busy",
        "on_vacation",
        "vac_dur",
        "vac_end",
        "occupied",
        "current",
        "current_dur",
        "service",
        "vacation",
        "prop_latency",
    )

    def __init__(
        self,
        index: int,
        num_ranks: int,
        num_stas: int,
        service: Sampler,
        vacation: Sampler | None,
        prop_latency: float,
    ):
        self.index = index
        self.queues = [[deque() for _ in range(num_stas)] for _ in range(num_ranks)]
        self.rank_counts = [0] * num_ranks
        self.rr = [0] * num_ranks
        self.qlen = 0
        self.busy = False
        self.on_vacation = False
        self.vac_dur = 0.0
        self.vac_end = 0.0
        self.occupied = 0.0
        self.current: Packet | None = None
        self.current_dur = 0.0
        self.service = service
        self.vacation = vacation
        self.prop_latency = prop_latency

    def pick_queue(self, num_stas: int):
        """Next queue under strict AC priority, round-robin across STAs."""
        for rank, count in enumerate(self.rank_counts):
            if count == 0:
                continue
            row = self.queues[rank]
            ptr = self.rr[rank]
            for k in range(num_stas):
                sta = ptr + k
                if sta >= num_stas:
                    sta -= num_stas
                q = row[sta]
                if q:
                    self.rr[rank] = sta + 1 if sta + 1 < num_stas else 0
                    return rank, q
        return None, None


class _FlowRuntime:
    __slots__ = (
        "cfg",
        "index",
        "key",
        "rank",
        "sta",
        "scheduler",
        "reorder",
        "arrivals",
        "next_seq",
        "generated",
        "delivered",
        "served",
        "warmup_cut",
        "taps",
        "lat",
        "reseq_sum",
        "reseq_max",
        "ooo_count",
        "measured",
        "band_counts",
        "wait_sum",
        "min_created",
        "max_released",
    )

    def __init__(self, cfg, index, key, rank, scheduler, reorder, arrivals, warmup_cut, taps):
        self.cfg = cfg
        self.index = index
        self.key = key
        self.rank = rank
        self.sta = key.sta_id
        self.scheduler = scheduler
        self.reorder = reorder
        self.arrivals = arrivals
        self.next_seq = 0
        self.generated = 0
        self.delivered = 0
        self.served = 0
        self.warmup_cut = warmup_cut
        self.taps = taps
        self.lat = array("d")
        self.reseq_sum = 0.0
        self.reseq_max = 0.0
        self.ooo_count = 0
        self.measured = 0
        self.band_counts = None
        self.wait_sum = 0.0
        self.min_created = math.inf
        self.max_released = -math.inf


def bootstrap_stats(service: DistributionSpec) -> BandStats:
    """Nominal band stats before any measurement: the configured service
    distribution's exact moments plus a floor vacation."""
    mean, m2 = service.moments()
    return BandStats(mu=1.0 / mean, x2=m2, vbar=VACATION_FLOOR, v2=VACATION_FLOOR**2)


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, domain, index)))


class SimState:
    """A fully wired simulation; run() drives it to completion.

    Exposed for white-box tests (estimator windows, reorder buffers);
    normal callers use run_scenario().
    """

    def __init__(self, config: ScenarioConfig, scheduler_spec: SchedulerSpec, seed: int):
        config.validate()
        if seed < 0:
            raise ConfigInvalid("seed: must be >= 0")
        self.config = config
        self.scheduler_spec = scheduler_spec
        self.seed = seed
        self.num_bands = len(config.bands)
        self.num_stas = config.stas
        self.rank_of_ac = {ac: rank for rank, ac in enumerate(config.acs)}

        self.servers = [
            BandServer(
                index=j,
                num_ranks=len(config.acs),
                num_stas=config.stas,
                service=Sampler(band.service, _stream(seed, _DOM_SERVICE, j)),
                vacation=Sampler(config.vacation, _stream(seed, _DOM_VACATION, j))
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
                num_bands=self.num_bands,
                stats=initial,
                lambda_total=fl.lambda_pps,
                flow_index=i,
                avail=fl.available_bands,
                rng=_stream(seed, _DOM_SCHEDULER, i),
            )
            arrivals = Sampler(
                DistributionSpec(kind="exponential", mean=1.0 / fl.lambda_pps),
                _stream(seed, _DOM_ARRIVAL, i),
            )
            taps = (
                [_Tap() for _ in range(self.num_bands)]
                if sched.uses_feedback
                else None
            )
            fr = _FlowRuntime(
                cfg=fl,
                index=i,
                key=fl.key,
                rank=self.rank_of_ac[fl.ac],
                scheduler=sched,
                reorder=ReorderBuffer(),
                arrivals=arrivals,
                warmup_cut=int(config.warmup_frac * fl.packets),
                taps=taps,
            )
            fr.band_counts = [0] * self.num_bands
            self.flows.append(fr)

        self.total_target = sum(fl.packets for fl in config.flows)
        self.total_released = 0
        self.in_transit = 0
        self.stopped_at_time_limit = False
        self._heap: list = []
        self._counter = 0

    # -- event plumbing -------------------------------------------------

    def _push(self, t: float, kind: int, a: int, payload=None) -> None:
        self._counter += 1
        heappush(self._heap, (t, kind, self._counter, a, payload))

    def _start_service(self, srv: BandServer, t: float) -> None:
        rank, q = srv.pick_queue(self.num_stas)
        if q is None:
            return
        pkt = q.popleft()
        srv.rank_counts[rank] -= 1
        srv.qlen -= 1
        pkt.service_start = t
        dur = srv.service.draw()
        srv.busy = True
        srv.current = pkt
        srv.current_dur = dur
        self._push(t + dur, _EV_DEPART, srv.index)

    def _start_vacation(self, srv: BandServer, t: float) -> None:
        dur = srv.vacation.draw()
        srv.on_vacation = True
        srv.vac_dur = dur
        srv.vac_end = t + dur

    def _wake(self, srv: BandServer, t: float) -> None:
        """Run an idle band's vacation chain up to ``t`` and push the end
        of the vacation in progress, which the arriving packet waits for."""
        end = srv.vac_end
        while end <= t:
            srv.occupied += srv.vac_dur
            dur = srv.vacation.draw()
            srv.vac_dur = dur
            end += dur
        srv.vac_end = end
        self._push(end, _EV_VACATION, srv.index)

    def _feedback(self, fr: _FlowRuntime) -> None:
        stats = []
        for j in range(self.num_bands):
            tap = fr.taps[j]
            try:
                st = band_stats_from_windows(tap.service, tap.vacation)
            except InsufficientSamples:
                st = fr.scheduler.stats[j]
            stats.append(st)
        try:
            fr.scheduler.update_feedback(stats, fr.cfg.lambda_pps)
        except OptimizerError:
            pass  # stale-but-safe: scheduler keeps its previous split

    def _receive(self, fr: _FlowRuntime, pkt: Packet, t: float) -> None:
        pkt.received_at = t
        buf = fr.reorder
        # Out of order = some lower-seq packet of this flow had not yet
        # been received at this packet's receive instant.
        pkt.out_of_order = pkt.seq > buf.next_seq
        for rp in buf.release(pkt, t):
            fr.delivered += 1
            self.total_released += 1
            if rp.seq >= fr.warmup_cut:
                fr.measured += 1
                if rp.out_of_order:
                    fr.ooo_count += 1
                lat = rp.released_at - rp.created_at
                fr.lat.append(lat)
                reseq = rp.released_at - rp.received_at
                fr.reseq_sum += reseq
                if reseq > fr.reseq_max:
                    fr.reseq_max = reseq
                fr.band_counts[rp.enqueued_band] += 1
                fr.wait_sum += rp.service_start - rp.created_at
                if rp.created_at < fr.min_created:
                    fr.min_created = rp.created_at
                if rp.released_at > fr.max_released:
                    fr.max_released = rp.released_at

    # -- event handlers --------------------------------------------------

    def _on_arrival(self, fi: int, t: float) -> None:
        fr = self.flows[fi]
        pkt = Packet(fr.next_seq, t, fi)
        fr.next_seq += 1
        fr.generated += 1
        band = fr.scheduler.next_band()
        pkt.enqueued_band = band
        srv = self.servers[band]
        srv.queues[fr.rank][fr.sta].append(pkt)
        srv.rank_counts[fr.rank] += 1
        srv.qlen += 1
        if srv.qlen > self.config.queue_cap:
            raise OverloadDetected(
                f"band {band} queue exceeded cap {self.config.queue_cap} at t={t:.6f}"
            )
        if not srv.busy:
            if not srv.on_vacation:
                self._start_service(srv, t)
            elif srv.qlen == 1:  # the first packet to wait: no end event yet
                self._wake(srv, t)
        if fr.generated < fr.cfg.packets:
            self._push(t + fr.arrivals.draw(), _EV_ARRIVAL, fi)

    def _on_depart(self, bi: int, t: float) -> None:
        srv = self.servers[bi]
        pkt = srv.current
        dur = srv.current_dur
        srv.busy = False
        srv.current = None
        srv.occupied += dur
        fr = self.flows[pkt.flow_idx]
        if fr.taps is not None:
            tap = fr.taps[bi]
            tap.service.add(dur)
            if tap.last_occupied is not None:
                vac = srv.occupied - tap.last_occupied - dur
                tap.vacation.add(vac if vac > 0.0 else 0.0)
            tap.last_occupied = srv.occupied
            fr.served += 1
            if fr.served % self.config.feedback_interval_pkts == 0:
                self._feedback(fr)
        if srv.prop_latency == 0.0:
            self._receive(fr, pkt, t)
        else:
            self.in_transit += 1
            self._push(t + srv.prop_latency, _EV_RECEIVE, pkt.flow_idx, pkt)
        if srv.qlen > 0:
            self._start_service(srv, t)
        elif srv.vacation is not None and self.total_released < self.total_target:
            self._start_vacation(srv, t)

    def _on_vacation_end(self, bi: int, t: float) -> None:
        srv = self.servers[bi]
        srv.on_vacation = False
        srv.occupied += srv.vac_dur
        self._start_service(srv, t)

    # -- main loop ---------------------------------------------------------

    def run(self) -> MetricsReport:
        for fr in self.flows:
            self._push(fr.arrivals.draw(), _EV_ARRIVAL, fr.index)
        for srv in self.servers:
            if srv.vacation is not None:
                self._start_vacation(srv, 0.0)
        limit = self.config.max_sim_time_s
        heap = self._heap
        while heap:
            t, kind, _, a, payload = heappop(heap)
            if limit is not None and t > limit:
                self.stopped_at_time_limit = True
                break
            if kind == _EV_DEPART:
                self._on_depart(a, t)
            elif kind == _EV_RECEIVE:
                self.in_transit -= 1
                self._receive(self.flows[a], payload, t)
            elif kind == _EV_VACATION:
                self._on_vacation_end(a, t)
            else:
                self._on_arrival(a, t)
            if self.total_released >= self.total_target:
                break
        return self._report()

    # -- accounting ----------------------------------------------------

    def queued_total(self) -> int:
        n = sum(srv.qlen for srv in self.servers)
        n += sum(1 for srv in self.servers if srv.busy)
        return n

    def pending_reorder(self) -> int:
        return sum(len(fr.reorder) for fr in self.flows)

    def _report(self) -> MetricsReport:
        generated = sum(fr.generated for fr in self.flows)
        delivered = sum(fr.delivered for fr in self.flows)
        held = self.queued_total() + self.in_transit + self.pending_reorder()
        if generated != delivered + held:
            raise ConservationViolated(
                f"generated {generated} != delivered {delivered} + held {held}"
            )

        lat_all = np.concatenate([np.frombuffer(fr.lat, dtype=float) for fr in self.flows]) if any(
            len(fr.lat) for fr in self.flows
        ) else np.empty(0)
        measured = int(lat_all.size)
        mean_lat = float(lat_all.mean()) if measured else 0.0
        p95 = float(np.percentile(lat_all, 95)) if measured else 0.0
        reseq_sum = sum(fr.reseq_sum for fr in self.flows)
        reseq_max = max((fr.reseq_max for fr in self.flows), default=0.0)
        ooo = sum(fr.ooo_count for fr in self.flows)
        band_counts = [0] * self.num_bands
        for fr in self.flows:
            for j in range(self.num_bands):
                band_counts[j] += fr.band_counts[j]
        frac = tuple(c / measured if measured else 0.0 for c in band_counts)
        min_created = min((fr.min_created for fr in self.flows), default=math.inf)
        max_released = max((fr.max_released for fr in self.flows), default=-math.inf)
        span = max_released - min_created
        goodput = measured / span if measured and span > 0 else 0.0
        wait_sum = sum(fr.wait_sum for fr in self.flows)
        return MetricsReport(
            scenario=self.config.name,
            scheduler=self.scheduler_spec.name,
            seed=self.seed,
            generated=generated,
            delivered=delivered,
            measured=measured,
            goodput_pps=goodput,
            mean_latency_s=mean_lat,
            p95_latency_s=p95,
            mean_reseq_delay_s=reseq_sum / measured if measured else 0.0,
            max_reseq_delay_s=reseq_max,
            out_of_order_frac=ooo / measured if measured else 0.0,
            per_band_frac=frac,
            mean_wait_s=wait_sum / measured if measured else 0.0,
            queued_at_end=self.queued_total(),
            in_flight_at_end=self.in_transit + self.pending_reorder(),
        )


def run_scenario(
    config: ScenarioConfig, scheduler_spec: SchedulerSpec, seed: int
) -> MetricsReport:
    """Run one (config, scheduler, seed) replication to completion."""
    return SimState(config, scheduler_spec, seed).run()
