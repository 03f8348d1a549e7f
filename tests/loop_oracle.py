"""A heap event loop over departures, vacation ends and arrivals: an
independent reference for ``SimState.run``'s arrival walk.

``run_events(state)`` runs a fresh ``SimState`` through one flat loop of
departures, vacation ends and arrivals, every band over per-(AC,
station) FIFO queues for every AC and station of the config, with strict
priority across ACs and round-robin across stations from a pointer per
AC (the engine keeps each AC's row of queues rotated instead).  It
shares with the engine only the per-seq buffers and the flows
(``_start_flow``), the feedback round (``_feedback``), the report
(``_report``) and each band's samplers; the order of events is the
heap's.

Every push is ``heappush(heap, (t, kind, tick(), index))``, where
``tick`` is the ``__next__`` of an ``itertools.count(1)`` (the insertion
counter), and ``heappush`` is read from this module when the run starts,
so a patched ``loop_oracle.heappush`` sees every push.  Simultaneous
events pop by (time, event-kind priority, insertion counter), with
departures first.  An arrival pushes the next one from the flow's
arrival buffer.  Parametric vacations run as lazy chains: an idle band
keeps the end of its current vacation (``vac_end``) and pushes no event
for it; the first packet that joins the band while it is away runs the
chain forward to its arrival time and pushes one event for the end of
the vacation it waits out.  A queued arrival that makes a band's queue
longer than ``engine.QUEUE_CAP`` raises ``OverloadDetected``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count

from bandsplit import engine
from bandsplit.errors import ConservationViolated, OverloadDetected
from bandsplit.metrics import MetricsReport

# Event-kind tie priorities: departures before vacation ends before
# arrivals.
EV_DEPART = 0
EV_VACATION = 1
EV_ARRIVAL = 2


class LoopBand:
    """One band in the loop: queues for every (AC, station) pair, the
    band's samplers, and its service and vacation state."""

    def __init__(self, num_ranks: int, num_stas: int, band):
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
        self.draw_service = band.serve
        self.draw_vacation = band.vacation
        self.prop_latency = band.prop

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


def run_events(state) -> MetricsReport:
    """Run a fresh ``SimState`` through the event loop and return its
    report; the state's flows, buffers, taps and schedulers end as the
    loop leaves them."""
    # Every event kind is handled inline, on state bound to locals
    # here.  heappush is read from the module now, at run time, so a
    # patched loop_oracle.heappush sees every push.
    push = heappush
    pop = heappop
    heap: list = []
    tick = count(1).__next__  # the insertion counter of the tie order
    num_stas = state.config.stas
    servers = [LoopBand(len(state.config.acs), num_stas, band) for band in state.servers]
    flows = state.flows
    interval = state.config.feedback_interval_pkts
    feedback = state._feedback
    cap = engine.QUEUE_CAP
    # Under a feedback policy, each flow's served count and, per band,
    # the band's occupied time at the flow's latest departure there (None
    # before its first, which gives no vacation sample).  Under emergent
    # vacations a band that one flow alone reaches never leaves that
    # flow's queue, so each of its vacation samples is exactly 0.
    served = [0] * len(flows)
    last_occupied = [[None] * len(servers) for _ in flows]
    alone = [
        state.config.vacation is None and sum(j in fr.scheduler.avail for fr in flows) == 1
        for j in range(len(servers))
    ]
    for fr in flows:
        state._start_flow(fr)
        push(heap, (fr.arrival[0], EV_ARRIVAL, tick(), fr.index))
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
        if kind == EV_DEPART:
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
                last = last_occupied[fi][j]
                if last is not None:
                    vac = 0.0 if alone[j] else occupied - last - dur
                    tap.vacation.add(vac if vac > 0.0 else 0.0)
                last_occupied[fi][j] = occupied
                tap.fresh = True
                served[fi] += 1
                if served[fi] % interval == 0:
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
        elif kind == EV_VACATION:
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
                push(heap, (fr.arrival[seq + 1], EV_ARRIVAL, tick(), j))
            srv = servers[band]
            q = srv.only_queue
            if srv.current is None and srv.draw_vacation is None and q is not None:
                # An idle emergent band with one queue serves at once.
                fr.start[seq] = t
                dur = srv.draw_service()
                srv.current = (j, seq)
                srv.current_dur = dur
                push(heap, (t + dur, EV_DEPART, tick(), band))
                continue
            if q is None:
                srv.queues[fr.rank][fr.sta].append((j, seq))
            else:
                q.append((j, seq))
            qlen = srv.qlen + 1
            srv.qlen = qlen
            if qlen > cap:
                raise OverloadDetected(f"band {band} queue exceeded cap {cap} at t={t:.6f}")
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
                    push(heap, (end, EV_VACATION, tick(), band))
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
        push(heap, (t + dur, EV_DEPART, tick(), j))
    if any(srv.qlen or srv.current is not None for srv in servers):
        raise ConservationViolated("the loop ended with packets queued or in service")
    state.received = received
    return state._report()
