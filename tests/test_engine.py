"""Simulator tests: determinism, conservation, emergent vacations,
priority discipline, termination modes, and quick queueing-theory checks
(the full-scale validations live in the acceptance module)."""

import heapq

import pytest

from bandsplit import engine
from bandsplit.config import BandConfig, FlowConfig, ScenarioConfig
from bandsplit.distributions import DistributionSpec
from bandsplit.engine import SimState, bootstrap_stats, run_scenario
from bandsplit.errors import ConfigInvalid, ConservationViolated, OverloadDetected
from bandsplit.estimators import band_stats_from_windows
from bandsplit.schedulers import SchedulerSpec


def one_band_cfg(lam=5.0, packets=20_000, kind="exponential", mean=0.1, **kw):
    return ScenarioConfig(
        name="one",
        bands=(BandConfig(service=DistributionSpec(kind, mean=mean)),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=lam, packets=packets),),
        schedulers=(SchedulerSpec("single_band", 0),),
        **kw,
    )


def test_identical_seed_identical_report():
    cfg = one_band_cfg(packets=5000)
    a = run_scenario(cfg, cfg.schedulers[0], 1)
    b = run_scenario(cfg, cfg.schedulers[0], 1)
    assert a == b
    c = run_scenario(cfg, cfg.schedulers[0], 2)
    assert c != a


def test_conservation_and_counts_at_natural_end():
    cfg = one_band_cfg(packets=3000)
    rep = run_scenario(cfg, cfg.schedulers[0], 3)
    assert rep.generated == 3000
    assert rep.delivered == 3000
    assert rep.queued_at_end == 0
    assert rep.in_flight_at_end == 0
    assert rep.mean_reseq_delay_s == 0.0
    assert rep.out_of_order_frac == 0.0


def test_conservation_when_stopped_by_time_limit():
    cfg = one_band_cfg(lam=9.0, packets=50_000, max_sim_time_s=30.0)
    state = SimState(cfg, cfg.schedulers[0], seed=4)
    rep = state.run()
    assert state.stopped_at_time_limit
    assert rep.generated < 50_000
    assert rep.generated == rep.delivered + rep.queued_at_end + rep.in_flight_at_end
    assert rep.delivered <= rep.generated


def test_conservation_mismatch_is_an_explicit_error():
    # Kept under python -O: the check is an exception, not an assert.
    cfg = one_band_cfg(packets=500)
    state = SimState(cfg, cfg.schedulers[0], seed=4)
    state.run()
    state.in_transit += 1
    with pytest.raises(ConservationViolated):
        state._report()


def test_overload_detection_trips_queue_cap():
    cfg = one_band_cfg(lam=9.9, packets=20_000, queue_cap=5)
    with pytest.raises(OverloadDetected):
        run_scenario(cfg, cfg.schedulers[0], 1)


def test_mm1_mean_wait_quick():
    cfg = one_band_cfg(lam=5.0, packets=150_000)
    rep = run_scenario(cfg, cfg.schedulers[0], 11)
    assert rep.mean_wait_s == pytest.approx(0.1, rel=0.08)
    assert rep.mean_latency_s == pytest.approx(0.2, rel=0.08)


def test_pk_with_deterministic_vacations_quick():
    mu, v, lam = 10.0, 0.05, 6.0
    cfg = one_band_cfg(
        lam=lam,
        packets=150_000,
        kind="deterministic",
        mean=1.0 / mu,
        vacation=DistributionSpec("deterministic", mean=v),
    )
    rep = run_scenario(cfg, cfg.schedulers[0], 5)
    theory = lam / mu**2 / (2 * (1 - lam / mu)) + v / 2 + 1 / mu
    assert rep.mean_latency_s == pytest.approx(theory, rel=0.05)


def test_unstable_config_rejected():
    with pytest.raises(ConfigInvalid):
        one_band_cfg(lam=10.0).validate()


def test_emergent_vacations_measured_for_coexisting_flows():
    # Two stations share one band round-robin; each flow's vacation
    # window must fill with positive samples (time serving the other).
    cfg = ScenarioConfig(
        name="two_flows",
        bands=(BandConfig(service=DistributionSpec("deterministic", mean=0.1)),),
        stas=2,
        flows=(
            FlowConfig(sta=0, ac=0, lambda_pps=3.0, packets=4000),
            FlowConfig(sta=1, ac=0, lambda_pps=3.0, packets=4000),
        ),
        schedulers=(SchedulerSpec("load_balancing"),),  # stats-consuming: taps on
    )
    state = SimState(cfg, cfg.schedulers[0], seed=9)
    rep = state.run()
    assert rep.delivered == 8000
    for fr in state.flows:
        tap = fr.taps[0]
        st = band_stats_from_windows(tap.service, tap.vacation)
        st.validate()
        assert st.mu == pytest.approx(10.0, rel=0.02)
        # Vacations are whole service periods of the other station.
        assert st.vbar > 0.05
        assert st.v2 >= st.vbar**2


def test_strict_priority_across_access_categories():
    # Same station, two ACs on one saturated band: the priority class
    # must see much less queueing than the background class.
    cfg = ScenarioConfig(
        name="prio",
        bands=(BandConfig(service=DistributionSpec("deterministic", mean=0.05)),),
        acs=(0, 1),
        flows=(
            FlowConfig(sta=0, ac=0, lambda_pps=8.0, packets=6000),
            FlowConfig(sta=0, ac=1, lambda_pps=8.0, packets=6000),
        ),
        schedulers=(SchedulerSpec("single_band", 0),),
    )
    state = SimState(cfg, cfg.schedulers[0], seed=2)
    rep = state.run()
    lat = [sum(fr.lat) / len(fr.lat) for fr in state.flows]
    assert lat[0] < lat[1] * 0.5


def test_round_robin_across_stations_is_fair():
    cfg = ScenarioConfig(
        name="rr",
        bands=(BandConfig(service=DistributionSpec("deterministic", mean=0.05)),),
        stas=2,
        flows=(
            FlowConfig(sta=0, ac=0, lambda_pps=6.0, packets=6000),
            FlowConfig(sta=1, ac=0, lambda_pps=6.0, packets=6000),
        ),
        schedulers=(SchedulerSpec("single_band", 0),),
    )
    state = SimState(cfg, cfg.schedulers[0], seed=2)
    rep = state.run()
    lat = [sum(fr.lat) / len(fr.lat) for fr in state.flows]
    assert lat[0] == pytest.approx(lat[1], rel=0.1)


def test_propagation_latency_and_low_load_pipeline():
    # Nearly no queueing: latency is service plus propagation exactly.
    cfg = ScenarioConfig(
        name="prop",
        bands=(BandConfig(service=DistributionSpec("deterministic", mean=0.01), prop_latency_s=0.25),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=0.5, packets=500),),
        schedulers=(SchedulerSpec("single_band", 0),),
        warmup_frac=0.0,
    )
    rep = run_scenario(cfg, cfg.schedulers[0], 6)
    assert rep.mean_latency_s == pytest.approx(0.26, rel=0.02)


def test_reordering_measured_on_asymmetric_bands():
    cfg = ScenarioConfig(
        name="asym",
        bands=(
            BandConfig(service=DistributionSpec("exponential", mean=1 / 17.5)),
            BandConfig(service=DistributionSpec("exponential", mean=0.1)),
        ),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=9.0, packets=10_000),),
        schedulers=(SchedulerSpec("even_split"),),
    )
    rep = run_scenario(cfg, cfg.schedulers[0], 13)
    assert rep.out_of_order_frac > 0.0
    assert rep.mean_reseq_delay_s > 0.0
    assert rep.max_reseq_delay_s >= rep.mean_reseq_delay_s
    assert sum(rep.per_band_frac) == pytest.approx(1.0, abs=1e-9)
    assert rep.per_band_frac[0] == pytest.approx(0.5, abs=0.02)


def test_feedback_estimates_converge_to_true_rates():
    cfg = ScenarioConfig(
        name="fb",
        bands=(
            BandConfig(service=DistributionSpec("deterministic", mean=1 / 17.5)),
            BandConfig(service=DistributionSpec("deterministic", mean=0.1), prop_latency_s=0.015),
        ),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=9.0, packets=8000),),
        schedulers=(SchedulerSpec("leaky_bucket"),),
    )
    state = SimState(cfg, cfg.schedulers[0], seed=3)
    rep = state.run()
    sched = state.flows[0].scheduler
    assert sched.stats[0].mu == pytest.approx(17.5, rel=1e-6)
    assert sched.stats[1].mu == pytest.approx(10.0, rel=1e-6)
    assert rep.delivered == 8000


def test_bootstrap_stats_moments():
    st = bootstrap_stats(DistributionSpec("exponential", mean=0.1))
    assert st.mu == pytest.approx(10.0)
    assert st.x2 == pytest.approx(0.02)
    st.validate()


def test_timestamps_monotone_and_bands_emit_in_flow_order():
    # Instrument the receive path: every packet's timestamps must be
    # monotone and each band must deliver a flow's packets in the order
    # they were assigned.
    cfg = ScenarioConfig(
        name="order",
        bands=(
            BandConfig(service=DistributionSpec("exponential", mean=1 / 17.5)),
            BandConfig(service=DistributionSpec("exponential", mean=0.1), prop_latency_s=0.01),
        ),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=9.0, packets=4000),),
        schedulers=(SchedulerSpec("even_split"),),
    )
    state = SimState(cfg, cfg.schedulers[0], seed=21)
    seen = []
    original = SimState._receive

    def spy(self, fr, pkt, t):
        seen.append(pkt)
        original(self, fr, pkt, t)

    SimState._receive = spy
    try:
        state.run()
    finally:
        SimState._receive = original
    assert len(seen) == 4000
    last_seq_per_band = {}
    for pkt in seen:
        assert pkt.created_at <= pkt.service_start <= pkt.received_at <= pkt.released_at
        prev = last_seq_per_band.get(pkt.enqueued_band, -1)
        assert pkt.seq > prev
        last_seq_per_band[pkt.enqueued_band] = pkt.seq


def test_run_requires_single_scheduler():
    cfg = ScenarioConfig(
        name="multi",
        bands=(BandConfig(service=DistributionSpec("exponential", mean=0.1)),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=5.0, packets=100),),
        schedulers=(SchedulerSpec("single_band", 0), SchedulerSpec("even_split")),
    )
    assert run_scenario(cfg, cfg.schedulers[1], seed=1).delivered == 100


def two_flow_parametric_cfg(**kw):
    return ScenarioConfig(
        name="pv2",
        bands=(
            BandConfig(service=DistributionSpec("exponential", mean=0.04)),
            BandConfig(service=DistributionSpec("exponential", mean=0.08)),
        ),
        stas=2,
        flows=(
            FlowConfig(sta=0, ac=0, lambda_pps=6.0, packets=3000),
            FlowConfig(sta=1, ac=0, lambda_pps=6.0, packets=3000),
        ),
        schedulers=(SchedulerSpec("leaky_bucket"),),
        vacation=DistributionSpec("exponential", mean=0.01),
        **kw,
    )


def test_parametric_vacations_with_two_flows_complete():
    cfg = two_flow_parametric_cfg()
    rep = run_scenario(cfg, cfg.schedulers[0], seed=8)
    assert rep.delivered == 6000
    assert rep.queued_at_end == 0 and rep.in_flight_at_end == 0


def test_time_capped_parametric_run_keeps_conservation():
    cfg = two_flow_parametric_cfg(max_sim_time_s=100.0)
    state = SimState(cfg, cfg.schedulers[0], seed=8)
    rep = state.run()
    assert state.stopped_at_time_limit
    assert rep.generated < 6000
    assert rep.generated == rep.delivered + rep.queued_at_end + rep.in_flight_at_end


def test_idle_vacations_push_no_heap_events(monkeypatch):
    # Criterion-1 config at rho = 0.3.  With one event per vacation the
    # idle band costs about 6.7 pushes per packet; lazily it costs at
    # most one arrival, one departure and one wake-up per packet.
    pushes = 0

    def counting_heappush(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(engine, "heappush", counting_heappush)
    cfg = one_band_cfg(
        lam=3.0,
        packets=20_000,
        kind="deterministic",
        mean=0.1,
        vacation=DistributionSpec("deterministic", mean=0.05),
    )
    rep = run_scenario(cfg, cfg.schedulers[0], seed=101)
    assert rep.delivered == 20_000
    assert pushes < 3 * rep.generated
