"""Acceptance suite: one test per release criterion, at full scale and
the stated tolerances.  The terminal summary prints one PASS/FAIL line
per criterion (see conftest).

Criteria:
 1. queueing-with-vacations delay formula validated by simulation
    (deterministic service + deterministic vacations, three loads, 5%)
 2. M/M/1 mean-wait sanity check (5%)
 3. solver vs grid-oracle objective agreement on 50 random instances
 4. stationarity of the objective at returned interior solutions
 5. strict convexity of the per-band objective term (1000 points)
 6. token-scheduler split convergence and exact hand traces
 7. qualitative scheme ordering on the bundled asymmetric scenario
 8. bit-identical records across reruns and worker counts
 9. complete runs, conservation and ordering over 100 randomized configs
"""

import json
import math
import time

import numpy as np

from bandsplit.cli import main as cli_main
from bandsplit.config import BandConfig, FlowConfig, ScenarioConfig
from bandsplit.distributions import DistributionSpec
from bandsplit.engine import SimState, run_scenario
from bandsplit.model import BandStats, aggregate_delay, band_delay, objective
from bandsplit.optimizer import optimize
from bandsplit.runner import run_suite
from bandsplit.schedulers import SchedulerSpec, make_scheduler
from bandsplit import scenarios
from conftest import random_instance, random_stats, record_criterion
from grid_oracle import solve_grid

RHO_POINTS = (0.3, 0.6, 0.9)
PACKETS_FULL = 1_000_000


def _one_band(lam, packets, kind, mean, **kw):
    return ScenarioConfig(
        name="acceptance",
        bands=(BandConfig(service=DistributionSpec(kind, mean=mean)),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=lam, packets=packets),),
        schedulers=(SchedulerSpec("single_band", 0),),
        **kw,
    )


def test_criterion_1_pk_vacation_delay_validation():
    mu, vac = 10.0, 0.05
    details = []
    for rho in RHO_POINTS:
        lam = rho * mu
        cfg = _one_band(
            lam,
            PACKETS_FULL,
            "deterministic",
            1.0 / mu,
            vacation=DistributionSpec("deterministic", mean=vac),
        )
        t0 = time.monotonic()
        rep = run_scenario(cfg, cfg.schedulers[0], seed=101)
        elapsed = time.monotonic() - t0
        theory = lam * (1.0 / mu**2) / (2.0 * (1.0 - rho)) + vac / 2.0 + 1.0 / mu
        err = abs(rep.mean_latency_s - theory) / theory
        assert err <= 0.05, f"rho={rho}: sim {rep.mean_latency_s} vs theory {theory}"
        assert elapsed < 60.0, f"rho={rho} took {elapsed:.1f}s"
        details.append(f"rho={rho}: {err * 100:.2f}% in {elapsed:.0f}s")
    record_criterion(1, "; ".join(details))


def test_criterion_2_mm1_mean_wait():
    lam, mu = 5.0, 10.0
    cfg = _one_band(lam, PACKETS_FULL, "exponential", 1.0 / mu)
    rep = run_scenario(cfg, cfg.schedulers[0], seed=202)
    theory = lam / (mu * (mu - lam))
    err = abs(rep.mean_wait_s - theory) / theory
    assert err <= 0.05, f"sim wait {rep.mean_wait_s} vs theory {theory}"
    record_criterion(2, f"mean wait {rep.mean_wait_s:.5f} vs {theory:.5f} ({err * 100:.2f}%)")


def _interior_instances(count, seed):
    """Random feasible instances whose optimum is interior (no band shut
    off by the active-set step), alternating M between 2 and 3."""
    rng = np.random.default_rng(seed)
    out = []
    m = 2
    while len(out) < count:
        lam, stats = random_instance(rng, m)
        sol = optimize(lam, stats)
        if all(l > 0.0 for l in sol.lambdas):
            out.append((lam, stats, sol))
            m = 2 if m == 3 else 3
    return out


def test_criterion_3_solver_grid_oracle_agreement():
    t0 = time.monotonic()
    instances = _interior_instances(50, seed=303)
    worst = 0.0
    for lam, stats, sol in instances:
        grid_f = aggregate_delay(solve_grid(lam, stats), stats)
        gap = abs(aggregate_delay(sol.lambdas, stats) - grid_f)
        assert gap <= 1e-4 * grid_f, f"solver gap {gap}"
        worst = max(worst, gap / grid_f)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.0f}s"
    record_criterion(3, f"50 instances; worst rel gap {worst:.2e}, {elapsed:.0f}s")


def test_criterion_4_stationarity_at_interior_solutions():
    worst = 0.0
    for lam, stats, sol in _interior_instances(25, seed=404):
        h = 1e-5 * lam
        lams = list(sol.lambdas)
        grads = []
        for j in range(len(lams)):
            hi, lo = lams.copy(), lams.copy()
            hi[j] += h
            lo[j] -= h
            grads.append((objective(hi, stats, lam) - objective(lo, stats, lam)) / (2 * h))
        mean_g = sum(grads) / len(grads)
        spread = (max(grads) - min(grads)) / abs(mean_g)
        assert spread <= 1e-4, f"gradient spread {spread}"
        worst = max(worst, spread)
    record_criterion(4, f"worst finite-difference gradient spread {worst:.2e} (bar 1e-4)")


def test_criterion_5_weighted_term_strictly_convex():
    rng = np.random.default_rng(505)
    min_second = math.inf
    for _ in range(1000):
        st = random_stats(rng)
        lam_total = float(rng.uniform(0.3, 0.95)) * st.mu
        lam = float(rng.uniform(0.02, 0.97)) * st.mu
        h = 1e-3 * (st.mu - lam)
        if lam - h <= 0:
            lam += h

        def f(x):
            return band_delay(x, st).total * x / lam_total

        second = f(lam + h) - 2.0 * f(lam) + f(lam - h)
        assert second > 0.0
        min_second = min(min_second, second)
    record_criterion(5, f"1000 random points, smallest second difference {min_second:.3e} > 0")


def test_criterion_6_token_split_convergence_and_traces():
    # Exact hand traces, mechanics driven directly through the credits.
    sched = make_scheduler(
        SchedulerSpec("leaky_bucket"),
        stats=[BandStats(10.0, 0.02, 0.1, 0.011)] * 2,
        lambda_total=7.5,
    )
    sched.increments = [0.5, 0.25]
    sched.tokens = [0.0, 0.0]
    assert [sched.next_band() for _ in range(9)] == [0, 0, 1, 0, 0, 1, 0, 0, 1]
    sched.increments = [0.5, 0.5]
    sched.tokens = [0.0, 0.0]
    assert [sched.next_band() for _ in range(6)] == [0, 1, 0, 1, 0, 1]

    # Long-run split convergence at 1e5 selections, equal and unequal rates.
    cases = [
        ("equal rates", [BandStats(10.0, 0.02, 0.05, 0.005), BandStats(10.0, 0.02, 0.2, 0.06)], 7.5),
        ("unequal rates", [BandStats(20.0, 2 / 400, 0.1, 0.011), BandStats(10.0, 2 / 100, 0.1, 0.011)], 12.0),
    ]
    details = []
    for label, stats, lam in cases:
        sched = make_scheduler(
            SchedulerSpec("leaky_bucket"), stats=stats, lambda_total=lam
        )
        target = [l / lam for l in sched.lambda_star]
        n = 100_000
        counts = [0, 0]
        for _ in range(n):
            counts[sched.next_band()] += 1
        worst = max(abs(counts[j] / n - target[j]) for j in range(2))
        assert worst <= 0.01, f"{label}: fraction error {worst}"
        details.append(f"{label} err {worst:.4f}")
    record_criterion(6, f"traces exact; {'; '.join(details)} (bar 0.01)")


def test_criterion_7_scheme_ordering_on_asymmetric_bands():
    cfg = scenarios.load("two_band_asym")
    reports = run_suite(cfg, None, jobs=4)
    assert len(reports) == 70  # seven schemes x ten seeds
    by = {}
    for rep in reports:
        by.setdefault(rep.scheduler, {})[rep.seed] = rep
    seeds = sorted(by["leaky_bucket"])
    assert len(seeds) == 10

    # (a) resequencing delay: token scheduler beats minimum_delay seed by seed
    wins = sum(
        1
        for s in seeds
        if by["leaky_bucket"][s].mean_reseq_delay_s < by["minimum_delay"][s].mean_reseq_delay_s
    )
    assert wins >= 9, f"leaky_bucket reseq wins only {wins}/10"

    # (b) mean end-to-end latency over seeds
    def mean_lat(name):
        return sum(by[name][s].mean_latency_s for s in seeds) / len(seeds)

    lat_lb = mean_lat("leaky_bucket")
    assert lat_lb <= mean_lat("even_split")
    assert lat_lb <= mean_lat("load_balancing")

    # (c) out-of-order fractions: zero for single-path schemes, positive
    # for every aggregation run
    for name in ("single_band:0", "single_band:1", "band_per_flow"):
        assert all(by[name][s].out_of_order_frac == 0.0 for s in seeds), name
    for name in ("even_split", "load_balancing", "minimum_delay", "leaky_bucket"):
        assert all(by[name][s].out_of_order_frac > 0.0 for s in seeds), name

    record_criterion(
        7,
        f"reseq wins {wins}/10; latency {lat_lb:.4f} <= even {mean_lat('even_split'):.4f}"
        f" and balanced {mean_lat('load_balancing'):.4f}; out-of-order split exact",
    )


def test_criterion_8_bit_identical_records(tmp_path):
    mini = {
        "name": "determinism",
        "bands": [
            {"service": {"kind": "deterministic", "mean": 0.05714285714285714}},
            {"service": {"kind": "deterministic", "mean": 0.1}, "prop_latency_s": 0.015},
        ],
        "flows": [{"sta": 0, "ac": 0, "lambda_pps": 9.0, "packets": 4000}],
        "schedulers": ["leaky_bucket", "minimum_delay", "even_split"],
        "seed_base": 1,
        "replications": 2,
    }
    cfg_path = tmp_path / "determinism.json"
    cfg_path.write_text(json.dumps(mini), encoding="utf-8")
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    assert cli_main(["run", str(cfg_path), "--out", str(outs[0]), "--jobs", "1"]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(outs[1]), "--jobs", "1"]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(outs[2]), "--jobs", "8"]) == 0
    rerun = outs[0].read_bytes() == outs[1].read_bytes()
    across_jobs = outs[0].read_bytes() == outs[2].read_bytes()
    assert rerun, "rerun with identical config+seed differs"
    assert across_jobs, "--jobs 1 vs --jobs 8 differ"
    record_criterion(8, "CSV byte-identical across rerun and across --jobs 1 vs 8")


def _random_config(rng: np.random.Generator, index: int) -> ScenarioConfig:
    m = int(rng.integers(1, 4))
    bands = []
    for _ in range(m):
        kind = ("deterministic", "exponential", "lognormal")[int(rng.integers(0, 3))]
        mean = float(rng.uniform(0.02, 0.2))
        if kind == "lognormal":
            dist = DistributionSpec("lognormal", mu_log=math.log(mean), sigma_log=0.4)
        else:
            dist = DistributionSpec(kind, mean=mean)
        bands.append(BandConfig(service=dist, prop_latency_s=float(rng.uniform(0.0, 0.02))))
    capacity = sum(1.0 / b.service.moments()[0] for b in bands)
    n_flows = int(rng.integers(1, 3))
    share = float(rng.uniform(0.2, 0.8)) * capacity / n_flows
    flows = tuple(
        FlowConfig(sta=i, ac=0, lambda_pps=share * float(rng.uniform(0.6, 1.0)), packets=700)
        for i in range(n_flows)
    )
    kinds = ["even_split", "load_balancing", "band_per_flow", "minimum_delay", "leaky_bucket"]
    spec = SchedulerSpec(kinds[int(rng.integers(0, len(kinds)))])
    parametric = bool(rng.integers(0, 2))
    return ScenarioConfig(
        name=f"rand{index}",
        bands=tuple(bands),
        stas=n_flows,
        flows=flows,
        schedulers=(spec,),
        vacation=DistributionSpec("exponential", mean=0.01) if parametric else None,
        warmup_frac=float(rng.uniform(0.0, 0.3)),
        feedback_interval_pkts=int(rng.integers(40, 200)),
    )


def test_criterion_9_conservation_and_ordering_properties(buffers):
    rng = np.random.default_rng(909)
    complete = 0
    for i in range(100):
        cfg = _random_config(rng, i)  # validated when built
        state = SimState(cfg, cfg.schedulers[0], seed=1000 + i)
        # run() raises ConservationViolated unless the run is complete.
        rep = state.run()
        # The whole budget, each packet received once and in order: every
        # flow generated all its packets, every seq has one receipt after
        # its service start, and each band served and delivered a flow's
        # packets in seq order (one FIFO queue per flow and band).
        flows = buffers[-1]
        for fr, fl, f in zip(state.flows, cfg.flows, flows):
            assert fr.next_seq == fl.packets
            assert (f["arrival"] <= f["start"]).all() and (f["start"] <= f["receipt"]).all()
            for j in range(len(cfg.bands)):
                on = f["band"] == j
                assert (np.diff(f["start"][on]) >= 0.0).all() and (np.diff(f["receipt"][on]) >= 0.0).all()
        assert not any(srv.qlen or srv.current for srv in state.shared)
        assert rep.delivered == sum(f.packets for f in cfg.flows)
        # Metric invariants.
        assert rep.measured > 0
        assert rep.mean_reseq_delay_s >= 0.0
        assert rep.max_reseq_delay_s >= rep.mean_reseq_delay_s >= 0.0
        assert 0.0 <= rep.out_of_order_frac <= 1.0
        assert abs(sum(rep.per_band_frac) - 1.0) <= 1e-9
        complete += 1
    record_criterion(
        9, f"100 randomized configs green, {complete} delivered their whole packet budget"
    )
