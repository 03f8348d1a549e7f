"""Golden records: the sha256 of every CSV row for a fixed set of runs.

The digests in ``data/golden_records.json`` pin the simulator's output
byte for byte, so an engine change that claims to keep records identical
is checked here rather than by eye.  The cases cover the parametric
vacation path:

- the criterion-1 config (one band, deterministic service and
  vacations) at rho 0.3 / 0.6 / 0.9;
- a 3-band, 2-STA, 2-AC config whose bands 0 and 1 are identical and
  deterministic, so their events tie exactly, under deterministic,
  exponential and lognormal vacations and five policies, with feedback
  every 10 packets;
- the bundled ``two_band_high_rtt`` (100 ms propagation, so deep
  reordering) and ``two_sta_mixed`` (one AC, two stations sharing a
  band's queues round-robin, one flow masked to the slow band), all
  their schemes at 2 seeds and 2,000 packets per flow.

A change that alters records on purpose re-pins with
``PYTHONPATH=src python tests/test_golden_records.py``, which prints each
``(case, row index)`` whose digest differs from the pinned file before it
writes, and states which records changed and why.  Row 0 is the header.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from bandsplit import scenarios
from bandsplit.config import BandConfig, FlowConfig, ScenarioConfig
from bandsplit.distributions import DistributionSpec
from bandsplit.runner import render_csv, run_suite
from bandsplit.schedulers import SchedulerSpec

GOLDEN = Path(__file__).parent / "data" / "golden_records.json"

_VACATIONS = {
    "det": DistributionSpec("deterministic", mean=0.02),
    "exp": DistributionSpec("exponential", mean=0.02),
    "logn": DistributionSpec("lognormal", mu_log=-4.0, sigma_log=0.6),
}


def _criterion_1(rho: float) -> ScenarioConfig:
    mu = 10.0
    return ScenarioConfig(
        name=f"criterion1_rho{rho}",
        bands=(BandConfig(service=DistributionSpec("deterministic", mean=1.0 / mu)),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=rho * mu, packets=20_000),),
        schedulers=(SchedulerSpec("single_band", 0),),
        vacation=DistributionSpec("deterministic", mean=0.05),
        seed_base=101,
    )


def _three_band(vacation: str) -> ScenarioConfig:
    tie = DistributionSpec("deterministic", mean=0.05)
    return ScenarioConfig(
        name=f"three_band_{vacation}",
        bands=(
            BandConfig(service=tie),
            BandConfig(service=tie),
            BandConfig(service=DistributionSpec("exponential", mean=0.08), prop_latency_s=0.01),
        ),
        stas=2,
        acs=(0, 1),
        flows=(
            FlowConfig(sta=0, ac=0, lambda_pps=7.0, packets=1200),
            FlowConfig(sta=1, ac=0, lambda_pps=5.0, packets=1000),
            FlowConfig(sta=1, ac=1, lambda_pps=4.0, packets=800, available_bands=(0, 1)),
        ),
        schedulers=tuple(
            SchedulerSpec(kind)
            for kind in (
                "even_split",
                "load_balancing",
                "band_per_flow",
                "minimum_delay",
                "leaky_bucket",
            )
        ),
        vacation=_VACATIONS[vacation],
        feedback_interval_pkts=10,
        seed_base=7,
    )


def _bundled(name: str) -> ScenarioConfig:
    cfg = scenarios.load(name)
    flows = tuple(replace(fl, packets=2000) for fl in cfg.flows)
    return replace(cfg, flows=flows, replications=2)


CASES = {
    **{f"criterion1_rho{rho}": (lambda rho=rho: _criterion_1(rho)) for rho in (0.3, 0.6, 0.9)},
    **{f"three_band_{v}": (lambda v=v: _three_band(v)) for v in _VACATIONS},
    **{name: (lambda name=name: _bundled(name)) for name in ("two_band_high_rtt", "two_sta_mixed")},
}


def row_digests(config: ScenarioConfig) -> list[str]:
    """sha256 of each line of the run's CSV, header first."""
    text = render_csv(run_suite(config))
    return [hashlib.sha256(line.encode()).hexdigest() for line in text.splitlines()]


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_match_golden_digests(case):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert row_digests(CASES[case]()) == pinned[case]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    digests = {case: row_digests(build()) for case, build in sorted(CASES.items())}
    for case, rows in digests.items():
        old = pinned.get(case, [])
        for i in range(max(len(rows), len(old))):
            if rows[i : i + 1] != old[i : i + 1]:
                print(f"changed: {case} row {i}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
