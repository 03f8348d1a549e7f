"""Config parsing/validation, suite runner records, output formats, and
the paired comparison operation."""

import dataclasses
import math
from pathlib import Path

import pytest

from bandsplit import runner, scenarios
from bandsplit.config import BandConfig, FlowConfig, ScenarioConfig
from bandsplit.distributions import DistributionSpec
from bandsplit.errors import ConfigInvalid, MismatchedSeeds
from bandsplit.metrics import METRIC_FIELDS
from bandsplit.runner import (
    compare,
    read_records,
    render_csv,
    render_jsonl,
    run_suite,
    write_records,
)
from bandsplit.schedulers import SchedulerSpec


def mini_config(**kw):
    base = dict(
        name="mini",
        bands=(
            BandConfig(service=DistributionSpec("deterministic", mean=1 / 17.5)),
            BandConfig(service=DistributionSpec("deterministic", mean=0.1), prop_latency_s=0.015),
        ),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=9.0, packets=1200),),
        schedulers=(SchedulerSpec("leaky_bucket"), SchedulerSpec("even_split")),
        replications=3,
        seed_base=1,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_bundled_scenarios_load_and_omitted_keys_take_dataclass_defaults():
    for name in scenarios.names():
        assert scenarios.load(name).name == name
    minimal = {
        "name": "mini",
        "bands": [{"service": {"kind": "deterministic", "mean": 0.1}}],
        "flows": [{"sta": 0, "ac": 0, "lambda_pps": 2.0, "packets": 100}],
        "schedulers": ["even_split"],
    }
    assert ScenarioConfig.from_dict(minimal) == ScenarioConfig(
        name="mini",
        bands=(BandConfig(service=DistributionSpec("deterministic", mean=0.1)),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=2.0, packets=100),),
        schedulers=(SchedulerSpec("even_split"),),
    )


def test_readme_scenario_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario config", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = ScenarioConfig.from_json(example)
    assert cfg.name == "two_band_asym" and len(cfg.bands) == 2
    assert [s.name for s in cfg.schedulers] == ["single_band:0", "even_split", "leaky_bucket"]


@pytest.mark.parametrize(
    "patch, field",
    [
        (dict(flows=()), "flows"),
        (dict(bands=()), "bands"),
        (dict(schedulers=()), "schedulers"),
        (dict(warmup_frac=0.5), "warmup_frac"),
        (dict(warmup_frac=-0.1), "warmup_frac"),
        (dict(stas=0), "stas"),
        (dict(acs=(0, 0)), "acs"),
        (dict(acs=(5,)), "acs"),
        (dict(replications=0), "replications"),
        (dict(feedback_interval_pkts=0), "feedback_interval_pkts"),
        (
            dict(bands=(BandConfig(DistributionSpec("deterministic", mean=0.1), math.nan),)),
            "bands[0].prop_latency_s",
        ),
    ],
)
def test_validation_rejects_bad_fields(patch, field):
    # Construction validates, so neither a direct build nor a replace()
    # of a valid config can produce an invalid instance.
    with pytest.raises(ConfigInvalid) as err:
        mini_config(**patch)
    assert field in str(err.value)
    valid = mini_config()
    with pytest.raises(ConfigInvalid) as err:
        dataclasses.replace(valid, **patch)
    assert field in str(err.value)


def test_validation_rejects_overload_and_bad_flow_fields():
    with pytest.raises(ConfigInvalid, match="offered load"):
        mini_config(flows=(FlowConfig(0, 0, 30.0, 1000),))
    with pytest.raises(ConfigInvalid, match="flows\\[0\\].sta"):
        mini_config(flows=(FlowConfig(2, 0, 1.0, 1000),))
    with pytest.raises(ConfigInvalid, match="flows\\[0\\].sta"):
        mini_config(flows=(FlowConfig(-1, 0, 1.0, 1000),))
    with pytest.raises(ConfigInvalid, match="flows\\[0\\].ac"):
        mini_config(flows=(FlowConfig(0, 4, 1.0, 1000),))
    with pytest.raises(ConfigInvalid, match="flows\\[1\\]"):
        mini_config(
            flows=(FlowConfig(0, 0, 1.0, 1000), FlowConfig(0, 0, 1.0, 1000)), stas=1
        )
    with pytest.raises(ConfigInvalid, match="available_bands"):
        mini_config(flows=(FlowConfig(0, 0, 1.0, 1000, available_bands=(7,)),))


def test_load_check_covers_unions_of_flows_usable_bands():
    # Hall's condition.  Four 10 pps bands; flows 0 and 1 each fit their
    # own two bands, but together they offer 30 pps to bands 0-2, whose
    # usable capacity is 29.97 pps.
    ten = BandConfig(service=DistributionSpec("deterministic", mean=0.1))

    def cfg(second_band):
        return mini_config(
            bands=(ten,) * 4,
            stas=2,
            flows=(
                FlowConfig(0, 0, 15.0, 1000, available_bands=(0, 1)),
                FlowConfig(1, 0, 15.0, 1000, available_bands=(second_band, 2)),
            ),
        )

    with pytest.raises(ConfigInvalid, match=r"flows\[1\].available_bands: offered load 30 pps on bands \[0, 1, 2\]"):
        cfg(1)
    cfg(3)  # bands 0-3 carry the 30 pps


def test_from_dict_field_diagnostics():
    with pytest.raises(ConfigInvalid, match="name"):
        ScenarioConfig.from_dict({"bands": [], "flows": [], "schedulers": []})
    with pytest.raises(ConfigInvalid, match="bands\\[0\\]"):
        ScenarioConfig.from_dict(
            {"name": "x", "bands": [{}], "flows": [], "schedulers": ["even_split"]}
        )
    with pytest.raises(ConfigInvalid, match="invalid JSON"):
        ScenarioConfig.from_json("{not json")


def test_run_suite_record_count_and_order(tmp_path):
    cfg = mini_config()
    out = tmp_path / "records.csv"
    reports = run_suite(cfg, out, fmt="csv")
    assert len(reports) == len(cfg.schedulers) * cfg.replications
    keys = [(r.scenario, r.scheduler, r.seed) for r in reports]
    assert keys == sorted(keys)
    assert out.exists()


def test_seed_override_and_jobs_merge_identical(tmp_path):
    cfg = mini_config()
    seq = run_suite(cfg, tmp_path / "a.csv", seeds=2, jobs=1)
    par = run_suite(cfg, tmp_path / "b.csv", seeds=2, jobs=4)
    assert len(seq) == 4
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert seq == par


def test_run_suite_starts_no_more_workers_than_runs(monkeypatch):
    # The process pool forks every worker when it starts, so --jobs 64
    # for two_band_asym's 7 runs must ask for 7.  The fake pool maps in
    # this process and starts none.
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", FakePool)
    cfg = scenarios.load("two_band_asym")
    cfg = dataclasses.replace(cfg, flows=tuple(dataclasses.replace(fl, packets=300) for fl in cfg.flows))
    assert len(run_suite(cfg, None, seeds=1, jobs=64)) == 7
    assert asked == [7]


def test_csv_and_jsonl_encode_identical_values(tmp_path):
    cfg = mini_config()
    reports = run_suite(cfg, None)
    csv_text = render_csv(reports)
    jsonl_text = render_jsonl(reports)
    write_records(reports, tmp_path / "r.csv", "csv")
    write_records(reports, tmp_path / "r.jsonl", "json")
    from_csv = read_records(tmp_path / "r.csv")
    from_jsonl = read_records(tmp_path / "r.jsonl")
    assert from_csv == from_jsonl
    assert csv_text.splitlines()[0].startswith(
        "scenario,scheduler,seed,delivered,goodput_pps,mean_latency_s,p95_latency_s,"
        "mean_reseq_delay_s,max_reseq_delay_s,out_of_order_frac,band_frac_0"
    )
    assert len(jsonl_text.splitlines()) == len(reports)


def test_compare_paired_deltas_and_wins(tmp_path):
    cfg = mini_config(replications=3)
    reports = run_suite(cfg, None)
    records = [r.record() for r in reports]
    summary = compare(records, baseline="even_split")
    assert {d.baseline for d in summary.deltas} == {"even_split"}
    mets = {d.metric for d in summary.deltas}
    assert "mean_latency_s" in mets and "mean_reseq_delay_s" in mets
    lat = [d for d in summary.deltas if d.scheduler == "leaky_bucket" and d.metric == "mean_latency_s"]
    assert len(lat) == 1 and lat[0].seeds == 3
    text = summary.render()
    assert "baseline: even_split" in text


def test_compare_header_names_each_scenarios_own_baseline():
    # Default baselines: leaky_bucket where it ran, else the first name.
    runs = {"a": ("leaky_bucket", "even_split"), "b": ("even_split", "load_balancing")}
    records = [
        {"scenario": scenario, "scheduler": sched, "seed": 1, **dict.fromkeys(METRIC_FIELDS, 1.0)}
        for scenario, scheds in runs.items()
        for sched in scheds
    ]
    summary = compare(records)
    assert {(d.scenario, d.baseline) for d in summary.deltas} == {("a", "leaky_bucket"), ("b", "even_split")}
    assert summary.render().startswith("baseline: leaky_bucket (a), even_split (b)\n")
    shared = compare(records, baseline="even_split")
    assert shared.render().startswith("baseline: even_split\n")


def test_compare_duplicated_scheme_gives_zero_deltas():
    cfg = mini_config(replications=2)
    reports = run_suite(cfg, None)
    records = []
    for r in reports:
        if r.scheduler == "leaky_bucket":
            rec = r.record()
            records.append(rec)
            twin = dict(rec)
            twin["scheduler"] = "leaky_bucket_twin"
            records.append(twin)
    summary = compare(records, baseline="leaky_bucket")
    assert all(d.mean_delta == 0.0 for d in summary.deltas)


def test_compare_errors():
    cfg = mini_config(replications=2)
    reports = [r for r in run_suite(cfg, None) if r.scheduler == "leaky_bucket"]
    with pytest.raises(MismatchedSeeds):
        compare([r.record() for r in reports])
    # Mismatched seed sets across schemes.
    cfg2 = mini_config(replications=2)
    recs = [r.record() for r in run_suite(cfg2, None)]
    recs = [r for r in recs if not (r["scheduler"] == "even_split" and r["seed"] == 2)]
    with pytest.raises(MismatchedSeeds):
        compare(recs)


def test_single_band_and_token_scheduler_match_on_one_band():
    # With one band both degenerate to FIFO; paired seeds should agree
    # closely on mean latency.
    cfg = ScenarioConfig(
        name="m1",
        bands=(BandConfig(service=DistributionSpec("exponential", mean=0.1)),),
        flows=(FlowConfig(sta=0, ac=0, lambda_pps=5.0, packets=20_000),),
        schedulers=(SchedulerSpec("single_band", 0), SchedulerSpec("leaky_bucket")),
        replications=1,
    )
    reports = run_suite(cfg, None)
    by = {r.scheduler: r for r in reports}
    a = by["single_band:0"].mean_latency_s
    b = by["leaky_bucket"].mean_latency_s
    assert abs(a - b) / a <= 0.02


def test_vacation_mode_object_form_and_lognormal_band():
    cfg = ScenarioConfig.from_dict(
        {
            "name": "vm",
            "bands": [
                {"service": {"kind": "lognormal", "mu_log": -2.5, "sigma_log": 0.4}},
            ],
            "flows": [{"sta": 0, "ac": 0, "lambda_pps": 2.0, "packets": 100}],
            "schedulers": ["single_band:0"],
            "vacation_mode": {"kind": "parametric", "dist": {"kind": "exponential", "mean": 0.02}},
        }
    )
    assert cfg.vacation == DistributionSpec("exponential", mean=0.02)
    assert cfg.bands[0].service.kind == "lognormal"


def test_write_records_rejects_unknown_format(tmp_path):
    cfg = mini_config(replications=1)
    reports = run_suite(cfg, None)
    with pytest.raises(ValueError):
        write_records(reports, tmp_path / "x.dat", "parquet")


def test_compare_rejects_empty_input():
    with pytest.raises(MismatchedSeeds):
        compare([])
