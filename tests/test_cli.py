"""CLI surface tests: subcommands, exit codes, bundled scenario access."""

import json
import math
import re

import pytest

from bandsplit import engine, runner
from bandsplit.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from bandsplit.config import ScenarioConfig
from bandsplit.errors import ConfigInvalid

MINI = {
    "name": "cli_mini",
    "bands": [
        {"service": {"kind": "deterministic", "mean": 0.05714285714285714}},
        {"service": {"kind": "deterministic", "mean": 0.1}, "prop_latency_s": 0.015},
    ],
    "flows": [{"sta": 0, "ac": 0, "lambda_pps": 9.0, "packets": 800}],
    "schedulers": ["leaky_bucket", "even_split"],
    "seed_base": 1,
    "replications": 2,
}


def write_mini(tmp_path):
    p = tmp_path / "mini.json"
    p.write_text(json.dumps(MINI), encoding="utf-8")
    return p


def test_run_and_compare_roundtrip(tmp_path, capsys):
    cfg = write_mini(tmp_path)
    out = tmp_path / "records.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    assert out.exists()
    text = out.read_text()
    assert text.count("\n") == 5  # header + 2 schedulers x 2 seeds
    assert main(["compare", str(out), "--baseline", "even_split"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "baseline: even_split" in captured.out


def test_run_lists_bundled_scenarios(capsys):
    assert main(["run", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("two_band_asym", "two_band_high_rtt", "two_sta_mixed"):
        assert name in out


def test_json_format_output(tmp_path):
    cfg = write_mini(tmp_path)
    out = tmp_path / "records.jsonl"
    assert main(["run", str(cfg), "--out", str(out), "--format", "json"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[0])["scenario"] == "cli_mini"


def test_missing_config_is_config_error(capsys):
    assert main(["run", "no_such_file.json", "--out", "x.csv"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MINI, "flows": []}), encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "flows" in capsys.readouterr().err


def test_unreadable_config_is_config_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps({**MINI, "name": "cli_m\xe9"}, ensure_ascii=False).encode("latin-1"))
    for cfg in (latin1, tmp_path):
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(cfg) in err


def test_unreadable_records_file_is_runtime_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"scenario,scheduler\ncli_m\xe9,even_split\n")
    for records in (tmp_path / "missing.csv", latin1):
        assert main(["compare", str(records)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("runtime error") and str(records) in err


def test_output_in_a_missing_directory_is_io_error(tmp_path, capsys, monkeypatch):
    # The output's directory is checked before any run starts.
    runs = []
    monkeypatch.setattr(runner, "run_scenario", lambda *args: runs.append(args))
    cfg = write_mini(tmp_path)
    out = tmp_path / "nodir" / "x.csv"
    assert main(["run", str(cfg), "--out", str(out), "--seeds", "1"]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("io error") and runs == []


def test_output_that_is_a_directory_is_io_error(tmp_path, capsys, monkeypatch):
    # An output path naming a directory fails before any run starts.
    runs = []
    monkeypatch.setattr(runner, "run_scenario", lambda *args: runs.append(args))
    cfg = write_mini(tmp_path)
    assert main(["run", str(cfg), "--out", str(tmp_path), "--seeds", "1"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("io error") and "is a directory" in err and runs == []


def test_overflowing_run_is_runtime_error_and_writes_no_records(tmp_path, capsys, monkeypatch):
    # The queue cap is checked after the run has filled its buffers, and
    # the run's error stops the suite before any record is written.
    monkeypatch.setattr(engine, "QUEUE_CAP", 1)
    cfg = write_mini(tmp_path)
    out = tmp_path / "records.csv"
    assert main(["run", str(cfg), "--out", str(out), "--seeds", "1"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.match(r"runtime error: band \d queue exceeded cap 1 at t=", err)
    assert not out.exists()


def test_unparseable_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


def test_compare_single_scheme_is_runtime_error(tmp_path, capsys):
    cfg = dict(MINI)
    cfg["schedulers"] = ["leaky_bucket"]
    p = tmp_path / "one.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "one.csv"
    assert main(["run", str(p), "--out", str(out)]) == EXIT_OK
    assert main(["compare", str(out)]) == EXIT_RUNTIME


def test_seeds_override(tmp_path):
    cfg = write_mini(tmp_path)
    out = tmp_path / "records.csv"
    assert main(["run", str(cfg), "--out", str(out), "--seeds", "3"]) == EXIT_OK
    assert out.read_text().count("\n") == 7  # header + 2 x 3


def test_compare_writes_summary_file(tmp_path):
    cfg = write_mini(tmp_path)
    out = tmp_path / "records.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    summary = tmp_path / "summary.txt"
    assert main(["compare", str(out), "--out", str(summary)]) == EXIT_OK
    assert "baseline: leaky_bucket" in summary.read_text()


def test_nonpositive_seeds_or_jobs_is_config_error(tmp_path, capsys):
    cfg = write_mini(tmp_path)
    out = str(tmp_path / "x.csv")
    assert main(["run", str(cfg), "--out", out, "--seeds", "0"]) == EXIT_CONFIG
    assert "seeds" in capsys.readouterr().err
    for jobs in ("0", "-3"):
        assert main(["run", str(cfg), "--out", out, "--jobs", jobs]) == EXIT_CONFIG
        assert "jobs" in capsys.readouterr().err


def test_single_band_on_a_masked_band_is_config_error(tmp_path, capsys):
    cfg = {
        **MINI,
        "flows": [{"sta": 0, "ac": 0, "lambda_pps": 5.0, "packets": 200, "available_bands": [1]}],
        "schedulers": ["single_band:0"],
    }
    p = tmp_path / "masked.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "available_bands" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flows, entry, message",
    [
        (MINI["flows"], "single_band:5", "schedulers[1]: single_band index 5 out of range"),
        (
            [
                {"sta": 0, "ac": 0, "lambda_pps": 5.0, "packets": 200},
                {"sta": 1, "ac": 0, "lambda_pps": 5.0, "packets": 200, "available_bands": [1]},
            ],
            "single_band:0",
            "schedulers[1]: single_band:0 uses band 0, which flows[1].available_bands excludes",
        ),
    ],
    ids=["out_of_range", "masked"],
)
def test_a_bad_single_band_entry_is_named_by_its_index(tmp_path, capsys, flows, entry, message):
    # The bad entry comes second, after a valid one.
    cfg = {**MINI, "stas": 2, "flows": flows, "schedulers": ["even_split", entry]}
    p = tmp_path / "bad_entry.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def _band0(**service):
    return [{"service": service}, *MINI["bands"][1:]]


# Capacities 10 pps and 100 pps.
_SLOW_FAST = [
    {"service": {"kind": "deterministic", "mean": 0.1}},
    {"service": {"kind": "deterministic", "mean": 0.01}},
]


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"feedback_interval": 10}, "feedback_interval"),
        ({"vacation_dist": {"kind": "deterministic", "mean": 0.05}}, "vacation_dist"),
        (
            {"vacation_mode": "parametric", "vacation_dist": {"kind": "deterministic", "mean": 0.05}},
            "vacation_mode",
        ),
        ({"estimator_window": 64}, "estimator_window"),
        (
            {"flows": [{**MINI["flows"][0], "available_band": [1]}]},
            "flows[0].available_band",
        ),
        ({"bands": [{**MINI["bands"][0], "prop_latency": 0.5}, MINI["bands"][1]]}, "bands[0].prop_latency"),
        ({"bands": _band0(kind="lognormal", mean=0.05)}, "bands[0].service.mean"),
        ({"bands": _band0(kind="lognormal", mu_log=-3.0)}, "bands[0].service.sigma_log"),
        ({"schedulers": [{"kind": "single_band", "band": 0, "bnd": 1}]}, "schedulers[0].bnd"),
        ({"schedulers": [{"kind": "even_split", "band": 1}]}, "even_split"),
        ({"schedulers": [{"kind": "single_band", "band": 1.9}]}, "schedulers[0].band"),
        ({"schedulers": [{"kind": "single_band", "band": True}]}, "schedulers[0].band"),
        ({"schedulers": [{"kind": "single_band", "band": "1"}]}, "schedulers[0].band"),
        ({"bands": _band0(kind="deterministic", mean=True)}, "bands[0].service.mean"),
        ({"bands": _band0(kind="deterministic", mean="0.05")}, "bands[0].service.mean"),
        ({"name": None}, "name"),
        ({"name": 5}, "name"),
        ({"bands": [{**MINI["bands"][0], "prop_latency_s": float("nan")}, MINI["bands"][1]]}, "bands[0].prop_latency_s"),
        ({"bands": _band0(kind="exponential", mean=float("inf"))}, "bands[0].service.mean"),
        ({"schedulers": ["even_split", "single_band:0_1"]}, "schedulers[1]"),
        # Total load is 0.11 of capacity, but the masked flows overload band 0.
        (
            {
                "bands": _SLOW_FAST,
                "flows": [{"sta": 0, "ac": 0, "lambda_pps": 12.0, "packets": 200, "available_bands": [0]}],
            },
            "flows[0].available_bands",
        ),
        (
            {
                "bands": _SLOW_FAST,
                "stas": 2,
                "flows": [
                    {"sta": s, "ac": 0, "lambda_pps": 6.0, "packets": 200, "available_bands": [0]}
                    for s in (0, 1)
                ],
            },
            "flows[0].available_bands",
        ),
        # Each flow fits its own two bands, but the two overload the union.
        (
            {
                "bands": [_SLOW_FAST[0]] * 4,
                "stas": 2,
                "flows": [
                    {"sta": s, "ac": 0, "lambda_pps": 15.0, "packets": 200, "available_bands": [s, s + 1]}
                    for s in (0, 1)
                ],
            },
            "flows[1].available_bands",
        ),
        ({"schedulers": [{"band": 0}]}, "schedulers[0].kind"),
        ({"schedulers": [{"kind": "single_band"}]}, "single_band needs a 'band' index"),
        ({"schedulers": [7]}, "schedulers[0]"),
        # Not settings: every run finishes its budget, and the queue cap
        # is the engine's constant.
        ({"max_sim_time_s": 5.0}, "max_sim_time_s: unknown field"),
        ({"queue_cap": 5}, "queue_cap: unknown field"),
    ],
)
def test_unknown_or_misplaced_key_is_config_error(tmp_path, capsys, patch, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**MINI, **patch}), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert path in capsys.readouterr().err


# One 10 pps band carrying one 1 pps flow.
_ONE_BAND = {
    "name": "one_band",
    "bands": [{"service": {"kind": "deterministic", "mean": 0.1}}],
    "flows": [{"sta": 0, "ac": 0, "lambda_pps": 1.0, "packets": 200}],
    "schedulers": ["single_band:0"],
}


def _parametric(**dist):
    return {"vacation_mode": {"kind": "parametric", "dist": dist}}


@pytest.mark.parametrize(
    "patch, path",
    [
        ({"bands": [{"service": {"kind": "lognormal", "mu_log": 800.0, "sigma_log": 0.0}}]}, "bands[0].service"),
        ({"bands": [{"service": {"kind": "lognormal", "mu_log": -800.0, "sigma_log": 0.0}}]}, "bands[0].service"),
        ({"bands": [{"service": {"kind": "lognormal", "mu_log": 0.0, "sigma_log": 40.0}}]}, "bands[0].service"),
        ({"bands": [{"service": {"kind": "exponential", "mean": 1e300}}]}, "bands[0].service"),
        (_parametric(kind="lognormal", mu_log=800.0, sigma_log=0.0), "vacation_mode.dist"),
        (_parametric(kind="lognormal", mu_log=-800.0, sigma_log=0.0), "vacation_mode.dist"),
    ],
    ids=["service-mean-overflows", "service-mean-vanishes", "service-m2-overflows",
         "service-exponential-m2-overflows", "vacation-mean-overflows", "vacation-mean-vanishes"],
)
def test_distribution_whose_moments_overflow_or_vanish_is_config_error(tmp_path, capsys, patch, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**_ONE_BAND, **patch}), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and path in err


@pytest.mark.parametrize("lam", [1e-300, 1e-200])
def test_tiny_arrival_rate_is_config_error_at_load(tmp_path, capsys, lam):
    # A rate so small that the exponential gap's second moment overflows
    # cannot run: the loader builds the gap and names the field.
    d = {**_ONE_BAND, "flows": [{"sta": 0, "ac": 0, "lambda_pps": lam, "packets": 200}]}
    with pytest.raises(ConfigInvalid, match=r"flows\[0\]\.lambda_pps"):
        ScenarioConfig.from_dict(d)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: flows[0].lambda_pps")


@pytest.mark.parametrize("mean", [1e-17, 1e-12])
def test_vacations_too_short_to_run_are_config_error(tmp_path, capsys, mean):
    # An idle band would draw 1 / (1 pps * mean) vacations per packet gap:
    # the run would take hours, or never end once the chain stops moving.
    cfg = {**_ONE_BAND, **_parametric(kind="deterministic", mean=mean)}
    with pytest.raises(ConfigInvalid, match=r"vacation_mode\.dist"):
        ScenarioConfig.from_dict(cfg)
    p = tmp_path / "short.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "vacation_mode.dist" in capsys.readouterr().err


_RECORD = {
    "scenario": "s",
    "scheduler": "even_split",
    "seed": 1,
    "delivered": 100,
    "goodput_pps": 1.0,
    "mean_latency_s": 0.1,
    "p95_latency_s": 0.2,
    "mean_reseq_delay_s": 0.0,
    "max_reseq_delay_s": 0.0,
    "out_of_order_frac": 0.0,
    "band_frac_0": 1.0,
}
_RECORDS = [_RECORD, {**_RECORD, "scheduler": "leaky_bucket"}]


def _csv(records):
    cols = list(records[0])
    return "\n".join([",".join(cols), *(",".join(str(rec[c]) for c in cols) for rec in records)]) + "\n"


def _jsonl(lines):
    return "".join(json.dumps(line) + "\n" for line in lines)


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("r.csv", _csv([{k: v for k, v in rec.items() if k != "delivered"} for rec in _RECORDS]), "line 2: missing field 'delivered'"),
        ("r.csv", _csv([_RECORDS[0], {**_RECORDS[1], "mean_latency_s": "slow"}]), "line 3: field 'mean_latency_s'"),
        ("r.jsonl", _jsonl([_RECORDS[0], list(_RECORDS[1].values())]), "line 2: expected a record object"),
        ("r.jsonl", _jsonl([_RECORDS[0], {k: v for k, v in _RECORDS[1].items() if k != "scheduler"}]), "line 2: missing field 'scheduler'"),
        ("r.jsonl", _jsonl(_RECORDS)[:-20], "line 2: not JSON"),
        ("r.csv", _csv([_RECORDS[0], {**_RECORDS[1], "mean_latency_s": "nan"}]), "line 3: field 'mean_latency_s'"),
        ("r.jsonl", _jsonl([{**_RECORDS[0], "goodput_pps": math.nan}, _RECORDS[1]]), "line 1: field 'goodput_pps'"),
        ("r.jsonl", _jsonl([_RECORDS[0], {**_RECORDS[1], "band_frac_0": math.inf}]), "line 2: field 'band_frac_0'"),
    ],
    ids=[
        "csv-missing-column",
        "csv-non-numeric-cell",
        "jsonl-list-line",
        "jsonl-missing-field",
        "jsonl-truncated",
        "csv-nan-cell",
        "jsonl-nan",
        "jsonl-infinity",
    ],
)
def test_malformed_records_file_is_runtime_error(tmp_path, capsys, name, text, where):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    assert main(["compare", str(p)]) == EXIT_RUNTIME
    assert where in capsys.readouterr().err
