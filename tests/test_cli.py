"""CLI surface tests: subcommands, exit codes, bundled scenario access."""

import json

import pytest

from bandsplit.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

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


def _band0(**service):
    return [{"service": service}, *MINI["bands"][1:]]


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
    ],
)
def test_unknown_or_misplaced_key_is_config_error(tmp_path, capsys, patch, path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**MINI, **patch}), encoding="utf-8")
    assert main(["run", str(p), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert path in capsys.readouterr().err
