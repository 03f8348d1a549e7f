"""Benchmark workloads: the inputs each one generates and the checks its
records must pass.

Every workload is a scenario config that the benchmark writes as JSON
text, so the program sees it exactly as ``bandsplit run <file>`` would.
The seed given to the benchmark becomes the config's ``seed_base``; the
same seed gives the same config and therefore the same records.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Criterion-1 tolerance on the delay formula.
FORMULA_TOL = 0.05


def config_dict(name: str, seed: int, scale: float = 1.0) -> dict:
    """The workload's scenario config; ``scale`` shrinks every flow's
    packet count (the tests run at a small scale)."""
    d = _BUILDERS[name]()
    d["seed_base"] = seed
    for fl in d["flows"]:
        fl["packets"] = max(1, int(fl["packets"] * scale))
    return d


def _asym_schemes() -> dict:
    text = resources.files("bandsplit.scenarios").joinpath("two_band_asym.json").read_text(
        encoding="utf-8"
    )
    # 10k packets per run instead of the bundled 30k: a pass then takes
    # about 1.5 s, so one invocation times every run many times (see
    # README.md).  At 10k, leaky_bucket still beats minimum_delay on
    # resequencing delay on every one of seeds 0-199, by 4% or more.
    d = json.loads(text)
    d["flows"][0]["packets"] = 10_000
    d["replications"] = 3
    return d


def _vacation_idle() -> dict:
    # Criterion 1 at rho = 0.3: mu = 10 deterministic, 0.05 s deterministic
    # vacations taken back to back while the band is idle.  10 seeds x
    # 4k packets, so that a pass takes about 0.4 s and one invocation
    # times every run many times (see README.md); over seeds 0-299 the
    # formula error of a 4k-packet run stayed below 2.5%.
    return {
        "name": "vacation_idle",
        "bands": [{"service": {"kind": "deterministic", "mean": 0.1}, "prop_latency_s": 0.0}],
        "stas": 1,
        "acs": [0],
        "flows": [{"sta": 0, "ac": 0, "lambda_pps": 3.0, "packets": 4_000}],
        "schedulers": [{"kind": "single_band", "band": 0}],
        "vacation_mode": {"kind": "parametric", "dist": {"kind": "deterministic", "mean": 0.05}},
        "replications": 10,
    }


def _four_band_feedback() -> dict:
    # 2 seeds x 3k packets per flow, so that a pass takes about 1.4 s
    # (see README.md).
    return {
        "name": "four_band_feedback",
        "bands": [
            {"service": {"kind": "deterministic", "mean": 0.02}, "prop_latency_s": 0.0},
            {"service": {"kind": "exponential", "mean": 0.04}, "prop_latency_s": 0.005},
            {"service": {"kind": "lognormal", "mu_log": -3.0, "sigma_log": 0.5}, "prop_latency_s": 0.015},
            {"service": {"kind": "deterministic", "mean": 0.1}, "prop_latency_s": 0.03},
        ],
        "stas": 2,
        "acs": [0, 1],
        "flows": [
            {"sta": 0, "ac": 0, "lambda_pps": 40.0, "packets": 3_000},
            {"sta": 1, "ac": 1, "lambda_pps": 20.0, "packets": 3_000, "available_bands": [1, 2, 3]},
        ],
        "schedulers": ["load_balancing", "minimum_delay", "leaky_bucket"],
        "vacation_mode": "emergent",
        "feedback_interval_pkts": 10,
        "replications": 2,
    }


_BUILDERS = {
    "asym_schemes": _asym_schemes,
    "vacation_idle": _vacation_idle,
    "four_band_feedback": _four_band_feedback,
}

# Seed at which the record digests are pinned.
DEFAULT_SEEDS = {"asym_schemes": 1, "vacation_idle": 101, "four_band_feedback": 1}


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def load_digests(workload: str) -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(workload, {})


def run_key(rec: dict) -> str:
    return f"{rec['scheduler']}/{rec['seed']}"


def formula_latency(cfg: dict) -> float:
    """Fuhrmann-Cooper mean sojourn for one band with parametric vacations:
    the P-K wait lam*x2/(2(1-rho)), the residual vacation v2/(2*vbar), and
    one service time 1/mu."""
    from bandsplit.distributions import DistributionSpec

    service = DistributionSpec.from_dict(cfg["bands"][0]["service"])
    vacation = DistributionSpec.from_dict(cfg["vacation_mode"]["dist"])
    x1, x2 = service.moments()
    vbar, v2 = vacation.moments()
    lam = sum(fl["lambda_pps"] for fl in cfg["flows"])
    rho = lam * x1
    return lam * x2 / (2.0 * (1.0 - rho)) + v2 / (2.0 * vbar) + x1


def failed_runs(
    workload: str,
    cfg: dict,
    lines: list[str],
    records: list[dict],
    violations: tuple[str, ...] | None,
    digests: dict[str, str] | None,
) -> dict[str, list[str]]:
    """Map each failing run key to the reasons it failed.

    ``lines`` are the CSV data rows as written, in record order;
    ``digests`` is the pinned table, or None when it does not apply
    (another seed or size than the one it was pinned at).
    """
    bad: dict[str, list[str]] = {}
    target = sum(fl["packets"] for fl in cfg["flows"])
    expected = len(cfg["schedulers"]) * cfg["replications"]
    if len(records) != expected:
        bad["*"] = [f"{len(records)} records, expected {expected}"]
    for line, rec in zip(lines, records):
        key = run_key(rec)
        why = []
        if digests is not None and digests.get(key) != row_digest(line):
            why.append("record digest differs from the pinned one")
        if rec["delivered"] != target:
            why.append(f"delivered {rec['delivered']} of {target} packets")
        if workload == "vacation_idle":
            theory = formula_latency(cfg)
            err = abs(rec["mean_latency_s"] - theory) / theory
            if err > FORMULA_TOL:
                why.append(f"mean latency {rec['mean_latency_s']:.6g} is {err:.2%} off {theory:.6g}")
        if workload == "asym_schemes" and violations:
            why.append("compare reports ordering violations: " + "; ".join(violations))
        if why:
            bad[key] = why
    return bad
