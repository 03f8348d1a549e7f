"""Loader fuzz: every config that loads must run.

Copies of the bundled ``two_band_asym`` and ``two_sta_mixed`` configs get
one or two of their fields, at any depth, set from a fixed pool of
values: zero, negative, small, tiny, huge, a large station count, wrong
types and empty containers.  Each mutant must either raise ``ConfigInvalid``
at load, with a message that starts with the field path it names, or
run each of its schemes at up to 300 packets to a complete record.  The
loaded mutants include static configs with emergent vacations, which
take the array path.
"""

from __future__ import annotations

import copy
import json
import math
import re
import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from bandsplit import engine
from bandsplit.config import ScenarioConfig
from bandsplit.engine import run_scenario
from bandsplit.errors import ConfigInvalid

SEED = 2026
MUTANTS_PER_BASE = 100
PACKETS = 300
# A 300-packet run takes milliseconds; the bound only catches runaways.
RUN_BOUND_S = 5.0

POOL = (0, -1, 1, 2, 0.5, 0.01, 1e-300, 1e-200, 1e300, 2**63, 100_000, "x", "emergent", True, None, {}, [], [0])

_STEP = r"[a-z_]+(\[\d+\])?"
_PATH = rf"{_STEP}(\.{_STEP})*"
# A message names one or more field paths before its first colon.
_NAMES_A_PATH = re.compile(rf"^{_PATH}(, {_PATH})*: ")


def _base(name: str) -> dict:
    text = resources.files("bandsplit.scenarios").joinpath(f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def _paths(node, prefix=()):
    """Every key or index path of a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        path = prefix + (key,)
        yield path
        yield from _paths(child, path)


def _mutants():
    rng = np.random.default_rng(SEED)
    for name in ("two_band_asym", "two_sta_mixed"):
        base = _base(name)
        paths = list(_paths(base))
        for _ in range(MUTANTS_PER_BASE):
            doc = copy.deepcopy(base)
            changes = []
            for _ in range(int(rng.integers(1, 3))):
                path = paths[int(rng.integers(0, len(paths)))]
                value = POOL[int(rng.integers(0, len(POOL)))]
                node = doc
                try:
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = copy.deepcopy(value)
                except (KeyError, IndexError, TypeError):
                    continue  # an earlier change removed the path
                changes.append((path, value))
            yield name, changes, doc


def _complete(rep, cfg) -> bool:
    floats = (
        rep.goodput_pps,
        rep.mean_latency_s,
        rep.p95_latency_s,
        rep.mean_reseq_delay_s,
        rep.max_reseq_delay_s,
        rep.out_of_order_frac,
        rep.mean_wait_s,
        *rep.per_band_frac,
    )
    return (
        rep.delivered == sum(fl.packets for fl in cfg.flows)
        and rep.measured > 0
        and len(rep.per_band_frac) == len(cfg.bands)
        and all(math.isfinite(v) for v in floats)
    )


def test_every_loadable_mutant_runs_to_a_complete_record(monkeypatch):
    kernels = 0
    lindley = engine._lindley

    def counted(*args):
        nonlocal kernels
        kernels += 1
        return lindley(*args)

    monkeypatch.setattr(engine, "_lindley", counted)
    loaded = rejected = runs = 0
    for name, changes, doc in _mutants():
        where = f"{name} with {changes}"
        try:
            cfg = ScenarioConfig.from_json(json.dumps(doc))
        except ConfigInvalid as exc:
            assert _NAMES_A_PATH.match(str(exc)), f"{where}: message names no field path: {exc}"
            rejected += 1
            continue
        loaded += 1
        cfg = replace(cfg, flows=tuple(replace(fl, packets=min(fl.packets, PACKETS)) for fl in cfg.flows))
        for spec in cfg.schedulers:
            t0 = time.perf_counter()
            rep = run_scenario(cfg, spec, cfg.seed_base)
            assert time.perf_counter() - t0 < RUN_BOUND_S, f"{where}: {spec.name} ran too long"
            assert _complete(rep, cfg), f"{where}: {spec.name} gave an incomplete record {rep}"
            runs += 1
    # Both outcomes occur often enough for the fuzz to mean something, and
    # static runs take the array path.
    assert loaded >= 10 and rejected >= 150 and runs >= 50 and kernels >= 20


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("flows", 0, "lambda_pps"), 1e-300, "flows[0].lambda_pps"),
        (("flows", 0, "lambda_pps"), 1e-200, "flows[0].lambda_pps"),
        (("schedulers", 0), "x", "schedulers[0]"),
        (("schedulers", 0), {"kind": "x"}, "schedulers[0]"),
    ],
)
def test_a_config_that_cannot_run_names_its_field_at_load(path, value, named):
    # A tiny arrival rate gives an inter-arrival time whose moments
    # overflow, and an unknown scheduler kind has no policy: both fail at
    # load, naming the field.
    doc = _base("two_band_asym")
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigInvalid, match=rf"^{re.escape(named)}: "):
        ScenarioConfig.from_json(json.dumps(doc))


def test_a_huge_station_count_runs_without_queues_for_idle_stations():
    # Bands keep queues only for the (AC, station) pairs flows use, so
    # 100,000 stations cost nothing.
    doc = _base("two_sta_mixed")
    doc["stas"] = 100_000
    cfg = ScenarioConfig.from_json(json.dumps(doc))
    cfg = replace(cfg, flows=tuple(replace(fl, packets=PACKETS) for fl in cfg.flows))
    for spec in cfg.schedulers:
        assert _complete(run_scenario(cfg, spec, 1), cfg)
