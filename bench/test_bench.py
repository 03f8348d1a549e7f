"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench

Tiny runs of every workload in both trace modes must print every metric
BENCHMARK.json names; the pinned digests must hold at each workload's
default seed; a perturbed digest must count as a failed run; the tracer
must leave the package as it found it.
"""

from __future__ import annotations

import heapq
import json

import pytest

import run

run.load_program()

import bandsplit.engine as engine  # noqa: E402
import bandsplit.schedulers as schedulers  # noqa: E402
from bandsplit.config import ScenarioConfig  # noqa: E402
from bandsplit.estimators import MomentEstimator  # noqa: E402
from tracing import Tracer, scheduler_classes  # noqa: E402
from workloads import DEFAULT_SEEDS, config_dict, load_digests, row_digest, run_key  # noqa: E402

TINY = 0.02
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(DEFAULT_SEEDS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_named_metric(workload, trace, capsys):
    result = run.measure(workload, seed=5, seconds=0, trace=trace, scale=TINY)
    run.print_report(result)
    line = run.result_line(result, trace)
    print(json.dumps(line))
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert m["name"] in out
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.overhead_frac"]["value"] > -1.0


@pytest.mark.parametrize("workload", sorted(DEFAULT_SEEDS))
def test_pinned_digests_hold_at_default_seed(workload, tmp_path):
    cfg = config_dict(workload, DEFAULT_SEEDS[workload])
    p = run.Pass(workload, cfg, load_digests(workload), tmp_path / "records.csv")
    assert p.failures == {}
    assert p.runs == len(load_digests(workload))


def test_perturbed_digest_is_a_failed_run(tmp_path):
    cfg = config_dict("four_band_feedback", 3, TINY)
    path = tmp_path / "records.csv"
    first = run.Pass("four_band_feedback", cfg, None, path)
    assert first.failures == {}
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    recs = [dict(zip(["scheduler", "seed"], ln.split(",")[1:3])) for ln in lines]
    digests = {run_key(r): row_digest(ln) for r, ln in zip(recs, lines)}
    assert run.Pass("four_band_feedback", cfg, digests, path).failed == 0

    victim = sorted(digests)[0]
    digests[victim] = digests[victim][:-1] + ("0" if digests[victim][-1] != "0" else "1")
    p = run.Pass("four_band_feedback", cfg, digests, path)
    assert p.failed == 1
    assert "digest" in p.failures[victim][0]


def test_tracer_restores_the_package():
    before = {
        "heappush": engine.heappush,
        "optimize": schedulers.optimize,
        "band_stats": engine.band_stats_from_windows,
        "add": MomentEstimator.add,
        "run": engine.SimState.run,
        "from_json": ScenarioConfig.__dict__["from_json"],
        "next_band": {cls: cls.next_band for cls in scheduler_classes()},
        "own_update": {cls: "update_feedback" in vars(cls) for cls in scheduler_classes()},
    }
    cfg = config_dict("four_band_feedback", 2, TINY)
    with Tracer() as tr:
        config = ScenarioConfig.from_json(json.dumps(cfg))
        engine.run_scenario(config, config.schedulers[1], 2)
    assert tr.counts()["optimizer.optimize.calls"] > 0
    assert engine.heappush is heapq.heappush is before["heappush"]
    assert schedulers.optimize is before["optimize"]
    assert engine.band_stats_from_windows is before["band_stats"]
    assert MomentEstimator.add is before["add"]
    assert engine.SimState.run is before["run"]
    assert ScenarioConfig.__dict__["from_json"] is before["from_json"]
    for cls in scheduler_classes():
        assert cls.next_band is before["next_band"][cls]
        assert ("update_feedback" in vars(cls)) == before["own_update"][cls]


def test_trace_counts_repeat_and_spans_give_self_time():
    cfg = config_dict("four_band_feedback", 4, TINY)
    counts = []
    for _ in range(2):
        with Tracer() as tr:
            config = ScenarioConfig.from_json(json.dumps(cfg))
            engine.run_scenario(config, config.schedulers[1], 4)
        counts.append(tr.counts())
    assert counts[0] == counts[1]
    # The span records alone give back the self time kept online: a
    # span's duration minus its child spans and rolled-up leaf calls.
    child: dict[int, int] = {}
    for run_id, sid, parent, name, t0, t1 in tr.spans:
        if parent is not None:
            child[parent] = child.get(parent, 0) + t1 - t0
    for run_id, parent, name, calls, total in tr.rollups:
        child[parent] = child.get(parent, 0) + total
    self_ns: dict[str, int] = {}
    for run_id, sid, parent, name, t0, t1 in tr.spans:
        self_ns[name] = self_ns.get(name, 0) + t1 - t0 - child.get(sid, 0)
    assert self_ns == tr.self_ns
    assert tr.self_ns["schedulers.update_feedback"] < tr.total_ns["schedulers.update_feedback"]
    assert {s[0] for s in tr.spans if s[3].startswith("engine.")} == {1}
