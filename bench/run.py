#!/usr/bin/env python3
"""bandsplit benchmark harness.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --pin-digests

Runs one workload (``workloads.py``; reasons in ``README.md``) in this
process with ``jobs=1``, through the library calls that ``bandsplit run``
and ``bandsplit compare`` make: ``ScenarioConfig.from_json`` ->
``run_suite`` (which writes the CSV records) -> ``read_records`` ->
``compare``.  Host time is ``time.perf_counter``.

One pass runs every run of the workload once.  A pass is timed from
``run_suite`` to the end of ``compare``; config loading is set-up.  The
first pass of an invocation is a warm-up and is checked but not timed.
Timings take the median of their repeats, at the finest grain the
library calls allow; the report lines also give the sample count.  The
passes are small and repeat for the whole run, because other load on
the host changes its speed from second to second (see README.md).
Set-up is the exception: a set-up takes milliseconds, and the best of
many is steadier than their median.

``--trace 0`` measures the end-to-end metrics.  The only patch is one
perf_counter pair around each run (``RunTimer``):

* ``wall_s``: each run's median time over the timed passes, summed,
  plus the median time of the rest of a pass (writing and reading the
  records, ``compare``).
  Passes repeat for ``--seconds`` (at least three).  ``packets_per_s``
  is delivered packets over ``wall_s``;
* ``ref_loop_s``: median time of ``reference_loop``, a fixed piece of
  pure Python that is no part of the program, timed between the passes;
* ``norm_wall_s`` and ``norm_packets_per_s``: ``wall_s`` and
  ``packets_per_s`` at the host speed at which ``reference_loop`` takes
  ``REF_LOOP_S``.  The host's speed drifts by up to 70% over minutes;
  the reference loop drifts with it, so the ratio drifts far less
  (README.md);
* ``setup_s``: config load and validate plus ``SimState`` construction
  for every run of the workload, repeated between the passes; the best
  repeat;
* ``peak_rss_mb``: this process's peak resident set.

``--trace 1`` gives the per-layer metrics: untraced passes for
``UNTRACED_SHARE`` of the time, with one timer per run for
``schedulers.<kind>.run_s``, then passes under ``tracing.Tracer``
(at least two).  Every count must repeat exactly between the traced
passes; ``trace.overhead_frac`` is the median traced over the median
untraced pass.

Every pass's records are checked (``workloads.failed_runs``).  A pass
that raises fails all of its runs.

Output: report lines, then the last line of standard output, holding
the metrics that ``BENCHMARK.json`` lists for the trace mode::

    {"correct": bool, "attempted": runs, "failed": runs,
     "metrics": {name: {"value": number, "unit": str}}}

The full result (environment, every metric with its sample note, the
raw samples, failures) goes to ``.bench_out/<workload>-seed<N>-trace<T>.json``
and a traced run's spans to ``.bench_out/<workload>-seed<N>-spans.jsonl``.
Without the package source beside this directory the harness exits
with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
# Set-up and the reference loop are repeated after each timed pass for
# this share of the pass time.
SETUP_SHARE = 0.1
MIN_SETUPS = 5
# About the median time of reference_loop in the fast phases of the host
# in README.md; the normalised metrics are stated at this host speed.
REF_LOOP_S = 0.0025
# Share of --seconds that a traced invocation spends on untraced passes.
UNTRACED_SHARE = 0.4


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Make the package under ROOT/src importable, and only that one."""
    src = ROOT / "src"
    if not (src / "bandsplit" / "__init__.py").is_file():
        raise ProgramMissing(f"no bandsplit package under {src}")
    sys.path.insert(0, str(src))
    import bandsplit

    if Path(bandsplit.__file__).resolve().parent != src / "bandsplit":
        raise ProgramMissing(f"bandsplit imported from {bandsplit.__file__}, not {src}")


def environment() -> dict:
    import numpy

    loadavg = Path("/proc/loadavg")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg.read_text().split()[:3] if loadavg.exists() else None,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Pass:
    """One execution of every run of the workload, and its checks."""

    def __init__(self, workload: str, cfg: dict, digests: dict | None, path: Path):
        self.runs = len(cfg["schedulers"]) * cfg["replications"]
        self.wall_s = 0.0
        self.packets = 0
        self.failures: dict[str, list[str]] = {}
        from bandsplit import runner
        from bandsplit.config import ScenarioConfig
        from workloads import failed_runs

        try:
            config = ScenarioConfig.from_json(json.dumps(cfg))
            t0 = time.perf_counter()
            runner.run_suite(config, path, "csv", jobs=1)
            records = runner.read_records(path)
            violations = runner.compare(records).violations if len(config.schedulers) > 1 else None
            self.wall_s = time.perf_counter() - t0
        except Exception:  # a run that raises is a failed run, not a crash
            traceback.print_exc()
            self.failures = {"*": ["raised " + traceback.format_exc(limit=1).strip()]}
            return
        self.packets = sum(rec["delivered"] for rec in records)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        self.failures = failed_runs(workload, cfg, lines, records, violations, digests)

    @property
    def raised(self) -> bool:
        return "*" in self.failures

    @property
    def failed(self) -> int:
        return self.runs if self.raised else len(self.failures)


def setup_seconds(text: str) -> float:
    """Config load and validate plus SimState construction for every run."""
    from bandsplit.config import ScenarioConfig
    from bandsplit.engine import SimState

    t0 = time.perf_counter()
    cfg = ScenarioConfig.from_json(text)
    for spec in cfg.schedulers:
        for r in range(cfg.replications):
            SimState(cfg, spec, cfg.seed_base + r)
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Host time of a fixed pure-Python loop (about 2.5-4 ms).  Of the
    loops tried, this one slowed and sped up most nearly as the
    simulator does when other tenants load the host (README.md)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i
    return time.perf_counter() - t0


class RunTimer:
    """Host time of each run by policy: one perf_counter pair per run,
    around ``bandsplit.runner.run_scenario``."""

    def __init__(self) -> None:
        self.by_kind: dict[str, float] = {}
        self.samples: list[float] = []

    def __enter__(self) -> "RunTimer":
        import bandsplit.runner as runner

        self._orig = orig = runner.run_scenario
        by_kind, samples = self.by_kind, self.samples

        def run_scenario(config, spec, seed):
            t0 = time.perf_counter()
            out = orig(config, spec, seed)
            dt = time.perf_counter() - t0
            by_kind[spec.kind] = by_kind.get(spec.kind, 0.0) + dt
            samples.append(dt)
            return out

        runner.run_scenario = run_scenario
        return self

    def __exit__(self, *exc) -> None:
        import bandsplit.runner as runner

        runner.run_scenario = self._orig


def median(samples: list[float], what: str) -> tuple[float, str]:
    return statistics.median(samples), f"median of {len(samples)} {what}, best {min(samples):.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload and return the full result (see the module doc)."""
    from workloads import DEFAULT_SEEDS, config_dict, load_digests

    cfg = config_dict(name, seed, scale)
    pinned = seed == DEFAULT_SEEDS[name] and scale == 1.0
    digests = load_digests(name) if pinned else None
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    env = environment()
    start = time.perf_counter()
    passes: list[Pass] = []

    def run_pass() -> Pass:
        p = Pass(name, cfg, digests, OUT_DIR / f"{stem}.csv")
        passes.append(p)
        return p

    def repeat(body, least: int, until: float) -> list[Pass]:
        done: list[Pass] = []
        while not passes[-1].raised and (len(done) < least or time.perf_counter() < until):
            p = body()
            if not p.raised:
                done.append(p)
        return done

    metrics: dict[str, tuple[float, str, str]] = {}  # name -> (value, unit, note)
    samples: dict[str, list[float]] = {}
    if not trace:
        text = json.dumps(cfg)
        setup_seconds(text)  # warm-up
        run_pass()  # warm-up
        setup: list[float] = []
        ref: list[float] = []

        runs: list[list[float]] = []

        def timed_pass() -> Pass:
            with RunTimer() as rt:
                p = run_pass()
            runs.append(rt.samples)
            # Set-up and reference repeats sit between passes so that they
            # and the pass timings see the same stretches of host load.
            t_end = time.perf_counter() + SETUP_SHARE * p.wall_s
            while len(setup) < MIN_SETUPS * len(passes) or time.perf_counter() < t_end:
                setup.append(setup_seconds(text))
                ref.append(reference_loop())
            return p

        timed = repeat(timed_pass, MIN_PASSES, start + seconds)
        if timed:
            runs = runs[: len(timed)]
            samples["wall_s"] = [p.wall_s for p in timed]
            samples["run_s"] = runs
            samples["setup_s"] = setup
            samples["ref_loop_s"] = ref
            # A pass is its runs plus the rest (records read back, compare).
            rest = [p.wall_s - sum(r) for p, r in zip(timed, runs)]
            wall = sum(statistics.median(col) for col in zip(*runs)) + statistics.median(rest)
            note = (
                f"sum of each run's median over {len(timed)} passes, "
                f"median pass {statistics.median(samples['wall_s']):.6g}"
            )
            metrics["wall_s"] = (wall, "s", note)
            metrics["packets_per_s"] = (timed[0].packets / wall, "packets/s", note)
            ref_s, ref_note = median(ref, "reference loops")
            metrics["ref_loop_s"] = (ref_s, "s", ref_note)
            norm = wall * REF_LOOP_S / ref_s
            note = f"wall_s x {REF_LOOP_S} / ref_loop_s"
            metrics["norm_wall_s"] = (norm, "s", note)
            metrics["norm_packets_per_s"] = (timed[0].packets / norm, "packets/s", note)
            note = f"best of {len(setup)} set-ups, median {statistics.median(setup):.6g}"
            metrics["setup_s"] = (min(setup), "s", note)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "ru_maxrss of this process",
        )
    else:
        from tracing import Tracer

        run_pass()  # warm-up
        kinds: list[dict[str, float]] = []
        traced: list[Tracer] = []

        def untraced_pass() -> Pass:
            with RunTimer() as rt:
                p = run_pass()
            kinds.append(rt.by_kind)
            return p

        def traced_pass() -> Pass:
            with Tracer() as tr:
                p = run_pass()
            traced.append(tr)
            return p

        untraced = repeat(untraced_pass, MIN_PASSES - 1, start + UNTRACED_SHARE * seconds)
        done = repeat(traced_pass, MIN_TRACED_PASSES, start + seconds)
        if untraced and done:
            samples["untraced_wall_s"] = [p.wall_s for p in untraced]
            samples["traced_wall_s"] = [p.wall_s for p in done]
            layers, mismatch = layer_metrics(traced[: len(done)], done)
            metrics.update(layers)
            metrics["trace.overhead_frac"] = (
                statistics.median(samples["traced_wall_s"])
                / statistics.median(samples["untraced_wall_s"])
                - 1.0,
                "1",
                "median traced pass over median untraced pass",
            )
            for kind in sorted({k for d in kinds for k in d}):
                value, note = median([d.get(kind, 0.0) for d in kinds], "untraced passes")
                metrics[f"schedulers.{kind}.run_s"] = (value, "s", note)
            if mismatch:
                done[-1].failures["*"] = ["trace counts differ between passes: " + mismatch]
            traced[-1].write_spans(OUT_DIR / f"{name}-seed{seed}-spans.jsonl")

    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["failed_runs_frac"] = (failed / attempted, "1", f"{failed} of {attempted} runs")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "digest_checked": pinned,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": {f"pass {i}": p.failures for i, p in enumerate(passes) if p.failures},
        "passes": len(passes),
        "elapsed_s": time.perf_counter() - start,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "samples": samples,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def layer_metrics(traced: list, passes: list[Pass]) -> tuple[dict, str]:
    """Per-layer metrics of the traced passes: counts from the first
    (they must repeat exactly in the others), times the median over them."""
    from tracing import LEAVES

    counts = traced[0].counts()
    mismatch = ""
    for tr in traced[1:]:
        other = tr.counts()
        diff = {k: [v, other[k]] for k, v in counts.items() if other[k] != v}
        if diff:
            mismatch = json.dumps(diff)
    times: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        times.setdefault(name, []).append(value)

    for tr in traced:
        run_self = tr.self_ns.get("engine.run", 0)
        add("engine.self_s", run_self / 1e9)
        add("engine.ns_per_event", run_self / tr.events if tr.events else 0.0)
        for leaf in LEAVES:
            calls = counts[f"{leaf}.calls"]
            add(f"{leaf}.ns_per_call", tr.leaf_ns(leaf) / calls if calls else 0.0)
        opt_calls = counts["optimizer.optimize.calls"]
        opt_ns = tr.total_ns.get("optimizer.optimize", 0)
        add("optimizer.optimize.us_per_call", opt_ns / opt_calls / 1e3 if opt_calls else 0.0)
        add("optimizer.optimize.self_s", tr.self_ns.get("optimizer.optimize", 0) / 1e9)
        for span in ("runner.write_records", "runner.read_records", "runner.compare", "config.load"):
            add(f"{span}_s", tr.total_ns.get(span, 0) / 1e9)

    units = {"ns_per_event": "ns/event", "ns_per_call": "ns/call", "us_per_call": "us/call"}
    out: dict[str, tuple[float, str, str]] = {}
    for name, vals in times.items():
        value, note = median(vals, "traced passes")
        out[name] = (value, units.get(name.rsplit(".", 1)[-1], "s"), note)
    for name, v in counts.items():
        out[name] = (v, "count", "exact count")
    out["engine.events_per_packet"] = (
        counts["engine.events"] / passes[0].packets, "events/packet", "count ratio"
    )
    bs, rel = counts["estimators.band_stats.calls"], counts["reorder.release.calls"]
    out["estimators.band_stats.insufficient_frac"] = (
        counts["estimators.band_stats.insufficient"] / bs if bs else 0.0, "1", "count ratio"
    )
    out["reorder.held_frac"] = (counts["reorder.held"] / rel if rel else 0.0, "1", "count ratio")
    return out, mismatch


def result_line(result: dict, trace: bool) -> dict:
    """The contract line: the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def print_report(result: dict) -> None:
    print(
        f"# workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['passes']} passes in {result['elapsed_s']:.1f} s"
    )
    print("# env " + json.dumps(result["env"]))
    for name, m in sorted(result["metrics"].items()):
        print(f"{name:<40} {m['value']:>14.6g} {m['unit']:<14} {m['note']}")
    for where, fails in result["failures"].items():
        for key, why in fails.items():
            print(f"# FAILED {where} {key}: {'; '.join(why)}")


def pin_digests() -> None:
    """Re-pin the per-run record digests of every workload at its default
    seed.  Only a change that states which records change should do this."""
    from bandsplit import runner
    from bandsplit.config import ScenarioConfig
    from workloads import DEFAULT_SEEDS, DIGESTS_PATH, config_dict, row_digest, run_key

    OUT_DIR.mkdir(exist_ok=True)
    table = {}
    for name, seed in DEFAULT_SEEDS.items():
        path = OUT_DIR / f"{name}-pin.csv"
        runner.run_suite(ScenarioConfig.from_dict(config_dict(name, seed)), path, "csv")
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        recs = runner.read_records(path)
        table[name] = {run_key(rec): row_digest(line) for line, rec in zip(lines, recs)}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="bandsplit benchmark harness")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, help="default: the seed the digests are pinned at")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-digests", action="store_true")
    args = ap.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pin_digests:
        pin_digests()
        return 0
    from workloads import DEFAULT_SEEDS

    if args.workload not in DEFAULT_SEEDS:
        ap.error(f"--workload must be one of {', '.join(DEFAULT_SEEDS)}")
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0:
        ap.error("--seed must be >= 0")
    result = measure(args.workload, seed, args.seconds, bool(args.trace))
    print_report(result)
    try:
        line = result_line(result, bool(args.trace))
    except KeyError as exc:
        print(f"error: metric {exc} was not measured", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
