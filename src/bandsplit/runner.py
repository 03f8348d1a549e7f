"""Suite orchestration: replications x schemes, record files, comparisons.

Records go to CSV (fixed column order) or JSON lines; both encode the
same values with the same float formatting, so the two forms are
value-identical.  Replications may run in a process pool; results are
merged in (scenario, scheduler, seed) order regardless of completion
order, so the output is byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .config import ScenarioConfig
from .engine import run_scenario
from .errors import ConfigInvalid, InvalidRecords, MismatchedSeeds
from .metrics import BAND_FRAC_PREFIX, METRIC_FIELDS, RECORD_FIELDS, MetricsReport
from .schedulers import SchedulerSpec

# Schemes that never use two bands at once; their runs must show zero
# out-of-order deliveries.
_SINGLE_PATH_KINDS = ("single_band", "band_per_flow")


def _run_one(task: tuple[ScenarioConfig, SchedulerSpec, int]) -> MetricsReport:
    config, spec, seed = task
    return run_scenario(config, spec, seed)


def run_suite(
    config: ScenarioConfig,
    out_path: str | Path | None = None,
    fmt: str = "csv",
    seeds: int | None = None,
    jobs: int = 1,
) -> list[MetricsReport]:
    """Execute every (scheduler, seed) pair of a scenario, optionally
    writing the records to ``out_path``."""
    reps = seeds if seeds is not None else config.replications
    if reps < 1:
        raise ConfigInvalid(f"seeds: must be >= 1, got {reps}")
    if jobs < 1:
        raise ConfigInvalid(f"jobs: must be >= 1, got {jobs}")
    # An output that cannot be written fails before the runs, not after them.
    if out_path is not None and Path(out_path).is_dir():
        raise IsADirectoryError(f"{out_path}: is a directory")
    if out_path is not None and not Path(out_path).parent.is_dir():
        raise FileNotFoundError(f"{out_path}: its directory does not exist")
    tasks = [
        (config, spec, config.seed_base + r)
        for spec in config.schedulers
        for r in range(reps)
    ]
    if jobs == 1 or len(tasks) == 1:
        reports = [_run_one(t) for t in tasks]
    else:
        # Imported here: the pool's modules (multiprocessing among them)
        # cost about 2 MB resident that a one-job run never uses.  The
        # pool forks every worker up front, so start no more than there
        # are runs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            reports = list(pool.map(_run_one, tasks))
    reports.sort(key=lambda r: (r.scenario, r.scheduler, r.seed))
    if out_path is not None:
        write_records(reports, out_path, fmt)
    return reports


def render_csv(reports: list[MetricsReport]) -> str:
    if not reports:
        return ""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(reports[0].record())
    for rep in reports:
        writer.writerow([_cell(v) for v in rep.record().values()])
    return buf.getvalue()


def render_jsonl(reports: list[MetricsReport]) -> str:
    return "".join(json.dumps(rep.record()) + "\n" for rep in reports)


def write_records(reports: list[MetricsReport], path: str | Path, fmt: str = "csv") -> None:
    if fmt == "csv":
        text = render_csv(reports)
    elif fmt == "json":
        text = render_jsonl(reports)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")


def _cell(v) -> str:
    # repr() round-trips floats and matches json.dumps, keeping CSV and
    # JSON lines value-identical.
    if isinstance(v, float):
        return repr(v)
    return str(v)


def read_records(path: str | Path) -> list[dict]:
    """Load a record file written by write_records (either format).

    Both encodings go through one decoder, so each record holds the
    RECORD_FIELDS and band fractions, typed.  A malformed file raises
    InvalidRecords naming the line and the field, and so does a file
    that cannot be read as UTF-8 text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidRecords(f"{path}: cannot read ({exc})") from exc
    if text.lstrip().startswith("{"):
        rows = []
        for n, line in enumerate(text.splitlines(), 1):
            if line.strip():
                try:
                    rows.append((n, json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise InvalidRecords(f"{path}: line {n}: not JSON ({exc.msg})") from None
    else:
        reader = csv.DictReader(io.StringIO(text))
        rows = [(reader.line_num, row) for row in reader]
    return [_decode(row, f"{path}: line {n}") for n, row in rows]


def _decode(row, where: str) -> dict:
    """One typed record from a CSV row (every cell text) or a JSON-lines
    object (cells already typed)."""
    if not isinstance(row, dict):
        raise InvalidRecords(f"{where}: expected a record object, got {type(row).__name__}")
    fields = list(RECORD_FIELDS)
    fields.extend((k, float) for k in row if isinstance(k, str) and k.startswith(BAND_FRAC_PREFIX))
    rec = {}
    for name, typ in fields:
        if name not in row:
            raise InvalidRecords(f"{where}: missing field {name!r}")
        v = row[name]
        if isinstance(v, str) or type(v) is typ or (typ is float and type(v) is int):
            try:
                value = typ(v)
            except ValueError:
                pass
            else:
                # nan and inf parse as floats but are no metric's value.
                if typ is not float or math.isfinite(value):
                    rec[name] = value
                    continue
        raise InvalidRecords(f"{where}: field {name!r}: expected {typ.__name__}, got {v!r}")
    return rec


@dataclass(frozen=True)
class PairedDelta:
    scenario: str
    scheduler: str
    baseline: str
    metric: str
    mean_value: float
    mean_delta: float
    wins: int  # seeds where scheduler value < baseline value
    seeds: int


@dataclass(frozen=True)
class ComparisonSummary:
    deltas: tuple[PairedDelta, ...]
    violations: tuple[str, ...]

    def render(self) -> str:
        per_scenario = {d.scenario: d.baseline for d in self.deltas}
        names = set(per_scenario.values())
        if len(names) == 1:
            lines = [f"baseline: {names.pop()}"]
        else:
            lines = ["baseline: " + ", ".join(f"{b} ({s})" for s, b in per_scenario.items())]
        header = f"{'scenario':<18} {'scheduler':<16} {'metric':<20} {'mean':>12} {'delta':>12} {'wins':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        for d in self.deltas:
            lines.append(
                f"{d.scenario:<18} {d.scheduler:<16} {d.metric:<20} "
                f"{d.mean_value:>12.6g} {d.mean_delta:>+12.6g} {d.wins:>4}/{d.seeds}"
            )
        if self.violations:
            lines.append("")
            lines.append("ordering violations:")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("")
            lines.append("ordering violations: none")
        return "\n".join(lines) + "\n"


def compare(records: list[dict], baseline: str | None = None) -> ComparisonSummary:
    """Paired per-seed comparison of schemes against a baseline scheme.

    Every compared scheme must share the baseline's exact seed set.
    Also checks the expected qualitative ordering: the token scheduler
    should beat minimum_delay on resequencing delay seed by seed, stay
    at or below even_split and load_balancing in mean latency, and
    single-path schemes must show zero out-of-order deliveries.
    """
    if not records:
        raise MismatchedSeeds("no records to compare")
    by_scenario: dict[str, dict[str, dict[int, dict]]] = {}
    for rec in records:
        by_scenario.setdefault(rec["scenario"], {}).setdefault(rec["scheduler"], {})[
            rec["seed"]
        ] = rec

    deltas: list[PairedDelta] = []
    violations: list[str] = []
    for scenario, by_sched in sorted(by_scenario.items()):
        if len(by_sched) < 2:
            raise MismatchedSeeds(
                f"scenario {scenario!r} has {len(by_sched)} scheme(s); need >= 2 to compare"
            )
        base = baseline
        if base is None:
            base = "leaky_bucket" if "leaky_bucket" in by_sched else sorted(by_sched)[0]
        if base not in by_sched:
            raise MismatchedSeeds(f"baseline {base!r} absent from scenario {scenario!r}")
        base_runs = by_sched[base]
        base_seeds = sorted(base_runs)
        for sched, runs in sorted(by_sched.items()):
            if sched == base:
                continue
            if sorted(runs) != base_seeds:
                raise MismatchedSeeds(
                    f"{sched!r} seeds {sorted(runs)} != baseline seeds {base_seeds}"
                )
            for metric in METRIC_FIELDS:
                vals = [runs[s][metric] for s in base_seeds]
                bvals = [base_runs[s][metric] for s in base_seeds]
                wins = sum(1 for v, b in zip(vals, bvals) if v < b)
                deltas.append(
                    PairedDelta(
                        scenario=scenario,
                        scheduler=sched,
                        baseline=base,
                        metric=metric,
                        mean_value=sum(vals) / len(vals),
                        mean_delta=sum(v - b for v, b in zip(vals, bvals)) / len(vals),
                        wins=wins,
                        seeds=len(base_seeds),
                    )
                )
        violations.extend(_ordering_violations(scenario, by_sched))
    return ComparisonSummary(deltas=tuple(deltas), violations=tuple(violations))


def _ordering_violations(scenario: str, by_sched: dict[str, dict[int, dict]]) -> list[str]:
    out = []
    if "leaky_bucket" in by_sched and "minimum_delay" in by_sched:
        lb, md = by_sched["leaky_bucket"], by_sched["minimum_delay"]
        common = sorted(set(lb) & set(md))
        losses = [s for s in common if lb[s]["mean_reseq_delay_s"] >= md[s]["mean_reseq_delay_s"]]
        if losses:
            out.append(
                f"{scenario}: leaky_bucket mean_reseq_delay_s >= minimum_delay on seeds {losses}"
            )
    for rival in ("even_split", "load_balancing"):
        if "leaky_bucket" in by_sched and rival in by_sched:
            lb, rv = by_sched["leaky_bucket"], by_sched[rival]
            common = sorted(set(lb) & set(rv))
            if common:
                lb_mean = sum(lb[s]["mean_latency_s"] for s in common) / len(common)
                rv_mean = sum(rv[s]["mean_latency_s"] for s in common) / len(common)
                if lb_mean > rv_mean:
                    out.append(
                        f"{scenario}: leaky_bucket mean latency {lb_mean:.6g} > {rival} {rv_mean:.6g}"
                    )
    for sched, runs in sorted(by_sched.items()):
        if sched.startswith(_SINGLE_PATH_KINDS):
            bad = [s for s, rec in sorted(runs.items()) if rec["out_of_order_frac"] != 0.0]
            if bad:
                out.append(f"{scenario}: {sched} shows out-of-order deliveries on seeds {bad}")
    return out
