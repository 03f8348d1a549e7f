"""Command-line front end.

    bandsplit run <config> --out records.csv [--format csv|json]
                  [--seeds N] [--jobs K]
    bandsplit compare <records> [--baseline SCHEME] [--out PATH]

<config> is a JSON scenario file or the name of a bundled scenario
(see `bandsplit run --list`).  Exit codes: 0 success; 2 a config
that cannot be read or run; 3 a run that fails, a records file that
cannot be read or decoded, or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import scenarios
from .config import ScenarioConfig
from .errors import BandsplitError, ConfigInvalid
from .runner import compare, read_records, run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_config(ref: str) -> ScenarioConfig:
    path = Path(ref)
    if path.exists():
        return ScenarioConfig.from_file(path)
    if ref in scenarios.names():
        return scenarios.load(ref)
    raise ConfigInvalid(
        f"config {ref!r}: no such file and not a bundled scenario "
        f"(bundled: {', '.join(scenarios.names())})"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list:
        for name in scenarios.names():
            print(name)
        return EXIT_OK
    if args.config is None:
        print("error: missing config (or use --list)", file=sys.stderr)
        return EXIT_CONFIG
    config = _load_config(args.config)
    reports = run_suite(
        config,
        out_path=args.out,
        fmt=args.format,
        seeds=args.seeds,
        jobs=args.jobs,
    )
    dest = args.out if args.out else "(not written; use --out)"
    print(f"{len(reports)} records from scenario {config.name!r} -> {dest}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    records = read_records(args.records)
    summary = compare(records, baseline=args.baseline)
    text = summary.render()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandsplit",
        description="Multi-band packet-split simulator and comparison runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario's schemes x seeds")
    p_run.add_argument("config", nargs="?", help="scenario JSON file or bundled scenario name")
    p_run.add_argument("--out", help="output records path")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seeds", type=int, default=None, help="override replication count")
    p_run.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_run.add_argument("--list", action="store_true", help="list bundled scenarios and exit")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="paired per-seed scheme comparison")
    p_cmp.add_argument("records", help="records file from `bandsplit run`")
    p_cmp.add_argument("--baseline", default=None, help="baseline scheme name")
    p_cmp.add_argument("--out", default=None, help="write the summary here instead of stdout")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BandsplitError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
