"""``python -m repro.perf`` — run the hot-path benchmark harness.

Runs the registered scenarios (best-of-``--repeats`` each), writes
``BENCH_perf.json``, compares throughput against the checked-in
baseline and exits non-zero on a regression beyond the threshold.

Examples::

    python -m repro.perf --fast
    python -m repro.perf --only server_under_load --repeats 5
    python -m repro.perf --fast --update-baselines
    python -m repro.perf --only engine_only --profile prof.out
"""

from __future__ import annotations

import argparse
import sys

from ..artifacts import baseline_path, load_baseline, write_json
from .report import (
    BASELINE_FILENAME,
    DEFAULT_REGRESSION_THRESHOLD,
    build_report,
    compare_to_baseline,
    update_baseline,
)
from .runner import run_scenario
from .scenarios import SCENARIOS, scenario

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Benchmark the simulation hot path.",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="small scenario sizes (CI smoke); default is full sizes",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help=f"run only this scenario (repeatable); known: {sorted(SCENARIOS)}",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per scenario"
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf.json",
        help="report path (default: BENCH_perf.json)",
    )
    parser.add_argument(
        "--baseline",
        default=str(baseline_path(BASELINE_FILENAME)),
        help="baseline JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="refresh the baseline for this mode instead of gating",
    )
    parser.add_argument(
        "--regression-threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="relative throughput drop that fails the run (default 0.30)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="also run each scenario once under cProfile; stats are "
        "dumped to PATH (single scenario) or PATH.<name> (several)",
    )
    args = parser.parse_args(argv)

    names = args.only if args.only else sorted(SCENARIOS)
    specs = [scenario(n) for n in names]

    runs = []
    for spec in specs:
        size = spec.size_for(args.fast)
        profile_path = None
        if args.profile:
            profile_path = (
                args.profile
                if len(specs) == 1
                else f"{args.profile}.{spec.name}"
            )
        print(
            f"[perf] {spec.name} (size={size}, repeats={args.repeats}) ...",
            flush=True,
        )
        run = run_scenario(
            spec, size, repeats=args.repeats, profile_path=profile_path
        )
        key = spec.throughput_key
        print(
            f"[perf]   {key}={run.metrics[key]:,.0f} "
            f"wall={run.metrics['wall_time_s']:.3f}s "
            f"peak_rss={run.peak_rss_kb / 1024.0:.0f} MiB"
        )
        runs.append(run)

    report = build_report(runs, fast=args.fast)
    write_json(report, args.output)
    print(f"[perf] wrote {args.output}")

    if args.update_baselines:
        update_baseline(report, args.baseline)
        print(f"[perf] baseline updated: {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"[perf] no baseline file at {args.baseline}: nothing was compared")
        return 0
    failures = compare_to_baseline(report, baseline, args.regression_threshold)
    for message in failures:
        print(f"[perf] REGRESSION {message}", file=sys.stderr)
    if failures:
        return 1
    print(f"[perf] no regressions against {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
