"""``python -m repro.gate`` — run the fidelity & performance gate.

The gate is also the repository's one throughput check: its
``perf_budget`` check times the simulator on every run, warm or cold.

Exit status: 0 when every check passes, 1 on any band violation, 2 on
usage errors or a check that crashed.  The JSON artifact is written
regardless of the verdict so CI can upload it from failing runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from ..artifacts import baseline_path, load_baseline, merge_baseline, write_json
from ..errors import ConfigError, ReproError
from ..exec.cache import ResultCache
from ..exec.pool import log_progress
from .checks import CHECKS, scale_for_mode
from .runner import BASELINE_FILENAME, baseline_metrics, run_gate
from .throughput import profile_scenarios

__all__ = ["main"]


def _parse_perturb(entries: Sequence[str]) -> dict[str, float]:
    perturb: dict[str, float] = {}
    for entry in entries:
        metric, sep, factor = entry.partition("=")
        if not sep or not metric:
            raise ConfigError(
                f"--perturb expects METRIC=FACTOR, got {entry!r}"
            )
        try:
            perturb[metric] = float(factor)
        except ValueError:
            raise ConfigError(
                f"--perturb factor must be a number, got {factor!r}"
            ) from None
    return perturb


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gate",
        description=(
            "Machine-checked fidelity & performance gate: re-derives the "
            "paper's headline metrics from deterministic simulations and "
            "judges them against tolerance bands."
        ),
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--fast",
        dest="mode",
        action="store_const",
        const="fast",
        help="CI sizing: small deterministic samples (default)",
    )
    mode.add_argument(
        "--full",
        dest="mode",
        action="store_const",
        const="full",
        help="paper-scale samples (slower, tighter statistics)",
    )
    parser.set_defaults(mode="fast")
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="CHECK",
        help="run only the named check (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list registered checks and exit",
    )
    parser.add_argument(
        "--output",
        default="BENCH_gate.json",
        metavar="PATH",
        help="where to write the JSON report (default BENCH_gate.json)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool width (default REPRO_BENCH_WORKERS / cpu count)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the exec result cache (guaranteed-cold run)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="root of the exec result cache (default REPRO_EXEC_CACHE_DIR)",
    )
    parser.add_argument(
        "--baselines",
        default=None,
        metavar="PATH",
        help=(
            "baseline JSON for relative bands "
            f"(default {baseline_path(BASELINE_FILENAME)})"
        ),
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="run the checks, then store their measured values as the "
        "new baselines for this mode",
    )
    parser.add_argument(
        "--perturb",
        action="append",
        default=[],
        metavar="METRIC=FACTOR",
        help="multiply a measured metric before judgement (gate self-test)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="also run each throughput scenario once, untimed, under "
        "cProfile and dump its stats to PATH.<scenario>",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-cell progress lines",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        scale = scale_for_mode(args.mode)
        print(f"registered gate checks (mode={args.mode}):")
        for check in CHECKS.values():
            n_cells = len(check.cells(scale))
            print(
                f"  {check.name:<22} {check.description} "
                f"[{check.paper_ref}; {n_cells} cells]"
            )
        return 0

    only = None
    if args.only:
        only = [
            name.strip()
            for entry in args.only
            for name in entry.split(",")
            if name.strip()
        ]

    cache = None
    use_cache = not args.no_cache
    if use_cache and args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)

    try:
        perturb = _parse_perturb(args.perturb)
        report = run_gate(
            mode=args.mode,
            only=only,
            workers=args.workers,
            cache=cache,
            use_cache=use_cache,
            baselines_path=args.baselines,
            perturb=perturb or None,
            progress=None if args.quiet else log_progress,
        )
    except ReproError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2

    path = report.write(args.output)
    print(report.render_summary())
    print(f"\nreport written to {path}")

    if args.profile:
        for written in profile_scenarios(scale_for_mode(args.mode), args.profile):
            print(f"profile written to {written}")

    if args.update_baselines:
        metrics = {k: round(v, 6) for k, v in baseline_metrics(report).items()}
        target = args.baselines or baseline_path(BASELINE_FILENAME)
        document = merge_baseline(load_baseline(target), args.mode, metrics)
        write_json(document, target)
        print(f"baselines for mode={args.mode} updated at {target}")

    if report.status == "pass":
        return 0
    return 2 if report.status == "error" else 1


if __name__ == "__main__":
    sys.exit(main())
