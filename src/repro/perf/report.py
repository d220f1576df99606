"""BENCH_perf.json assembly and baseline regression gating.

The report (:mod:`repro.artifacts` stamp plus the body below):

.. code-block:: json

    {
      "schema_version": 1, "generated_by": "repro.perf",
      "git_sha": "...", "environment": {...},
      "mode": "fast",
      "pre_pr_reference": {"events_per_s": 42539.0, "scenario": "..."},
      "scenarios": {
        "server_under_load": {
          "size": 6000, "repeats": 3, "events_run": 12472.0,
          "wall_time_s": 0.12, "events_per_s": 105000.0,
          "peak_rss_kb": 91000.0, "all_wall_times_s": [...],
          "speedup_vs_pre_pr": 2.47
        }
      }
    }

The baseline, ``benchmarks/baselines/perf_baseline.json``, holds each
scenario's throughput per mode in the shared baseline document and is
refreshed via ``--update-baselines``.  This is the repository's one
throughput gate: a run fails when any scenario's throughput drops more
than the regression threshold (default 30 %) below its baseline —
loose enough for CI machine jitter, tight enough to catch real
hot-path regressions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from ..artifacts import (
    baseline_mode,
    load_baseline,
    merge_baseline,
    stamp,
    write_json,
)
from .runner import ScenarioRun
from .scenarios import PRE_PR_EVENTS_PER_S, SCENARIOS

__all__ = [
    "BASELINE_FILENAME",
    "DEFAULT_REGRESSION_THRESHOLD",
    "build_report",
    "update_baseline",
    "compare_to_baseline",
]

#: The perf baseline file under ``benchmarks/baselines/``.
BASELINE_FILENAME = "perf_baseline.json"

#: Maximum tolerated relative throughput drop before CI fails.
DEFAULT_REGRESSION_THRESHOLD = 0.30


def build_report(runs: Sequence[ScenarioRun], fast: bool) -> dict:
    """Assemble the BENCH_perf.json document from scenario runs."""
    mode = "fast" if fast else "full"
    pre_pr = PRE_PR_EVENTS_PER_S[mode]
    scenarios: dict[str, dict] = {}
    for run in runs:
        spec = SCENARIOS[run.name]
        entry: dict = {
            "size": run.size,
            "repeats": run.repeats,
            "peak_rss_kb": run.peak_rss_kb,
            "all_wall_times_s": list(run.all_wall_times_s),
        }
        entry.update(run.metrics)
        if run.name == "server_under_load":
            # Informational: the dev-machine pre-optimisation reference
            # (see scenarios.PRE_PR_EVENTS_PER_S); not a pass/fail bound.
            entry["pre_pr_events_per_s"] = pre_pr
            entry["speedup_vs_pre_pr"] = run.metrics["events_per_s"] / pre_pr
        entry["throughput_key"] = spec.throughput_key
        scenarios[run.name] = entry
    return {
        **stamp("repro.perf"),
        "mode": mode,
        "pre_pr_reference": {
            "scenario": "server_under_load",
            "events_per_s": pre_pr,
            "note": "dev-machine measurement before the hot-path "
            "optimisation pass; informational only",
        },
        "scenarios": scenarios,
    }


def update_baseline(report: Mapping, path: str | Path) -> dict:
    """Refresh the baseline's entries for the report's mode.

    Other modes' entries are preserved, so ``--fast
    --update-baselines`` never clobbers the full-mode baseline.
    """
    entries = {
        name: {
            "throughput_key": entry["throughput_key"],
            "throughput": entry[entry["throughput_key"]],
            "size": entry["size"],
        }
        for name, entry in report["scenarios"].items()
    }
    document = merge_baseline(load_baseline(path), report["mode"], entries)
    write_json(document, path)
    return document


def compare_to_baseline(
    report: Mapping,
    baseline: Mapping | None,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[str]:
    """Return one message per scenario regressing beyond ``threshold``.

    A scenario regresses when its throughput falls more than
    ``threshold`` (relative) below the baseline for the same mode and
    size.  Scenarios absent from the baseline — or a missing baseline
    entirely — are skipped, so adding a scenario never fails CI before
    its baseline lands.  Size mismatches are skipped too: throughput
    at different sizes is not comparable.  The CLI says so when no
    baseline file exists.
    """
    mode_entry = baseline_mode(baseline, report["mode"])
    failures: list[str] = []
    for name, entry in report["scenarios"].items():
        base = mode_entry.get(name)
        if base is None or base.get("size") != entry["size"]:
            continue
        key = base["throughput_key"]
        current = entry.get(key)
        reference = base.get("throughput")
        if current is None or not reference:
            continue
        floor = reference * (1.0 - threshold)
        if current < floor:
            failures.append(
                f"{name}: {key} {current:,.0f} is "
                f"{100.0 * (1.0 - current / reference):.1f}% below "
                f"baseline {reference:,.0f} (floor {floor:,.0f})"
            )
    return failures
