"""Performance benchmark harness for the simulation core.

Microbenchmarks at three integration depths (bare engine, server under
load, end-to-end experiment cell), a best-of-N runner with peak-RSS
and cProfile hooks, and a JSON report (``BENCH_perf.json``) gated
against checked-in throughput baselines — the repository's one
throughput gate.  Run with::

    python -m repro.perf --fast

The ``server_under_load`` scenario is also the fidelity gate's
``perf_budget`` hot-path benchmark — :mod:`repro.gate.checks` imports
it from here and pins its event count, not its speed.
"""

from .report import (
    BASELINE_FILENAME,
    DEFAULT_REGRESSION_THRESHOLD,
    build_report,
    compare_to_baseline,
    update_baseline,
)
from .runner import ScenarioRun, peak_rss_kb, run_scenario
from .scenarios import (
    HOTPATH_SEED,
    PRE_PR_EVENTS_PER_S,
    SCENARIOS,
    HotpathResult,
    ScenarioSpec,
    run_end_to_end_cell,
    run_engine_only,
    run_hotpath_benchmark,
    run_server_under_load,
    scenario,
)

__all__ = [
    "HOTPATH_SEED",
    "PRE_PR_EVENTS_PER_S",
    "SCENARIOS",
    "HotpathResult",
    "ScenarioSpec",
    "ScenarioRun",
    "scenario",
    "run_engine_only",
    "run_server_under_load",
    "run_end_to_end_cell",
    "run_hotpath_benchmark",
    "run_scenario",
    "peak_rss_kb",
    "build_report",
    "update_baseline",
    "compare_to_baseline",
    "BASELINE_FILENAME",
    "DEFAULT_REGRESSION_THRESHOLD",
]
