"""The benchmark's three workloads and their output checks.

Each workload declares its cells through repro's public entry points
(``repro.exec.run_sweep`` and ``repro.resilience.run_scenario``), runs
them once in this process with ``workers=1`` and no result cache, and
returns a :class:`Pass`: the simulated metrics, the per-layer values
read from the results, and the failed output checks.

Inside each cell the simulated load is an open-loop Poisson stream at
the cell's QPS; on the host the cells run back to back.  The cell seed
is the benchmark's ``--seed``; the workload itself is always the
canonical one (``default_workload_spec()``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.exec
from repro.config import ClusterConfig
from repro.exec import CellResult, CellSpec, SweepSpec, WorkloadSpec
from repro.experiments import DEFAULT_SEARCH_TARGET_TABLE
from repro.resilience import get_scenario, run_scenario
from repro.sim.metrics import percentile

__all__ = ["Pass", "WORKLOADS", "tpc_decision_stats"]

#: Single-ISN sweep (Figures 4/5): prior work first, then TP and TPC.
FIG4_PRIOR = ("Sequential", "WQ-Linear", "AP", "Pred")
FIG4_POLICIES = (*FIG4_PRIOR, "TP", "TPC")
FIG4_LOADS = (150.0, 450.0, 750.0)
FIG4_HEADLINE = 450.0
FIG4_REQUESTS = 16_000

#: 40-ISN cluster (Figure 8) at the repo's Figure 8 operating point.
FIG8_PRIOR = ("Sequential", "AP", "Pred")
FIG8_QPS = 450.0
FIG8_ISNS = 40
FIG8_QUERIES = 3_000

#: The shipped ``one-straggler`` scenario, at 1.5x its shipped query
#: count so the hedged TPC P99 rests on enough samples.
STRAGGLER_SCENARIO = "one-straggler"
STRAGGLER_QUERIES = 4_500
STRAGGLER_HEADLINE = "hedge-60ms"
STRAGGLER_BASELINE = "wait-all"


@dataclass
class Pass:
    """Outcome of one pass over a workload's cells."""

    #: Simulated end-to-end metrics (identical for identical inputs).
    simulated: dict[str, float]
    #: Per-layer values read from the results (policies, cluster, resilience).
    layer: dict[str, float]
    attempted: int
    #: Failed cell label -> name of the first check it failed.
    failures: dict[str, str] = field(default_factory=dict)

    def fail(self, cell: str, check: str) -> None:
        self.failures.setdefault(cell, check)


class _Collector:
    """``run_sweep`` cache argument that never hits and keeps each result.

    ``run_scenario`` returns summary rows only; the output checks need
    every cell's latency array.  Nothing is stored on disk or served
    back, so every cell is simulated.
    """

    def __init__(self) -> None:
        self.results: list[tuple[CellSpec, CellResult]] = []

    def get(self, spec: CellSpec) -> None:
        return None

    def put(self, spec: CellSpec, result: CellResult) -> None:
        self.results.append((spec, result))


def _label(spec: CellSpec) -> str:
    hedge = "" if spec.hedge_policy is None else "+hedge"
    return f"{spec.policy_name}@{spec.qps:g}{hedge}"


def _check_results(out: Pass, pairs: list[tuple[CellSpec, CellResult]]) -> None:
    """Every cell returns n_requests finite, positive latencies."""
    for spec, result in pairs:
        latencies = np.asarray(result.responses_ms)
        if latencies.size != spec.n_requests:
            out.fail(_label(spec), "result_count")
        elif not (np.isfinite(latencies).all() and (latencies > 0).all()):
            out.fail(_label(spec), "finite_positive_latency")


def tpc_decision_stats(runs) -> dict[str, float]:
    """TPC's queueing tail and degree decisions, pooled over ``runs``.

    ``runs`` are :class:`CellResult` or :class:`LatencyRecorder` objects
    (one per ISN on a cluster); both expose the same per-request arrays.
    """

    def pooled(field: str) -> np.ndarray:
        return np.concatenate([np.asarray(getattr(r, field), dtype=float) for r in runs])

    return {
        "sim.tpc_queueing_p99_ms": percentile(pooled("queueing_ms"), 99),
        "policies.tpc_corrected_fraction": float(pooled("corrected").mean()),
        "policies.tpc_mean_initial_degree": float(pooled("initial_degrees").mean()),
        "policies.tpc_mean_max_degree": float(pooled("max_degrees").mean()),
    }


def fig4_sweep(wspec: WorkloadSpec, seed: int, progress: Callable) -> Pass:
    """Single-ISN load sweep: the server and per-cell plumbing dominate."""
    sweep = SweepSpec.grid(
        wspec, FIG4_POLICIES, FIG4_LOADS, FIG4_REQUESTS, seed,
        target_table=DEFAULT_SEARCH_TARGET_TABLE,
    )
    results = repro.exec.run_sweep(sweep, workers=1, progress=progress)
    pairs = list(zip(sweep.cells, results))
    p99 = {(s.policy_name, s.qps): r.summary.p99_ms for s, r in pairs}
    by = {(s.policy_name, s.qps): r for s, r in pairs}
    tpc = by[("TPC", FIG4_HEADLINE)]
    best_prior = min(p99[(p, FIG4_HEADLINE)] for p in FIG4_PRIOR)

    out = Pass(
        simulated={
            "tpc_p50_ms": tpc.summary.p50_ms,
            "tpc_p99_ms": tpc.summary.p99_ms,
            "tpc_p99_vs_best_prior": tpc.summary.p99_ms / best_prior,
        },
        layer={
            **tpc_decision_stats([tpc]),
            "policies.tpc_p999_ms": tpc.summary.p999_ms,
            **{f"policies.tpc_p99_ms.q{q:g}": p99[("TPC", q)] for q in FIG4_LOADS},
            "policies.correction_gain": 1.0 - tpc.summary.p99_ms / p99[("TP", FIG4_HEADLINE)],
        },
        attempted=len(pairs),
    )
    _check_results(out, pairs)
    # The orderings bench_fig4_p99 asserts, at every load.
    for q in FIG4_LOADS:
        best = min(p99[(p, q)] for p in FIG4_PRIOR)
        if not p99[("TPC", q)] <= 1.10 * best:
            out.fail(f"TPC@{q:g}", "fig4.tpc_within_1.10x_best_prior")
        if not p99[("Sequential", q)] > 1.5 * p99[("TPC", q)]:
            out.fail(f"Sequential@{q:g}", "fig4.sequential_above_1.5x_tpc")
    return out


def fig8_cluster(wspec: WorkloadSpec, seed: int, progress: Callable) -> Pass:
    """Plain 40-ISN cluster: the independent-ISN path, resilience bypassed."""
    cells = [
        CellSpec.for_experiment(
            wspec, policy, FIG8_QPS, FIG8_QUERIES, seed,
            target_table=DEFAULT_SEARCH_TARGET_TABLE,
            cluster_config=ClusterConfig(num_isns=FIG8_ISNS),
        )
        for policy in (*FIG8_PRIOR, "TPC")
    ]
    results = repro.exec.run_sweep(cells, workers=1, progress=progress)
    pairs = list(zip(cells, results))
    p99 = {s.policy_name: r.summary.p99_ms for s, r in pairs}
    tpc = results[-1]
    best_prior = min(p99[p] for p in FIG8_PRIOR)

    out = Pass(
        simulated={
            "tpc_p50_ms": tpc.summary.p50_ms,
            "tpc_p99_ms": tpc.summary.p99_ms,
            "tpc_p99_vs_best_prior": tpc.summary.p99_ms / best_prior,
        },
        layer={
            "policies.tpc_p999_ms": tpc.summary.p999_ms,
            "policies.tpc_p99_ms.q450": tpc.summary.p99_ms,
            "cluster.isn_p99_ms": tpc.extras["isn_p99_ms"],
            "cluster.isn_p999_ms": tpc.extras["isn_p999_ms"],
        },
        attempted=len(pairs),
    )
    _check_results(out, pairs)
    if not p99["TPC"] < best_prior:
        out.fail(f"TPC@{FIG8_QPS:g}", "fig8.tpc_lowest_aggregator_p99")
    return out


def resilience_straggler(wspec: WorkloadSpec, seed: int, progress: Callable) -> Pass:
    """One 4x-slow ISN, wait-all vs hedging: the coupled shared-engine path."""
    scenario = dataclasses.replace(
        get_scenario(STRAGGLER_SCENARIO), seed=seed, n_queries=STRAGGLER_QUERIES
    )
    collector = _Collector()
    result = run_scenario(
        scenario, workers=1, cache=collector, progress=progress,
        workload_spec=wspec, target_table=DEFAULT_SEARCH_TARGET_TABLE,
    )
    head = result.row("TPC", STRAGGLER_HEADLINE)
    prior = [p for p in scenario.policies if p != "TPC"]
    best_prior = min(result.row(p, STRAGGLER_HEADLINE)["p99_ms"] for p in prior)
    issued = head["hedges_issued"]

    out = Pass(
        simulated={
            "tpc_p50_ms": head["p50_ms"],
            "tpc_p99_ms": head["p99_ms"],
            "tpc_p99_vs_best_prior": head["p99_ms"] / best_prior,
        },
        layer={
            "policies.tpc_p999_ms": head["p999_ms"],
            "cluster.isn_p99_ms": head["isn_p99_ms"],
            "cluster.isn_p999_ms": head["isn_p999_ms"],
            "resilience.hedges_issued": issued,
            "resilience.hedge_win_ratio": head["hedge_wins"] / issued if issued else 0.0,
            "resilience.wasted_work_fraction": head["wasted_work_fraction"],
            "resilience.cancelled_replicas": head["cancelled_replicas"],
            "resilience.late_completions": head["late_completions"],
        },
        attempted=len(collector.results),
    )
    _check_results(out, collector.results)
    if len(collector.results) != len(result.rows):
        out.fail("scenario", "result_count")
    if not head["p99_ms"] < result.row("TPC", STRAGGLER_BASELINE)["p99_ms"]:
        out.fail(f"TPC@{scenario.qps:g}+hedge", "resilience.hedge_lowers_tpc_p99")
    return out


WORKLOADS: dict[str, Callable[[WorkloadSpec, int, Callable], Pass]] = {
    "fig4-sweep": fig4_sweep,
    "fig8-cluster": fig8_cluster,
    "resilience-straggler": resilience_straggler,
}

