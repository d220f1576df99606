"""Per-layer metrics of one traced run, by repro module.

Every metric is reported on every workload; a layer the workload does
not exercise reads 0 (no ``resilience`` work on ``fig4-sweep``, no
150/750 qps TPC cell on the cluster workloads).  Times are seconds of
host time in the traced run, so they carry the tracing overhead that
``trace.overhead_fraction`` reports.
"""

from __future__ import annotations

from typing import Any

from spans import Tracer

__all__ = ["LAYER_METRICS", "layer_metrics"]

#: Name -> unit of every per-layer metric, in report order.
LAYER_METRICS: dict[str, str] = {
    "search.corpus_s": "s",
    "search.index_s": "s",
    "search.query_generate_s": "s",
    "search.execute_s": "s",
    "search.execute_calls": "count",
    "search.calibrate_s": "s",
    "search.parallel_fit_s": "s",
    "search.profiles_s": "s",
    "prediction.features_s": "s",
    "prediction.fit_s": "s",
    "prediction.predict_s": "s",
    "prediction.predict_calls": "count",
    "prediction.l1_ms": "ms",
    "prediction.recall": "fraction",
    "prediction.precision": "fraction",
    "exec.run_sweep_self_s": "s",
    "exec.cell_result_s": "s",
    "exec.workload_memo_hits": "count",
    "exec.cell_failure_rate": "fraction",
    "experiments.make_requests_s": "s",
    "policies.make_policy_s": "s",
    "sim.schedule_trace_s": "s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.schedules": "count",
    "sim.cancels": "count",
    "sim.compactions": "count",
    "sim.events_per_host_s": "1/s",
    "sim.schedules_per_request": "ratio",
    "sim.summary_s": "s",
    "sim.tpc_queueing_p99_ms": "ms",
    "policies.tpc_corrected_fraction": "fraction",
    "policies.tpc_mean_initial_degree": "threads",
    "policies.tpc_mean_max_degree": "threads",
    "policies.tpc_p99_ms.q150": "ms",
    "policies.tpc_p99_ms.q450": "ms",
    "policies.tpc_p99_ms.q750": "ms",
    "policies.tpc_p999_ms": "ms",
    "policies.correction_gain": "fraction",
    "cluster.run_s": "s",
    "cluster.self_s": "s",
    "cluster.replicas": "count",
    "cluster.isn_p99_ms": "ms",
    "cluster.isn_p999_ms": "ms",
    "resilience.run_s": "s",
    "resilience.hedges_issued": "count",
    "resilience.hedge_win_ratio": "fraction",
    "resilience.wasted_work_fraction": "fraction",
    "resilience.cancelled_replicas": "count",
    "resilience.late_completions": "count",
    "search.self_s": "s",
    "prediction.self_s": "s",
    "exec.self_s": "s",
    "experiments.self_s": "s",
    "policies.self_s": "s",
    "sim.self_s": "s",
    "resilience.self_s": "s",
    "trace.overhead_fraction": "fraction",
    "trace.accounted_fraction.setup": "fraction",
    "trace.accounted_fraction.timed": "fraction",
}

#: Layers whose total self time (set-up and timed phase) is reported.
_LAYERS = (
    "search", "prediction", "exec", "experiments", "policies", "sim", "cluster", "resilience",
)

def _headline_tpc_stats(cells: list[dict[str, Any]]) -> dict[str, float]:
    """TPC decision stats of the headline cluster cell (hedged if any)."""
    tpc = [c for c in cells if "tpc" in c]
    hedged = [c for c in tpc if c["hedged"]]
    return (hedged or tpc or [{"tpc": {}}])[0]["tpc"]


def layer_metrics(
    tracer: Tracer,
    traced,
    predictor,
    plain_wall: float,
    traced_wall: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    t = tracer
    counts = t.counts
    cells = t.cells
    events = sum(c["events"] for c in cells)
    submits = counts["sim.submits"]
    values: dict[str, float] = {
        "search.corpus_s": t.total("search.corpus"),
        "search.index_s": t.total("search.index"),
        "search.query_generate_s": t.total("search.query_generate"),
        "search.execute_s": t.leaves["search.execute"][0],
        "search.execute_calls": t.leaves["search.execute"][1],
        "search.calibrate_s": t.total("search.calibrate"),
        "search.parallel_fit_s": t.total("search.parallel_fit"),
        "search.profiles_s": t.leaves["search.profiles"][0],
        "prediction.features_s": t.total("prediction.features"),
        "prediction.fit_s": t.total("prediction.fit"),
        "prediction.predict_s": t.total("prediction.predict"),
        "prediction.predict_calls": t.calls("prediction.predict"),
        "prediction.l1_ms": predictor.l1_error_ms,
        "prediction.recall": predictor.recall,
        "prediction.precision": predictor.precision,
        "exec.run_sweep_self_s": t.self_total("exec.run_sweep"),
        "exec.cell_result_s": t.self_total("exec.cell_result") + t.self_total("exec.cluster_cell"),
        "exec.workload_memo_hits": counts["exec.workload_memo_hits"],
        "exec.cell_failure_rate": len(traced.failures) / traced.attempted,
        "experiments.make_requests_s": t.total("experiments.make_requests"),
        "policies.make_policy_s": t.total("policies.make_policy"),
        "sim.schedule_trace_s": t.total("sim.schedule_trace"),
        # The event loop, whether Server.run_to_completion or the
        # cluster drives it; includes the policy and aggregator
        # callbacks the events run.
        "sim.run_s": t.leaves["sim.step"][0] + t.self_total("sim.run"),
        "sim.events": events,
        "sim.schedules": counts["sim.schedules"],
        "sim.cancels": counts["sim.cancels"],
        "sim.compactions": sum(c["compactions"] for c in cells),
        "sim.events_per_host_s": events / plain_wall,
        "sim.schedules_per_request": counts["sim.schedules"] / submits if submits else 0.0,
        "sim.summary_s": t.total("sim.summary"),
        "cluster.run_s": t.total("cluster.run"),
        "cluster.replicas": sum(c.get("sim.submits", 0) for c in cells if c["cluster"]),
        "resilience.run_s": t.total("resilience.run"),
        **{f"{layer}.self_s": t.layer_self(layer) for layer in _LAYERS},
        "trace.overhead_fraction": traced_wall / plain_wall - 1.0,
        "trace.accounted_fraction.setup": t.accounted_fraction("bench.setup"),
        "trace.accounted_fraction.timed": t.accounted_fraction("bench.timed"),
    }
    values.update(_headline_tpc_stats(cells))
    values.update(traced.layer)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in LAYER_METRICS.items()}
