"""Single-ISN experiment runner.

``run_search_experiment`` executes one (policy, load) cell: sample a
request trace from the workload pool, replay it through a simulated
server under the chosen policy, and collect latency and degree
statistics.  ``run_load_sweep`` produces the series behind Figures 4-7;
``make_measure_tail`` packages a predefined multi-load experiment as
the MeasureTail procedure of Algorithm 1.

Sweeps and MeasureTail route their independent cells through the
:mod:`repro.exec` layer: cells are declared as specs, optionally fanned
out across a process pool (``workers`` / ``REPRO_BENCH_WORKERS``) and
optionally memoised on disk (``cache``).  Parallel execution is
bit-identical to the serial path — every cell is deterministically
seeded and simulated in isolation either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..config import PolicyConfig, ServerConfig, TargetTableConfig
from ..core.table_builder import TableSearchResult, build_target_table
from ..core.target_table import TargetTable
from ..errors import ConfigError
from ..exec.cache import ResultCache
from ..exec.pool import ProgressEvent, run_sweep
from ..exec.spec import CellSpec, SweepSpec, WorkloadSpec
from ..policies.registry import make_policy
from ..rng import RngFactory
from ..search.workload import SearchWorkload
from ..sim.engine import Engine
from ..sim.load import LoadMetric
from ..sim.metrics import (
    LatencyRecorder,
    LatencySummary,
    degree_distribution,
    weighted_tail_latency,
)
from ..sim.server import Server
from ..sim.client import OpenLoopClient

__all__ = [
    "ExperimentResult",
    "run_search_experiment",
    "run_load_sweep",
    "make_measure_tail",
    "make_measure_tail_batch",
    "build_search_target_table",
]


@dataclass
class ExperimentResult:
    """Outcome of one (policy, load) experiment cell."""

    policy_name: str
    qps: float
    recorder: LatencyRecorder
    summary: LatencySummary

    @property
    def p99_ms(self) -> float:
        """99th-percentile response time."""
        return self.summary.p99_ms

    @property
    def p999_ms(self) -> float:
        """99.9th-percentile response time."""
        return self.summary.p999_ms

    def degree_distribution(
        self,
        long_threshold_ms: float = 80.0,
        max_degree: int = 6,
        use_max_degree: bool = True,
    ) -> dict[str, list[float]]:
        """Table 2-style degree distribution of this run."""
        return degree_distribution(
            self.recorder, long_threshold_ms, max_degree, use_max_degree
        )


def run_search_experiment(
    workload: SearchWorkload,
    policy_name: str,
    qps: float,
    n_requests: int,
    seed: int,
    target_table: TargetTable | None = None,
    server_config: ServerConfig | None = None,
    policy_config: PolicyConfig | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    prediction: str = "model",
    oracle_sigma: float = 0.0,
    rampup_interval_ms: float | None = None,
    speedup_book=None,
    observation=None,
) -> ExperimentResult:
    """Run one policy at one load over a freshly sampled trace.

    ``seed`` controls both the trace sample and the arrival process, so
    different policies at the same ``(seed, qps)`` see the *same*
    request sequence and arrival times — paired comparisons, like
    replaying one query log against every policy.

    ``observation`` (a :class:`repro.obs.Observation`) attaches the
    observability layer — request spans, metrics, policy-decision
    attribution — to the server before any request is submitted.  The
    latency results are bit-identical with or without it.
    """
    if n_requests < 1:
        raise ConfigError("n_requests must be >= 1")
    rngs = RngFactory(seed)
    server_cfg = server_config if server_config is not None else ServerConfig()
    book = speedup_book if speedup_book is not None else workload.speedup_book
    policy = make_policy(
        policy_name,
        speedup_book=book,
        group_weights=workload.group_weights,
        target_table=target_table,
        policy_config=policy_config,
        load_metric=load_metric,
        rampup_interval_ms=rampup_interval_ms,
    )
    engine = Engine()
    server = Server(server_cfg, policy, engine=engine)
    if observation is not None:
        observation.attach(server)
    requests = workload.make_requests(
        n_requests,
        rngs.get("trace"),
        prediction=prediction,
        oracle_sigma=oracle_sigma,
    )
    client = OpenLoopClient(server)
    client.schedule_trace(engine, requests, qps, rngs.get("arrivals"))
    server.run_to_completion(n_requests)
    return ExperimentResult(
        policy_name=policy.name,
        qps=qps,
        recorder=server.recorder,
        summary=server.recorder.summary(),
    )


def run_load_sweep(
    workload: SearchWorkload,
    policy_names: Sequence[str],
    qps_grid: Sequence[float],
    n_requests: int,
    seed: int,
    target_table: TargetTable | None = None,
    workers: int | None = None,
    cache: ResultCache | None = None,
    progress: Callable[[ProgressEvent], None] | None = None,
    **kwargs,
) -> dict[str, list[ExperimentResult]]:
    """All (policy, load) cells: ``{policy: [result per QPS]}``.

    Independent cells are executed through :func:`repro.exec.run_sweep`
    when the workload can be declared as a spec (it carries build
    provenance and no in-memory overrides like ``speedup_book`` are in
    play); otherwise the sweep falls back to an in-process serial loop.
    Either path returns identical numbers.
    """
    wspec = (
        WorkloadSpec.from_workload(workload)
        if kwargs.get("speedup_book") is None
        else None
    )
    if wspec is None:
        results: dict[str, list[ExperimentResult]] = {}
        for name in policy_names:
            results[name] = [
                run_search_experiment(
                    workload, name, qps, n_requests, seed,
                    target_table=target_table, **kwargs,
                )
                for qps in qps_grid
            ]
        return results

    kwargs.pop("speedup_book", None)
    sweep = SweepSpec.grid(
        wspec, policy_names, qps_grid, n_requests, seed,
        target_table=target_table, **kwargs,
    )
    cell_results = run_sweep(sweep, workers=workers, cache=cache, progress=progress)
    results = {}
    per_policy = len(qps_grid)
    for p, name in enumerate(policy_names):
        series = cell_results[p * per_policy : (p + 1) * per_policy]
        results[name] = [r.to_experiment_result() for r in series]
    return results


def _measure_cells(
    wspec: WorkloadSpec,
    tables: Sequence[TargetTable],
    table_config: TargetTableConfig,
    seed: int,
    count: int,
    server_config: ServerConfig | None,
    load_metric: LoadMetric,
) -> list[CellSpec]:
    """The (candidate table x measure load) cells of MeasureTail."""
    return [
        CellSpec.for_experiment(
            wspec, "TPC", qps, count, seed,
            target_table=table,
            server_config=server_config,
            load_metric=load_metric,
        )
        for table in tables
        for qps in table_config.measure_loads_qps
    ]


def make_measure_tail(
    workload: SearchWorkload,
    table_config: TargetTableConfig,
    seed: int,
    n_requests: int | None = None,
    server_config: ServerConfig | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    workers: int | None = None,
    cache: ResultCache | None = None,
) -> Callable[[TargetTable], float]:
    """The MeasureTail procedure of Algorithm 1.

    Returns a callable that runs the predefined experiment — TPC over
    every load in ``table_config.measure_loads_qps`` — with a candidate
    table and returns the weighted sum of the per-load tail latencies.
    The per-load runs route through :mod:`repro.exec`, so a result
    cache makes repeated evaluations of the same candidate table free.
    """
    measure_batch = make_measure_tail_batch(
        workload, table_config, seed,
        n_requests=n_requests,
        server_config=server_config,
        load_metric=load_metric,
        workers=workers,
        cache=cache,
    )

    def measure(table: TargetTable) -> float:
        return measure_batch([table])[0]

    return measure


def make_measure_tail_batch(
    workload: SearchWorkload,
    table_config: TargetTableConfig,
    seed: int,
    n_requests: int | None = None,
    server_config: ServerConfig | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    workers: int | None = None,
    cache: ResultCache | None = None,
) -> Callable[[Sequence[TargetTable]], list[float]]:
    """Batched MeasureTail: evaluate several candidate tables at once.

    The greedy search of Algorithm 1 measures every single-entry bump of
    the current table per iteration; those candidates are independent,
    so evaluating them as one sweep lets the process pool run
    ``len(tables) * len(measure_loads_qps)`` simulations concurrently.
    """
    count = (
        n_requests
        if n_requests is not None
        else table_config.queries_per_measurement
    )
    wspec = WorkloadSpec.from_workload(workload)
    loads = len(table_config.measure_loads_qps)

    def measure_batch(tables: Sequence[TargetTable]) -> list[float]:
        if wspec is None:
            # No rebuildable spec: run in-process, serially.
            samples_per_table = [
                [
                    run_search_experiment(
                        workload, "TPC", qps, count, seed,
                        target_table=table,
                        server_config=server_config,
                        load_metric=load_metric,
                    ).recorder.responses
                    for qps in table_config.measure_loads_qps
                ]
                for table in tables
            ]
        else:
            cells = _measure_cells(
                wspec, tables, table_config, seed, count,
                server_config, load_metric,
            )
            results = run_sweep(cells, workers=workers, cache=cache)
            samples_per_table = [
                [r.responses_ms for r in results[t * loads : (t + 1) * loads]]
                for t in range(len(tables))
            ]
        return [
            weighted_tail_latency(
                samples, table_config.measure_weights, table_config.percentile
            )
            for samples in samples_per_table
        ]

    return measure_batch


def build_search_target_table(
    workload: SearchWorkload,
    table_config: TargetTableConfig | None = None,
    seed: int = 1234,
    workers: int | None = None,
    cache: ResultCache | None = None,
    **measure_kwargs,
) -> TableSearchResult:
    """Run Algorithm 1 end-to-end for a search workload.

    The candidate measurements of each greedy iteration fan out across
    the :mod:`repro.exec` process pool; the accepted table, iteration
    trace and measurement count are bit-identical to a serial search.
    """
    cfg = table_config if table_config is not None else TargetTableConfig()
    initial = TargetTable.uniform(cfg.load_grid, cfg.initial_target_ms)
    measure = make_measure_tail(
        workload, cfg, seed, workers=workers, cache=cache, **measure_kwargs
    )
    measure_batch = make_measure_tail_batch(
        workload, cfg, seed, workers=workers, cache=cache, **measure_kwargs
    )
    return build_target_table(
        initial,
        cfg.step_ms,
        measure,
        max_iterations=cfg.max_iterations,
        measure_tail_batch=measure_batch,
    )
