"""Cluster experiment: N ISNs behind one aggregator.

Every logical query fans out to all ISNs.  Each ISN receives its own
replica of the request with lognormally jittered demand (document
sharding spreads work evenly but not identically) and schedules it
independently under its own policy instance; the aggregator answers
when the slowest replica completes.  All ISNs share one target table,
matching the paper's observation that evenly-balanced ISNs converge to
the same table (Section 3.3).

Because ISNs never interact — each server's events touch only its own
state, and the aggregator is a pure max over replica completion times —
one body, :func:`_run_isn_group`, simulates any contiguous group of
ISNs on its own engine.  :func:`run_cluster_experiment` draws all
shared randomness (trace, arrivals, the demand-jitter matrix) once up
front, splits the ISNs into one group per worker, runs the groups
through :func:`repro.exec.run_tasks` (in process for one worker, a
process pool otherwise) and merges their completion times into the
aggregator's view.  The result is bit-identical at any worker count.
Faults and hedges couple the ISNs; those runs go to
:func:`repro.resilience.cluster.run_shared_resilient` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import ClusterConfig, PolicyConfig, ServerConfig
from ..core.speedup import SpeedupBook
from ..core.target_table import TargetTable
from ..errors import ConfigError, SimulationError
from ..exec.pool import resolve_worker_count, run_tasks
from ..policies.registry import make_policy
from ..rng import RngFactory
from ..search.workload import SearchWorkload
from ..sim.client import poisson_arrival_times
from ..sim.engine import Engine
from ..sim.load import LoadMetric
from ..sim.metrics import LatencyRecorder, percentile
from ..sim.request import Request
from ..sim.server import Server

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.faults import FaultSpec
    from ..resilience.hedging import HedgePolicy

__all__ = ["ClusterExperimentResult", "run_cluster_experiment"]


@dataclass
class ClusterExperimentResult:
    """Outcome of one cluster run."""

    policy_name: str
    qps: float
    num_isns: int
    #: Aggregator response time per logical query (ms).
    aggregator_latencies_ms: np.ndarray
    #: Response times of every individual ISN replica (ms).
    isn_latencies_ms: np.ndarray
    #: Per-ISN recorders (index = ISN id).
    isn_recorders: list[LatencyRecorder]

    def aggregator_percentile(self, p: float) -> float:
        """Percentile of the aggregator (user-visible) latency."""
        return percentile(self.aggregator_latencies_ms, p)

    def isn_percentile(self, p: float) -> float:
        """Percentile of individual ISN response times."""
        return percentile(self.isn_latencies_ms, p)

    def isn_percentile_of_latency(self, latency_ms: float) -> float:
        """Which ISN percentile a given latency value sits at.

        Used for Figure 8(b): the paper observes that the P99
        aggregator latency corresponds to roughly the P99.8 latency of
        an individual ISN.
        """
        arr = np.sort(self.isn_latencies_ms)
        rank = np.searchsorted(arr, latency_ms, side="right")
        return 100.0 * rank / len(arr)

    def fraction_slower_than(self, latency_ms: float) -> float:
        """Fraction of aggregator responses slower than ``latency_ms``."""
        return float((self.aggregator_latencies_ms > latency_ms).mean())


@dataclass(frozen=True)
class _IsnGroup:
    """Everything one worker needs to simulate a contiguous run of ISNs."""

    first_isn: int
    server_config: ServerConfig
    policy_name: str
    policy_config: PolicyConfig | None
    load_metric: LoadMetric
    target_table: TargetTable | None
    speedup_book: SpeedupBook
    group_weights: tuple[float, ...]
    #: Per logical query: (rid, demand_ms, predicted_ms, profile).
    queries: tuple
    arrivals_ms: np.ndarray
    #: Demand-jitter factors, shape (n_queries, ISNs in this group).
    jitters: np.ndarray


def _run_isn_group(group: _IsnGroup) -> tuple[np.ndarray, list[LatencyRecorder]]:
    """Simulate one group of ISNs on a shared engine.

    Returns ``(finishes, recorders)``: ``finishes[k, q]`` is the
    absolute completion time of the group's ``k``-th ISN's replica of
    query ``q``.  One fan-out event per query submits every replica of
    the group.  ISNs never interact, so a server's behaviour does not
    depend on which other ISNs share its engine: its equal-time events
    fire in its own insertion order under any grouping.
    """
    engine = Engine()
    n_queries, size = group.jitters.shape
    order = {rid: q for q, (rid, _, _, _) in enumerate(group.queries)}
    finishes = [[float("nan")] * n_queries for _ in range(size)]
    completed = 0
    servers: list[Server] = []
    for row in finishes:
        policy = make_policy(
            group.policy_name,
            speedup_book=group.speedup_book,
            group_weights=group.group_weights,
            target_table=group.target_table,
            policy_config=group.policy_config,
            load_metric=group.load_metric,
        )

        def on_complete(request: Request, row: list[float] = row) -> None:
            nonlocal completed
            row[order[request.rid]] = engine.now
            completed += 1

        servers.append(
            Server(
                group.server_config,
                policy,
                engine=engine,
                completion_callback=on_complete,
            )
        )

    queries = group.queries
    jitters = group.jitters.tolist()

    def fan_out(q: int) -> None:
        rid, demand, predicted, profile = queries[q]
        for server, factor in zip(servers, jitters[q]):
            server.submit(
                Request(
                    rid=rid,
                    demand_ms=demand * factor,
                    predicted_ms=predicted,
                    speedup=profile,
                )
            )

    engine.schedule_sequence(group.arrivals_ms.tolist(), fan_out)

    expected = n_queries * size
    while completed < expected:
        if not engine.step():
            raise SimulationError(
                f"ISNs {group.first_isn}..{group.first_isn + size - 1} "
                f"drained with {completed}/{expected} replicas complete"
            )
    return np.asarray(finishes, dtype=np.float64), [s.recorder for s in servers]


def _draw_inputs(
    workload: SearchWorkload,
    n_queries: int,
    qps: float,
    seed: int,
    ccfg: ClusterConfig,
    prediction: str,
) -> tuple[list[Request], np.ndarray, list[np.ndarray]]:
    """The run's shared randomness: trace, arrivals, demand jitters.

    Drawn once up front, in one fixed stream order, so every grouping
    of the plain path and the resilient path see identical inputs.
    """
    rngs = RngFactory(seed)
    logical = workload.make_requests(
        n_queries, rngs.get("trace"), prediction=prediction
    )
    arrivals = poisson_arrival_times(n_queries, qps, rngs.get("arrivals"))
    jitter_rng = rngs.get("shard-jitter")
    sigma = ccfg.demand_jitter_sigma
    jitters = [
        (
            jitter_rng.lognormal(-sigma**2 / 2.0, sigma, size=ccfg.num_isns)
            if sigma > 0
            else np.ones(ccfg.num_isns)
        )
        for _ in range(n_queries)
    ]
    return logical, arrivals, jitters


def run_cluster_experiment(
    workload: SearchWorkload,
    policy_name: str,
    qps: float,
    n_queries: int,
    seed: int,
    cluster_config: ClusterConfig | None = None,
    server_config: ServerConfig | None = None,
    policy_config: PolicyConfig | None = None,
    target_table: TargetTable | None = None,
    load_metric: LoadMetric = LoadMetric.LONG_THREADS,
    prediction: str = "model",
    workers: int | None = 1,
    fault_spec: "FaultSpec | None" = None,
    hedge_policy: "HedgePolicy | None" = None,
) -> ClusterExperimentResult:
    """Run one policy on a full partition-aggregate cluster.

    Every ISN gets an independent policy instance and server but they
    share the target table and the predictor, as in the paper's
    deployment.  ``workers`` (None = the ``REPRO_BENCH_WORKERS`` /
    cpu-count default) sets how many groups the ISNs are split into:
    one group runs in this process, several fan out over the
    :mod:`repro.exec` process pool.  Results are bit-identical at any
    worker count.

    ``fault_spec`` injects per-ISN fault windows and ``hedge_policy``
    enables partial-wait aggregation and hedged re-issue (see
    :mod:`repro.resilience`).  Either option couples the ISNs (hedges
    move work between nodes, faults are wall-clock windows on the
    shared clock), so the run then uses the shared-engine
    :func:`~repro.resilience.cluster.run_shared_resilient` regardless
    of ``workers`` and returns a
    :class:`~repro.resilience.cluster.ResilientClusterResult`.  No-op
    options keep the plain path.
    """
    if n_queries < 1:
        raise ConfigError("n_queries must be >= 1")
    ccfg = cluster_config if cluster_config is not None else ClusterConfig()
    scfg = server_config if server_config is not None else ServerConfig()
    logical, arrivals, jitters = _draw_inputs(
        workload, n_queries, qps, seed, ccfg, prediction
    )

    resilient = (fault_spec is not None and not fault_spec.is_noop) or (
        hedge_policy is not None and not hedge_policy.is_noop(ccfg.num_isns)
    )
    if resilient:
        from ..resilience.cluster import run_shared_resilient

        return run_shared_resilient(
            workload, policy_name, qps,
            ccfg, scfg, policy_config, target_table, load_metric,
            logical, arrivals, jitters,
            fault_spec=fault_spec, hedge_policy=hedge_policy,
        )

    num_isns = ccfg.num_isns
    groups = min(resolve_worker_count(workers), num_isns)
    queries = tuple(
        (r.rid, r.demand_ms, r.predicted_ms, r.speedup) for r in logical
    )
    jitter_matrix = np.stack(jitters)
    tasks = [
        _IsnGroup(
            first_isn=int(isns[0]),
            server_config=scfg,
            policy_name=policy_name,
            policy_config=policy_config,
            load_metric=load_metric,
            target_table=target_table,
            speedup_book=workload.speedup_book,
            group_weights=workload.group_weights,
            queries=queries,
            arrivals_ms=arrivals,
            jitters=jitter_matrix[:, isns],
        )
        for isns in np.array_split(np.arange(num_isns), groups)
    ]
    runs = run_tasks(_run_isn_group, tasks, workers=groups)
    finishes = np.concatenate([f for f, _ in runs])  # (num_isns, n_queries)
    recorders = [rec for _, recs in runs for rec in recs]

    # An aggregator emits each query when its last replica completes:
    # ascending slowest-finish order, qid breaking the measure-zero ties.
    # Within one query, replica responses arrive in completion-time
    # order, ISN index breaking exact ties (fan-out order).
    responses = finishes - arrivals[np.newaxis, :]  # per-replica latency
    slowest = finishes.max(axis=0)
    emit_order = np.argsort(slowest, kind="stable")
    aggregator_latencies = (
        slowest[emit_order] - arrivals[emit_order] + ccfg.network_overhead_ms
    )
    by_finish = np.argsort(finishes, axis=0, kind="stable")
    isn_latencies = np.take_along_axis(responses, by_finish, axis=0)

    return ClusterExperimentResult(
        policy_name=policy_name,
        qps=qps,
        num_isns=num_isns,
        aggregator_latencies_ms=aggregator_latencies,
        isn_latencies_ms=isn_latencies[:, emit_order].T.ravel(),
        isn_recorders=recorders,
    )
