"""Shared-engine cluster run with fault injection and hedging.

:func:`run_shared_resilient` is the coupled counterpart of the plain
cluster experiment: faults are wall-clock windows on the shared
simulation clock and hedges move replicas between ISNs, so the run
cannot split into independent groups of ISNs and simulates all of
them on one engine, with the :class:`~repro.cluster.aggregator.Aggregator`
merging their answers.  All shared randomness (trace, arrivals, demand
jitters) is drawn by the caller —
:func:`repro.cluster.cluster.run_cluster_experiment` — exactly as for
the plain path.  Forced to run under ``FaultSpec.none()`` and
``HedgePolicy()`` it reproduces the plain run bit for bit (a
differential test pins this); ``run_cluster_experiment`` itself takes
the plain path whenever both options are no-ops.

Replica bookkeeping
-------------------
Each logical query fans out one *shard replica* per ISN; shard ``s`` of
query ``q`` is primarily served by ISN ``s``.  A hedge re-issues a
lagging shard to a secondary ISN (the least-loaded healthy node), so a
shard can have up to two live replicas — a *tied pair*.  The first
member of the pair to complete reports to the aggregator under the
shard's id; with ``tie_cancel`` the other member is withdrawn through
:meth:`repro.sim.server.Server.cancel_request`, and its executed work
is charged to ``wasted_work_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ClusterConfig, PolicyConfig, ServerConfig
from ..core.target_table import TargetTable
from ..errors import ConfigError, SimulationError
from ..policies.registry import make_policy
from ..search.workload import SearchWorkload
from ..sim.engine import Engine, EventHandle
from ..sim.load import LoadMetric
from ..sim.metrics import ResilienceStats
from ..sim.request import Request, RequestState
from ..sim.server import Server
from ..cluster.aggregator import Aggregator
from ..cluster.cluster import ClusterExperimentResult
from .faults import FaultKind, FaultSpec
from .hedging import HedgePolicy

__all__ = ["ResilientClusterResult", "run_shared_resilient"]

#: Request states a replica can still be withdrawn from.
_LIVE = (RequestState.QUEUED, RequestState.RUNNING)


@dataclass
class ResilientClusterResult(ClusterExperimentResult):
    """Cluster result plus mitigation accounting."""

    resilience: ResilienceStats | None = None
    fault_spec: FaultSpec | None = None
    hedge_policy: HedgePolicy | None = None


@dataclass
class _Replica:
    """One issued copy of a shard's work (primary or hedge)."""

    request: Request
    qid: int
    #: Shard slot this replica answers for (the primary ISN's index).
    shard: int
    #: ISN actually executing the replica.
    node: int
    is_hedge: bool
    #: The other member of a tied pair, if any.
    partner: "_Replica | None" = None


@dataclass
class _QueryState:
    """Per-logical-query progress the hedging logic needs."""

    qid: int
    arrival_ms: float
    #: Shard slots whose result has reached the aggregator.
    shards_done: set[int]
    #: First-issued (primary) replica per shard slot, if not dropped.
    primaries: dict[int, _Replica]
    emitted: bool = False
    hedges_issued: int = 0
    timer: EventHandle | None = None


def run_shared_resilient(
    workload: SearchWorkload,
    policy_name: str,
    qps: float,
    ccfg: ClusterConfig,
    scfg: ServerConfig,
    policy_config: PolicyConfig | None,
    target_table: TargetTable | None,
    load_metric: LoadMetric,
    logical,
    arrivals: np.ndarray,
    jitters: list[np.ndarray],
    fault_spec: FaultSpec | None = None,
    hedge_policy: HedgePolicy | None = None,
) -> ResilientClusterResult:
    """Run a faulted and/or hedged cluster on one shared engine.

    ``logical``, ``arrivals`` and ``jitters`` are the pre-drawn shared
    randomness (see module docstring).  Raises :class:`ConfigError`
    when the configuration cannot terminate (blackouts under strict
    wait-for-all with no hedging).
    """
    fspec = fault_spec if fault_spec is not None else FaultSpec.none()
    hpolicy = hedge_policy if hedge_policy is not None else HedgePolicy()
    num_isns = ccfg.num_isns
    n_queries = len(logical)
    fspec.validate_for(num_isns)
    wait_k = hpolicy.effective_k(num_isns)
    if fspec.has_blackouts and wait_k == num_isns and not hpolicy.hedging_enabled:
        raise ConfigError(
            "blackout windows under strict wait-for-all aggregation can "
            "drop a shard forever; enable hedging or set wait_for_k < "
            "num_isns"
        )

    engine = Engine()
    aggregator = Aggregator(
        num_isns, ccfg.network_overhead_ms, wait_for_k=wait_k
    )
    #: Replica metadata keyed by id(request) (rids are shared across a
    #: query's primary replicas, so they cannot key this map).
    meta: dict[int, _Replica] = {}
    queries: dict[int, _QueryState] = {}
    #: Live replicas per node, keyed by id(request) (blackout kills).
    node_live: list[dict[int, _Replica]] = [{} for _ in range(num_isns)]

    stats = {
        "hedges_issued": 0,
        "hedged_queries": 0,
        "hedge_wins": 0,
        "timeout_fires": 0,
        "cancelled_replicas": 0,
        "dropped_replicas": 0,
        "redundant_completions": 0,
        "wasted_work_ms": 0.0,
        "useful_work_ms": 0.0,
    }

    servers: list[Server] = []
    for isn in range(num_isns):
        policy = make_policy(
            policy_name,
            speedup_book=workload.speedup_book,
            group_weights=workload.group_weights,
            target_table=target_table,
            policy_config=policy_config,
            load_metric=load_metric,
        )

        def on_isn_complete(request: Request, isn: int = isn) -> None:
            _on_replica_complete(request)

        servers.append(
            Server(
                scfg,
                policy,
                engine=engine,
                completion_callback=on_isn_complete,
            )
        )

    def _cancel_partner(rep: _Replica) -> None:
        partner = rep.partner
        if partner is None or partner.request.state not in _LIVE:
            return
        work_done = servers[partner.node].cancel_request(
            partner.request, cause="hedge-superseded"
        )
        node_live[partner.node].pop(id(partner.request), None)
        stats["cancelled_replicas"] += 1
        stats["wasted_work_ms"] += work_done

    def _on_replica_complete(request: Request) -> None:
        rep = meta[id(request)]
        node_live[rep.node].pop(id(request), None)
        q = queries[rep.qid]
        if rep.shard in q.shards_done:
            # The tied partner already delivered this shard's result
            # (tie cancellation disabled or too late to stop this one).
            stats["redundant_completions"] += 1
            stats["wasted_work_ms"] += request.demand_ms
            return
        q.shards_done.add(rep.shard)
        was_emitted = q.emitted
        emitted_now = aggregator.on_isn_complete(rep.qid, engine.now, rep.shard)
        if was_emitted:
            # Delivered, but after the aggregator had already answered
            # (wait-for-k < n): the work bought nothing user-visible.
            stats["wasted_work_ms"] += request.demand_ms
        else:
            stats["useful_work_ms"] += request.demand_ms
        if rep.is_hedge:
            stats["hedge_wins"] += 1
        if hpolicy.tie_cancel:
            _cancel_partner(rep)
        if emitted_now:
            q.emitted = True
            if q.timer is not None:
                q.timer.cancel()
                q.timer = None

    # -- fault transitions ---------------------------------------------
    # Scheduled before the fan-outs so same-instant transitions resolve
    # first; arrival-time fault checks are time-based anyway.

    def _on_blackout_edge(isn: int, t_ms: float) -> None:
        if not fspec.is_blacked_out(isn, t_ms):
            return  # window closed; the node simply takes traffic again
        for rep in list(node_live[isn].values()):
            if rep.request.state not in _LIVE:  # pragma: no cover - guard
                continue
            work_done = servers[isn].cancel_request(
                rep.request, cause="blackout"
            )
            node_live[isn].pop(id(rep.request), None)
            stats["cancelled_replicas"] += 1
            stats["wasted_work_ms"] += work_done

    for t, isn in fspec.transition_times(FaultKind.BLACKOUT):
        engine.schedule_at(
            t, lambda isn=isn, t=t: _on_blackout_edge(isn, t)
        )
    for t, isn in fspec.transition_times(FaultKind.DEGRADED):
        engine.schedule_at(
            t,
            lambda isn=isn, t=t: servers[isn].set_worker_limit(
                fspec.worker_limit(isn, t)
            ),
        )

    # -- hedging --------------------------------------------------------

    hedge_rid = max((r.rid for r in logical), default=0) + 1  # fresh rids
    #: Position of each logical query in the pre-drawn arrays.
    position = {request.rid: i for i, request in enumerate(logical)}

    def _pick_secondary(shard: int, t_ms: float) -> int | None:
        """Least-loaded healthy node other than the shard's own ISN."""
        best: int | None = None
        best_load = -1
        for isn in range(num_isns):
            if isn == shard or fspec.is_blacked_out(isn, t_ms):
                continue
            load = servers[isn].total_active_threads
            if best is None or load < best_load:
                best, best_load = isn, load
        return best

    def _on_hedge_timer(qid: int) -> None:
        nonlocal hedge_rid
        q = queries[qid]
        q.timer = None
        if q.emitted:
            return
        stats["timeout_fires"] += 1
        now = engine.now
        lagging = sorted(set(range(num_isns)) - q.shards_done)
        issued_any = False
        for shard in lagging:
            if q.hedges_issued >= hpolicy.max_hedges_per_query:
                break
            secondary = _pick_secondary(shard, now)
            if secondary is None:
                continue
            request = logical[position[qid]]
            demand = float(
                request.demand_ms
                * jitters[position[qid]][shard]
                * fspec.demand_multiplier(secondary, now)
            )
            hedge = Request(
                rid=hedge_rid,
                demand_ms=demand,
                predicted_ms=request.predicted_ms,
                speedup=request.speedup,
            )
            hedge_rid += 1
            primary = q.primaries.get(shard)
            rep = _Replica(
                request=hedge,
                qid=qid,
                shard=shard,
                node=secondary,
                is_hedge=True,
                partner=primary,
            )
            if primary is not None:
                primary.partner = rep
            meta[id(hedge)] = rep
            node_live[secondary][id(hedge)] = rep
            servers[secondary].submit(hedge)
            q.hedges_issued += 1
            stats["hedges_issued"] += 1
            issued_any = True
        if issued_any:
            stats["hedged_queries"] += 1

    # -- fan-out --------------------------------------------------------

    arrivals_ms = [float(at) for at in arrivals]

    def fan_out(i: int) -> None:
        request = logical[i]
        at_ms = arrivals_ms[i]
        jitter = jitters[i]
        qid = request.rid
        q = _QueryState(
            qid=qid, arrival_ms=at_ms, shards_done=set(), primaries={}
        )
        queries[qid] = q
        aggregator.begin(qid, at_ms)
        for isn in range(num_isns):
            if fspec.is_blacked_out(isn, at_ms):
                stats["dropped_replicas"] += 1
                continue
            replica = Request(
                rid=qid,
                demand_ms=float(
                    request.demand_ms
                    * jitter[isn]
                    * fspec.demand_multiplier(isn, at_ms)
                ),
                predicted_ms=request.predicted_ms,
                speedup=request.speedup,
            )
            rep = _Replica(
                request=replica,
                qid=qid,
                shard=isn,
                node=isn,
                is_hedge=False,
            )
            q.primaries[isn] = rep
            meta[id(replica)] = rep
            node_live[isn][id(replica)] = rep
            servers[isn].submit(replica)
        if hpolicy.hedging_enabled:
            q.timer = engine.schedule_at(
                at_ms + float(hpolicy.hedge_timeout_ms),
                lambda qid=qid: _on_hedge_timer(qid),
            )

    engine.schedule_sequence(arrivals_ms, fan_out)

    # -- drive ----------------------------------------------------------

    while aggregator.completed < n_queries:
        if not engine.step():
            raise SimulationError(
                f"engine drained with {aggregator.completed}/{n_queries} "
                "queries aggregated; a blackout likely dropped more "
                "shards than wait_for_k tolerates and no hedge recovered "
                "them"
            )
    # Drain remaining events (late replicas, timers) so the wasted-work
    # and late-completion accounting covers the whole run.
    while engine.step():
        pass

    k_coverages = aggregator.k_coverages
    resilience = ResilienceStats(
        queries=n_queries,
        num_isns=num_isns,
        hedges_issued=stats["hedges_issued"],
        hedged_queries=stats["hedged_queries"],
        hedge_wins=stats["hedge_wins"],
        timeout_fires=stats["timeout_fires"],
        cancelled_replicas=stats["cancelled_replicas"],
        dropped_replicas=stats["dropped_replicas"],
        redundant_completions=stats["redundant_completions"],
        late_completions=aggregator.late_completions,
        wasted_work_ms=stats["wasted_work_ms"],
        useful_work_ms=stats["useful_work_ms"],
        k_coverage_mean=(
            float(np.mean(k_coverages)) if k_coverages else 0.0
        ),
    )
    return ResilientClusterResult(
        policy_name=policy_name,
        qps=qps,
        num_isns=num_isns,
        aggregator_latencies_ms=np.asarray(aggregator.latencies_ms),
        isn_latencies_ms=np.asarray(aggregator.isn_latencies_ms),
        isn_recorders=[s.recorder for s in servers],
        resilience=resilience,
        fault_spec=fspec,
        hedge_policy=hpolicy,
    )
