#!/usr/bin/env python3
"""Observability tour: trace TPC under a bursty arrival process.

Runs the TPC policy on one index-serving node while an
:class:`repro.obs.Observation` records request spans, metrics and
policy decisions.  Arrivals follow a piecewise-constant rate profile
(calm -> burst -> calm), the classic trigger for queueing-dominated
tails.  Prints the metric snapshot, the tail-attribution report, and
ASCII timelines of the three slowest requests, then writes a Chrome
trace you can open at https://ui.perfetto.dev.

Run:  python examples/trace_timeline.py
"""

from repro.config import PredictorConfig, SearchWorkloadConfig, ServerConfig
from repro.core.target_table import TargetTable
from repro.policies.registry import make_policy
from repro.obs import (
    Observation,
    render_tail_report,
    render_timelines,
    slowest_spans,
    write_chrome_trace,
)
from repro.search import build_search_workload
from repro.sim.arrivals import RateProfile
from repro.sim.client import OpenLoopClient
from repro.sim.engine import Engine
from repro.rng import RngFactory
from repro.sim.server import Server

N_REQUESTS = 3_000
TRACE_PATH = "trace_timeline.json"

#: Calm -> 3x burst -> calm, repeating every 1.5 s.
BURST_PROFILE = RateProfile(rates_qps=(250.0, 750.0, 250.0), segment_ms=500.0)


def main() -> None:
    print("Building a small search workload (one-off)...")
    workload = build_search_workload(
        seed=11,
        config=SearchWorkloadConfig(
            num_documents=3_000,
            vocabulary_size=1_500,
            mean_doc_length=120,
            hard_term_pool=150,
            easy_skip_top=15,
        ),
        predictor_config=PredictorConfig(num_trees=60, max_depth=4),
        pool_size=1_200,
    )

    rngs = RngFactory(21)
    policy = make_policy(
        "TPC",
        speedup_book=workload.speedup_book,
        group_weights=workload.group_weights,
        target_table=TargetTable([(0, 40), (8, 65), (16, 90)]),
    )
    engine = Engine()
    server = Server(ServerConfig(), policy, engine=engine)

    obs = Observation()
    obs.attach(server)

    requests = workload.make_requests(N_REQUESTS, rngs.get("trace"))
    OpenLoopClient(server).schedule_trace(
        engine, requests, BURST_PROFILE, rngs.get("arrivals")
    )

    print(
        f"Replaying {N_REQUESTS} queries through TPC under a "
        f"{min(BURST_PROFILE.rates_qps):g}->{max(BURST_PROFILE.rates_qps):g} "
        "QPS burst profile...\n"
    )
    server.run_to_completion(N_REQUESTS)

    snap = obs.registry.snapshot()
    print("metrics:")
    for name in (
        "completions",
        "queue_depth.max",
        "running.max",
        "degree_raises",
        "queue_wait_ms.p99",
        "response_ms.p99",
        "response_ms.p99.9",
    ):
        if name in snap:
            print(f"  {name:<24} {snap[name]:10.2f}")
    print()
    print(render_tail_report(obs.tail_report()))

    slowest = slowest_spans(obs.spans(), 3)
    print()
    print("slowest 3 requests (queue wait dotted, execution hashed):")
    print()
    print(render_timelines(slowest))

    with open(TRACE_PATH, "w", encoding="utf-8") as fp:
        write_chrome_trace(fp, obs.chrome_trace(process_name="TPC burst"))
    print(f"\nchrome trace written to {TRACE_PATH}")
    print(
        "load it at https://ui.perfetto.dev - each request is a thread "
        "track with queued/run phases."
    )


if __name__ == "__main__":
    main()
