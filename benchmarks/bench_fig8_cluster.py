"""F8 — Figure 8: tail latency in a cluster of 40 ISNs at 300 QPS.

(a) CDF of aggregator response time for Sequential/AP/Pred/TPC:
    the paper reports P99 of 132.2 / 108.9 / 77.7 ms for AP / Pred /
    TPC — a 29 % reduction over the best prior work — and TPC with
    <0.4 % of queries over 100 ms vs 3.3 % (AP) and 1.7 % (Pred).
(b) The aggregator's P99 corresponds to a much higher per-ISN
    percentile (~P99.8), because the aggregator waits for the slowest
    of 40 ISNs.
"""

from conftest import (
    BENCH_SEED,
    cluster_isns,
    cluster_queries,
    emit,
)
from repro.cluster import run_cluster_experiment
from repro.config import ClusterConfig
from repro.experiments.report import format_cdf_rows, format_table

POLICIES = ("Sequential", "AP", "Pred", "TPC")
#: The paper runs the cluster at 300 QPS — the operating point where
#: AP has started degrading while Pred/TPC hold.  Our reproduction's
#: AP backs off more gracefully, so the equivalent operating point
#: sits at a somewhat higher load (see EXPERIMENTS.md).
QPS = 450.0


def _run(workload, search_table):
    results = {}
    for policy in POLICIES:
        # workers=None: fan the ISN groups over the exec pool
        # (REPRO_BENCH_WORKERS / cpu count); numbers are bit-identical
        # to the single-process run.
        results[policy] = run_cluster_experiment(
            workload,
            policy,
            QPS,
            cluster_queries(),
            BENCH_SEED,
            cluster_config=ClusterConfig(num_isns=cluster_isns()),
            target_table=search_table,
            workers=None,
        )
    return results


def test_fig8a_cluster_cdf(benchmark, workload, search_table):
    results = benchmark.pedantic(
        lambda: _run(workload, search_table), rounds=1, iterations=1
    )
    latencies = {
        p: results[p].aggregator_latencies_ms for p in POLICIES
    }
    emit(
        "fig8a_cluster_cdf",
        format_cdf_rows(latencies, [95, 98, 99, 99.5, 99.9])
        + "\n\n"
        + format_table(
            ["policy", "P99 (ms)", "% slower than 100ms"],
            [
                [
                    p,
                    round(results[p].aggregator_percentile(99), 1),
                    round(100 * results[p].fraction_slower_than(100.0), 2),
                ]
                for p in POLICIES
            ],
            title=f"Figure 8(a) - aggregator latency, {cluster_isns()} ISNs @ {QPS:g} QPS",
        ),
    )

    p99 = {p: results[p].aggregator_percentile(99) for p in POLICIES}
    # TPC achieves the lowest cluster P99 of all policies.
    best_prior = min(p99[p] for p in POLICIES[:-1])
    assert p99["TPC"] < best_prior
    # TPC leaves the smallest fraction of responses over 100 ms.
    slow = {p: results[p].fraction_slower_than(100.0) for p in POLICIES}
    assert slow["TPC"] <= min(slow[p] for p in POLICIES[:-1])
    # Ordering of the paper: TPC < Pred < AP < Sequential at P99
    # (small tolerance on the Pred/AP middle of the ordering, which is
    # load-point sensitive).
    assert p99["TPC"] < p99["Pred"] * 1.02
    assert p99["Pred"] < p99["AP"] * 1.10
    assert p99["AP"] < p99["Sequential"]

    # Figure 8(b): the aggregator P99 maps to a much higher ISN
    # percentile (paper: ~P99.8 with 40 ISNs).
    tpc = results["TPC"]
    isn_pct = tpc.isn_percentile_of_latency(tpc.aggregator_percentile(99))
    emit(
        "fig8b_percentile_mapping",
        format_table(
            ["quantity", "value"],
            [
                ["aggregator P99 (ms)", round(tpc.aggregator_percentile(99), 1)],
                ["same latency at ISN percentile", round(isn_pct, 2)],
                ["ISN P99 (ms)", round(tpc.isn_percentile(99), 1)],
            ],
            title="Figure 8(b) - aggregator vs ISN percentile",
        ),
    )
    assert isn_pct > 99.4
