"""Cross-ISN consistency properties of the cluster simulation."""

import hashlib

import numpy as np
import pytest

from repro.cluster import run_cluster_experiment
from repro.config import ClusterConfig

RECORDER_FIELDS = (
    "responses_ms", "queueing_ms", "executions_ms", "demands_ms",
    "predictions_ms", "initial_degrees", "max_degrees", "corrected",
)


def assert_same_cluster_run(a, b):
    """Two cluster results agree bit for bit, recorders included."""
    np.testing.assert_array_equal(
        a.aggregator_latencies_ms, b.aggregator_latencies_ms
    )
    np.testing.assert_array_equal(a.isn_latencies_ms, b.isn_latencies_ms)
    assert len(a.isn_recorders) == len(b.isn_recorders)
    for ra, rb in zip(a.isn_recorders, b.isn_recorders):
        for name in RECORDER_FIELDS:
            assert getattr(ra, name) == getattr(rb, name), name


@pytest.fixture(scope="module")
def cluster_result(tiny_search_workload, target_table):
    return run_cluster_experiment(
        tiny_search_workload,
        "TPC",
        qps=250.0,
        n_queries=600,
        seed=41,
        cluster_config=ClusterConfig(num_isns=6),
        target_table=target_table,
    )


class TestClusterConsistency:
    def test_every_isn_serves_every_query(self, cluster_result):
        rids = [set() for _ in range(6)]
        # Each recorder saw all 600 logical queries exactly once.
        for recorder in cluster_result.isn_recorders:
            assert len(recorder) == 600

    def test_aggregator_latency_dominates_every_replica(self, cluster_result):
        lat = cluster_result.isn_latencies_ms.reshape(600, 6)
        slowest = lat.max(axis=1)
        agg = np.sort(cluster_result.aggregator_latencies_ms)
        # Aggregator latency = slowest replica + network overhead, so
        # sorted aggregator latencies dominate sorted slowest-replica
        # latencies element-wise.
        np.testing.assert_array_less(np.sort(slowest) - 1e-9, agg)

    def test_network_overhead_added_exactly_once(
        self, tiny_search_workload, target_table
    ):
        no_net = run_cluster_experiment(
            tiny_search_workload, "Sequential", 100.0, 150, 9,
            cluster_config=ClusterConfig(
                num_isns=2, network_overhead_ms=0.0, demand_jitter_sigma=0.0
            ),
            target_table=target_table,
        )
        with_net = run_cluster_experiment(
            tiny_search_workload, "Sequential", 100.0, 150, 9,
            cluster_config=ClusterConfig(
                num_isns=2, network_overhead_ms=5.0, demand_jitter_sigma=0.0
            ),
            target_table=target_table,
        )
        delta = (
            with_net.aggregator_latencies_ms - no_net.aggregator_latencies_ms
        )
        np.testing.assert_allclose(delta, 5.0, atol=1e-6)

    def test_zero_jitter_makes_replicas_identical(
        self, tiny_search_workload, target_table
    ):
        result = run_cluster_experiment(
            tiny_search_workload, "Sequential", 50.0, 100, 13,
            cluster_config=ClusterConfig(
                num_isns=3, demand_jitter_sigma=0.0
            ),
            target_table=target_table,
        )
        lat = result.isn_latencies_ms.reshape(100, 3)
        # At 50 QPS with Sequential there is no queueing: all replicas
        # of a query have identical demand, hence identical latency.
        spread = lat.max(axis=1) - lat.min(axis=1)
        assert np.median(spread) < 1e-6

    def test_parallel_matches_serial_bit_for_bit(
        self, tiny_search_workload, target_table
    ):
        # Splitting the ISNs into worker groups — here uneven ones,
        # 5 ISNs over 2 and 3 groups — must reproduce the one-group run
        # exactly: same aggregator latencies, same per-replica
        # latencies, same per-ISN recorders.
        kwargs = dict(
            qps=200.0, n_queries=150, seed=23,
            cluster_config=ClusterConfig(num_isns=5),
            target_table=target_table,
        )
        serial = run_cluster_experiment(
            tiny_search_workload, "TPC", workers=1, **kwargs
        )
        for workers in (2, 3):
            parallel = run_cluster_experiment(
                tiny_search_workload, "TPC", workers=workers, **kwargs
            )
            assert_same_cluster_run(serial, parallel)

    def test_golden_cell_matches_pre_refactor_run(
        self, tiny_search_workload, target_table
    ):
        # Captured before the serial shared-engine body and the per-ISN
        # pool path were folded into one grouped body.
        result = run_cluster_experiment(
            tiny_search_workload, "TPC", qps=250.0, n_queries=500, seed=5,
            cluster_config=ClusterConfig(num_isns=6),
            target_table=target_table,
        )
        agg = np.asarray(result.aggregator_latencies_ms, dtype=np.float64)
        isn = np.asarray(result.isn_latencies_ms, dtype=np.float64)
        assert result.aggregator_percentile(50).hex() == "0x1.2590e23256a20p+3"
        assert result.aggregator_percentile(99).hex() == "0x1.0260eddc827d8p+6"
        assert float(agg.max()).hex() == "0x1.35096e29a7ab6p+7"
        digest = hashlib.sha256(agg.tobytes() + isn.tobytes()).hexdigest()
        assert digest == (
            "601a66b87faa4329e05333b0b8ff307e4e5a360a19674aa764b9d2d6f6d994cc"
        )

    def test_same_seed_reproducible(self, tiny_search_workload, target_table):
        kwargs = dict(
            qps=150.0, n_queries=200, seed=77,
            cluster_config=ClusterConfig(num_isns=3),
            target_table=target_table,
        )
        a = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        b = run_cluster_experiment(tiny_search_workload, "TPC", **kwargs)
        np.testing.assert_array_equal(
            a.aggregator_latencies_ms, b.aggregator_latencies_ms
        )
