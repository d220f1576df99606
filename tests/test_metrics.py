"""Tests for latency metrics and percentile utilities."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.metrics import (
    LatencyRecorder,
    StreamingLatencyRecorder,
    StreamingQuantile,
    cdf_points,
    degree_distribution,
    percentile,
    weighted_tail_latency,
)
from repro.sim.request import RequestState

from conftest import make_request


def completed_request(rid, demand, pred=None, degree=1, max_degree=None,
                      corrected=False, arrival=0.0, start=0.0, finish=None):
    req = make_request(rid, demand, pred)
    req.state = RequestState.COMPLETED
    req.arrival_ms = arrival
    req.start_ms = start
    req.finish_ms = finish if finish is not None else start + demand
    req.initial_degree = degree
    req.max_degree_seen = max_degree if max_degree is not None else degree
    req.corrected = corrected
    return req


class TestPercentile:
    def test_median_of_known_sample(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_p99_of_uniform_grid(self):
        values = list(range(1, 1001))
        assert percentile(values, 99) == pytest.approx(990.01)

    def test_empty_sample_rejected(self):
        with pytest.raises(SimulationError):
            percentile([], 99)

    @pytest.mark.parametrize("p", [0, 100, -5, 101])
    def test_out_of_range_percentile_rejected(self, p):
        with pytest.raises(SimulationError):
            percentile([1.0], p)


class TestCdf:
    def test_cdf_is_sorted_and_reaches_one(self):
        xs, fs = cdf_points([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(xs, [1.0, 2.0, 3.0])
        assert fs[-1] == 1.0
        assert all(b >= a for a, b in zip(fs, fs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            cdf_points([])


class TestWeightedTail:
    def test_weighted_sum_of_percentiles(self):
        s1 = [10.0] * 100
        s2 = [20.0] * 100
        total = weighted_tail_latency([s1, s2], [1.0, 2.0], 99)
        assert total == pytest.approx(10.0 + 40.0)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            weighted_tail_latency([[1.0]], [1.0, 2.0], 99)


class TestLatencyRecorder:
    def test_record_and_summary(self):
        rec = LatencyRecorder()
        for i, demand in enumerate([10.0, 20.0, 30.0]):
            rec.record(completed_request(i, demand))
        summary = rec.summary()
        assert summary.count == 3
        assert summary.mean_ms == pytest.approx(20.0)
        assert summary.max_ms == 30.0

    def test_queueing_separated_from_execution(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0, arrival=0.0, start=5.0, finish=15.0))
        assert rec.queueing_ms[0] == pytest.approx(5.0)
        assert rec.executions_ms[0] == pytest.approx(10.0)
        assert rec.responses_ms[0] == pytest.approx(15.0)

    def test_correction_rate(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0, corrected=True))
        rec.record(completed_request(1, 10.0, corrected=False))
        assert rec.correction_rate() == pytest.approx(0.5)

    def test_correction_rate_empty_is_zero(self):
        assert LatencyRecorder().correction_rate() == 0.0

    def test_summary_empty_rejected(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().summary()

    def test_summary_as_row_keys(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0))
        row = rec.summary().as_row()
        assert set(row) >= {"count", "mean_ms", "p99_ms", "p999_ms"}


class TestDegreeDistribution:
    def test_percentages_split_by_true_demand_class(self):
        rec = LatencyRecorder()
        # Two short at degree 1, one short at 2; one long at 6.
        rec.record(completed_request(0, 10.0, degree=1))
        rec.record(completed_request(1, 12.0, degree=1))
        rec.record(completed_request(2, 14.0, degree=2))
        rec.record(completed_request(3, 150.0, degree=6))
        dist = degree_distribution(rec, long_threshold_ms=80.0, max_degree=6)
        assert dist["short"][0] == pytest.approx(100 * 2 / 3)
        assert dist["short"][1] == pytest.approx(100 / 3)
        assert dist["long"][5] == pytest.approx(100.0)

    def test_rows_sum_to_100(self):
        rec = LatencyRecorder()
        for i in range(10):
            rec.record(completed_request(i, 10.0 + i * 20, degree=(i % 6) + 1))
        dist = degree_distribution(rec, 80.0, 6)
        assert sum(dist["short"]) == pytest.approx(100.0)
        assert sum(dist["long"]) == pytest.approx(100.0)

    def test_max_degree_mode_captures_correction(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 150.0, degree=1, max_degree=6))
        by_max = degree_distribution(rec, 80.0, 6, use_max_degree=True)
        by_initial = degree_distribution(rec, 80.0, 6, use_max_degree=False)
        assert by_max["long"][5] == 100.0
        assert by_initial["long"][0] == 100.0

    def test_empty_class_yields_zero_row(self):
        rec = LatencyRecorder()
        rec.record(completed_request(0, 10.0, degree=1))
        dist = degree_distribution(rec, 80.0, 6)
        assert sum(dist["long"]) == 0.0


class TestStreamingQuantile:
    def test_rejects_invalid_parameters(self):
        with pytest.raises(SimulationError):
            StreamingQuantile(0.0)
        with pytest.raises(SimulationError):
            StreamingQuantile(1.0)
        with pytest.raises(SimulationError):
            StreamingQuantile(0.5, exact_threshold=2)
        with pytest.raises(SimulationError):
            StreamingQuantile(0.5).value()

    def test_small_samples_are_exact(self):
        rng = np.random.default_rng(21)
        data = rng.lognormal(1.3, 1.3, size=200)
        est = StreamingQuantile(0.99, exact_threshold=500)
        for x in data:
            est.add(float(x))
        assert est.value() == float(np.percentile(data, 99))

    @pytest.mark.parametrize("p,tol", [(50, 0.02), (95, 0.02), (99, 0.03), (99.9, 0.10)])
    def test_error_bounds_on_calibrated_demand_distribution(self, p, tol):
        # The paper's demand shape: lognormal with a heavy tail (the
        # calibrated sigma from the Section 2 workload statistics).
        rng = np.random.default_rng(7)
        data = rng.lognormal(1.3, 1.3, size=60_000)
        est = StreamingQuantile(p / 100.0)
        for x in data:
            est.add(float(x))
        exact = float(np.percentile(data, p))
        assert abs(est.value() - exact) / exact < tol

    def test_threshold_crossing_initialises_from_buffer(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(10.0, size=2_000)
        est = StreamingQuantile(0.95, exact_threshold=100)
        for x in data:
            est.add(float(x))
        exact = float(np.percentile(data, 95))
        assert abs(est.value() - exact) / exact < 0.05


class TestStreamingLatencyRecorder:
    def _filled(self, n, exact_threshold=500):
        rng = np.random.default_rng(11)
        latencies = rng.lognormal(1.3, 1.0, size=n)
        rec = StreamingLatencyRecorder(exact_threshold=exact_threshold)
        full = LatencyRecorder()
        for i, lat in enumerate(latencies):
            req = completed_request(i, float(lat), corrected=(i % 10 == 0))
            rec.record(req)
            full.record(req)
        return rec, full

    def test_len_and_correction_rate(self):
        rec, full = self._filled(1_000)
        assert len(rec) == len(full) == 1_000
        assert rec.correction_rate() == full.correction_rate()

    def test_summary_tracks_full_recorder(self):
        rec, full = self._filled(20_000)
        s, f = rec.summary(), full.summary()
        assert s.count == f.count
        assert s.mean_ms == pytest.approx(f.mean_ms, rel=1e-9)
        assert s.max_ms == f.max_ms
        for got, want, tol in [
            (s.p50_ms, f.p50_ms, 0.03),
            (s.p95_ms, f.p95_ms, 0.03),
            (s.p99_ms, f.p99_ms, 0.05),
            (s.p999_ms, f.p999_ms, 0.15),
        ]:
            assert abs(got - want) / want < tol

    def test_exact_below_threshold(self):
        rec, full = self._filled(300, exact_threshold=500)
        assert rec.percentile(99) == pytest.approx(full.percentile(99), rel=1e-12)

    def test_full_sample_surfaces_unavailable(self):
        rec, _ = self._filled(10)
        with pytest.raises(SimulationError):
            rec.responses
        with pytest.raises(SimulationError):
            rec.percentile(42)

    def test_empty_recorder_raises(self):
        rec = StreamingLatencyRecorder()
        assert len(rec) == 0
        assert rec.correction_rate() == 0.0
        with pytest.raises(SimulationError):
            rec.summary()

    def test_drop_in_for_server_runs(self):
        from repro.config import ServerConfig
        from repro.core.speedup import SpeedupBook, SpeedupProfile
        from repro.policies.registry import make_policy
        from repro.rng import RngFactory
        from repro.sim.client import OpenLoopClient
        from repro.sim.engine import Engine
        from repro.sim.server import Server

        book = SpeedupBook(
            [
                SpeedupProfile([1.0, 1.05, 1.08, 1.11, 1.14, 1.16]),
                SpeedupProfile([1.0, 1.4, 1.6, 1.8, 1.95, 2.05]),
                SpeedupProfile([1.0, 1.8, 2.5, 3.2, 3.7, 4.1]),
            ]
        )
        rngs = RngFactory(5)
        demands = rngs.get("trace").lognormal(1.3, 1.3, size=800)
        reqs = [
            make_request(
                i, float(d), profile=book.profiles[book.group_of(float(d))]
            )
            for i, d in enumerate(demands)
        ]
        policy = make_policy(
            "AP", speedup_book=book, group_weights=[0.6, 0.3, 0.1]
        )

        def run(recorder):
            engine = Engine()
            server = Server(ServerConfig(), policy, engine=engine,
                            recorder=recorder)
            client = OpenLoopClient(server)
            import copy
            client.schedule_trace(engine, copy.deepcopy(reqs), 500.0,
                                  RngFactory(5).get("arrivals"))
            server.run_to_completion(len(reqs))
            return recorder

        stream = run(StreamingLatencyRecorder())
        full = run(LatencyRecorder())
        assert len(stream) == len(full)
        assert stream.summary().mean_ms == pytest.approx(
            full.summary().mean_ms, rel=1e-9)
        assert stream.percentile(99) == pytest.approx(
            full.percentile(99), rel=0.06)
