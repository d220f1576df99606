"""Integration tests for the assembled search workload."""

import functools
import hashlib

import numpy as np
import pytest

from repro.config import PredictorConfig
from repro.errors import WorkloadError
from repro.search import build_search_workload

#: Every build phase, in build order; the first five run only when the
#: pool is not served from the disk cache.
BUILD_PHASES = (
    "corpus",
    "index",
    "query_generate",
    "pool_units",
    "features",
    "profiles",
    "predictor_fit",
    "predictor_predict",
)


class TestWorkloadShape:
    def test_demand_statistics_match_paper_targets(self, tiny_search_workload):
        """Even the miniature corpus should land near the Section 2
        statistics the mixture was designed for."""
        stats = tiny_search_workload.statistics
        assert stats.mean_ms == pytest.approx(13.47, abs=0.01)  # exact by calibration
        assert 0.70 < stats.short_fraction < 0.95
        assert 0.01 < stats.long_fraction < 0.12
        assert stats.p99_ms > 5 * stats.mean_ms

    def test_group_weights_sum_to_one(self, tiny_search_workload):
        assert sum(tiny_search_workload.group_weights) == pytest.approx(1.0)
        assert tiny_search_workload.group_weights[0] > 0.5  # mostly short

    def test_speedup_book_orders_groups(self, tiny_search_workload):
        book = tiny_search_workload.speedup_book
        s6 = [book.profile_of_group(g).speedup(6) for g in range(3)]
        assert s6[0] < s6[1] < s6[2]

    def test_predictor_report_plausible(self, tiny_search_workload):
        report = tiny_search_workload.predictor_report
        assert report.l1_error_ms < tiny_search_workload.statistics.mean_ms * 2
        assert report.recall > 0.5
        assert report.precision > 0.5

    def test_golden_build_matches_pre_optimisation_run(
        self, tiny_search_workload
    ):
        # Captured before the bincount match counting, the joint
        # histogram split search and the flat-array tree predict; any
        # build change that is not bit-identical fails here.
        w = tiny_search_workload
        report = w.predictor_report
        assert report.l1_error_ms.hex() == "0x1.3d93c318f4605p+2"
        assert report.precision.hex() == "0x1.2d2d2d2d2d2d3p-1"
        assert report.recall.hex() == "0x1.5555555555555p-1"
        assert hashlib.sha256(w.pool_demands_ms.tobytes()).hexdigest() == (
            "f6e15de2bd6f89e3c84f82e4fdf3c8f8116570425a2132255a46dfa3283dddba"
        )
        assert hashlib.sha256(w.pool_predictions_ms.tobytes()).hexdigest() == (
            "dfc23f43c546f04a42a5fe46b92578327942f41736a3d38202ef43aaec47a428"
        )

    def test_canonical_golden_build_matches_pre_optimisation_run(self):
        # The default-size build perfbench times, the only size whose
        # pool runs every keyword count 1..12.  Captured before the
        # cached-CDF query sampling, the batched pool work units, the
        # radix-sorted index and the grouped feature kernel.
        w = build_search_workload(1, use_cache=False)
        report = w.predictor_report
        assert report.l1_error_ms.hex() == "0x1.22822d9fdb446p+2"
        assert report.precision.hex() == "0x1.bf1f8fc7e3f20p-1"
        assert report.recall.hex() == "0x1.cefa8d9df51b4p-1"
        assert hashlib.sha256(w.pool_demands_ms.tobytes()).hexdigest() == (
            "8fab30dbb96092be5a4abc16af13b2ad9848da83ed4c207b2a4245cc2d18d836"
        )
        assert hashlib.sha256(w.pool_predictions_ms.tobytes()).hexdigest() == (
            "8ab95608ef3a34d311030739011fb776cb6eac05bcc54eafb13d40472dc6897b"
        )
        assert list(w.build_phases_s) == list(BUILD_PHASES)
        assert all(seconds >= 0.0 for seconds in w.build_phases_s.values())

    def test_cached_pool_phases_are_absent(self, tiny_search_config, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build = functools.partial(
            build_search_workload,
            seed=3,
            config=tiny_search_config,
            predictor_config=PredictorConfig(num_trees=5, max_depth=3),
            pool_size=200,
        )
        assert list(build().build_phases_s) == list(BUILD_PHASES)
        assert list(build().build_phases_s) == list(BUILD_PHASES[5:])

    def test_pool_arrays_aligned(self, tiny_search_workload):
        w = tiny_search_workload
        assert len(w.pool_demands_ms) == len(w.pool_predictions_ms)
        assert len(w.pool_demands_ms) == len(w.pool_profiles)
        assert w.pool_size == len(w.pool_demands_ms)


class TestMakeRequests:
    def test_trace_sampling(self, tiny_search_workload, rng):
        reqs = tiny_search_workload.make_requests(500, rng)
        assert len(reqs) == 500
        assert len({r.rid for r in reqs}) == 500
        assert all(r.demand_ms > 0 for r in reqs)

    def test_rid_offset(self, tiny_search_workload, rng):
        reqs = tiny_search_workload.make_requests(5, rng, rid_offset=100)
        assert [r.rid for r in reqs] == [100, 101, 102, 103, 104]

    def test_perfect_prediction_equals_demand(self, tiny_search_workload, rng):
        reqs = tiny_search_workload.make_requests(100, rng, prediction="perfect")
        for r in reqs:
            assert r.predicted_ms == pytest.approx(r.demand_ms)

    def test_oracle_mode_perturbs(self, tiny_search_workload, rng):
        reqs = tiny_search_workload.make_requests(
            200, rng, prediction="oracle", oracle_sigma=0.5
        )
        ratios = [r.predicted_ms / r.demand_ms for r in reqs]
        assert np.std(np.log(ratios)) > 0.3

    def test_model_predictions_differ_from_truth(self, tiny_search_workload, rng):
        reqs = tiny_search_workload.make_requests(200, rng, prediction="model")
        assert any(
            abs(r.predicted_ms - r.demand_ms) > 0.5 for r in reqs
        )

    def test_execution_noise_varies_repeats(self, tiny_search_workload):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        a = tiny_search_workload.make_requests(50, rng_a)
        b = tiny_search_workload.make_requests(50, rng_b)
        # Same rng -> identical trace (reproducibility).
        assert all(
            x.demand_ms == y.demand_ms for x, y in zip(a, b)
        )

    def test_rejects_bad_mode(self, tiny_search_workload, rng):
        with pytest.raises(WorkloadError):
            tiny_search_workload.make_requests(5, rng, prediction="psychic")

    def test_rejects_zero_count(self, tiny_search_workload, rng):
        with pytest.raises(WorkloadError):
            tiny_search_workload.make_requests(0, rng)


class TestMispredictedLong:
    def test_some_long_queries_predicted_short(self, tiny_search_workload, rng):
        """The crux of the paper: an imperfect predictor leaves a small
        fraction of genuinely long queries classified short."""
        reqs = tiny_search_workload.make_requests(4000, rng)
        mispredicted = [
            r for r in reqs if r.demand_ms > 80.0 and r.predicted_ms <= 80.0
        ]
        long_total = [r for r in reqs if r.demand_ms > 80.0]
        assert 0 < len(mispredicted) < len(long_total)
