"""Load-drift experiment: TPC under a time-varying arrival rate.

Section 3.3 motivates the target table with "instantaneous load on a
server varies over time".  These tests drive TPC with a diurnal
(non-homogeneous Poisson) arrival process and check that the machinery
behaves sensibly when the load is never stationary.
"""

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.target_table import TargetTable
from repro.policies import TPCPolicy
from repro.rng import RngFactory
from repro.sim.arrivals import diurnal_profile
from repro.sim.client import OpenLoopClient
from repro.sim.engine import Engine
from repro.sim.server import Server

ADAPTIVE = TargetTable([(0, 25), (3, 30), (6, 40), (10, 60), (16, 65), (28, 70)])
LOOSE = TargetTable.constant(70.0)


def run_drift(workload, table, seed=23, n=8000):
    rngs = RngFactory(seed)
    policy = TPCPolicy(table, workload.speedup_book)
    server = Server(ServerConfig(), policy, engine=Engine())
    requests = workload.make_requests(n, rngs.get("trace"))
    profile = diurnal_profile(150.0, 800.0, segments=6, segment_ms=3_000.0)
    OpenLoopClient(server).schedule_trace(
        server.engine, requests, profile, rngs.get("arrivals")
    )
    server.run_to_completion(n)
    return server


class TestLoadDrift:
    @pytest.fixture(scope="class")
    def adaptive_run(self, tiny_search_workload):
        return run_drift(tiny_search_workload, ADAPTIVE)

    def test_all_requests_complete_under_drift(self, adaptive_run):
        assert len(adaptive_run.recorder) == 8000

    def test_targets_span_the_table_under_drift(self, adaptive_run):
        """The varying load must exercise multiple table entries —
        otherwise the drift scenario degenerates to a constant one."""
        # Corrections imply targets were assigned; sample the recorder.
        assert adaptive_run.recorder.correction_rate() > 0

    def test_adaptive_table_beats_loose_constant(self, tiny_search_workload,
                                                 adaptive_run):
        loose_run = run_drift(tiny_search_workload, LOOSE)
        adaptive_p99 = adaptive_run.recorder.percentile(99)
        loose_p99 = loose_run.recorder.percentile(99)
        # A loose constant target wastes the low-load half of the day.
        assert adaptive_p99 < loose_p99

    def test_tail_dominated_by_peak_period(self, adaptive_run):
        """Slow responses cluster in the high-rate phase of the cycle
        (sanity: the drift actually stresses the server)."""
        responses = np.asarray(adaptive_run.recorder.responses_ms)
        threshold = np.percentile(responses, 99)
        assert threshold > np.percentile(responses, 50) * 2
