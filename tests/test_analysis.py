"""Tests for the analysis package (queueing checks, comparisons)."""

import pytest

from repro.analysis import (
    crossover_load,
    dominance_fraction,
    max_relative_reduction,
    mean_concurrency,
    offered_load_core_equivalents,
    relative_reduction,
    utilisation,
    verify_littles_law,
)
from repro.config import ServerConfig
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.client import OpenLoopClient
from repro.sim.server import Server
import numpy as np

from conftest import make_request
from test_server import FixedDegreePolicy


class TestQueueingIdentities:
    def test_offered_load(self):
        assert offered_load_core_equivalents(450, 13.47) == pytest.approx(
            6.06, abs=0.01
        )

    def test_utilisation_matches_paper_regime(self):
        # Paper: ~73% CPU utilisation at high load; 900 QPS of 13.47 ms
        # queries on a 16.2 core-equivalent box is 75%.
        cap = ServerConfig().capacity_core_equivalents
        assert utilisation(900, 13.47, cap) == pytest.approx(0.75, abs=0.02)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            offered_load_core_equivalents(0, 10)
        with pytest.raises(SimulationError):
            utilisation(100, 10, 0)

    def test_littles_law_on_real_simulation(self):
        """Mean concurrency measured by time-integration must agree
        with lambda * W computed from the recorder."""
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        rng = np.random.default_rng(3)
        n, qps = 4000, 700.0
        reqs = [
            make_request(i, float(d))
            for i, d in enumerate(rng.exponential(12.0, n) + 0.5)
        ]
        client = OpenLoopClient(server)
        client.schedule_trace(server.engine, reqs, qps, rng)

        # Integrate concurrency over time by sampling busy requests.
        area = 0.0
        last = 0.0
        makespan_events = 0
        while server.completed_count < n:
            running = server.running_count + server.queue_length
            now_before = server.engine.now
            if not server.engine.step():
                break
            area += running * (server.engine.now - now_before)
            last = server.engine.now
            makespan_events += 1
        observed = area / last
        verify_littles_law(server.recorder, qps, observed, tolerance=0.1)

    def test_littles_law_detects_violations(self):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        req = make_request(0, 10.0)
        server.submit(req)
        server.run_to_completion(1)
        with pytest.raises(SimulationError):
            verify_littles_law(server.recorder, 100.0, 50.0)


class TestComparisons:
    def test_relative_reduction(self):
        assert relative_reduction(100.0, 60.0) == pytest.approx(0.40)
        assert relative_reduction(100.0, 120.0) == pytest.approx(-0.20)

    def test_relative_reduction_rejects_zero_baseline(self):
        with pytest.raises(SimulationError):
            relative_reduction(0.0, 10.0)

    def test_max_relative_reduction(self):
        baseline = [100, 100, 100]
        improved = [90, 60, 80]
        best, index = max_relative_reduction(baseline, improved)
        assert best == pytest.approx(0.40)
        assert index == 1

    def test_crossover_interpolates(self):
        loads = [100, 200, 300]
        a = [10, 20, 40]
        b = [20, 20, 20]
        # a-b: -10, 0, +20 -> crossover exactly at 200.
        assert crossover_load(loads, a, b) == pytest.approx(200.0)

    def test_crossover_none_when_dominated(self):
        assert crossover_load([1, 2], [1, 1], [5, 5]) is None

    def test_crossover_fractional(self):
        loads = [0, 100]
        a = [-10, 30]
        b = [0, 0]
        assert crossover_load(loads, a, b) == pytest.approx(25.0)

    def test_dominance_fraction(self):
        a = [10, 20, 30, 45]
        b = [12, 20, 28, 40]
        assert dominance_fraction(a, b) == pytest.approx(0.5)
        assert dominance_fraction(a, b, tolerance=0.2) == pytest.approx(1.0)

    def test_misaligned_rejected(self):
        with pytest.raises(SimulationError):
            dominance_fraction([1], [1, 2])
        with pytest.raises(SimulationError):
            max_relative_reduction([], [])
        with pytest.raises(SimulationError):
            crossover_load([1], [1], [1])
