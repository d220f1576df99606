"""Tests for the open-loop client and trace replay."""

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.errors import WorkloadError
from repro.sim.client import OpenLoopClient, poisson_arrival_times, replay_trace
from repro.sim.engine import Engine
from repro.sim.server import Server

from conftest import make_request
from test_server import FixedDegreePolicy


class TestPoissonArrivals:
    def test_mean_rate_matches_qps(self, rng):
        times = poisson_arrival_times(20_000, qps=500.0, rng=rng)
        mean_gap = float(np.diff(times).mean())
        assert mean_gap == pytest.approx(2.0, rel=0.05)  # 1000/500 ms

    def test_times_are_increasing(self, rng):
        times = poisson_arrival_times(100, 100.0, rng)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(WorkloadError):
            poisson_arrival_times(0, 100.0, rng)
        with pytest.raises(WorkloadError):
            poisson_arrival_times(10, 0.0, rng)


class TestOpenLoopClient:
    def test_single_server_receives_all(self, rng):
        engine = Engine()
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=engine)
        client = OpenLoopClient(server)
        reqs = [make_request(i, 5.0) for i in range(10)]
        n = client.schedule_trace(engine, reqs, qps=1000.0, rng=rng)
        assert n == 10
        server.run_to_completion(10)
        assert server.completed_count == 10


class TestReplayTrace:
    def test_runs_to_completion(self, rng):
        server = Server(ServerConfig(), FixedDegreePolicy(1), engine=Engine())
        reqs = [make_request(i, 10.0) for i in range(20)]
        replay_trace(server, reqs, qps=200.0, rng=rng)
        assert server.completed_count == 20
        assert len(server.recorder) == 20
