"""Open-loop load generation.

The paper's client "plays queries from a trace of 100K user queries
using a Poisson process in an open loop" and varies load by changing
the arrival rate (queries per second).  :class:`OpenLoopClient` draws
every arrival time up front and hands the whole trace to the engine as
one :meth:`~repro.sim.engine.Engine.schedule_sequence`, which keeps
only the next arrival in the event heap.  Arrivals are independent of
completions (open loop), so an overloaded server builds a real queue
instead of back-pressuring the client.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import WorkloadError
from .arrivals import RateProfile, nonhomogeneous_arrival_times
from .engine import Engine
from .request import Request
from .server import Server

__all__ = ["OpenLoopClient", "replay_trace", "poisson_arrival_times"]


def poisson_arrival_times(
    n: int, qps: float, rng: np.random.Generator
) -> np.ndarray:
    """Cumulative arrival times (ms) of ``n`` Poisson arrivals at ``qps``."""
    if n < 1:
        raise WorkloadError(f"need at least one arrival, got {n}")
    if qps <= 0:
        raise WorkloadError(f"qps must be positive, got {qps}")
    mean_gap_ms = 1000.0 / qps
    gaps = rng.exponential(mean_gap_ms, size=n)
    return np.cumsum(gaps)


class OpenLoopClient:
    """Schedules a request trace onto one server.

    Cluster fan-out (one replica per ISN) lives in
    :mod:`repro.cluster.cluster`, not here.
    """

    def __init__(self, server: Server) -> None:
        self.server = server

    def schedule_trace(
        self,
        engine: Engine,
        requests: Iterable[Request],
        qps: float | RateProfile,
        rng: np.random.Generator,
    ) -> int:
        """Schedule all requests as a Poisson process at ``qps``.

        ``qps`` is a constant rate or a piecewise-constant
        :class:`~repro.sim.arrivals.RateProfile` (non-homogeneous
        arrivals).  Returns the number of requests scheduled.
        """
        request_list = list(requests)
        n = len(request_list)
        if isinstance(qps, RateProfile):
            times = nonhomogeneous_arrival_times(n, qps, rng)
        else:
            times = poisson_arrival_times(n, qps, rng)
        submit = self.server.submit
        engine.schedule_sequence(
            times.tolist(), lambda i: submit(request_list[i])
        )
        return n


def replay_trace(
    server: Server,
    requests: Sequence[Request],
    qps: float,
    rng: np.random.Generator,
) -> None:
    """Run a full single-server experiment to completion.

    Schedules ``requests`` at ``qps`` on ``server`` and drives the
    engine until every request completes.
    """
    client = OpenLoopClient(server)
    n = client.schedule_trace(server.engine, requests, qps, rng)
    server.run_to_completion(n)
