"""The ``perf_budget`` check: simulator throughput over ≥1 s windows.

Scenarios at increasing integration depth:

``engine_only``
    A schedule/cancel storm on a bare :class:`~repro.sim.engine.Engine`
    — every callback re-arms itself and cancels a decoy event, the
    access pattern the server's completion rescheduling produces.
    Exercises push, pop, lazy skip and automatic heap compaction with
    no server logic in the way.
``hotpath``
    Hand-made requests with lognormal demands over a three-group
    speedup book, scheduled by AP at 500 qps.  No workload build, no
    predictor — the wall clock is pure simulator.  Its repeats
    alternate with the same run under a :class:`repro.obs.Observation`,
    which gives the enabled-path penalty of tracing (the disabled path
    is covered by the goldens staying bit-identical).
``end_to_end_cell``
    One cold :func:`repro.exec.run_cell` over a tiny search workload —
    corpus build, predictor training and simulation included — the
    shape every figure benchmark pays per cell.

Event counts are bit-deterministic given ``(size, seed)``; only wall
time varies across machines.  Each scenario repeats the way
:mod:`timeit` autoranges, but with GC left on, until
:data:`MIN_WINDOW_S` of measured time has accrued; its banded
throughput is the work over the summed time.  Best-of-three over
0.05–0.3 s repeats swung by a third on a shared 2-core VM; a window
of at least a second averages that jitter out.
"""

from __future__ import annotations

import cProfile
import gc
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable

from ..config import PredictorConfig, SearchWorkloadConfig, ServerConfig
from ..errors import ConfigError
from .bands import Band, Measurement

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.observe import Observation
    from ..sim.engine import Engine
    from .checks import GateScale

__all__ = [
    "MIN_WINDOW_S",
    "REGRESSION_FLOOR",
    "Window",
    "TracingOverhead",
    "autorange",
    "run_engine_only",
    "run_hotpath_benchmark",
    "run_tracing_overhead",
    "run_end_to_end_cell",
    "peak_rss_mb",
    "throughput_measurements",
    "profile_scenarios",
]

#: Measured seconds each throughput scenario accrues per gate run.
MIN_WINDOW_S = 1.0

#: A throughput more than 30 % below its baseline fails: loose enough
#: for machine jitter, tight enough to catch a hot-path regression.
REGRESSION_FLOOR = 0.70


@dataclass(frozen=True)
class Window:
    """The repeats of one scenario: ``(work, seconds)`` per repeat."""

    repeats: tuple[tuple[float, float], ...]

    @property
    def rate(self) -> float:
        """Work per second over the whole window."""
        return sum(w for w, _ in self.repeats) / sum(s for _, s in self.repeats)

    @property
    def rates(self) -> list[float]:
        """Work per second of each repeat."""
        return [w / s for w, s in self.repeats]


def autorange(*runs: Callable[[], tuple[float, float]]) -> list[Window]:
    """Repeat ``runs`` in turn until the first has accrued the window.

    Each run times itself and returns ``(work, seconds)``.  A full
    collection precedes every run, outside its timer, so one repeat's
    garbage is not collected on the next one's clock; GC stays enabled
    while the run is timed.  The objects alive before the first run
    are frozen for the window, so neither those collections nor the
    ones inside a run scan the rest of the process: the reading does
    not depend on what else the process holds.
    """
    samples: list[list[tuple[float, float]]] = [[] for _ in runs]
    gc.freeze()
    try:
        while True:
            for run, sample in zip(runs, samples):
                gc.collect()
                sample.append(run())
            if sum(s for _, s in samples[0]) >= MIN_WINDOW_S:
                return [Window(tuple(sample)) for sample in samples]
    finally:
        gc.unfreeze()


def run_engine_only(size: int, seed: int) -> tuple["Engine", float]:
    """Schedule/cancel storm on a bare engine: the engine and its seconds.

    Each fired event re-arms itself and cancels a previously scheduled
    decoy.  Roughly half of all scheduled events are cancelled, so the
    run also triggers heap compactions.
    """
    from collections import deque

    from ..rng import RngFactory
    from ..sim.engine import Engine

    rng = RngFactory(seed).get("engine_only")
    tick_delays = rng.uniform(0.1, 1.0, size=size + 16)
    # Decoys sit far in the future, so cancelling them leaves garbage
    # in the heap (the server's completion re-arm does the same) and
    # automatic compaction actually triggers.
    decoy_delays = rng.uniform(100.0, 200.0, size=size + 16)
    engine = Engine()
    decoys: deque = deque()
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired >= size:
            while decoys:
                decoys.popleft().cancel()
            return
        decoys.append(engine.schedule(float(decoy_delays[fired]), _noop))
        if len(decoys) > 8:
            decoys.popleft().cancel()
        engine.schedule(float(tick_delays[fired]), tick)

    def _noop() -> None:
        pass

    engine.schedule(0.0, tick)
    started = perf_counter()
    engine.run()
    return engine, perf_counter() - started


def run_hotpath_benchmark(
    n_requests: int, seed: int, observation: "Observation | None" = None
) -> tuple["Engine", float]:
    """Time the discrete-event hot path: the engine and its seconds.

    The cheapest faithful exercise of the simulator — AP gives load
    feedback and mid-flight degree decisions without a predictor — so
    the gate budgets events/sec without paying the multi-second
    search-workload build.  ``observation`` attaches the observability
    layer before the run.
    """
    from ..core.speedup import SpeedupBook, SpeedupProfile
    from ..policies.registry import make_policy
    from ..rng import RngFactory
    from ..sim.client import OpenLoopClient
    from ..sim.engine import Engine
    from ..sim.request import Request
    from ..sim.server import Server

    book = SpeedupBook(
        [
            SpeedupProfile([1.0, 1.05, 1.08, 1.11, 1.14, 1.16]),
            SpeedupProfile([1.0, 1.4, 1.6, 1.8, 1.95, 2.05]),
            SpeedupProfile([1.0, 1.8, 2.5, 3.2, 3.7, 4.1]),
        ]
    )
    rngs = RngFactory(seed)
    demands = rngs.get("trace").lognormal(1.3, 1.3, size=n_requests)
    requests = [
        Request(i, float(d), float(d), book.profiles[book.group_of(float(d))])
        for i, d in enumerate(demands)
    ]
    policy = make_policy("AP", speedup_book=book, group_weights=[0.6, 0.3, 0.1])
    engine = Engine()
    server = Server(ServerConfig(), policy, engine=engine)
    if observation is not None:
        observation.attach(server)
    client = OpenLoopClient(server)
    started = perf_counter()
    client.schedule_trace(engine, requests, 500.0, rngs.get("arrivals"))
    server.run_to_completion(n_requests)
    return engine, perf_counter() - started


def _events(run: tuple["Engine", float]) -> tuple[float, float]:
    engine, seconds = run
    return float(engine.events_run), seconds


@dataclass(frozen=True)
class TracingOverhead:
    """Alternating bare and observed windows of the hot path."""

    bare: Window
    observed: Window
    events_traced: int

    @property
    def penalty(self) -> float:
        """Median over pairs of ``1 − observed/bare`` events per second."""
        return statistics.median(
            1.0 - o / b for b, o in zip(self.bare.rates, self.observed.rates)
        )


def run_tracing_overhead(n_requests: int, seed: int) -> TracingOverhead:
    """Alternate bare and observed hot-path runs until the window fills.

    Both variants execute the identical event trace; the observed one
    records through a full :class:`repro.obs.Observation` (tracer,
    metrics, span substrate).
    """
    from ..obs.observe import Observation

    events_traced = 0

    def observed() -> tuple[float, float]:
        nonlocal events_traced
        observation = Observation()
        timed = _events(run_hotpath_benchmark(n_requests, seed, observation))
        events_traced = len(observation.tracer)
        return timed

    bare, traced = autorange(
        lambda: _events(run_hotpath_benchmark(n_requests, seed)), observed
    )
    counts = {w for w, _ in bare.repeats + traced.repeats}
    if len(counts) != 1:
        raise ConfigError(f"tracing changed the event trace: {sorted(counts)} events")
    return TracingOverhead(bare, traced, events_traced)


#: Tiny search corpus for the end-to-end scenario: big enough to train
#: the predictor and shape a demand distribution, small enough to build
#: in under a second.
_TINY_SEARCH = SearchWorkloadConfig(
    num_documents=3_000,
    vocabulary_size=1_500,
    mean_doc_length=120,
    hard_term_pool=150,
    easy_skip_top=15,
)


def run_end_to_end_cell(size: int, seed: int) -> float:
    """Seconds of one uncached ``run_cell`` over a tiny search workload.

    Corpus generation, predictor training, trace sampling and
    simulation all count.  The workload disk cache is off in the spec
    and the in-process memo is evicted up front, so every repeat pays
    the cold build.
    """
    from ..core.target_table import TargetTable
    from ..exec.pool import forget_workload, run_cell
    from ..exec.spec import CellSpec, WorkloadSpec

    wspec = WorkloadSpec.search(
        seed=11,
        config=_TINY_SEARCH,
        predictor_config=PredictorConfig(num_trees=60, max_depth=4),
        pool_size=1_200,
        use_workload_cache=False,
    )
    spec = CellSpec.for_experiment(
        wspec,
        "TPC",
        300.0,
        n_requests=size,
        seed=seed,
        target_table=TargetTable([(0, 40), (8, 65), (16, 90)]),
    )
    forget_workload(wspec)
    started = perf_counter()
    run_cell(spec)
    return perf_counter() - started


def peak_rss_mb() -> float:
    """Process-wide peak resident set size in MiB (0.0 if unavailable).

    A high-water mark over the whole process, never a per-scenario
    figure.  ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024.0


def _window_measurements(name: str, unit: str, window: Window) -> list[Measurement]:
    """The banded window rate plus its best repeat, spread and count."""
    rates = window.rates
    return [
        Measurement(
            f"{name}_{unit}_per_s",
            window.rate,
            Band(rel_lo=REGRESSION_FLOOR, unit=f"{unit}/s"),
            paper_ref=f"at most {1 - REGRESSION_FLOOR:.0%} below baseline",
            baseline_key=True,
        ),
        Measurement(f"{name}_best_{unit}_per_s", max(rates), None),
        Measurement(f"{name}_spread", min(rates) / max(rates), None),
        Measurement(f"{name}_repeats", len(rates), None),
    ]


def throughput_measurements(scale: "GateScale") -> list[Measurement]:
    """Time every scenario over its window and band the results.

    The hot path's exact event count is pinned from the same timed
    runs: any drift means the engine's scheduling semantics changed.
    """
    seed = scale.seed
    (engine,) = autorange(
        lambda: _events(run_engine_only(scale.engine_only_events, seed))
    )
    tracing = run_tracing_overhead(scale.hotpath_requests, seed)
    (cell,) = autorange(
        lambda: (
            scale.end_to_end_requests,
            run_end_to_end_cell(scale.end_to_end_requests, seed),
        )
    )
    return [
        Measurement(
            "hotpath_events_run",
            tracing.bare.repeats[0][0],
            Band(rel_lo=1.0, rel_hi=1.0, unit="events"),
            paper_ref="deterministic event count of the synthetic trace",
            baseline_key=True,
        ),
        *_window_measurements("hotpath", "events", tracing.bare),
        *_window_measurements("engine_only", "events", engine),
        *_window_measurements("end_to_end_cell", "requests", cell),
        # Unbanded: over ten --fast runs on a 2-core VM it read
        # 0.01-0.16 against the 15% budget, so a band would fail
        # healthy code about one run in five.
        Measurement("tracing_penalty", tracing.penalty, None),
        Measurement("peak_rss_mb", peak_rss_mb(), None),
    ]


def profile_scenarios(scale: "GateScale", path: str) -> list[str]:
    """Run each scenario once more under cProfile; dump ``path.<name>``."""
    from ..obs.observe import Observation

    seed, n = scale.seed, scale.hotpath_requests
    runs = {
        "engine_only": lambda: run_engine_only(scale.engine_only_events, seed),
        "hotpath": lambda: run_hotpath_benchmark(n, seed),
        "hotpath_observed": lambda: run_hotpath_benchmark(n, seed, Observation()),
        "end_to_end_cell": lambda: run_end_to_end_cell(
            scale.end_to_end_requests, seed
        ),
    }
    written = []
    for name, run in runs.items():
        profiler = cProfile.Profile()
        profiler.runcall(run)
        profiler.dump_stats(f"{path}.{name}")
        written.append(f"{path}.{name}")
    return written
