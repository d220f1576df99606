"""Outside-in tracing: spans and counters recorded around repro's public API.

Nothing under ``src/`` knows about this module.  :class:`Tracer.install`
rebinds public functions and methods of each layer to thin wrappers
that record a span (name, start, end, parent, cell hash) or bump a
counter, and :meth:`Tracer.uninstall` puts every original back.  The
wrappers are only installed for the traced run; the untraced run that
produces the end-to-end metrics executes the unmodified code.

Three kinds of wrapper, chosen by call frequency:

* a *span* for calls made a few times per cell (``make_policy``,
  ``Server.run_to_completion``, ``ExecutionTimePredictor.fit``);
* a *leaf* for hot calls (``Engine.step``, ``SearchEngine.execute``):
  it adds its duration to a per-name total and to the enclosing span's
  child time, but creates no span record;
* a *counter* for the hottest calls (``Engine.schedule``,
  ``EventHandle.cancel``, ``Server.submit``): a call count only.

A span's self time is its duration minus the time covered by its child
spans and the leaves run directly inside it.  Span names are
``<layer>.<what>``; the layer is the repro subpackage that owns the
wrapped code.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

__all__ = ["Tracer"]

_perf = time.perf_counter


class _Span:
    __slots__ = (
        "sid", "name", "start", "end", "parent", "cell",
        "child_s", "leaf_at_open", "leaf_s", "child_leaf_s",
    )

    def __init__(self, sid: int, name: str, parent: int | None, leaf_at_open: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.cell: str | None = None
        self.child_s = 0.0
        self.leaf_at_open = leaf_at_open
        self.leaf_s = 0.0
        self.child_leaf_s = 0.0
        self.end = 0.0
        self.start = _perf()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus child spans and the leaves run directly inside."""
        return self.duration - self.child_s - (self.leaf_s - self.child_leaf_s)


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        #: Hot-call totals: name -> [seconds, calls].
        self.leaves: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.counts: Counter[str] = Counter()
        #: One record per finished cell: hash, policy, load, counters.
        self.cells: list[dict[str, Any]] = []
        self._cell_first_span = 0
        self._cell_counts: Counter[str] = Counter()
        self._engines: list[Any] = []
        #: TPC decision stats of the running cluster cell (cluster hook).
        self._cell_tpc: dict[str, float] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._leaf_depth = 0

    # -- spans ---------------------------------------------------------

    def _leaf_total(self) -> float:
        return sum(v[0] for v in self.leaves.values())

    def open(self, name: str) -> _Span:
        parent = self._stack[-1].sid if self._stack else None
        span = _Span(len(self.spans), name, parent, self._leaf_total())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: _Span) -> None:
        span.end = _perf()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.leaf_s = self._leaf_total() - span.leaf_at_open
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.duration
            parent.child_leaf_s += span.leaf_s

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[_Span]:
        """One of the benchmark's own root spans (set-up or timed phase)."""
        self._cell_first_span = len(self.spans)
        self._cell_counts = Counter(self.counts)
        self._engines = []
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- cells ---------------------------------------------------------

    def cell_done(self, event: Any) -> None:
        """Tag spans since the previous cell with the finished cell's hash.

        This is ``run_sweep``'s progress callback; with one worker the
        cells run back to back, so every span recorded between two
        callbacks belongs to the cell the second one reports.
        """
        spec = event.spec
        digest = spec.content_hash
        for span in self.spans[self._cell_first_span:]:
            # Still-open spans (the sweep, the phase root) enclose cells.
            if span.cell is None and span.end:
                span.cell = digest
        self._cell_first_span = len(self.spans)
        counts = Counter(self.counts)
        counts.subtract(self._cell_counts)
        self._cell_counts = Counter(self.counts)
        record: dict[str, Any] = {
            "cell": digest,
            "policy": spec.policy_name,
            "qps": spec.qps,
            "cluster": spec.cluster_config is not None,
            "hedged": spec.hedge_policy is not None,
            "events": sum(e.events_run for e in self._engines),
            "compactions": sum(e.compactions for e in self._engines),
        }
        record.update({k: v for k, v in counts.items() if v})
        if self._cell_tpc:
            record["tpc"] = self._cell_tpc
        self.cells.append(record)
        self._engines = []
        self._cell_tpc = {}

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapped

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        totals = self.leaves[name]

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self._leaf_depth:
                # A leaf inside a leaf is already timed by the outer one.
                totals[1] += 1
                return fn(*args, **kwargs)
            self._leaf_depth = 1
            started = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[0] += _perf() - started
                totals[1] += 1
                self._leaf_depth = 0

        return wrapped

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, make: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._patch(cls, attr, make(raw))

    def _wrap_function(self, fn: Callable, make: Callable) -> None:
        """Rebind ``fn`` in every loaded repro module that imported it."""
        wrapped = make(fn)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.cluster import cluster
        from repro.exec import CellResult, pool
        from repro.experiments import runner
        from repro.policies import registry
        from repro.prediction.features import query_feature_matrix
        from repro.prediction.predictor import ExecutionTimePredictor
        from repro.resilience import cluster as rcluster
        from repro.resilience import runner as rrunner
        from repro.search import workload as sworkload
        from repro.search.calibrate import calibrate_workload
        from repro.search.corpus import build_corpus
        from repro.search.engine import SearchEngine
        from repro.search.index import InvertedIndex
        from repro.search.parallel import ParallelExecutionModel, fit_parallel_model
        from repro.search.query import QueryGenerator
        from repro.sim.client import OpenLoopClient
        from repro.sim.engine import Engine, EventHandle
        from repro.sim.metrics import LatencyRecorder
        from repro.sim.server import Server

        def span(name: str) -> Callable:
            return functools.partial(self._span_wrapper, name)

        def leaf(name: str) -> Callable:
            return functools.partial(self._leaf_wrapper, name)

        def count(name: str) -> Callable:
            return functools.partial(self._count_wrapper, name)

        # search / prediction: the offline workload build (set-up).
        self._wrap_function(sworkload.build_search_workload, span("search.build_workload"))
        self._wrap_function(build_corpus, span("search.corpus"))
        self._wrap_method(InvertedIndex, "__init__", span("search.index"))
        self._wrap_method(QueryGenerator, "generate", span("search.query_generate"))
        self._wrap_method(SearchEngine, "execute", leaf("search.execute"))
        self._wrap_function(calibrate_workload, span("search.calibrate"))
        self._wrap_function(fit_parallel_model, span("search.parallel_fit"))
        self._wrap_method(ParallelExecutionModel, "profile", leaf("search.profiles"))
        self._wrap_function(query_feature_matrix, span("prediction.features"))
        self._wrap_method(ExecutionTimePredictor, "fit", span("prediction.fit"))
        self._wrap_method(ExecutionTimePredictor, "predict", span("prediction.predict"))
        self._wrap_method(ExecutionTimePredictor, "evaluate", span("prediction.evaluate"))

        # exec / experiments / policies: per-cell plumbing.
        self._wrap_function(pool.run_sweep, span("exec.run_sweep"))
        self._wrap_function(pool.memoised_workload, self._memo_wrapper)
        self._wrap_method(CellResult, "from_recorder", span("exec.cell_result"))
        self._wrap_function(rrunner.execute_cluster_cell, span("exec.cluster_cell"))
        self._wrap_function(runner.run_search_experiment, span("experiments.run_search_experiment"))
        self._wrap_method(sworkload.SearchWorkload, "make_requests", span("experiments.make_requests"))
        self._wrap_function(registry.make_policy, span("policies.make_policy"))

        # sim: the event loop and the server.
        self._wrap_method(OpenLoopClient, "schedule_trace", span("sim.schedule_trace"))
        self._wrap_method(Server, "run_to_completion", span("sim.run"))
        self._wrap_method(Engine, "step", leaf("sim.step"))
        self._wrap_method(Engine, "schedule_at", count("sim.schedules"))
        self._wrap_method(Engine, "schedule", count("sim.schedules"))
        self._wrap_method(EventHandle, "cancel", count("sim.cancels"))
        self._wrap_method(Server, "submit", count("sim.submits"))
        self._wrap_method(LatencyRecorder, "summary", span("sim.summary"))
        self._wrap_method(Engine, "__init__", self._engine_init_wrapper)

        # cluster / resilience.
        self._wrap_function(cluster.run_cluster_experiment, self._cluster_wrapper)
        self._wrap_function(rcluster.run_shared_resilient, span("resilience.run"))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers with side effects --------------------------------------

    def _memo_wrapper(self, fn: Callable) -> Callable:
        inner = self._span_wrapper("exec.memoised_workload", fn)

        @functools.wraps(fn)
        def wrapped(spec):
            before = self.calls("search.build_workload")
            result = inner(spec)
            after = self.calls("search.build_workload")
            self.counts["exec.workload_memo_hits" if after == before else "exec.workload_builds"] += 1
            return result

        return wrapped

    def _engine_init_wrapper(self, fn: Callable) -> Callable:
        """Remember each Engine a cell creates, to read its counters."""

        @functools.wraps(fn)
        def wrapped(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            self._engines.append(engine)

        return wrapped

    def _cluster_wrapper(self, fn: Callable) -> Callable:
        """Span around a cluster run plus TPC's per-ISN decision stats."""
        from workloads import tpc_decision_stats

        inner = self._span_wrapper("cluster.run", fn)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            if result.policy_name == "TPC":
                self._cell_tpc = tpc_decision_stats(result.isn_recorders)
            return result

        return wrapped

    # -- reporting -----------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(s.self_s for s in self.spans if s.name == name)

    def layer_self(self, layer: str) -> float:
        """Self time of every span and leaf whose name starts ``layer.``."""
        prefix = layer + "."
        spans = sum(s.self_s for s in self.spans if s.name.startswith(prefix))
        leaves = sum(v[0] for k, v in self.leaves.items() if k.startswith(prefix))
        return spans + leaves

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def accounted_fraction(self, root: str) -> float:
        """Share of a root span's time spent inside wrapped layer code."""
        roots = [s for s in self.spans if s.name == root]
        duration = sum(s.duration for s in roots)
        if duration <= 0:
            return 0.0
        return 1.0 - sum(s.self_s for s in roots) / duration

    def export(self) -> dict[str, Any]:
        """Plain-data dump of every span, leaf total, counter and cell."""
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [
                {
                    "id": s.sid,
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "self_s": s.self_s,
                    "parent": s.parent,
                    "cell": s.cell,
                }
                for s in self.spans
            ],
            "leaves": {k: {"seconds": v[0], "calls": v[1]} for k, v in self.leaves.items()},
            "counts": dict(self.counts),
            "cells": self.cells,
        }

