"""Tests for the unified observability layer (repro.obs)."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.config import (
    PredictorConfig,
    SearchWorkloadConfig,
    ServerConfig,
)
from repro.core.target_table import TargetTable
from repro.errors import ConfigError, SimulationError
from repro.exec import CellSpec, WorkloadSpec, run_cell
from repro.obs import (
    DecisionLog,
    Histogram,
    MetricRegistry,
    Observation,
    RequestInfo,
    SpanCause,
    TailBucket,
    assemble_spans,
    chrome_trace,
    classify_span,
    observe_cell,
    render_tail_report,
    render_timeline,
    slowest_spans,
    tail_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import RequestSpan, Segment
from repro.policies import TPCPolicy
from repro.policies.base import ParallelismPolicy
from repro.sim.engine import Engine
from repro.sim.server import Server
from repro.sim.tracing import attach_tracer

from conftest import LONG_PROFILE, make_request
from test_server import FixedDegreePolicy

TINY_SEARCH = SearchWorkloadConfig(
    num_documents=3_000,
    vocabulary_size=1_500,
    mean_doc_length=120,
    hard_term_pool=150,
    easy_skip_top=15,
)
TINY_TABLE = TargetTable([(0, 40), (8, 65), (16, 90)])


def tiny_cell(policy: str = "TPC", **kwargs) -> CellSpec:
    wspec = WorkloadSpec.search(
        seed=11,
        config=TINY_SEARCH,
        predictor_config=PredictorConfig(num_trees=60, max_depth=4),
        pool_size=1_200,
        use_workload_cache=False,
    )
    kwargs.setdefault("n_requests", 200)
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("target_table", TINY_TABLE)
    return CellSpec.for_experiment(wspec, policy, 300.0, **kwargs)


class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("depth")
        g.set(3.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.max_value == 3.0
        snap = reg.snapshot()
        assert snap["hits"] == 5.0
        assert snap["depth.max"] == 3.0

    def test_get_or_create_returns_same_instance(self):
        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert "x" in reg

    def test_type_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ConfigError, match="already registered"):
            reg.gauge("x")

    def test_histogram_exact_stats(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(10.0)
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == pytest.approx(2.5)
        assert h.quantile(50.0) == pytest.approx(2.5)

    def test_empty_histogram_raises(self):
        h = Histogram("e")
        with pytest.raises(SimulationError, match="empty"):
            h.quantile(50.0)

    def test_scopes_prefix_names(self):
        reg = MetricRegistry()
        isn = reg.scope("isn3")
        isn.counter("completions").inc()
        nested = isn.scope("disk")
        nested.gauge("util").set(0.5)
        assert reg.get("isn3.completions").value == 1
        assert reg.get("isn3.disk.util").value == 0.5
        with pytest.raises(ConfigError):
            reg.scope("")

    def test_to_json_round_trips(self):
        reg = MetricRegistry()
        reg.counter("n").inc(3)
        doc = json.loads(reg.to_json(extra={"policy": "TPC"}))
        assert doc["metrics"]["n"] == 3.0
        assert doc["policy"] == "TPC"


class TestSpans:
    def test_spans_from_real_run(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        for i in range(5):
            server.submit(make_request(i, 10.0 + i))
        server.run_to_completion(5)
        spans = assemble_spans(tracer)
        assert [s.rid for s in spans] == list(range(5))
        for span in spans:
            assert span.cause is SpanCause.COMPLETED
            assert span.initial_degree == 2
            assert span.response_ms >= span.execution_ms >= 0
            assert not span.corrected

    def test_correction_yields_two_segments(self, speedup_book):
        policy = TPCPolicy(TargetTable.constant(40.0), speedup_book)
        server = Server(ServerConfig(), policy, engine=Engine())
        tracer = attach_tracer(server)
        server.submit(
            make_request(0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE)
        )
        server.run_to_completion(1)
        (span,) = assemble_spans(tracer)
        assert span.corrected
        assert span.degree_raises == 1
        assert span.max_degree > span.initial_degree
        # Segments tile dispatch..end without gaps.
        assert span.segments[0].start_ms == span.dispatch_ms
        assert span.segments[0].end_ms == span.segments[1].start_ms
        assert span.segments[-1].end_ms == span.end_ms

    def test_hedge_superseded_cause(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        req = make_request(0, 50.0)
        server.submit(req)
        server.engine.run_until(10.0)
        server.cancel_request(req, cause="hedge-superseded")
        (span,) = assemble_spans(tracer)
        assert span.cause is SpanCause.HEDGE_SUPERSEDED
        assert span.cause.terminal

    def test_open_span_when_truncated(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        server.submit(make_request(0, 50.0))
        server.engine.run_until(10.0)  # still running: no terminal event
        (span,) = assemble_spans(tracer)
        assert span.cause is SpanCause.OPEN
        assert not span.cause.terminal
        with pytest.raises(SimulationError, match="open"):
            span.response_ms

    def test_slowest_spans_skips_open(self):
        done = RequestSpan(
            rid=0,
            arrival_ms=0.0,
            dispatch_ms=1.0,
            end_ms=9.0,
            cause=SpanCause.COMPLETED,
            segments=(Segment(1.0, 9.0, 2),),
        )
        still_open = dataclasses.replace(
            done, rid=1, end_ms=None, cause=SpanCause.OPEN
        )
        assert slowest_spans([done, still_open], n=2) == [done]


def _span(rid, queue_ms, run_ms, corrected=False):
    dispatch = queue_ms
    end = queue_ms + run_ms
    if corrected:
        segments = (
            Segment(dispatch, dispatch + run_ms / 2, 2),
            Segment(dispatch + run_ms / 2, end, 4),
        )
    else:
        segments = (Segment(dispatch, end, 2),)
    return RequestSpan(
        rid=rid,
        arrival_ms=0.0,
        dispatch_ms=dispatch,
        end_ms=end,
        cause=SpanCause.COMPLETED,
        segments=segments,
    )


class TestAttribution:
    def test_classify_buckets(self):
        good = RequestInfo(predicted_ms=50.0, demand_ms=50.0)
        under = RequestInfo(predicted_ms=10.0, demand_ms=60.0)
        assert (
            classify_span(_span(0, 30.0, 10.0), good) is TailBucket.QUEUEING
        )
        assert (
            classify_span(_span(1, 0.0, 60.0), under)
            is TailBucket.MISPREDICTED_DEGREE
        )
        assert (
            classify_span(_span(2, 0.0, 60.0, corrected=True), under)
            is TailBucket.CORRECTION_TOO_LATE
        )
        assert (
            classify_span(_span(3, 0.0, 60.0), good) is TailBucket.INHERENT
        )
        # No ground truth: everything non-queueing is inherent.
        assert classify_span(_span(4, 0.0, 60.0), None) is TailBucket.INHERENT

    def test_tail_report_counts_sum(self):
        spans = [_span(i, 0.0, float(10 + i)) for i in range(100)]
        report = tail_report(spans, percentiles=(90.0,))
        s = report.slice_at(90.0)
        assert report.n_completed == 100
        assert sum(s.counts.values()) == s.n_tail
        assert s.n_tail >= 10
        with pytest.raises(SimulationError):
            report.slice_at(50.0)

    def test_tail_report_empty(self):
        report = tail_report([])
        assert report.n_completed == 0
        assert "nothing to attribute" in render_tail_report(report)

    def test_render_names_buckets(self):
        spans = [_span(i, 30.0 if i > 95 else 0.0, 10.0) for i in range(100)]
        text = render_tail_report(tail_report(spans, percentiles=(95.0,)))
        assert "queueing" in text
        assert "P95" in text

    def test_decision_log_on_real_tpc_run(self, speedup_book):
        policy = TPCPolicy(TargetTable.constant(40.0), speedup_book)
        log = DecisionLog()
        policy.observer = log
        server = Server(ServerConfig(), policy, engine=Engine())
        server.submit(
            make_request(0, 200.0, predicted_ms=10.0, profile=LONG_PROFILE)
        )
        server.run_to_completion(1)
        decision = log.dispatch_for(0)
        assert decision is not None
        assert decision.predicted_ms == 10.0
        assert decision.demand_ms == 200.0
        assert decision.target_ms == pytest.approx(40.0)
        checks = log.checks_for(0)
        assert checks, "TPC should have run a correction check"
        assert log.corrections_fired >= 1
        fired = [c for c in checks if c.new_degree is not None]
        assert fired[0].elapsed_ms == pytest.approx(40.0, abs=1.0)
        (ratio,) = log.misprediction_ratios()
        assert ratio == pytest.approx(20.0)

    def test_policy_observer_defaults_to_none(self):
        assert ParallelismPolicy.observer is None


class TestChromeTrace:
    def _trace_doc(self):
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        tracer = attach_tracer(server)
        for i in range(4):
            server.submit(make_request(i, 10.0 + 5 * i))
        victim = make_request(4, 100.0)
        server.submit(victim)
        server.engine.run_until(5.0)
        server.cancel_request(victim, cause="hedge-superseded")
        server.run_to_completion(4)
        return chrome_trace(
            assemble_spans(tracer), metrics={"completions": 4.0}
        )

    def test_document_is_json_and_balanced(self, tmp_path):
        doc = self._trace_doc()
        n = validate_chrome_trace(doc)
        assert n == len(doc["traceEvents"])
        path = tmp_path / "trace.json"
        with open(path, "w", encoding="utf-8") as fp:
            write_chrome_trace(fp, doc)
        loaded = json.load(open(path, encoding="utf-8"))
        assert validate_chrome_trace(loaded) == n
        assert loaded["metrics"] == {"completions": 4.0}

    def test_cancellation_gets_instant_marker(self):
        doc = self._trace_doc()
        instants = [
            e for e in doc["traceEvents"] if e["ph"] == "i"
        ]
        assert len(instants) == 1
        assert instants[0]["args"]["cause"] == "hedge-superseded"

    def test_timestamps_monotone_per_thread(self):
        doc = self._trace_doc()
        last = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, float("-inf"))
            last[key] = event["ts"]

    def test_rejects_unbalanced_begin(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0}
            ]
        }
        with pytest.raises(SimulationError, match="unbalanced"):
            validate_chrome_trace(doc)

    def test_rejects_mismatched_end(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0},
                {"name": "b", "ph": "E", "ts": 1, "pid": 0, "tid": 0},
            ]
        }
        with pytest.raises(SimulationError, match="nesting"):
            validate_chrome_trace(doc)

    def test_rejects_backwards_timestamps(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "B", "ts": 5, "pid": 0, "tid": 0},
                {"name": "a", "ph": "E", "ts": 1, "pid": 0, "tid": 0},
            ]
        }
        with pytest.raises(SimulationError, match="backwards"):
            validate_chrome_trace(doc)

    def test_rejects_non_document(self):
        with pytest.raises(SimulationError):
            validate_chrome_trace([1, 2, 3])

    def test_render_timeline_shows_phases(self):
        span = _span(7, queue_ms=10.0, run_ms=20.0, corrected=True)
        text = render_timeline(span, width=30)
        assert "rid 7" in text
        assert "queued" in text
        assert "d=2" in text and "d=4" in text
        assert "#" in text and "." in text


class TestObservation:
    def test_observed_run_metrics_match_trace(self, speedup_book):
        policy = TPCPolicy(TargetTable.constant(40.0), speedup_book)
        obs = Observation()
        server = Server(ServerConfig(), policy, engine=Engine())
        obs.attach(server)
        for i in range(10):
            server.submit(
                make_request(
                    i, 30.0 + 10 * i, predicted_ms=30.0, profile=LONG_PROFILE
                )
            )
        server.run_to_completion(10)
        snap = obs.registry.snapshot()
        assert snap["arrivals"] == 10.0
        assert snap["completions"] == 10.0
        assert snap["response_ms.count"] == 10.0
        assert server.policy.observer is obs.decisions
        assert len(obs.decisions.dispatches) == 10
        info = obs.request_info
        assert len(info) == 10
        assert info[0].predicted_ms == 30.0
        report = obs.tail_report(percentiles=(50.0,))
        assert report.n_completed == 10

    def test_named_scope_prefixes_metrics(self):
        obs = Observation()
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        obs.attach(server, name="isn0")
        server.submit(make_request(0, 10.0))
        server.run_to_completion(1)
        snap = obs.registry.snapshot()
        assert snap["isn0.completions"] == 1.0
        assert obs.attached_servers == 1

    def test_cancellation_metrics(self):
        obs = Observation()
        server = Server(
            ServerConfig(), FixedDegreePolicy(2), engine=Engine()
        )
        obs.attach(server)
        req = make_request(0, 50.0)
        server.submit(req)
        server.engine.run_until(5.0)
        server.cancel_request(req, cause="blackout")
        snap = obs.registry.snapshot()
        assert snap["cancellations"] == 1.0
        assert snap["cancelled.blackout"] == 1.0
        assert snap["completions"] == 0.0

    def test_extras_keys(self):
        obs = Observation()
        extras = obs.extras()
        for key in (
            "obs.events_traced",
            "obs.events_dropped",
            "obs.dispatch_decisions",
            "obs.correction_checks",
            "obs.corrections_fired",
        ):
            assert key in extras


class TestObserveCell:
    @pytest.fixture(scope="class")
    def observed_pair(self):
        spec = tiny_cell()
        return spec, run_cell(spec), observe_cell(spec)

    def test_bit_identical_to_run_cell(self, observed_pair):
        _, plain, (observed, _) = observed_pair
        for f in dataclasses.fields(plain):
            a = getattr(plain, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, getattr(observed, f.name)), f.name
        assert plain.summary.p99_ms == observed.summary.p99_ms

    def test_extras_and_trace_populated(self, observed_pair):
        spec, _, (observed, obs) = observed_pair
        assert observed.extras["obs.events_traced"] == len(obs.tracer)
        assert observed.extras["obs.events_dropped"] == 0.0
        obs.tracer.validate()
        spans = obs.spans()
        assert len(spans) == spec.n_requests
        doc = obs.chrome_trace()
        assert validate_chrome_trace(doc) > 0
        assert "metrics" in doc
        buf = io.StringIO()
        write_chrome_trace(buf, doc)
        json.loads(buf.getvalue())

    def test_cluster_cells_rejected(self):
        class FakeClusterSpec:
            cluster_config = object()

        with pytest.raises(ConfigError, match="single-server"):
            observe_cell(FakeClusterSpec())


class TestOverheadScenario:
    def test_tracing_overhead_scenario(self, monkeypatch):
        from repro.gate import throughput

        # One bare and one observed run: this checks the pairing, not
        # the penalty's size.
        monkeypatch.setattr(throughput, "MIN_WINDOW_S", 0.0)
        result = throughput.run_tracing_overhead(1_500, seed=93)
        assert len(result.bare.repeats) == len(result.observed.repeats) == 1
        assert result.bare.repeats[0][0] == result.observed.repeats[0][0]
        assert result.events_traced == 3 * 1_500
        assert result.observed.rate > 0
        assert result.penalty < 1.0

    def test_scenario_registered(self, monkeypatch):
        import dataclasses

        from repro.gate import scale_for_mode, throughput

        # The tracing penalty is one of perf_budget's measurements.
        monkeypatch.setattr(throughput, "MIN_WINDOW_S", 0.0)
        scale = dataclasses.replace(
            scale_for_mode("fast"),
            engine_only_events=500,
            hotpath_requests=300,
            end_to_end_requests=50,
        )
        metrics = {m.metric for m in throughput.throughput_measurements(scale)}
        assert "tracing_penalty" in metrics


class TestCli:
    def test_cli_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "trace.json"
        code = main(
            ["--n-requests", "150", "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        doc = json.load(open(out, encoding="utf-8"))
        assert validate_chrome_trace(doc) > 0
        printed = capsys.readouterr().out
        assert "Tail attribution" in printed
        assert "chrome trace written" in printed

    def test_cli_rejects_unknown_policy(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        out = tmp_path / "trace.json"
        code = main(
            ["--policy", "NOPE", "--n-requests", "50", "--output", str(out)]
        )
        assert code == 2
