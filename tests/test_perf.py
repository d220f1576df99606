"""Tests for the throughput half of the gate: the ``perf_budget``
scenarios, their ≥1 s windows, and the throughput baseline as the gate
CLI reads and writes it."""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.artifacts import (
    baseline_mode,
    baseline_path,
    load_baseline,
    merge_baseline,
    write_json,
)
from repro.errors import ConfigError
from repro.gate import CHECKS, check_names, run_gate, throughput
from repro.gate.__main__ import main as gate_main
from repro.gate.bands import evaluate_measurement
from repro.gate.checks import _SCALES, scale_for_mode
from repro.gate.runner import BASELINE_FILENAME, baseline_metrics
from repro.gate.throughput import (
    REGRESSION_FLOOR,
    autorange,
    peak_rss_mb,
    profile_scenarios,
    run_engine_only,
    run_hotpath_benchmark,
    throughput_measurements,
)
from repro.obs import Observation

#: The banded throughput metrics of ``perf_budget``.
THROUGHPUT_METRICS = {
    "engine_only_events_per_s",
    "hotpath_events_per_s",
    "end_to_end_cell_requests_per_s",
}


def _tiny(mode: str):
    """A gate scale whose throughput scenarios take well under a second."""
    return dataclasses.replace(
        scale_for_mode(mode),
        engine_only_events=2_000,
        hotpath_requests=500,
        end_to_end_requests=50,
    )


@pytest.fixture
def tiny_scales(monkeypatch):
    """Both gate modes run the tiny throughput scenarios."""
    for mode in ("fast", "full"):
        monkeypatch.setitem(_SCALES, mode, _tiny(mode))


@pytest.fixture
def one_second_runs(monkeypatch):
    """Every timed scenario run reads exactly one second.

    Each scenario then runs once per window and its throughput is its
    work count, so a baseline taken from one run fits the next exactly.
    """
    ticks = itertools.count()
    monkeypatch.setattr(throughput, "perf_counter", lambda: float(next(ticks)))


@pytest.fixture(scope="module")
def tiny_measurements():
    """``perf_budget``'s measurements at the tiny scale, one repeat each."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(throughput, "MIN_WINDOW_S", 0.0)
        return throughput_measurements(_tiny("fast"))


def _own_baseline(measurements) -> dict[str, float]:
    return {m.metric: float(m.value) for m in measurements if m.baseline_key}


def _failures(measurements, baselines) -> set[str]:
    return {
        m.metric
        for m in measurements
        if not evaluate_measurement(m, baselines=baselines).passed
    }


def _cli_args(tmp_path, baseline) -> list[str]:
    return [
        "--fast",
        "--only",
        "perf_budget",
        "--quiet",
        "--no-cache",
        "--output",
        str(tmp_path / "BENCH_gate.json"),
        "--baselines",
        str(baseline),
    ]


class TestScenarioRegistry:
    def test_registered_scenarios(self):
        assert "perf_budget" in check_names()
        fast, full = scale_for_mode("fast"), scale_for_mode("full")
        # The throughput check simulates no cells of its own: every
        # scenario is timed live, sized by the mode's scale.
        assert CHECKS["perf_budget"].cells(fast) == ()
        assert fast.hotpath_requests < full.hotpath_requests
        assert fast.engine_only_events < full.engine_only_events
        assert fast.end_to_end_requests < full.end_to_end_requests

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        args = ["--fast", "--only", "warp_drive", "--quiet", "--no-cache"]
        args += ["--output", str(tmp_path / "BENCH_gate.json")]
        assert gate_main(args) == 2
        assert "warp_drive" in capsys.readouterr().err


class TestScenarios:
    def test_engine_only_deterministic_and_compacting(self):
        a, _ = run_engine_only(2_000, seed=93)
        b, _ = run_engine_only(2_000, seed=93)
        assert a.events_run == b.events_run == 2_000
        assert a.compactions == b.compactions >= 1

    def test_server_under_load_matches_gate_benchmark(self):
        # The committed baselines pin the hot path's exact event count
        # at each mode's size and seed.
        document = load_baseline(baseline_path(BASELINE_FILENAME))
        for mode in ("fast", "full"):
            scale = scale_for_mode(mode)
            engine, _ = run_hotpath_benchmark(scale.hotpath_requests, scale.seed)
            pinned = baseline_mode(document, mode)["hotpath_events_run"]
            assert engine.events_run == pinned, mode

    def test_server_under_load_event_count_deterministic(self):
        # Tracing observes the run; it must not change its event trace.
        bare, _ = run_hotpath_benchmark(1_000, seed=11)
        again, _ = run_hotpath_benchmark(1_000, seed=11)
        observed, _ = run_hotpath_benchmark(1_000, seed=11, observation=Observation())
        assert bare.events_run == again.events_run == observed.events_run


class TestRunner:
    def test_best_of_repeats(self, monkeypatch):
        monkeypatch.setattr(throughput, "MIN_WINDOW_S", 1.0)
        calls = []

        def first():
            calls.append("first")
            return 10.0, 0.3

        def second():
            calls.append("second")
            return 10.0, 0.5

        a, b = autorange(first, second)
        # 0.3 s per repeat of the first run: four fill the window, and
        # the second run alternates with it, one repeat per repeat.
        assert calls == ["first", "second"] * 4
        assert a.repeats == ((10.0, 0.3),) * 4
        assert len(b.repeats) == 4
        assert a.rate == pytest.approx(40.0 / 1.2)
        assert b.rates == [pytest.approx(20.0)] * 4

    def test_rejects_zero_repeats(self, monkeypatch):
        # An empty window still takes one repeat: no reading is ever
        # made of zero runs.
        monkeypatch.setattr(throughput, "MIN_WINDOW_S", 0.0)
        (window,) = autorange(lambda: (10.0, 0.0))
        assert window.repeats == ((10.0, 0.0),)

    def test_profile_dump(self, tmp_path):
        import pstats

        written = profile_scenarios(_tiny("fast"), str(tmp_path / "prof"))
        assert [p.rsplit(".", 1)[1] for p in written] == [
            "engine_only",
            "hotpath",
            "hotpath_observed",
            "end_to_end_cell",
        ]
        for path in written:
            assert pstats.Stats(path).total_calls > 0

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_mb() > 0.0


class TestReportAndBaseline:
    def test_report_schema(self, tmp_path, tiny_scales, one_second_runs):
        report = run_gate(
            mode="fast", only=["perf_budget"], baselines={}, use_cache=False
        )
        document = json.loads(report.write(tmp_path / "BENCH_gate.json").read_text())
        assert document["schema_version"] == 1
        assert document["generated_by"] == "repro.gate"
        assert document["mode"] == "fast"
        (entry,) = document["checks"]
        values = {m["metric"]: m["value"] for m in entry["measurements"]}
        scale = _tiny("fast")
        assert values["engine_only_events_per_s"] == scale.engine_only_events
        assert values["end_to_end_cell_requests_per_s"] == scale.end_to_end_requests
        assert values["hotpath_events_per_s"] == values["hotpath_events_run"]
        assert values["peak_rss_mb"] > 0.0
        assert THROUGHPUT_METRICS <= set(baseline_metrics(report))

    def test_baseline_roundtrip_and_mode_isolation(
        self, tmp_path, tiny_scales, one_second_runs
    ):
        path = tmp_path / "gate_baseline.json"
        assert load_baseline(path) is None
        fast = _cli_args(tmp_path, path) + ["--update-baselines"]
        full = ["--full"] + fast[1:]
        assert gate_main(fast) == 0
        assert gate_main(full) == 0
        document = load_baseline(path)
        assert set(document["modes"]) == {"fast", "full"}
        # Updating one mode must not clobber the other.
        write_json(merge_baseline(document, "full", {"x": 1.0}), path)
        assert gate_main(fast) == 0
        assert baseline_mode(load_baseline(path), "full") == {"x": 1.0}
        assert THROUGHPUT_METRICS <= set(baseline_mode(load_baseline(path), "fast"))

    def test_no_regression_against_own_baseline(self, tiny_measurements):
        baselines = _own_baseline(tiny_measurements)
        assert THROUGHPUT_METRICS <= set(baselines)
        assert _failures(tiny_measurements, baselines) == set()

    def test_regression_detected(self, tiny_measurements):
        baselines = _own_baseline(tiny_measurements)
        baselines["engine_only_events_per_s"] *= 100.0
        assert _failures(tiny_measurements, baselines) == {"engine_only_events_per_s"}
        # The floor sits exactly 30 % below the baseline.
        baselines = _own_baseline(tiny_measurements)
        baselines["engine_only_events_per_s"] /= REGRESSION_FLOOR - 0.01
        assert _failures(tiny_measurements, baselines) == {"engine_only_events_per_s"}
        baselines["engine_only_events_per_s"] *= (REGRESSION_FLOOR - 0.01) / (
            REGRESSION_FLOOR + 0.01
        )
        assert _failures(tiny_measurements, baselines) == set()

    def test_missing_baseline_entries_skipped(self, tiny_measurements):
        for baselines in (None, {}, {"unrelated_metric": 10.0**12}):
            assert _failures(tiny_measurements, baselines) == set()
        for m in tiny_measurements:
            if m.metric in THROUGHPUT_METRICS:
                evaluated = evaluate_measurement(m, baselines={})
                assert evaluated.note == "no baseline; relative bounds skipped"

    def test_corrupt_baseline_rejected(self, tmp_path, capsys):
        path = tmp_path / "gate_baseline.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_baseline(path)
        assert gate_main(_cli_args(tmp_path, path)) == 2
        assert "gate error" in capsys.readouterr().err


class TestCli:
    def test_cli_smoke_update_and_gate(self, tmp_path, tiny_scales, one_second_runs):
        baseline = tmp_path / "gate_baseline.json"
        args = _cli_args(tmp_path, baseline)
        assert gate_main(args + ["--update-baselines"]) == 0
        assert baseline.exists()
        assert gate_main(args) == 0
        report = json.loads((tmp_path / "BENCH_gate.json").read_text())
        assert report["baselines_used"] is True
        assert [c["name"] for c in report["checks"]] == ["perf_budget"]

    def test_cli_fails_on_regression(self, tmp_path, tiny_scales, one_second_runs):
        baseline = tmp_path / "gate_baseline.json"
        args = _cli_args(tmp_path, baseline)
        assert gate_main(args + ["--update-baselines"]) == 0
        document = load_baseline(baseline)
        document["modes"]["fast"]["engine_only_events_per_s"] *= 100.0
        write_json(document, baseline)
        assert gate_main(args) == 1

    def test_default_baseline_found_from_any_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        document = load_baseline(baseline_path(BASELINE_FILENAME))
        assert set(document["modes"]) == {"fast", "full"}
        for mode in ("fast", "full"):
            assert THROUGHPUT_METRICS <= set(document["modes"][mode])

    def test_cli_outside_repo_root_fails_on_doctored_default_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # Run from a directory with no benchmarks/ tree: the default
        # baseline must still be found (here: a doctored copy the
        # source-tree resolution points at) and the run must fail on
        # the doctored metric.  Real clock, one repeat per scenario.
        monkeypatch.setattr(throughput, "MIN_WINDOW_S", 0.0)
        document = load_baseline(baseline_path(BASELINE_FILENAME))
        document["modes"]["fast"]["engine_only_events_per_s"] *= 100.0
        doctored = tmp_path / "baselines"
        write_json(document, doctored / BASELINE_FILENAME)
        monkeypatch.setattr("repro.artifacts.BASELINE_DIR", doctored)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        args = ["--fast", "--only", "perf_budget", "--quiet", "--no-cache"]
        args += ["--output", str(tmp_path / "BENCH_gate.json")]
        assert gate_main(args) == 1
        assert "engine_only_events_per_s" in capsys.readouterr().out

    def test_cli_says_when_nothing_was_compared(
        self, tmp_path, tiny_scales, one_second_runs, capsys
    ):
        args = _cli_args(tmp_path, tmp_path / "absent.json")
        assert gate_main(args) == 0
        assert "relative bounds skipped" in capsys.readouterr().out
        report = json.loads((tmp_path / "BENCH_gate.json").read_text())
        assert report["baselines_used"] is False
