"""Integration tests for ``repro.gate``: cold/warm execution through
the exec cache, the perturbation self-test, the JSON artifact, the
throughput gate, and the CLI surface."""

from __future__ import annotations

import itertools
import json
import time

import pytest

from repro.artifacts import (
    baseline_mode,
    baseline_path,
    load_baseline,
    merge_baseline,
    write_json,
)
from repro.errors import ConfigError
from repro.exec import ResultCache, pool
from repro.gate import CHECKS, check_names, run_gate, scale_for_mode, throughput
from repro.gate.checks import build_phase_measurements
from repro.gate.__main__ import main as gate_main
from repro.gate.runner import BASELINE_FILENAME, baseline_metrics, select_checks

#: Generous ceiling for the fast gate with a cold cache (the CI job
#: budget is 30 minutes; a healthy run is well under one).
FAST_COLD_BUDGET_S = 600.0


#: The banded throughput metrics of ``perf_budget``.
THROUGHPUT_METRICS = {
    "engine_only_events_per_s",
    "hotpath_events_per_s",
    "end_to_end_cell_requests_per_s",
}


@pytest.fixture(scope="module", autouse=True)
def one_second_runs():
    """Every timed throughput run reads exactly one second.

    Each scenario then runs once per gate run (the window is one
    second), and throughput readings are exact work counts, so a
    baseline taken from one run fits the next bit for bit.  Tests of
    real throughput restore the real clock.
    """
    ticks = itertools.count()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(throughput, "perf_counter", lambda: float(next(ticks)))
        yield


def _statuses(report_path) -> dict[str, str]:
    document = json.loads(report_path.read_text())
    return {c["name"]: c["status"] for c in document["checks"]}


def _violations(report_path, check: str) -> set[str]:
    document = json.loads(report_path.read_text())
    (entry,) = [c for c in document["checks"] if c["name"] == check]
    return {m["metric"] for m in entry["measurements"] if not m["passed"]}


@pytest.fixture(scope="module")
def gate_cache(tmp_path_factory):
    """A fresh exec cache shared by the cold and warm runs below."""
    return ResultCache(tmp_path_factory.mktemp("gate-exec-cache"))


@pytest.fixture(scope="module")
def cold_report(gate_cache):
    """One cold fast-mode gate run (the expensive fixture)."""
    return run_gate(mode="fast", cache=gate_cache, baselines={}, workers=1)


@pytest.fixture(scope="module")
def warm_report(gate_cache, cold_report):
    """The same gate run again over the now-warm cache."""
    return run_gate(mode="fast", cache=gate_cache, baselines={}, workers=1)


class TestColdRun:
    def test_fast_mode_passes_under_ci_budget(self, cold_report):
        assert cold_report.status == "pass", cold_report.render_summary()
        assert cold_report.total_wall_time_s < FAST_COLD_BUDGET_S
        # Cold means every cell was simulated, none served from cache.
        assert cold_report.cells_from_cache == 0
        assert cold_report.cells_executed == cold_report.cells_total > 0

    def test_every_registered_check_ran(self, cold_report):
        assert [c.name for c in cold_report.checks] == check_names()
        assert all(c.measurements for c in cold_report.checks)

    def test_report_artifact_roundtrip(self, cold_report, tmp_path):
        path = cold_report.write(tmp_path / "BENCH_gate.json")
        document = json.loads(path.read_text())
        assert document["schema_version"] == 1
        assert document["generated_by"] == "repro.gate"
        assert document["mode"] == "fast"
        assert document["status"] == "pass"
        assert document["counts"]["failed"] == 0
        assert document["timing"]["cells_total"] == cold_report.cells_total
        assert {c["name"] for c in document["checks"]} == set(check_names())
        for check in document["checks"]:
            for m in check["measurements"]:
                assert isinstance(m["passed"], bool)
                assert isinstance(m["value"], float)

    def test_baseline_metrics_extracted(self, cold_report):
        metrics = baseline_metrics(cold_report)
        assert "tpc_p99@450" in metrics
        assert "hotpath_events_run" in metrics
        assert THROUGHPUT_METRICS <= set(metrics)
        assert all(isinstance(v, float) for v in metrics.values())

    def test_perf_budget_reports_throughput_windows(self, cold_report):
        values = {
            m.metric: m.value for m in cold_report.check("perf_budget").measurements
        }
        scale = scale_for_mode("fast")
        # One-second runs: each rate is its scenario's work count.
        assert values["hotpath_events_run"] == 12_472
        assert values["hotpath_events_per_s"] == 12_472
        assert values["engine_only_events_per_s"] == scale.engine_only_events
        assert (
            values["end_to_end_cell_requests_per_s"] == scale.end_to_end_requests
        )
        for name in ("hotpath", "engine_only", "end_to_end_cell"):
            assert values[f"{name}_repeats"] == 1
            assert values[f"{name}_spread"] == 1.0
        assert values["tracing_penalty"] == 0.0
        assert values["peak_rss_mb"] > 0.0
        # Inline cells built the canonical workload in this process.
        phases = {"profiles", "predictor_fit", "predictor_predict"}
        assert {f"build_{phase}_s" for phase in phases} <= set(values)

    def test_build_phases_absent_without_an_in_process_build(self, monkeypatch):
        monkeypatch.setattr(pool, "_WORKLOAD_MEMO", {})
        assert build_phase_measurements() == []


class TestWarmRun:
    def test_warm_rerun_is_served_from_cache(self, warm_report, cold_report):
        warm = warm_report
        assert warm.status == "pass"
        assert warm.cells_from_cache == warm.cells_total
        assert warm.cells_executed == 0
        assert warm.payload_hits >= 1  # the cluster probe
        # Near-free: no simulation beyond the always-live perf check.
        assert warm.total_wall_time_s < 0.5 * cold_report.total_wall_time_s

    def test_warm_numbers_identical_to_cold(self, warm_report, cold_report):
        warm = warm_report
        for name in ("demand_distribution", "policy_ordering_p99"):
            cold_values = {
                m.metric: m.value for m in cold_report.check(name).measurements
            }
            warm_values = {
                m.metric: m.value for m in warm.check(name).measurements
            }
            assert warm_values == cold_values


class TestPerturbation:
    def test_perturbed_metric_fails_exactly_its_check(
        self, gate_cache, cold_report
    ):
        """The acceptance self-test: +30% on TPC's p99 ratio violates
        the p99 ordering band and nothing else."""
        report = run_gate(
            mode="fast",
            cache=gate_cache,
            baselines={},
            workers=1,
            perturb={"p99_ratio@450:TPC/TP": 1.3},
        )
        assert report.status == "fail"
        statuses = {c.name: c.status for c in report.checks}
        assert statuses["policy_ordering_p99"] == "fail"
        assert all(
            status == "pass"
            for name, status in statuses.items()
            if name != "policy_ordering_p99"
        ), statuses
        violations = report.check("policy_ordering_p99").violations
        assert [v.metric for v in violations] == ["p99_ratio@450:TPC/TP"]
        # The report names the violated band.
        assert "1.08" in violations[0].describe()
        assert violations[0].perturbed

    def test_only_restricts_and_validates_names(self, gate_cache):
        report = run_gate(
            mode="fast",
            only=["perf_budget"],
            cache=gate_cache,
            baselines={},
            workers=1,
        )
        assert [c.name for c in report.checks] == ["perf_budget"]
        assert report.cells_total == 0
        with pytest.raises(ConfigError):
            select_checks(["no_such_check"])


class TestScales:
    def test_modes_are_registered(self):
        fast, full = scale_for_mode("fast"), scale_for_mode("full")
        assert fast.n_requests < full.n_requests
        assert fast.qps_grid == full.qps_grid
        with pytest.raises(ConfigError):
            scale_for_mode("medium")

    def test_checks_declare_dedupable_cells(self):
        scale = scale_for_mode("fast")
        hashes: set[str] = set()
        for check in CHECKS.values():
            for cell in check.cells(scale):
                hashes.add(cell.content_hash)
        # The ordering checks share their 12-cell grid and every other
        # cell-driven check reuses a subset of it.
        assert len(hashes) == 12


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert gate_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in check_names():
            assert name in out

    def test_bad_perturb_is_usage_error(self, capsys):
        assert gate_main(["--perturb", "nonsense"]) == 2

    def test_mutually_exclusive_modes(self):
        with pytest.raises(SystemExit):
            gate_main(["--fast", "--full"])

    def test_update_keeps_other_mode_and_says_when_bounds_skipped(
        self, tmp_path, gate_cache, capsys
    ):
        path = tmp_path / "baseline.json"
        write_json(merge_baseline(None, "full", {"x": 1.0}), path)
        args = ["--fast", "--only", "tpc_tail_budget", "--workers", "1"]
        args += ["--cache-dir", str(gate_cache.directory), "--quiet"]
        args += ["--output", str(tmp_path / "BENCH_gate.json")]
        assert gate_main(args + ["--baselines", str(path), "--update-baselines"]) == 0
        assert "relative bounds skipped" in capsys.readouterr().out
        document = load_baseline(path)
        assert baseline_mode(document, "full") == {"x": 1.0}
        assert "tpc_p99@450" in baseline_mode(document, "fast")
        assert gate_main(args + ["--baselines", str(path)]) == 0
        assert "relative bounds skipped" not in capsys.readouterr().out


class TestThroughputGate:
    def _args(self, tmp_path, gate_cache) -> list[str]:
        return [
            "--fast",
            "--workers",
            "1",
            "--cache-dir",
            str(gate_cache.directory),
            "--output",
            str(tmp_path / "BENCH_gate.json"),
            "--quiet",
        ]

    def test_perturbed_throughput_fails_exactly_perf_budget(
        self, tmp_path, gate_cache, cold_report
    ):
        # One-second runs make the cold run's readings this run's too.
        path = tmp_path / "baseline.json"
        write_json(merge_baseline(None, "fast", baseline_metrics(cold_report)), path)
        args = self._args(tmp_path, gate_cache) + ["--baselines", str(path)]
        assert gate_main(args + ["--perturb", "hotpath_events_per_s=0.6"]) == 1
        report = tmp_path / "BENCH_gate.json"
        statuses = _statuses(report)
        assert statuses.pop("perf_budget") == "fail"
        assert set(statuses.values()) == {"pass"}, statuses
        assert _violations(report, "perf_budget") == {"hotpath_events_per_s"}

    def test_doctored_default_baseline_fails_exactly_perf_budget(
        self, tmp_path, gate_cache, monkeypatch
    ):
        # Real clock, one repeat each: a hundredfold baseline fails on
        # any machine, and a missed regression would show here.
        monkeypatch.setattr(throughput, "perf_counter", time.perf_counter)
        monkeypatch.setattr(throughput, "MIN_WINDOW_S", 0.0)
        document = load_baseline(baseline_path(BASELINE_FILENAME))
        for metric in THROUGHPUT_METRICS:
            document["modes"]["fast"][metric] *= 100.0
        doctored = tmp_path / "baselines"
        write_json(document, doctored / BASELINE_FILENAME)
        monkeypatch.setattr("repro.artifacts.BASELINE_DIR", doctored)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert gate_main(self._args(tmp_path, gate_cache)) == 1
        report = tmp_path / "BENCH_gate.json"
        statuses = _statuses(report)
        assert statuses.pop("perf_budget") == "fail"
        assert set(statuses.values()) == {"pass"}, statuses
        assert THROUGHPUT_METRICS <= _violations(report, "perf_budget")
