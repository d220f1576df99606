"""Tests for the perf benchmark harness (repro.perf)."""

import json

import pytest

from repro.artifacts import load_baseline, write_json
from repro.errors import ConfigError
from repro.perf import (
    HOTPATH_SEED,
    SCENARIOS,
    build_report,
    compare_to_baseline,
    run_scenario,
    scenario,
    update_baseline,
)
from repro.perf.runner import peak_rss_kb
from repro.perf.scenarios import run_engine_only, run_server_under_load


class TestScenarioRegistry:
    def test_registered_scenarios(self):
        assert set(SCENARIOS) == {
            "engine_only",
            "server_under_load",
            "tracing_overhead",
            "end_to_end_cell",
        }
        for spec in SCENARIOS.values():
            assert spec.fast_size < spec.full_size

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            scenario("warp_drive")


class TestScenarios:
    def test_engine_only_deterministic_and_compacting(self):
        a = run_engine_only(2_000)
        b = run_engine_only(2_000)
        assert a["events_run"] == b["events_run"] == 2_000
        assert a["compactions"] >= 1

    def test_server_under_load_matches_gate_benchmark(self):
        # The gate's perf_budget check imports this exact function, so
        # seed and event count must line up with the gate's pinning.
        from repro.gate.checks import GATE_SEED, run_hotpath_benchmark

        assert GATE_SEED == HOTPATH_SEED
        assert run_hotpath_benchmark is not None
        metrics = run_server_under_load(500)
        direct = run_hotpath_benchmark(500)
        assert metrics["events_run"] == float(direct.events_run)

    def test_server_under_load_event_count_deterministic(self):
        a = run_server_under_load(1_000)
        b = run_server_under_load(1_000)
        assert a["events_run"] == b["events_run"]


class TestRunner:
    def test_best_of_repeats(self):
        run = run_scenario(scenario("engine_only"), 1_000, repeats=3)
        assert run.repeats == 3
        assert len(run.all_wall_times_s) == 3
        assert run.metrics["wall_time_s"] == min(run.all_wall_times_s)
        assert run.peak_rss_kb > 0.0

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_scenario(scenario("engine_only"), 100, repeats=0)

    def test_profile_dump(self, tmp_path):
        prof = tmp_path / "engine.prof"
        run_scenario(
            scenario("engine_only"), 500, repeats=1, profile_path=str(prof)
        )
        import pstats

        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_kb() > 0.0


class TestReportAndBaseline:
    def _report(self, fast=True):
        runs = [
            run_scenario(scenario("engine_only"), 1_000, repeats=1),
            run_scenario(scenario("server_under_load"), 300, repeats=1),
        ]
        return build_report(runs, fast=fast)

    def test_report_schema(self, tmp_path):
        report = self._report()
        assert report["mode"] == "fast"
        entry = report["scenarios"]["server_under_load"]
        assert entry["speedup_vs_pre_pr"] > 0.0
        assert entry["pre_pr_events_per_s"] > 0.0
        assert entry["peak_rss_kb"] > 0.0
        out = tmp_path / "BENCH_perf.json"
        write_json(report, out)
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["generated_by"] == "repro.perf"

    def test_baseline_roundtrip_and_mode_isolation(self, tmp_path):
        path = tmp_path / "perf_baseline.json"
        assert load_baseline(path) is None
        fast = self._report(fast=True)
        update_baseline(fast, path)
        full = self._report(fast=False)
        update_baseline(full, path)
        baseline = load_baseline(path)
        assert set(baseline["modes"]) == {"fast", "full"}
        # Updating one mode must not clobber the other.
        update_baseline(self._report(fast=True), path)
        assert "full" in load_baseline(path)["modes"]

    def test_no_regression_against_own_baseline(self, tmp_path):
        path = tmp_path / "perf_baseline.json"
        report = self._report()
        update_baseline(report, path)
        assert compare_to_baseline(report, load_baseline(path)) == []

    def test_regression_detected(self, tmp_path):
        path = tmp_path / "perf_baseline.json"
        report = self._report()
        update_baseline(report, path)
        baseline = load_baseline(path)
        entry = baseline["modes"]["fast"]["engine_only"]
        entry["throughput"] = entry["throughput"] * 100.0
        failures = compare_to_baseline(report, baseline, threshold=0.30)
        assert len(failures) == 1
        assert "engine_only" in failures[0]

    def test_missing_baseline_entries_skipped(self):
        report = self._report()
        assert compare_to_baseline(report, None) == []
        assert compare_to_baseline(report, {"modes": {}}) == []
        # Size mismatch: not comparable, skipped.
        baseline = {
            "modes": {
                "fast": {
                    "engine_only": {
                        "throughput_key": "events_per_s",
                        "throughput": 10.0**12,
                        "size": 999,
                    }
                }
            }
        }
        assert compare_to_baseline(report, baseline) == []

    def test_corrupt_baseline_rejected(self, tmp_path):
        path = tmp_path / "perf_baseline.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_baseline(path)


class TestCli:
    def test_cli_smoke_update_and_gate(self, tmp_path):
        from repro.perf.__main__ import main

        baseline = tmp_path / "perf_baseline.json"
        output = tmp_path / "BENCH_perf.json"
        args = [
            "--fast",
            "--only",
            "engine_only",
            "--repeats",
            "1",
            "--output",
            str(output),
            "--baseline",
            str(baseline),
        ]
        assert main(args + ["--update-baselines"]) == 0
        assert baseline.exists()
        assert main(args) == 0
        report = json.loads(output.read_text())
        assert "engine_only" in report["scenarios"]

    def test_cli_fails_on_regression(self, tmp_path):
        from repro.perf.__main__ import main

        baseline = tmp_path / "perf_baseline.json"
        output = tmp_path / "BENCH_perf.json"
        args = [
            "--fast",
            "--only",
            "engine_only",
            "--repeats",
            "1",
            "--output",
            str(output),
            "--baseline",
            str(baseline),
        ]
        assert main(args + ["--update-baselines"]) == 0
        doc = json.loads(baseline.read_text())
        entry = doc["modes"]["fast"]["engine_only"]
        entry["throughput"] = entry["throughput"] * 100.0
        baseline.write_text(json.dumps(doc))
        assert main(args) == 1

    def test_default_baseline_found_from_any_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.artifacts import baseline_path
        from repro.perf import BASELINE_FILENAME

        monkeypatch.chdir(tmp_path)
        document = load_baseline(baseline_path(BASELINE_FILENAME))
        assert document is not None
        assert set(document["modes"]) == {"fast", "full"}

    def test_cli_outside_repo_root_fails_on_doctored_default_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        # Run from a directory with no benchmarks/ tree: the default
        # baseline must still be found (here: a doctored copy the
        # source-tree resolution points at) and the run must fail.
        import repro.artifacts
        from repro.perf.__main__ import main

        baselines = tmp_path / "baselines"
        size = scenario("engine_only").size_for(True)
        update_baseline(
            {
                "mode": "fast",
                "scenarios": {
                    "engine_only": {
                        "throughput_key": "events_per_s",
                        "events_per_s": 10.0**12,
                        "size": size,
                    }
                },
            },
            baselines / "perf_baseline.json",
        )
        workdir = tmp_path / "elsewhere"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        monkeypatch.setattr(repro.artifacts, "BASELINE_DIR", baselines)
        args = ["--fast", "--only", "engine_only", "--repeats", "1"]
        assert main(args) == 1
        assert "REGRESSION engine_only" in capsys.readouterr().err

    def test_cli_says_when_nothing_was_compared(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        absent = tmp_path / "absent.json"
        args = [
            "--fast",
            "--only",
            "engine_only",
            "--repeats",
            "1",
            "--output",
            str(tmp_path / "BENCH_perf.json"),
            "--baseline",
            str(absent),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "nothing was compared" in out
        assert "no regressions" not in out
