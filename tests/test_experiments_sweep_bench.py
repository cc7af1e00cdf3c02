"""Tests for the parallel sweep runner and the engine benchmarks."""

import json
from dataclasses import replace

import pytest

from repro.cache.amat import ALL_SYSTEMS
from repro.common import units as u
from repro.common.errors import ConfigError, SimulationError
from repro.experiments import bench
from repro.experiments.bench import (
    BENCH_FILENAME,
    MISS_HEAVY_BUDGETS,
    MODE_BUDGETS,
    RUNTIME_MODES,
    BenchCase,
    RuntimeBenchCase,
    append_history,
    check_speedup,
    history_record,
    load_history,
    run_bench,
    run_case,
    run_runtime_case,
    write_bench,
)
from repro.experiments.sweep import (
    SweepPoint,
    run_sweep,
    sweep_grid,
)


class TestSweepGrid:
    def test_grid_is_cross_product_with_positional_seeds(self):
        points = sweep_grid(["redis-rand", "graph-coloring"],
                            [0.25, 0.5], base_seed=100)
        assert len(points) == 4
        assert [p.seed for p in points] == [100, 101, 102, 103]
        assert points[0].workload == "redis-rand"
        assert points[-1].workload == "graph-coloring"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            SweepPoint(workload="nope", cache_fraction=0.5)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep([])


class TestSweepRunner:
    POINTS = sweep_grid(["redis-rand"], [0.25, 0.75], num_ops=2000,
                        base_seed=7)

    def test_serial_results_are_complete(self):
        result = run_sweep(self.POINTS, processes=1)
        assert len(result.amat_ns) == len(self.POINTS)
        for amat in result.amat_ns:
            assert set(amat) == set(ALL_SYSTEMS)
            assert all(v > 0 for v in amat.values())
        for served in result.served:
            assert abs(sum(served.values()) - 1.0) < 1e-9

    def test_parallel_matches_serial(self):
        serial = run_sweep(self.POINTS, processes=1)
        parallel = run_sweep(self.POINTS, processes=2)
        assert serial.amat_ns == parallel.amat_ns
        assert serial.served == parallel.served

    def test_series_extraction(self):
        result = run_sweep(self.POINTS, processes=1)
        series = result.series("kona")
        assert [f for f, _ in series] == [0.25, 0.75]
        # More local cache never slows Kona down on this workload.
        assert series[1][1] <= series[0][1]

    def test_totals_aggregate_per_point_counters(self):
        result = run_sweep(self.POINTS, processes=1)
        assert len(result.counters) == len(self.POINTS)
        per_point = sum(c["accesses"] for c in result.counters)
        assert result.totals["accesses"] == per_point
        assert result.totals["accesses"] >= 2000 * len(self.POINTS)
        assert result.totals["remote_fetches"] > 0

    def test_parallel_totals_match_serial(self):
        serial = run_sweep(self.POINTS, processes=1)
        parallel = run_sweep(self.POINTS, processes=2)
        assert serial.totals.as_dict() == parallel.totals.as_dict()


SMALL_CASE = BenchCase("uniform-stress", 20_000, 0.5, seed=42)


class TestBench:
    def test_run_case_verifies_and_reports(self):
        result = run_case(SMALL_CASE, scalar_runs=1, vectorized_runs=1)
        assert result["counters_match"]
        assert result["speedup"] > 0
        assert result["scalar"]["seconds"] > 0
        assert result["vectorized"]["seconds"] > 0
        assert set(result["level_counters"]) == {"L1", "L2", "L3", "DRAM$"}

    def test_quick_bench_payload_schema(self, tmp_path):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        assert payload["benchmark"] == "kcachesim-engine-bench"
        assert payload["quick"] is True
        assert payload["canonical_workload"] == "uniform-stress"
        assert payload["canonical_speedup"] == payload["cases"][0]["speedup"]
        path = write_bench(payload, str(tmp_path / BENCH_FILENAME))
        with open(path) as fh:
            assert json.load(fh)["cases"][0]["num_accesses"] == 20_000

    def test_host_metadata_recorded(self):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        host = payload["host"]
        assert host["python"] and host["numpy"] and host["machine"]
        assert isinstance(host["cpu_count"], int) and host["cpu_count"] >= 1
        # Inside this repo the sha resolves; elsewhere it is None.
        assert host["git_sha"] is None or len(host["git_sha"]) >= 7

    def test_check_speedup_gate(self):
        payload = {"canonical_speedup": 2.0}
        assert check_speedup(payload, 1.5) == []
        failures = check_speedup(payload, 3.0)
        assert len(failures) == 1 and "2.00x" in failures[0]


#: A small hot-mix case: every mode, one run, a few seconds in total.
SMALL_RUNTIME_CASE = RuntimeBenchCase("hot-mix", 20_000, hot_lines=4096)


class TestRuntimeModeRunner:
    @pytest.fixture(scope="class")
    def row(self):
        return run_runtime_case(SMALL_RUNTIME_CASE, runs=1)

    def test_every_mode_is_timed(self, row):
        assert [m.name for m in RUNTIME_MODES] == [
            "scalar", "batched", "capture", "fleet", "tracing"]
        for mode in RUNTIME_MODES:
            assert row[mode.name]["seconds"] > 0
            assert row[mode.name]["runs"] == 1
        assert row["counters_match"]
        assert row["speedup"] == (row["scalar"]["seconds"]
                                  / row["batched"]["seconds"])
        for name in MODE_BUDGETS:
            assert row[name]["overhead"] == (row[name]["seconds"]
                                             / row["batched"]["seconds"])

    def test_fault_records_equal_misses(self, row):
        assert row["cache_misses"] > 0
        for name in ("capture", "fleet"):
            assert row[name]["fault_records"] == row["cache_misses"]
            assert row[name]["snapshot_seconds"] >= 0

    def test_perturbing_mode_is_named(self, monkeypatch):
        def perturbed(case):
            rt = bench._build_captured(case)
            rt.counters.add("cache_hits")
            return rt

        monkeypatch.setattr(bench, "RUNTIME_MODES", tuple(
            replace(m, build=perturbed) if m.name == "capture" else m
            for m in RUNTIME_MODES))
        with pytest.raises(SimulationError) as err:
            run_runtime_case(SMALL_RUNTIME_CASE, runs=1)
        message = str(err.value)
        assert "runtime: scalar=" in message and " capture=" in message
        assert "batched=" not in message

    def test_fault_log_coverage_hole_raises(self, monkeypatch):
        monkeypatch.setattr(bench, "RUNTIME_MODES", tuple(
            replace(m, faults=lambda rt: 0) if m.name == "fleet" else m
            for m in RUNTIME_MODES))
        with pytest.raises(SimulationError, match="fleet coverage hole"):
            run_runtime_case(SMALL_RUNTIME_CASE, runs=1)


def _mode_payload(workload="hot-mix", quick=False, **overheads):
    """A hand-built runtime bench payload, every overhead at its
    hot-mix budget unless given."""
    row = {"workload": workload, "speedup": 9.0, "counters_match": True}
    for name, budget in MODE_BUDGETS.items():
        row[name] = {"overhead": overheads.get(name, budget)}
    return {"canonical_speedup": 9.0, "quick": quick, "cases": [row]}


class TestModeBudgetGate:
    def test_budgets(self):
        assert MODE_BUDGETS == {"capture": 1.15, "fleet": 1.15,
                                "tracing": 1.25}
        assert MISS_HEAVY_BUDGETS == {"tracing": 2.5}

    def test_exactly_at_budget_passes(self):
        assert check_speedup(_mode_payload()) == []
        assert check_speedup(_mode_payload(), 1.0) == []

    def test_capture_over_budget_fails(self):
        failures = check_speedup(_mode_payload(capture=1.16))
        assert len(failures) == 1
        assert "capture overhead 1.160x" in failures[0]
        assert "1.15x budget" in failures[0]

    def test_tracing_over_budget_fails(self):
        failures = check_speedup(_mode_payload(tracing=1.26))
        assert len(failures) == 1
        assert "hot-mix tracing overhead 1.260x" in failures[0]
        assert "1.25x budget" in failures[0]

    @pytest.mark.parametrize("label, quick", [("page-rank-miss", True),
                                              ("page-rank", False)])
    def test_miss_heavy_tracing_at_and_over_budget(self, label, quick):
        assert check_speedup(_mode_payload(label, quick,
                                           tracing=2.5)) == []
        failures = check_speedup(_mode_payload(label, quick,
                                               tracing=2.51))
        assert len(failures) == 1
        assert f"{label} tracing overhead 2.510x" in failures[0]
        assert "2.50x budget" in failures[0]

    def test_quick_short_page_rank_row_is_not_gated(self):
        # The quick suite's 60k page-rank row is reported only; its
        # gated miss-heavy row is page-rank-miss.
        assert check_speedup(_mode_payload("page-rank", True,
                                           tracing=3.0)) == []

    def test_fingerprint_mismatch_fails(self):
        payload = _mode_payload()
        payload["cases"][0]["counters_match"] = False
        failures = check_speedup(payload)
        assert len(failures) == 1 and "fingerprints diverged" in failures[0]

    def test_miss_heavy_rows_are_reported_not_gated(self):
        # Capture and fleet are gated on hot-mix only; a miss-heavy
        # row's tracing within its budget passes.
        payload = _mode_payload("page-rank-miss", True, capture=1.25,
                                fleet=1.44, tracing=2.0)
        assert check_speedup(payload) == []


class TestBenchHistory:
    def test_history_record_is_compact(self):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        record = history_record(payload)
        assert record["benchmark"] == "kcachesim-engine-bench"
        assert record["canonical_speedup"] == payload["canonical_speedup"]
        case = record["cases"][0]
        assert set(case) == {"workload", "num_accesses", "speedup",
                             "scalar_seconds", "vectorized_seconds"}
        # The bulky per-level counters stay out of the log.
        assert "level_counters" not in case

    def test_append_and_load_roundtrip(self, tmp_path):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        path = str(tmp_path / "out" / "history.jsonl")
        append_history(payload, path)
        append_history(payload, path)
        records = load_history(path)
        assert len(records) == 2
        assert records[0]["cases"][0]["speedup"] > 0

    def test_load_filters_by_benchmark(self, tmp_path):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        path = str(tmp_path / "history.jsonl")
        append_history(payload, path)
        assert load_history(path, benchmark="kcachesim-engine-bench")
        assert load_history(path, benchmark="other-bench") == []

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []


class TestCommittedBenchReport:
    def test_repo_report_meets_acceptance_speedup(self):
        """The committed BENCH_kcachesim.json must record >= 8x.

        The floor allows for runner-hardware variance (observed 9.3x
        to 10.8x across containers for the same code) while still
        catching any real engine regression, which shows up as an
        order-of-magnitude drop.
        """
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[1] / BENCH_FILENAME
        payload = json.loads(path.read_text())
        assert payload["canonical_workload"] == "uniform-stress"
        case = payload["cases"][0]
        assert case["num_accesses"] == 1_000_000
        assert payload["canonical_speedup"] >= 8.0
        assert check_speedup(payload, 8.0) == []

    def test_repo_report_records_environment(self):
        """The committed report must say where its numbers came from."""
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[1] / BENCH_FILENAME
        host = json.loads(path.read_text())["host"]
        assert host["python"] and host["numpy"]
        assert host["cpu_count"] >= 1
        assert host["git_sha"] is None or len(host["git_sha"]) >= 7
