"""Perf-trend record diffing (benchmarks/perf_trend.py)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

from perf_trend import (  # noqa: E402
    check_floors,
    collect_metrics,
    compare_records,
    higher_is_better,
    load_floors,
    load_records,
    lower_is_better,
    main,
)


def record(name: str, per_sec: float, smoke: bool = False) -> dict:
    return {
        "benchmark": name,
        "smoke": smoke,
        "nested": {"updates_per_sec": per_sec, "speedup": 3.0, "n_samples": 100},
        "sizes": [{"cust_per_sec": per_sec * 2, "identical": True}],
    }


def latency_record(name: str, p95_ms: float, smoke: bool = False) -> dict:
    return {
        "benchmark": name,
        "smoke": smoke,
        "closed": {"p95_ms": p95_ms, "requests_per_sec": 100.0, "n_requests": 50},
    }


def size_record(name: str, state_bytes: float, smoke: bool = False) -> dict:
    return {
        "benchmark": name,
        "smoke": smoke,
        "checkpoint": {
            "state_bytes_per_customer": state_bytes,
            "n_checkpoints": 4,
            "written_bytes_per_sec": 1000.0,
        },
    }


def recovery_record(name: str, mttr_ticks: float, smoke: bool = False) -> dict:
    return {
        "benchmark": name,
        "smoke": smoke,
        "recovery": {"mttr_ticks": mttr_ticks, "n_restarts": 3, "n_diverged": 0},
    }


class TestCollectMetrics:
    def test_only_per_sec_leaves_participate(self):
        metrics = collect_metrics(record("x", 100.0))
        assert metrics == {
            "nested.updates_per_sec": 100.0,
            "sizes[0].cust_per_sec": 200.0,
        }

    def test_latency_leaves_participate_too(self):
        metrics = collect_metrics(latency_record("x", 40.0))
        assert metrics == {"closed.p95_ms": 40.0, "closed.requests_per_sec": 100.0}

    def test_bools_and_counters_excluded(self):
        metrics = collect_metrics({"flag_per_sec": True, "n": 5})
        assert metrics == {}

    def test_direction_follows_suffix(self):
        assert not lower_is_better("closed.requests_per_sec")
        assert lower_is_better("closed.p95_ms")
        assert lower_is_better("recovery.mttr_ticks")

    def test_ticks_leaves_participate_too(self):
        metrics = collect_metrics(recovery_record("x", 2.5))
        assert metrics == {"recovery.mttr_ticks": 2.5}

    def test_accuracy_leaves_participate_as_higher_is_better(self):
        paper = {
            "benchmark": "paper",
            "table5": {"db_accuracy": 0.875, "mi_accuracy": 0.918, "n": 120},
        }
        metrics = collect_metrics(paper)
        assert metrics == {"table5.db_accuracy": 0.875, "table5.mi_accuracy": 0.918}
        assert higher_is_better("table5.db_accuracy")
        assert not lower_is_better("table5.db_accuracy")
        floors = {"paper": {"table5.db_accuracy": 0.8}}
        assert check_floors({"paper": paper}, floors) == []
        paper["table5"]["db_accuracy"] = 0.7
        assert "below the absolute floor" in check_floors({"paper": paper}, floors)[0]

    def test_bytes_leaves_participate_as_lower_is_better(self):
        metrics = collect_metrics(size_record("x", 23312.0))
        assert metrics == {
            "checkpoint.state_bytes_per_customer": 23312.0,
            "checkpoint.written_bytes_per_sec": 1000.0,
        }
        assert lower_is_better("checkpoint.state_bytes_per_customer")
        assert lower_is_better("store.n_state_bytes")
        assert not lower_is_better("checkpoint.written_bytes_per_sec")  # a rate


class TestCompareRecords:
    def test_flags_regressions_beyond_threshold(self):
        baseline = {"s": record("s", 1000.0)}
        current = {"s": record("s", 700.0)}  # -30%
        regressions, notes = compare_records(baseline, current, threshold=0.2)
        assert len(regressions) == 2  # both per_sec leaves dropped 30%
        metric, base, cur, change = regressions[0]
        assert metric.startswith("s:")
        assert change == pytest.approx(-0.3)
        assert not notes

    def test_small_drops_and_improvements_pass(self):
        baseline = {"s": record("s", 1000.0)}
        for factor in (0.85, 1.0, 2.0):
            current = {"s": record("s", 1000.0 * factor)}
            regressions, _ = compare_records(baseline, current, threshold=0.2)
            assert regressions == []

    def test_smoke_mismatch_skips_comparison(self):
        baseline = {"s": record("s", 1000.0, smoke=False)}
        current = {"s": record("s", 10.0, smoke=True)}
        regressions, notes = compare_records(baseline, current)
        assert regressions == []
        assert any("smoke" in note for note in notes)

    def test_missing_benchmark_noted_not_fatal(self):
        baseline = {"s": record("s", 1000.0), "f": record("f", 50.0)}
        current = {"s": record("s", 1000.0)}
        regressions, notes = compare_records(baseline, current)
        assert regressions == []
        assert any("'f'" in note for note in notes)

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_records({}, {}, threshold=0.0)

    def test_latency_increase_is_the_regression(self):
        baseline = {"s": latency_record("s", 100.0)}
        slower = {"s": latency_record("s", 150.0)}  # +50% latency
        regressions, _ = compare_records(baseline, slower, threshold=0.2)
        assert [metric for metric, *_ in regressions] == ["s:closed.p95_ms"]
        faster = {"s": latency_record("s", 40.0)}  # -60% latency: improvement
        regressions, _ = compare_records(baseline, faster, threshold=0.2)
        assert regressions == []

    def test_ticks_increase_is_the_regression(self):
        baseline = {"s": recovery_record("s", 2.0)}
        deeper = {"s": recovery_record("s", 5.0)}  # replaying 2.5x more feed
        regressions, _ = compare_records(baseline, deeper, threshold=0.2)
        assert [metric for metric, *_ in regressions] == ["s:recovery.mttr_ticks"]
        shallower = {"s": recovery_record("s", 1.0)}  # improvement
        regressions, _ = compare_records(baseline, shallower, threshold=0.2)
        assert regressions == []

    def test_bytes_increase_is_the_regression(self):
        baseline = {"s": size_record("s", 23312.0)}
        bigger = {"s": size_record("s", 55533.0)}  # curves pickled by value again
        regressions, _ = compare_records(baseline, bigger, threshold=0.2)
        assert [metric for metric, *_ in regressions] == [
            "s:checkpoint.state_bytes_per_customer"
        ]
        smaller = {"s": size_record("s", 6000.0)}  # improvement
        regressions, _ = compare_records(baseline, smaller, threshold=0.2)
        assert regressions == []


class TestEndToEnd:
    def write(self, directory: Path, name: str, payload: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )

    def test_load_records_skips_corrupt_files(self, tmp_path, capsys):
        self.write(tmp_path, "good", record("good", 10.0))
        (tmp_path / "BENCH_bad.json").write_text("{not json", encoding="utf-8")
        records = load_records(tmp_path)
        assert set(records) == {"good"}

    def test_main_flags_regression(self, tmp_path, capsys):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        self.write(baseline, "streaming", record("streaming", 1000.0))
        self.write(current, "streaming", record("streaming", 100.0))
        assert main(["--baseline", str(baseline), "--current", str(current)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert (
            main(
                [
                    "--baseline",
                    str(baseline),
                    "--current",
                    str(current),
                    "--warn-only",
                ]
            )
            == 0
        )

    def test_main_without_baseline_is_clean(self, tmp_path, capsys):
        current = tmp_path / "cur"
        self.write(current, "streaming", record("streaming", 100.0))
        assert main(["--baseline", str(tmp_path / "none"), "--current", str(current)]) == 0


class TestFloors:
    def test_floor_violation_detected(self):
        floors = {"fleet": {"sizes[0].cust_per_sec": 500.0}}
        healthy = {"fleet": record("fleet", 1000.0)}  # leaf = 2000
        assert check_floors(healthy, floors) == []
        slow = {"fleet": record("fleet", 100.0)}  # leaf = 200 < 500
        violations = check_floors(slow, floors)
        assert len(violations) == 1
        assert "below the absolute floor" in violations[0]

    def test_latency_floor_is_a_ceiling(self):
        floors = {"serving": {"closed.p95_ms": 50.0}}
        fast = {"serving": latency_record("serving", 30.0)}
        assert check_floors(fast, floors) == []
        slow = {"serving": latency_record("serving", 80.0)}
        violations = check_floors(slow, floors)
        assert len(violations) == 1
        assert "above the absolute ceiling" in violations[0]

    def test_missing_latency_metric_is_a_violation(self):
        floors = {"serving": {"open.p99_ms": 50.0}}
        violations = check_floors({"serving": latency_record("serving", 30.0)}, floors)
        assert violations and "missing" in violations[0]

    def test_ticks_floor_is_a_ceiling(self):
        floors = {"streaming": {"recovery.mttr_ticks": 8.0}}
        shallow = {"streaming": recovery_record("streaming", 2.0)}
        assert check_floors(shallow, floors) == []
        deep = {"streaming": recovery_record("streaming", 20.0)}
        violations = check_floors(deep, floors)
        assert len(violations) == 1
        assert "above the absolute ceiling" in violations[0]

    def test_bytes_floor_is_a_ceiling(self):
        floors = {"streaming": {"checkpoint.state_bytes_per_customer": 32768.0}}
        lean = {"streaming": size_record("streaming", 23312.0)}
        assert check_floors(lean, floors) == []
        bloated = {"streaming": size_record("streaming", 55533.0)}
        violations = check_floors(bloated, floors)
        assert len(violations) == 1
        assert "above the absolute ceiling" in violations[0]

    def test_missing_floored_metric_is_a_violation(self):
        floors = {"fleet": {"sizes[9].cust_per_sec": 500.0}}
        violations = check_floors({"fleet": record("fleet", 1000.0)}, floors)
        assert violations and "missing" in violations[0]
        # A missing record entirely is the most complete regression.
        violations = check_floors({}, floors)
        assert violations and "missing" in violations[0]

    def test_load_floors_validates_and_skips_comments(self, tmp_path):
        path = tmp_path / "floors.json"
        path.write_text(
            json.dumps({"_comment": "why", "fleet": {"a_per_sec": 5}}),
            encoding="utf-8",
        )
        assert load_floors(path) == {"fleet": {"a_per_sec": 5.0}}
        path.write_text(json.dumps(["not", "a", "mapping"]), encoding="utf-8")
        with pytest.raises(ValueError, match="floors file"):
            load_floors(path)


class TestBlockingBenchmarks:
    def write(self, directory: Path, name: str, payload: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )

    def test_blocking_benchmark_fails_despite_warn_only(self, tmp_path, capsys):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        self.write(baseline, "fleet", record("fleet", 1000.0))
        self.write(current, "fleet", record("fleet", 100.0))
        argv = ["--baseline", str(baseline), "--current", str(current), "--warn-only"]
        assert main(argv) == 0  # plain warn-only tolerates it
        assert main(argv + ["--blocking", "fleet"]) == 1
        assert "REGRESSION (blocking)" in capsys.readouterr().out

    def test_paper_accuracy_drop_blocks_under_blocking_paper(self, tmp_path, capsys):
        baseline, current = tmp_path / "base", tmp_path / "cur"

        def paper(db_accuracy: float) -> dict:
            return {
                "benchmark": "paper",
                "table5": {"db_accuracy": db_accuracy, "mi_accuracy": 0.918},
            }

        self.write(baseline, "paper", paper(0.875))
        self.write(current, "paper", paper(0.875))
        argv = [
            "--baseline",
            str(baseline),
            "--current",
            str(current),
            "--warn-only",
            "--blocking",
            "paper",
        ]
        assert main(argv) == 0  # deterministic accuracies: no move, no failure
        self.write(current, "paper", paper(0.6))  # a 31% drop
        assert main(argv[:-2]) == 0  # warn-only without the blocking flag
        capsys.readouterr()
        assert main(argv) == 1
        assert "REGRESSION (blocking) paper:table5.db_accuracy" in capsys.readouterr().out

    def test_nonblocking_regression_still_warns_only(self, tmp_path):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        self.write(baseline, "streaming", record("streaming", 1000.0))
        self.write(current, "streaming", record("streaming", 100.0))
        argv = [
            "--baseline",
            str(baseline),
            "--current",
            str(current),
            "--warn-only",
            "--blocking",
            "fleet",
        ]
        assert main(argv) == 0

    def test_floor_violation_fails_even_without_baseline(self, tmp_path):
        current = tmp_path / "cur"
        self.write(current, "fleet", record("fleet", 100.0))
        floors = tmp_path / "floors.json"
        floors.write_text(
            json.dumps({"fleet": {"sizes[0].cust_per_sec": 500.0}}), encoding="utf-8"
        )
        argv = [
            "--baseline",
            str(tmp_path / "none"),
            "--current",
            str(current),
            "--warn-only",
            "--floors",
            str(floors),
        ]
        assert main(argv) == 1

    def test_repo_floors_file_parses_and_matches_bench_schema(self):
        floors = load_floors(_BENCH_DIR / "perf_floors.json")
        assert "fleet" in floors
        assert "streaming" in floors  # watch cust/s + observe/s floors
        assert "watch_scaling.serial_customers_per_sec" in floors["streaming"]
        assert "live_loop.observe_per_sec" in floors["streaming"]
        assert "serving" in floors  # serving tier: throughput floor + p95 ceiling
        assert "closed_loop.requests_per_sec" in floors["serving"]
        assert "closed_loop.p95_ms" in floors["serving"]
        assert "recovery.mttr_ticks" in floors["streaming"]  # fault-matrix ceiling
        # Persisted bytes per checkpointed customer: a size ceiling.
        assert "checkpoint.state_bytes_per_customer" in floors["streaming"]
        # The paper benches' own accuracy assertions.
        assert floors["paper"]["table4.thresholding.db_accuracy"] == 0.55
        assert floors["paper"]["table5.mi_accuracy"] == 0.8
        for metric_floors in floors.values():
            for metric, floor in metric_floors.items():
                assert higher_is_better(metric) or lower_is_better(metric)
                assert floor > 0


class TestWarnMetrics:
    def write(self, directory: Path, name: str, payload: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )

    def test_warn_metric_never_blocks_even_in_blocking_benchmark(
        self, tmp_path, capsys
    ):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        self.write(baseline, "streaming", record("streaming", 1000.0))
        self.write(current, "streaming", record("streaming", 100.0))
        argv = [
            "--baseline",
            str(baseline),
            "--current",
            str(current),
            "--warn-only",
            "--blocking",
            "streaming",
        ]
        assert main(argv) == 1  # blocking benchmark regressed
        # Exempting every regressed metric downgrades the run to warnings.
        assert main(argv + ["--warn-metric", "streaming:"]) == 0
        assert "REGRESSION (warn-only metric)" in capsys.readouterr().out

    def test_warn_metric_is_substring_scoped(self, tmp_path, capsys):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        self.write(baseline, "streaming", record("streaming", 1000.0))
        self.write(current, "streaming", record("streaming", 100.0))
        argv = [
            "--baseline",
            str(baseline),
            "--current",
            str(current),
            "--warn-only",
            "--blocking",
            "streaming",
            "--warn-metric",
            "streaming:nested",  # exempts one of the two regressed leaves
        ]
        assert main(argv) == 1  # the sizes[0] leaf still blocks
        out = capsys.readouterr().out
        assert "REGRESSION (warn-only metric) streaming:nested" in out
        assert "REGRESSION (blocking) streaming:sizes[0]" in out

    def test_warn_metric_applies_without_warn_only_too(self, tmp_path):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        self.write(baseline, "streaming", record("streaming", 1000.0))
        self.write(current, "streaming", record("streaming", 100.0))
        argv = ["--baseline", str(baseline), "--current", str(current)]
        assert main(argv) == 1
        assert main(argv + ["--warn-metric", "streaming:"]) == 0

    def test_warn_metric_exempts_floor_violations(self, tmp_path, capsys):
        # The one-cycle grace period for a freshly pinned ceiling: the
        # violation prints but does not fail until the exemption is
        # dropped next cycle.
        current = tmp_path / "cur"
        self.write(current, "streaming", recovery_record("streaming", 50.0))
        floors = tmp_path / "floors.json"
        floors.write_text(
            json.dumps({"streaming": {"recovery.mttr_ticks": 8.0}}), encoding="utf-8"
        )
        argv = [
            "--baseline",
            str(tmp_path / "none"),
            "--current",
            str(current),
            "--floors",
            str(floors),
        ]
        assert main(argv) == 1
        assert main(argv + ["--warn-metric", "recovery.mttr_ticks"]) == 0
        assert "FLOOR (warn-only metric)" in capsys.readouterr().out
