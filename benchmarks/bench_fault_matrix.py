"""Fault-matrix benchmark: injected failures vs the serial baseline.

Runs the fleet watch through a matrix of deterministic
:class:`~repro.faults.FaultPlan` scenarios -- worker kills on every
backend, a dropped result and a deadline-overrunning hang on the
process backend -- and asserts the self-healing contract end to end:
every faulted run's update stream must be **byte-identical** to the
unfaulted serial baseline, and every scenario's fault must actually
fire (a plan whose coordinates never occur would pass vacuously).

Per scenario it records the supervisor's account of the recovery
(restarts, deadline kills, forced stops, replayed ticks) and folds a
``recovery`` section into ``benchmarks/results/BENCH_streaming.json``
(created by ``bench_streaming.py``; merged, not overwritten, so both
scripts compose in CI).  The headline metric is ``mttr_ticks`` -- the
mean ticks of feed replayed per recovery, i.e. how far behind its
snapshot a shard was when it died -- which ``perf_trend.py`` treats as
lower-is-better and ``perf_floors.json`` pins a ceiling for.

Standalone script (not a pytest benchmark)::

    python benchmarks/bench_fault_matrix.py           # full matrix
    python benchmarks/bench_fault_matrix.py --smoke   # tiny CI-sized run

Exit status: 1 when any faulted run diverges from the serial
baseline, 2 when a scenario's fault never fired (or recovery stats
are missing), 0 on PASS.  Runs in CI next to
``crash_recovery_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # running as a script without installation
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))
    _bench = str(Path(__file__).resolve().parent)
    if _bench not in sys.path:
        sys.path.insert(0, _bench)
    from bench_streaming import canonical_watch_bytes, make_fleet_feed
else:  # imported as benchmarks.bench_fault_matrix (``pytest benchmarks/``)
    from .bench_streaming import canonical_watch_bytes, make_fleet_feed

from repro import DopplerEngine, FaultPlan, SkuCatalog
from repro.fleet import FleetEngine, SupervisionConfig, WatchConfig

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_streaming.json"
TEXT_PATH = RESULTS_DIR / "fault_matrix.txt"

#: Watch shape shared by every scenario.  Small ticks give the matrix
#: many fault coordinates to land on; the snapshot cadence of 2 keeps
#: replay depth (and therefore mttr_ticks) tightly bounded.
TICK_SAMPLES = 8
SNAPSHOT_EVERY_TICKS = 2
WORKERS = 3
SEED = 23

#: Deadline for the drop/hang scenarios: long enough that a healthy
#: smoke tick never trips it, short enough that the benchmark does not
#: stall waiting for an injected hang.
DEADLINE_S = 2.0


def watch_config() -> WatchConfig:
    return WatchConfig(window=12, min_refresh_samples=12, tick_samples=TICK_SAMPLES)


def supervision(faults: FaultPlan, deadline: float | None = None) -> SupervisionConfig:
    return SupervisionConfig(
        backoff_base_s=0.0,  # benchmark measures recovery depth, not sleeps
        snapshot_every_ticks=SNAPSHOT_EVERY_TICKS,
        tick_deadline_s=deadline if deadline is not None else 120.0,
        faults=faults,
    )


def make_fleet() -> FleetEngine:
    return FleetEngine(
        engine=DopplerEngine(catalog=SkuCatalog.default()), backend="serial"
    )


def scenarios() -> list[dict]:
    """The fault matrix: every backend's kill path plus the two
    failure modes only a deadline can see (process backend)."""
    kill_1 = FaultPlan(kill_worker=((1, 1),))
    return [
        {"name": "kill_serial", "backend": "serial", "faults": FaultPlan(kill_worker=((0, 1),))},
        {"name": "kill_thread", "backend": "thread", "faults": kill_1},
        {"name": "kill_process", "backend": "process", "faults": kill_1},
        {
            "name": "drop_process",
            "backend": "process",
            "faults": FaultPlan(drop_result=((1, 1),)),
            "deadline": DEADLINE_S,
        },
        {
            "name": "hang_process",
            "backend": "process",
            "faults": FaultPlan(delay_shard=((1, 1, 30.0),)),
            "deadline": DEADLINE_S,
        },
    ]


def run_matrix(n_customers: int, samples_each: int) -> tuple[dict, list[str]]:
    """Run every scenario; returns the record and failure messages."""
    feed = make_fleet_feed(n_customers, samples_each, SEED)
    config = watch_config()

    baseline_fleet = make_fleet()
    start = time.perf_counter()
    baseline = canonical_watch_bytes(
        baseline_fleet.watch_fleet(feed, config=config.replace(backend="serial"))
    )
    baseline_seconds = time.perf_counter() - start

    failures: list[str] = []
    per_scenario: dict[str, dict] = {}
    recovery_ticks: list[int] = []
    for scenario in scenarios():
        fleet = make_fleet()
        faulted_config = config.replace(
            backend=scenario["backend"],
            max_workers=WORKERS,
            supervision=supervision(scenario["faults"], scenario.get("deadline")),
        )
        start = time.perf_counter()
        stream = canonical_watch_bytes(fleet.watch_fleet(feed, config=faulted_config))
        elapsed = time.perf_counter() - start
        stats = fleet.watch_supervision_stats()
        identical = stream == baseline
        if not identical:
            failures.append(f"{scenario['name']}: diverged from the serial baseline")
        if stats is None or stats.n_restarts < 1:
            failures.append(
                f"{scenario['name']}: fault never fired "
                f"(restarts={stats.n_restarts if stats else None})"
            )
        entry = {
            "backend": scenario["backend"],
            "identical": identical,
            "n_restarts": stats.n_restarts if stats else 0,
            "n_deadline_kills": stats.n_deadline_kills if stats else 0,
            "n_forced_stops": stats.n_forced_stops if stats else 0,
            "n_replayed_ticks": stats.n_replayed_ticks if stats else 0,
            "max_recovery_ticks": stats.max_recovery_ticks if stats else 0,
            "seconds": elapsed,
        }
        per_scenario[scenario["name"]] = entry
        if stats is not None and stats.n_restarts:
            recovery_ticks.append(stats.max_recovery_ticks)
        print(
            f"  {scenario['name']:<14} identical={identical}  "
            f"restarts={entry['n_restarts']}  "
            f"deadline_kills={entry['n_deadline_kills']}  "
            f"replayed_ticks={entry['n_replayed_ticks']}  "
            f"{elapsed:.2f}s"
        )

    record = {
        "n_customers": n_customers,
        "samples_each": samples_each,
        "baseline_seconds": baseline_seconds,
        "n_scenarios": len(per_scenario),
        "n_diverged": sum(1 for e in per_scenario.values() if not e["identical"]),
        "mttr_ticks": (
            sum(recovery_ticks) / len(recovery_ticks) if recovery_ticks else 0.0
        ),
        "scenarios": per_scenario,
    }
    return record, failures


def merge_into_streaming_record(recovery: dict) -> None:
    """Fold the recovery section into BENCH_streaming.json.

    ``bench_streaming.py`` owns the record; this script only adds (or
    replaces) its ``recovery`` key so the two compose regardless of
    which ran first.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    if JSON_PATH.is_file():
        try:
            record = json.loads(JSON_PATH.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            record = {}
    else:
        record = {}
    if not isinstance(record, dict) or record.get("benchmark") != "streaming":
        record = {
            "benchmark": "streaming",
            "timestamp": time.time(),
            "python": platform.python_version(),
            "smoke": True,
        }
    record["recovery"] = recovery
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny CI-sized run (seconds, not minutes)"
    )
    args = parser.parse_args(argv)

    n_customers = 12 if args.smoke else 40
    samples_each = 10 if args.smoke else 16
    print(
        f"fault matrix: {n_customers} customers x {samples_each} samples, "
        f"{WORKERS} workers, snapshot every {SNAPSHOT_EVERY_TICKS} ticks"
    )
    record, failures = run_matrix(n_customers, samples_each)
    record["smoke"] = args.smoke

    merge_into_streaming_record(record)
    TEXT_PATH.write_text(
        f"fault matrix: {record['n_scenarios']} scenarios  "
        f"diverged {record['n_diverged']}  "
        f"mttr {record['mttr_ticks']:.1f} ticks\n",
        encoding="utf-8",
    )
    print(
        f"mttr_ticks {record['mttr_ticks']:.1f}  "
        f"(recovery section merged into {JSON_PATH})"
    )

    divergences = [message for message in failures if "diverged" in message]
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if divergences:
        return 1
    if failures:
        return 2
    print("PASS: every faulted run byte-matched the serial baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
