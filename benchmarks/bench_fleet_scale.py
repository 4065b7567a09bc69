"""Fleet-scale throughput benchmark: columnar vs per-customer.

Generates synthetic customer populations with :mod:`repro.workloads`,
then measures the :class:`~repro.fleet.engine.FleetEngine` fit +
recommendation throughput at several fleet sizes along the two batch
paths (every batch pass runs in the calling process):

* **columnar** (the default batch kernel: one capacity matrix and one
  curve-cache key-batch per chunk), and
* **per-customer** (``columnar=False`` -- the pre-columnar reference
  path).

Both paths must produce byte-identical recommendations (the fleet
determinism contract, asserted here), and on a full run the columnar
path must deliver at least ``--min-columnar-speedup`` (default 3x)
the per-customer fit+recommend throughput.

A full run times every size :data:`FULL_REPEATS` times, alternating
which path goes first, and gates on the median ratio: one timing
swings too widely between runs of one tree to read the gate from.
Every pass builds its own training records, customers and
:class:`~repro.fleet.engine.FleetEngine` (same seeds, so the same
content), so no pass reads a curve cache or a trace memo (demand
matrix, fingerprint) that another pass warmed.  The smoke run times
each path :data:`SMOKE_REPEATS` times the same way and records the
medians, so the throughputs ``perf_trend.py`` compares between CI
runs do not rest on one 10-20 ms fit.

Standalone script (not a pytest benchmark)::

    python benchmarks/bench_fleet_scale.py            # 100 / 1000 / 5000
    python benchmarks/bench_fleet_scale.py --smoke    # tiny CI-sized run

Emits a machine-readable perf record to
``benchmarks/results/BENCH_fleet.json`` (same record shape as
``BENCH_streaming.json``; uploaded as a CI artifact and diffed across
commits by ``benchmarks/perf_trend.py``).

Exit status: 1 when the two paths are not byte-identical, 3 when the
columnar speedup misses the threshold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # running as a script without installation
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import DopplerEngine, FleetCustomer, FleetEngine, SkuCatalog
from repro.catalog import DeploymentType
from repro.fleet import FleetRecommendation, summarize_fleet
from repro.simulation import FleetConfig, simulate_fleet
from repro.telemetry import PerfDimension
from repro.workloads import (
    BurstyPattern,
    DiurnalPattern,
    PlateauPattern,
    SpikyPattern,
    WorkloadSpec,
    generate_trace,
)

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIR / "fleet_scale.txt"
JSON_PATH = RESULTS_DIR / "BENCH_fleet.json"

#: Timed repeats per fleet size in a full run.
FULL_REPEATS = 5
#: Timed repeats in a smoke run: its medians are perf-trend metrics.
SMOKE_REPEATS = 3


def make_customers(
    n: int, duration_days: float, interval_minutes: float, seed: int
) -> list[FleetCustomer]:
    """``n`` synthetic DB customers spanning the usual workload shapes."""
    rng = np.random.default_rng(seed)
    customers = []
    for index in range(n):
        cpu_peak = float(np.exp(rng.uniform(np.log(1.5), np.log(32.0))))
        style = index % 4
        if style == 0:
            cpu = SpikyPattern(
                base=cpu_peak * 0.25, peak=cpu_peak, spike_probability=0.008
            )
        elif style == 1:
            cpu = DiurnalPattern(trough=cpu_peak * 0.3, peak=cpu_peak)
        elif style == 2:
            cpu = PlateauPattern(level=cpu_peak)
        else:
            cpu = BurstyPattern(low=cpu_peak * 0.4, high=cpu_peak)
        spec = WorkloadSpec(
            patterns={
                PerfDimension.CPU: cpu,
                PerfDimension.MEMORY: PlateauPattern(
                    level=cpu_peak * float(rng.uniform(2.5, 5.5))
                ),
                PerfDimension.IOPS: SpikyPattern(
                    base=cpu_peak * 60.0,
                    peak=cpu_peak * float(rng.uniform(200.0, 700.0)),
                    spike_probability=0.01,
                ),
                PerfDimension.LOG_RATE: DiurnalPattern(
                    trough=cpu_peak * 0.4, peak=cpu_peak * 2.0
                ),
            },
            storage_gb=float(rng.uniform(30.0, 900.0)),
            base_latency_ms=float(rng.uniform(4.0, 8.0)),
            entity_id=f"fleet-bench-{index:05d}",
        )
        trace = generate_trace(
            spec,
            duration_days=duration_days,
            interval_minutes=interval_minutes,
            rng=rng,
        )
        customers.append(
            FleetCustomer(
                customer_id=spec.entity_id,
                trace=trace,
                deployment=DeploymentType.SQL_DB,
            )
        )
    return customers


def canonical_bytes(results: list[FleetRecommendation]) -> bytes:
    """Deterministic byte encoding of a fleet pass for equality checks."""
    lines = []
    for result in results:
        if result.recommendation is None:
            lines.append(f"{result.customer_id}|ERROR|{result.error}")
        else:
            rec = result.recommendation
            lines.append(
                f"{result.customer_id}|{rec.sku.name}|{rec.strategy}"
                f"|{rec.expected_throttling!r}|{rec.target_probability!r}"
                f"|{result.over_provisioned}"
            )
    return "\n".join(lines).encode("utf-8")


def fit_fitted_engine(
    records, catalog: SkuCatalog, columnar: bool
) -> tuple[FleetEngine, float]:
    """A freshly fitted serial fleet engine plus its fit wall time."""
    fleet = FleetEngine(
        engine=DopplerEngine(catalog=catalog), backend="serial", columnar=columnar
    )
    start = time.perf_counter()
    fleet.fit_fleet(records)
    return fleet, time.perf_counter() - start


def timed_pass(
    columnar: bool,
    catalog: SkuCatalog,
    train_config: FleetConfig,
    seed: int,
    size: int,
    duration: float,
    interval: float,
) -> tuple[float, float, list[FleetRecommendation]]:
    """One cold fit + recommend pass: ``(fit_s, recommend_s, results)``.

    Training records, customers and the engine are all built for this
    pass alone, so nothing it reads was memoized by an earlier pass.
    """
    records = [
        customer.record for customer in simulate_fleet(train_config, catalog, rng=seed)
    ]
    customers = make_customers(size, duration, interval, seed=seed + size)
    fleet, fit_seconds = fit_fitted_engine(records, catalog, columnar)
    start = time.perf_counter()
    results = list(fleet.recommend_fleet(customers))
    return fit_seconds, time.perf_counter() - start, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="100,1000,5000",
        help="comma-separated fleet sizes (default: 100,1000,5000)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast run for CI: small fleet, short traces, no speedup gates",
    )
    parser.add_argument(
        "--train-size", type=int, default=160, help="simulated training-fleet size"
    )
    parser.add_argument("--duration-days", type=float, default=7.0)
    parser.add_argument("--interval-minutes", type=float, default=30.0)
    parser.add_argument(
        "--min-columnar-speedup",
        type=float,
        default=3.0,
        help="required columnar/per-customer serial fit+recommend speedup (default: 3.0)",
    )
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args(argv)

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or any(size <= 0 for size in sizes):
        parser.error(f"--sizes needs positive fleet sizes, got {args.sizes!r}")
    duration = args.duration_days
    interval = args.interval_minutes
    train_size = args.train_size
    if args.smoke:
        sizes, duration, interval, train_size = [16], 2.0, 60.0, 24

    cores = os.cpu_count() or 1
    lines = [f"fleet-scale benchmark: cores={cores} trace={duration:g}d@{interval:g}min"]

    catalog = SkuCatalog.default()
    repeats = SMOKE_REPEATS if args.smoke else FULL_REPEATS
    train_config = FleetConfig.paper_db(
        train_size, duration_days=duration, interval_minutes=interval
    )
    print(
        f"Training on {train_size} simulated migrated customers per pass; "
        f"{repeats} timed repeat(s) per size, path order alternating ..."
    )

    lines.append(f"timings: median of {repeats} cold pass(es) per path, order alternating")
    fit_seconds: dict[bool, list[float]] = {True: [], False: []}
    failed_identity = False
    failed_columnar = False
    size_records = []
    for size in sizes:
        print(f"Timing {size} synthetic customers ...")
        recommend_seconds: dict[bool, list[float]] = {True: [], False: []}
        speedups: list[float] = []
        blobs: set[bytes] = set()
        for repeat in range(repeats):
            # Columnar first on even repeats, per-customer first on odd.
            order = (True, False) if repeat % 2 == 0 else (False, True)
            passes = {}
            for columnar in order:
                fit_s, recommend_s, results = timed_pass(
                    columnar, catalog, train_config, args.seed, size, duration, interval
                )
                fit_seconds[columnar].append(fit_s)
                recommend_seconds[columnar].append(recommend_s)
                passes[columnar] = (fit_s + recommend_s, results)
                blobs.add(canonical_bytes(results))
            # The acceptance metric: whole-pass (fit + recommend) speedup
            # of the columnar path over the per-customer path.
            speedups.append(passes[False][0] / passes[True][0])
        columnar_results = passes[True][1]
        identical_columnar = len(blobs) == 1
        digest = hashlib.sha256(canonical_bytes(columnar_results)).hexdigest()[:16]
        columnar_speedup = statistics.median(speedups)
        per_customer_seconds = statistics.median(recommend_seconds[False])
        columnar_seconds = statistics.median(recommend_seconds[True])
        summary = summarize_fleet(columnar_results)
        line = (
            f"n={size:>6}  per-customer {size / per_customer_seconds:>8.1f} cust/s "
            f"({per_customer_seconds:.2f}s)  columnar {size / columnar_seconds:>8.1f} cust/s "
            f"({columnar_seconds:.2f}s)  columnar-speedup(fit+rec) {columnar_speedup:.2f}x "
            f"[{min(speedups):.2f}-{max(speedups):.2f}x]  "
            f"identical={identical_columnar}  sha256[:16]={digest}  "
            f"recommended={summary.n_recommended} failed={summary.n_failed}"
        )
        print(line)
        lines.append(line)
        size_records.append(
            {
                "n_customers": size,
                "per_customer_cust_per_sec": size / per_customer_seconds,
                "columnar_cust_per_sec": size / columnar_seconds,
                "columnar_fit_plus_recommend_speedup": columnar_speedup,
                "columnar_fit_plus_recommend_speedups": speedups,
                "identical_columnar": identical_columnar,
                "n_recommended": summary.n_recommended,
                "n_failed": summary.n_failed,
            }
        )
        if not identical_columnar:
            failed_identity = True
        if not args.smoke and columnar_speedup < args.min_columnar_speedup:
            failed_columnar = True

    columnar_fit_seconds = statistics.median(fit_seconds[True])
    per_customer_fit_seconds = statistics.median(fit_seconds[False])
    n_records = train_size
    fit_line = (
        f"fit n={n_records:>5}  per-customer {n_records / per_customer_fit_seconds:>8.1f} rec/s "
        f"({per_customer_fit_seconds:.2f}s)  columnar {n_records / columnar_fit_seconds:>8.1f} rec/s "
        f"({columnar_fit_seconds:.2f}s)  speedup "
        f"{per_customer_fit_seconds / columnar_fit_seconds:.2f}x"
    )
    print(fit_line)
    lines.append(fit_line)

    if args.smoke:
        lines.append("smoke mode: speedup gates skipped (timing noise on shared CI runners)")

    record = {
        "benchmark": "fleet",
        "timestamp": time.time(),
        "python": platform.python_version(),
        "smoke": args.smoke,
        "cores": cores,
        "min_columnar_speedup": args.min_columnar_speedup,
        "repeats": repeats,
        "fit": {
            "n_records": n_records,
            "per_customer_records_per_sec": n_records / per_customer_fit_seconds,
            "columnar_records_per_sec": n_records / columnar_fit_seconds,
        },
        "sizes": size_records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    RESULTS_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"Report written to {RESULTS_PATH}")
    print(f"Perf record written to {JSON_PATH}")

    if failed_identity:
        print(
            "FAIL: the columnar and per-customer passes are not byte-identical",
            file=sys.stderr,
        )
        return 1
    if failed_columnar:
        print(
            f"FAIL: median columnar fit+recommend speedup below "
            f"{args.min_columnar_speedup:.1f}x over the per-customer path",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
