"""Serving-tier benchmark: the asyncio recommendation service under load.

Drives :class:`~repro.serve.RecommendationService` -- the online front
door over :class:`~repro.fleet.engine.FleetEngine` -- with the repo's
own load harness (:mod:`repro.serve.loadgen`) and records the serving
numbers the paper's deployment story turns on:

* **Identity gate** (always blocking): recommendations answered
  through the service's microbatched ``recommend`` lane must be
  byte-identical to a direct ``recommend_fleet`` pass over the same
  customers.  The serving tier is a scheduler, not a second engine.
* **Closed loop**: ``n_workers`` concurrent callers hammer the
  ``observe`` endpoint -- sustained requests/s under fixed concurrency
  plus p50/p95/p99 latency.  These are the metrics pinned in
  ``benchmarks/perf_floors.json`` (throughput floor, p95 ceiling).
* **Open loop, diurnal**: a full diurnal day compressed onto a few
  seconds of wall clock; latency under a demand curve the service
  does not control.
* **Open loop, flash crowd**: a spike burst against a deliberately
  tight config (one shard, short queue, small SLO budget) -- the
  backpressure story.  Rejections must be accounted, not silent.
* **HTTP closed loop**: the same closed-loop driver through
  :class:`~repro.serve.loadgen.HttpLoadClient` against the stdlib
  HTTP front end on a real loopback socket -- parsing, framing and
  connection reuse included in the measured path.  The server-side
  admitted count must match the client-side completion count.

Standalone script (not a pytest benchmark)::

    python benchmarks/bench_serving.py           # full run
    python benchmarks/bench_serving.py --smoke   # tiny CI-sized run

Emits a machine-readable perf record to
``benchmarks/results/BENCH_serving.json`` (same record shape as
``BENCH_streaming.json``; uploaded as a CI artifact and diffed across
commits by ``benchmarks/perf_trend.py``).

Exit status: 1 when served recommendations diverge from the direct
fleet pass, 2 when any load driver sees unexpected request errors,
3 when the full-mode closed-loop throughput sanity gate fails, 4 when
the HTTP section's server-side accounting disagrees with the client.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # running as a script without installation
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import (
    DopplerEngine,
    FleetCustomer,
    FleetEngine,
    RecommendationService,
    ServeConfig,
    SkuCatalog,
    WatchConfig,
)
from repro.catalog import DeploymentType
from repro.fleet import FleetRecommendation, FleetSample
from repro.serve import (
    HttpLoadClient,
    arrival_times,
    closed_loop,
    diurnal_pattern,
    flash_crowd_pattern,
    open_loop,
    serve,
)
from repro.telemetry import PerfDimension
from repro.workloads import DiurnalPattern, PlateauPattern, SpikyPattern, WorkloadSpec, generate_trace

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_serving.json"
TEXT_PATH = RESULTS_DIR / "serving.txt"


def make_customers(n: int, seed: int) -> list[FleetCustomer]:
    """``n`` synthetic DB customers for the recommend identity gate."""
    rng = np.random.default_rng(seed)
    customers = []
    for index in range(n):
        cpu_peak = float(np.exp(rng.uniform(np.log(1.5), np.log(24.0))))
        spec = WorkloadSpec(
            patterns={
                PerfDimension.CPU: DiurnalPattern(trough=cpu_peak * 0.3, peak=cpu_peak),
                PerfDimension.MEMORY: PlateauPattern(
                    level=cpu_peak * float(rng.uniform(2.5, 5.5))
                ),
                PerfDimension.IOPS: SpikyPattern(
                    base=cpu_peak * 60.0,
                    peak=cpu_peak * float(rng.uniform(200.0, 600.0)),
                    spike_probability=0.01,
                ),
                PerfDimension.LOG_RATE: DiurnalPattern(
                    trough=cpu_peak * 0.4, peak=cpu_peak * 2.0
                ),
            },
            storage_gb=float(rng.uniform(30.0, 600.0)),
            base_latency_ms=float(rng.uniform(4.0, 8.0)),
            entity_id=f"serve-bench-{index:05d}",
        )
        trace = generate_trace(spec, duration_days=2.0, interval_minutes=60.0, rng=rng)
        customers.append(
            FleetCustomer(
                customer_id=spec.entity_id,
                trace=trace,
                deployment=DeploymentType.SQL_DB,
            )
        )
    return customers


def make_observe_feed(n_customers: int, samples_each: int, seed: int) -> list[FleetSample]:
    """An interleaved fleet telemetry feed for the observe endpoint."""
    rng = np.random.default_rng(seed)
    scales = 0.5 + 3.0 * rng.random(n_customers)
    feed = []
    for sample_index in range(samples_each):
        for customer, scale in enumerate(scales):
            feed.append(
                FleetSample(
                    customer_id=f"serve-cust-{customer:05d}",
                    values={
                        PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.8))),
                        PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 2.0))),
                        PerfDimension.IOPS: float(scale * abs(rng.normal(350.0, 120.0))),
                        PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.3),
                        PerfDimension.LOG_RATE: float(scale * abs(rng.normal(2.5, 0.8))),
                        PerfDimension.STORAGE: 150.0 + sample_index * 0.1,
                    },
                )
            )
    return feed


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


def round_robin_submit(service: RecommendationService, feed: list[FleetSample]):
    """A submit closure cycling through the feed, one sample per call."""
    counter = itertools.count()

    def submit():
        return service.observe(feed[next(counter) % len(feed)])

    return submit


async def run_identity(fleet: FleetEngine, customers: list[FleetCustomer]) -> dict:
    """Served recommend answers vs a direct ``recommend_fleet`` pass."""
    config = ServeConfig(
        n_shards=1, max_batch=8, max_delay_ms=2.0, queue_limit=1024, slo_ms=60_000.0
    )
    start = time.perf_counter()
    async with RecommendationService(fleet, config) as service:
        served = list(
            await asyncio.gather(*(service.recommend(customer) for customer in customers))
        )
    served_seconds = time.perf_counter() - start
    start = time.perf_counter()
    # recommend_fleet is a lazy generator: materialize the pass inside
    # the timer, or only the generator's creation is measured.
    direct = list(fleet.recommend_fleet(customers))
    direct_seconds = time.perf_counter() - start
    # Raw seconds, deliberately not *_per_sec: the direct pass rides the
    # batch curve cache the served pass warmed, so a throughput leaf here
    # would be a cache artifact, not a trend signal.
    return {
        "n_customers": len(customers),
        "identical": canonical_bytes(served) == canonical_bytes(direct),
        "served_seconds": served_seconds,
        "direct_seconds": direct_seconds,
    }


async def run_capacity(
    fleet: FleetEngine,
    feed: list[FleetSample],
    n_workers: int,
    n_requests: int,
    open_duration_s: float,
    open_mean_rps: float,
    seed: int,
) -> tuple[dict, dict, dict]:
    """Closed-loop capacity plus the open-loop diurnal run."""
    config = ServeConfig(
        n_shards=2,
        max_batch=32,
        max_delay_ms=2.0,
        queue_limit=4096,
        slo_ms=60_000.0,
        watch=WatchConfig(window=64, min_refresh_samples=12),
    )
    async with RecommendationService(fleet, config) as service:
        submit = round_robin_submit(service, feed)
        closed = await closed_loop(submit, n_workers=n_workers, n_requests=n_requests)
        schedule = arrival_times(
            diurnal_pattern(),
            duration_s=open_duration_s,
            mean_rps=open_mean_rps,
            rng=np.random.default_rng(seed),
        )
        diurnal = await open_loop(submit, schedule, name="open_loop_diurnal")
        stats = service.stats()
    return closed.to_dict(), diurnal.to_dict(), stats


async def run_flash_crowd(
    fleet: FleetEngine,
    feed: list[FleetSample],
    duration_s: float,
    mean_rps: float,
    seed: int,
) -> dict:
    """A spike burst against a tight config: the backpressure run.

    One shard, a short queue and a small SLO budget make saturation
    reachable on any machine; the driver accounts every rejection and
    the reject-with-retry-after contract keeps latency of *admitted*
    requests bounded instead of queueing without limit.
    """
    config = ServeConfig(
        n_shards=1,
        max_batch=16,
        max_delay_ms=1.0,
        queue_limit=32,
        slo_ms=25.0,
        watch=WatchConfig(window=64, min_refresh_samples=12),
    )
    async with RecommendationService(fleet, config) as service:
        schedule = arrival_times(
            flash_crowd_pattern(),
            duration_s=duration_s,
            mean_rps=mean_rps,
            rng=np.random.default_rng(seed),
        )
        report = await open_loop(
            round_robin_submit(service, feed), schedule, name="open_loop_flash"
        )
        stats = service.stats()
    record = report.to_dict()
    record["observe_queue_rejections"] = stats["observe"]["n_rejected"]
    return record


async def run_http(
    fleet: FleetEngine,
    feed: list[FleetSample],
    n_workers: int,
    n_requests: int,
) -> dict:
    """Closed-loop observe through the HTTP front end on loopback.

    Same service shape as the in-process capacity run, but every
    request rides a real socket: the client serializes the wire JSON,
    the server parses and frames, and connections are reused across
    requests.  The gap between this number and the in-process
    closed-loop number is the transport cost.
    """
    config = ServeConfig(
        n_shards=2,
        max_batch=32,
        max_delay_ms=2.0,
        queue_limit=4096,
        slo_ms=60_000.0,
        watch=WatchConfig(window=64, min_refresh_samples=12),
    )
    async with RecommendationService(fleet, config) as service:
        server = await serve(service, host="127.0.0.1", port=0)
        port = server.sockets[0].getsockname()[1]
        counter = itertools.count()
        async with HttpLoadClient("127.0.0.1", port, pool_size=n_workers) as client:

            async def submit():
                await client.observe(feed[next(counter) % len(feed)])

            report = await closed_loop(
                submit, n_workers=n_workers, n_requests=n_requests, name="http_closed_loop"
            )
            stats = await client.stats()
        server.close()
        await server.wait_closed()
    record = report.to_dict()
    # Rejected requests never reach a shard batcher, so the flushed
    # item count must equal the client's completed (ok) count exactly.
    record["server_n_processed"] = sum(
        shard["batches"]["n_items"] for shard in stats["observe"]["shards"]
    )
    record["server_n_rejected"] = stats["observe"]["n_rejected"]
    record["accounting_consistent"] = (
        record["server_n_processed"] == record["n_ok"]
        and record["server_n_rejected"] == record["n_rejected"]
    )
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny fast run for CI"
    )
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args(argv)

    if args.smoke:
        n_rec_customers = 6
        n_workers, n_requests = 8, 400
        open_duration_s, open_mean_rps = 1.5, 150.0
        flash_duration_s, flash_mean_rps = 1.5, 400.0
        http_requests = 200
    else:
        n_rec_customers = 24
        n_workers, n_requests = 8, 3000
        open_duration_s, open_mean_rps = 5.0, 300.0
        flash_duration_s, flash_mean_rps = 4.0, 600.0
        http_requests = 1500

    engine = DopplerEngine(catalog=SkuCatalog.default())
    fleet = FleetEngine(engine=engine, backend="serial")
    customers = make_customers(n_rec_customers, seed=args.seed)
    feed = make_observe_feed(n_customers=32, samples_each=24, seed=args.seed)

    print(f"Serving identity gate: {n_rec_customers} customers, served vs direct ...")
    identity_record = asyncio.run(run_identity(fleet, customers))
    print(
        f"  served {identity_record['served_seconds']:.3f}s"
        f"   direct {identity_record['direct_seconds']:.3f}s"
        f"   identical={identity_record['identical']}"
    )

    print(
        f"Closed-loop observe: {n_workers} workers x {n_requests} requests, "
        f"then open-loop diurnal at ~{open_mean_rps:.0f} rps ..."
    )
    closed_record, diurnal_record, capacity_stats = asyncio.run(
        run_capacity(
            fleet,
            feed,
            n_workers=n_workers,
            n_requests=n_requests,
            open_duration_s=open_duration_s,
            open_mean_rps=open_mean_rps,
            seed=args.seed,
        )
    )
    print(
        f"  closed {closed_record['requests_per_sec']:>8.1f} req/s"
        f"   p50 {closed_record['p50_ms']:.2f}ms"
        f"   p95 {closed_record['p95_ms']:.2f}ms"
        f"   p99 {closed_record['p99_ms']:.2f}ms"
    )
    print(
        f"  diurnal {diurnal_record['requests_per_sec']:>7.1f} req/s"
        f"   p95 {diurnal_record['p95_ms']:.2f}ms"
        f"   rejected {diurnal_record['n_rejected']}"
    )

    print(
        f"Flash crowd vs tight config: ~{flash_mean_rps:.0f} rps offered over "
        f"{flash_duration_s:.1f}s, 1 shard, queue 32, SLO 25ms ..."
    )
    flash_record = asyncio.run(
        run_flash_crowd(
            fleet,
            feed,
            duration_s=flash_duration_s,
            mean_rps=flash_mean_rps,
            seed=args.seed,
        )
    )
    print(
        f"  flash {flash_record['requests_per_sec']:>9.1f} req/s admitted"
        f"   rejected {flash_record['n_rejected']}"
        f" ({flash_record['rejection_rate']:.0%})"
        f"   p95 {flash_record['p95_ms']:.2f}ms"
    )

    print(
        f"HTTP closed loop: {n_workers} workers x {http_requests} requests "
        "over loopback sockets ..."
    )
    http_record = asyncio.run(
        run_http(fleet, feed, n_workers=n_workers, n_requests=http_requests)
    )
    print(
        f"  http {http_record['requests_per_sec']:>10.1f} req/s"
        f"   p50 {http_record['p50_ms']:.2f}ms"
        f"   p95 {http_record['p95_ms']:.2f}ms"
        f"   consistent={http_record['accounting_consistent']}"
    )

    record = {
        "benchmark": "serving",
        "timestamp": time.time(),
        "python": platform.python_version(),
        "smoke": args.smoke,
        "identity": identity_record,
        "closed_loop": closed_record,
        "open_loop_diurnal": diurnal_record,
        "open_loop_flash": flash_record,
        "http_closed_loop": http_record,
        "observe_batches": [
            shard["batches"] for shard in capacity_stats["observe"]["shards"]
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    TEXT_PATH.write_text(
        f"serving benchmark: closed {closed_record['requests_per_sec']:.1f} req/s "
        f"p95 {closed_record['p95_ms']:.2f}ms  "
        f"flash rejected {flash_record['n_rejected']}  "
        f"identical={identity_record['identical']}\n",
        encoding="utf-8",
    )
    print(f"Perf record written to {JSON_PATH}")

    if not identity_record["identical"]:
        print(
            "FAIL: served recommendations diverge from the direct "
            "recommend_fleet pass",
            file=sys.stderr,
        )
        return 1
    # Drivers classify rejections separately; an *error* outcome means
    # a request died inside the service, which blocks in every mode.
    n_errors = (
        closed_record["n_errors"]
        + diurnal_record["n_errors"]
        + flash_record["n_errors"]
        + http_record["n_errors"]
    )
    if n_errors:
        print(
            f"FAIL: {n_errors} load-driver requests errored (expected 0; "
            "rejections are accounted separately)",
            file=sys.stderr,
        )
        return 2
    if not http_record["accounting_consistent"]:
        print(
            "FAIL: server-side observe accounting "
            f"(processed {http_record['server_n_processed']}, "
            f"rejected {http_record['server_n_rejected']}) disagrees with the "
            f"HTTP client (ok {http_record['n_ok']}, "
            f"rejected {http_record['n_rejected']})",
            file=sys.stderr,
        )
        return 4
    if args.smoke:
        print("smoke mode: throughput gates skipped (timing noise on shared CI runners)")
        return 0
    if closed_record["requests_per_sec"] < 50.0:
        print(
            f"FAIL: closed-loop observe throughput "
            f"{closed_record['requests_per_sec']:.1f} req/s below the 50 req/s "
            "sanity threshold",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
