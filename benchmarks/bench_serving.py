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
  backpressure story.  Its mean offered rate is half the closed-loop
  capacity this run has just measured, so its spike bins offer more
  than the service can serve on any machine.  Rejections must be
  accounted, not silent: the driver's count must equal the service's.
* **HTTP closed loop**: the same closed-loop driver through
  :class:`~repro.serve.loadgen.HttpLoadClient` against the stdlib
  HTTP front end on a real loopback socket -- parsing, framing and
  connection reuse included in the measured path.  The server-side
  admitted count must match the client-side completion count.

The two open loops and the HTTP loop each run three times, every run
on a fresh service; each record is the run with the median p95, so a
recorded ``p95_ms`` is the median of three runs and one scheduler stall
moves one run, not the record.  Each open-loop run prints its
admitted p95, p99 and max; the record also holds the process's peak
RSS (``peak_rss_mb``).

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
the HTTP section's server-side accounting disagrees with the client,
5 when an open loop's driver counts other rejections than its service
or (full mode) the flash crowd sheds nothing.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import platform
import resource
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
    config = ServeConfig(n_shards=1, max_batch=8, queue_limit=1024, slo_ms=60_000.0)
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


#: The capacity and diurnal service: two shards that never shed.
CAPACITY_CONFIG = ServeConfig(
    n_shards=2,
    max_batch=32,
    queue_limit=4096,
    slo_ms=60_000.0,
    watch=WatchConfig(window=64, min_refresh_samples=12),
)

#: The flash crowd's tight service: one shard, a short queue and a
#: small SLO budget, so the burst saturates it.
FLASH_CONFIG = ServeConfig(
    n_shards=1,
    max_batch=16,
    queue_limit=32,
    slo_ms=25.0,
    watch=WatchConfig(window=64, min_refresh_samples=12),
)

#: Repetitions of each open loop and of the HTTP closed loop; each
#: section records its median-p95 run.
RUNS = 3

#: The flash crowd's mean offered rate as a share of the closed-loop
#: capacity just measured.  The pattern's spike bins run at 2-6x its
#: mean (3.3x at the default seed), so they offer more than the service
#: sustained closed loop on any machine, while the in-process driver
#: (which shares the loop) is not itself the bottleneck of every bin.
FLASH_LOAD = 0.5


async def run_capacity(
    fleet: FleetEngine,
    feed: list[FleetSample],
    n_workers: int,
    n_requests: int,
) -> tuple[dict, dict]:
    """Closed-loop observe capacity: requests/s at fixed concurrency."""
    async with RecommendationService(fleet, CAPACITY_CONFIG) as service:
        closed = await closed_loop(
            round_robin_submit(service, feed), n_workers=n_workers, n_requests=n_requests
        )
        stats = service.stats()
    return closed.to_dict(), stats


async def run_open_loop(
    fleet: FleetEngine,
    feed: list[FleetSample],
    config: ServeConfig,
    schedule: list[float],
    name: str,
) -> dict:
    """One open-loop run on a fresh service, with its accounting.

    The driver accounts every rejection; the service's own count must
    agree.  Under the flash crowd the reject-with-retry-after contract
    keeps the latency of *admitted* requests bounded instead of
    queueing without limit.
    """
    async with RecommendationService(fleet, config) as service:
        report = await open_loop(round_robin_submit(service, feed), schedule, name=name)
        stats = service.stats()
    record = report.to_dict()
    record["service_n_rejected"] = stats["observe"]["n_rejected"]
    batches = [shard["batches"] for shard in stats["observe"]["shards"]]
    flushes = sum(batch["n_flushes"] for batch in batches)
    record["mean_batch"] = (
        sum(batch["n_items"] for batch in batches) / flushes if flushes else 0.0
    )
    return record


def median_p95_run(runs: list[dict]) -> dict:
    """The run with the median p95, plus every run's p95."""
    record = dict(sorted(runs, key=lambda run: run["p95_ms"])[len(runs) // 2])
    record["runs"] = len(runs)
    record["p95_ms_by_run"] = [run["p95_ms"] for run in runs]
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
    async with RecommendationService(fleet, CAPACITY_CONFIG) as service:
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
        flash_duration_s = 1.5
        http_requests = 200
    else:
        n_rec_customers = 24
        n_workers, n_requests = 8, 3000
        open_duration_s, open_mean_rps = 5.0, 300.0
        flash_duration_s = 4.0
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

    print(f"Closed-loop observe: {n_workers} workers x {n_requests} requests ...")
    closed_record, capacity_stats = asyncio.run(
        run_capacity(fleet, feed, n_workers=n_workers, n_requests=n_requests)
    )
    print(
        f"  closed {closed_record['requests_per_sec']:>8.1f} req/s"
        f"   p50 {closed_record['p50_ms']:.2f}ms"
        f"   p95 {closed_record['p95_ms']:.2f}ms"
        f"   p99 {closed_record['p99_ms']:.2f}ms"
    )

    def open_loop_runs(config, pattern, duration_s, mean_rps, name) -> list[dict]:
        schedule = arrival_times(
            pattern,
            duration_s=duration_s,
            mean_rps=mean_rps,
            rng=np.random.default_rng(args.seed),
        )
        runs = []
        for _ in range(RUNS):
            run = asyncio.run(run_open_loop(fleet, feed, config, schedule, name))
            run["offered_rps"] = len(schedule) / duration_s
            print(
                f"  {run['requests_per_sec']:>9.1f} req/s admitted"
                f"   rejected {run['n_rejected']} ({run['rejection_rate']:.0%})"
                f"   p95 {run['p95_ms']:.2f}ms   p99 {run['p99_ms']:.2f}ms"
                f"   max {run['max_ms']:.2f}ms   mean batch {run['mean_batch']:.2f}"
            )
            runs.append(run)
        return runs

    print(
        f"Open-loop diurnal at ~{open_mean_rps:.0f} rps over {open_duration_s:.1f}s, "
        f"{RUNS} runs ..."
    )
    diurnal_runs = open_loop_runs(
        CAPACITY_CONFIG, diurnal_pattern(), open_duration_s, open_mean_rps,
        "open_loop_diurnal",
    )
    flash_mean_rps = FLASH_LOAD * closed_record["requests_per_sec"]
    print(
        f"Flash crowd vs tight config: ~{flash_mean_rps:.0f} rps mean offered "
        f"({FLASH_LOAD:.0%} of the closed-loop capacity) over "
        f"{flash_duration_s:.1f}s, 1 shard, queue 32, SLO 25ms, {RUNS} runs ..."
    )
    flash_runs = open_loop_runs(
        FLASH_CONFIG, flash_crowd_pattern(), flash_duration_s, flash_mean_rps,
        "open_loop_flash_scaled",
    )

    print(
        f"HTTP closed loop: {n_workers} workers x {http_requests} requests "
        f"over loopback sockets, {RUNS} runs ..."
    )
    http_runs = [
        asyncio.run(run_http(fleet, feed, n_workers=n_workers, n_requests=http_requests))
        for _ in range(RUNS)
    ]
    for run in http_runs:
        print(
            f"  http {run['requests_per_sec']:>10.1f} req/s"
            f"   p50 {run['p50_ms']:.2f}ms"
            f"   p95 {run['p95_ms']:.2f}ms"
            f"   consistent={run['accounting_consistent']}"
        )
    diurnal_record = median_p95_run(diurnal_runs)
    flash_record = median_p95_run(flash_runs)
    # Linux reports ru_maxrss in KiB: the whole run's high-water mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"Peak RSS {peak_rss_mb:.1f} MB")

    record = {
        "benchmark": "serving",
        "timestamp": time.time(),
        "python": platform.python_version(),
        "smoke": args.smoke,
        "identity": identity_record,
        "closed_loop": closed_record,
        "open_loop_diurnal": diurnal_record,
        "open_loop_flash_scaled": flash_record,
        "http_closed_loop": median_p95_run(http_runs),
        "observe_batches": [
            shard["batches"] for shard in capacity_stats["observe"]["shards"]
        ],
        "peak_rss_mb": peak_rss_mb,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    TEXT_PATH.write_text(
        f"serving benchmark: closed {closed_record['requests_per_sec']:.1f} req/s "
        f"p95 {closed_record['p95_ms']:.2f}ms  "
        f"flash rejected {flash_record['rejection_rate']:.0%} of "
        f"{flash_record['offered_rps']:.0f} req/s  "
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
    open_runs = diurnal_runs + flash_runs
    n_errors = closed_record["n_errors"] + sum(
        run["n_errors"] for run in open_runs + http_runs
    )
    if n_errors:
        print(
            f"FAIL: {n_errors} load-driver requests errored (expected 0; "
            "rejections are accounted separately)",
            file=sys.stderr,
        )
        return 2
    for run in http_runs:
        if not run["accounting_consistent"]:
            print(
                "FAIL: server-side observe accounting "
                f"(processed {run['server_n_processed']}, "
                f"rejected {run['server_n_rejected']}) disagrees with the "
                f"HTTP client (ok {run['n_ok']}, "
                f"rejected {run['n_rejected']})",
                file=sys.stderr,
            )
            return 4
    for run in open_runs:
        if run["n_rejected"] != run["service_n_rejected"]:
            print(
                f"FAIL: {run['name']} driver counted {run['n_rejected']} "
                f"rejections, the service {run['service_n_rejected']}",
                file=sys.stderr,
            )
            return 5
    if args.smoke:
        print("smoke mode: throughput gates skipped (timing noise on shared CI runners)")
        return 0
    if not all(run["n_rejected"] for run in flash_runs):
        print(
            "FAIL: the flash crowd shed nothing at "
            f"{flash_record['offered_rps']:.0f} req/s mean offered; the "
            "backpressure section did not saturate its shard",
            file=sys.stderr,
        )
        return 5
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
