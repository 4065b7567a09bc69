"""Streaming assessment benchmark: per-sample updates vs full rebuilds.

Measures the core claim of the streaming subsystem: maintaining
per-SKU throttling probabilities with
:class:`~repro.core.incremental.IncrementalThrottlingEstimator` costs
O(n_skus * n_dims) per sample, while keeping the batch
:class:`~repro.core.throttling.EmpiricalThrottlingEstimator` fresh
requires a full window re-scan per sample.  The benchmark feeds the
same telemetry stream through both paths, verifies they agree to
1e-12 at the end, and reports updates/sec and the speedup, plus the
end-to-end :class:`~repro.streaming.live.LiveRecommender` observe()
throughput.

Standalone script (not a pytest benchmark)::

    python benchmarks/bench_streaming.py           # 1000 samples x 50 SKUs
    python benchmarks/bench_streaming.py --smoke   # tiny CI-sized run

Also benchmarks the streaming profiling path: per-dimension
:class:`~repro.telemetry.streaming.StreamingSeriesStats` (windowed
moments, extremes and quantile sketches maintained in O(1) per
sample) against re-running the thresholding summarizer over the full
window each sample, as three alternating pairs in smoke mode and five
in full mode (rates and speedup are medians over the pairs), with an
accuracy gate on the sketch's documented
rank error, a 3x gate on the median per-pair speedup and an O(1)
gate on the per-sample cost across window lengths.

Also times one watch shard's ``_WatchShard.process`` over warmed
customers at one-sample ticks (the serving tier's observe flushes) and
at 64-sample ticks (the serial watch), three alternating runs each,
recording each shape's median rate; the streams must be equal.

Also benchmarks the process-sharded fleet watch
(:meth:`~repro.fleet.engine.FleetEngine.watch_fleet` with
``backend="process"``): one interleaved feed over many customers,
1 worker vs N workers, verifying the update stream stays
byte-identical to the serial backend -- at its default tick and at
1-sample ticks, which never defer a refresh -- and (on machines with
enough cores) that N workers deliver a real customers/s scaling.

Emits a machine-readable perf record to
``benchmarks/results/BENCH_streaming.json`` (uploaded as a CI
artifact) so the perf trajectory accumulates across commits;
``benchmarks/perf_trend.py`` diffs these records between runs.

Also benchmarks the **elastic watch** (``watch_fleet(rebalance=...)``)
on a deliberately skewed feed: customer ids are mined so the static
consistent-hash routing piles >= 4x the customers of any other shard
onto shard 0, then the same feed runs statically and under
:class:`~repro.fleet.rebalance.LoadImbalancePolicy` at 4 process
workers.  The update streams must stay byte-identical to serial in
both runs (migration schedules are invisible in the output), and on
machines with >= 4 real cores rebalancing must beat static sharding
by 1.3x.

Also benchmarks the **durable watch** (``WatchConfig(checkpoint=...)``
backed by a :class:`~repro.store.FleetStore`): the same serial feed
runs memory-only and checkpointing at the default cadence, as one
pair in smoke mode and five alternating pairs in full mode, asserting
the update streams are byte-identical, that resuming from the store's
last checkpoint reproduces the baseline tail exactly, and (non-smoke)
that the median per-pair checkpointing tax stays within the 10%
budget.

Also benchmarks the **tick plane** the process watch always runs on:
ticks cross the worker queues as pickled sample lists and numeric
results return as pickled columns.  The run must stay byte-identical
to serial and leave no shared-memory segment behind (it creates
none).

Exit status: 1 when incremental and batch probabilities disagree,
2 when the estimator speedup misses the threshold, 3 when streaming
profiling diverges from the window re-scan, 4 when streaming
profiling misses its O(1)/speedup contract (median per-pair speedup
below 3x), 5 when the sharded watch or the
1-sample-tick serial watch (or the shard at one-sample ticks)
diverges from the serial one or the sharded watch misses the scaling
gate, 6 when the
skewed-feed run diverges from serial or rebalancing misses its
speedup gate, 7 when the checkpointed watch diverges from the
memory-only run, resume breaks byte-identity, or the checkpoint
overhead (median over pairs) exceeds the 10% budget, 8 when the
process watch diverges from serial or a shared-memory segment
appears.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # running as a script without installation
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import (
    DeploymentType,
    DopplerEngine,
    IncrementalThrottlingEstimator,
    LiveRecommender,
    PerfDimension,
    SkuCatalog,
    StreamingTraceBuilder,
)
from repro.catalog import HardwareGeneration, ResourceLimits, ServiceTier, SkuSpec
from repro.core import CustomerProfiler, EmpiricalThrottlingEstimator, ThresholdingSummarizer
from repro.fleet import (
    CheckpointConfig,
    FleetEngine,
    FleetSample,
    LoadImbalancePolicy,
    ShardRing,
    WatchConfig,
)
from repro.store import FleetStore
from repro.telemetry import StreamingSeriesStats
from repro.telemetry.counters import DB_DIMENSIONS, PROFILING_DB_DIMENSIONS

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_streaming.json"
TEXT_PATH = RESULTS_DIR / "streaming.txt"


def make_sku_ladder(n_skus: int) -> list[SkuSpec]:
    """A dense ladder of ``n_skus`` distinct DB SKUs for the sweep."""
    skus = []
    for index in range(n_skus):
        vcores = 1.0 + index * 0.75
        skus.append(
            SkuSpec(
                deployment=DeploymentType.SQL_DB,
                tier=ServiceTier.GENERAL_PURPOSE,
                hardware=HardwareGeneration.GEN5,
                limits=ResourceLimits(
                    vcores=vcores,
                    max_memory_gb=vcores * 5.2,
                    max_data_iops=vcores * 320.0,
                    max_log_rate_mbps=vcores * 3.75,
                    max_data_size_gb=1024.0,
                    min_io_latency_ms=5.0,
                ),
                price_per_hour=vcores * 0.2525,
                name=f"bench-sku-{index:03d}",
            )
        )
    return skus


def make_samples(n: int, seed: int) -> list[dict[PerfDimension, float]]:
    """A shifting six-dimension telemetry feed."""
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(n):
        scale = 1.0 + 6.0 * (index / max(n - 1, 1))  # steady demand growth
        samples.append(
            {
                PerfDimension.CPU: float(scale * abs(rng.normal(2.5, 1.0))),
                PerfDimension.MEMORY: float(scale * abs(rng.normal(10.0, 3.0))),
                PerfDimension.IOPS: float(scale * abs(rng.normal(400.0, 150.0))),
                PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.3),
                PerfDimension.LOG_RATE: float(scale * abs(rng.normal(3.0, 1.0))),
                PerfDimension.STORAGE: 200.0 + index * 0.05,
            }
        )
    return samples


def bench_estimators(
    skus: list[SkuSpec], samples: list[dict[PerfDimension, float]]
) -> dict:
    """Incremental per-sample updates vs rebuild-per-sample."""
    n = len(samples)
    dims = DB_DIMENSIONS

    incremental = IncrementalThrottlingEstimator(skus, dims, window=n)
    start = time.perf_counter()
    for sample in samples:
        incremental.update(sample)
        incremental.probabilities()  # the fresh estimate each sample buys
    incremental_seconds = time.perf_counter() - start

    builder = StreamingTraceBuilder(dims, window=n)
    batch = EmpiricalThrottlingEstimator()
    start = time.perf_counter()
    for sample in samples:
        builder.append(sample)
        rebuilt = batch.probabilities(builder.snapshot(), skus, dims)
    rebuild_seconds = time.perf_counter() - start

    max_diff = float(np.max(np.abs(incremental.probabilities() - rebuilt)))
    return {
        "n_samples": n,
        "n_skus": len(skus),
        "n_dims": len(dims),
        "incremental_seconds": incremental_seconds,
        "rebuild_seconds": rebuild_seconds,
        "incremental_updates_per_sec": n / incremental_seconds,
        "rebuild_updates_per_sec": n / rebuild_seconds,
        "speedup": rebuild_seconds / incremental_seconds,
        "max_abs_diff": max_diff,
    }


def bench_profiling(
    samples: list[dict[PerfDimension, float]], window: int, pairs: int = 1
) -> dict:
    """Streaming profiling refresh vs per-sample window re-scan.

    Maintains one :class:`StreamingSeriesStats` per profiled dimension
    (O(1) ingestion + O(1)-in-window summarizer evaluation) against
    the batch path that re-runs the thresholding summarizer over the
    full window on every sample.  Verifies the two paths agree on the
    near-peak fraction within the sketch's documented rank error.
    The two legs run as ``pairs`` back-to-back pairs, alternating
    which goes first; the speedup is the median of the per-pair
    ratios, so one slow stretch of the box moves one pair rather than
    the verdict.
    """
    summarizer = ThresholdingSummarizer()
    profiler = CustomerProfiler(
        dimensions=PROFILING_DB_DIMENSIONS, summarizer=summarizer
    )
    dims = PROFILING_DB_DIMENSIONS
    # Replay the feed twice so the sliding window saturates and the
    # re-scan path pays its real full-window cost for half the run.
    feed = samples + samples

    def streaming_leg():
        stats = {dim: StreamingSeriesStats(window=window) for dim in dims}
        start = time.perf_counter()
        for sample in feed:
            for dim in dims:
                stats[dim].update(sample[dim])
            profile = profiler.profile_streaming(stats)
        return time.perf_counter() - start, profile

    def rescan_leg():
        builder = StreamingTraceBuilder(dims, window=window)
        start = time.perf_counter()
        for sample in feed:
            builder.append(sample)
            profile = profiler.profile(builder.snapshot())
        return time.perf_counter() - start, profile

    seconds: dict = {streaming_leg: [], rescan_leg: []}
    profiles: dict = {}
    for pair in range(pairs):
        legs = (streaming_leg, rescan_leg) if pair % 2 == 0 else (rescan_leg, streaming_leg)
        for leg in legs:
            elapsed, profiles[leg] = leg()
            seconds[leg].append(elapsed)
    streaming_seconds, rescan_seconds = seconds[streaming_leg], seconds[rescan_leg]
    streaming_profile, rescan_profile = profiles[streaming_leg], profiles[rescan_leg]
    pair_speedups = [
        rescan / streaming for streaming, rescan in zip(streaming_seconds, rescan_seconds)
    ]

    # Accuracy: thresholding features carry only sketch rank error
    # (plus the one-block coverage overhang); the bound below is the
    # documented sketch tolerance with slack for the overhang.
    max_feature_diff = float(
        np.max(np.abs(streaming_profile.features - rescan_profile.features))
    )
    n = len(feed)
    return {
        "n_samples": n,
        "window": window,
        "n_dims": len(dims),
        "pairs": pairs,
        "streaming_updates_per_sec": n / float(np.median(streaming_seconds)),
        "rescan_updates_per_sec": n / float(np.median(rescan_seconds)),
        "speedup": float(np.median(pair_speedups)),
        "pair_speedups": pair_speedups,
        "max_feature_diff": max_feature_diff,
        "group_keys_agree": streaming_profile.group_key == rescan_profile.group_key,
    }


def bench_profiling_scaling(seed: int, n_samples: int = 1200) -> dict:
    """Per-sample profiling cost at two window lengths.

    The O(1) evidence: quadrupling the window must not materially move
    the streaming path's per-sample cost (the re-scan path's cost
    grows linearly with the window by construction).
    """
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(10.0, 4.0, n_samples))
    summarizer = ThresholdingSummarizer()
    per_sample_seconds = {}
    for window in (288, 1152):
        stats = StreamingSeriesStats(window=window)
        start = time.perf_counter()
        for value in values:
            stats.update(value)
            summarizer.summarize_streaming(stats)
        per_sample_seconds[window] = (time.perf_counter() - start) / n_samples
    small, large = per_sample_seconds[288], per_sample_seconds[1152]
    return {
        "n_samples": n_samples,
        "windows": [288, 1152],
        "per_sample_us": {str(w): s * 1e6 for w, s in per_sample_seconds.items()},
        "cost_ratio_4x_window": large / small if small else float("inf"),
    }


def make_fleet_feed(
    n_customers: int, samples_each: int, seed: int
) -> list[FleetSample]:
    """An interleaved fleet feed: ``n_customers`` parallel telemetry streams."""
    rng = np.random.default_rng(seed)
    scales = 0.5 + 3.0 * rng.random(n_customers)
    streams = []
    for customer, scale in enumerate(scales):
        streams.append(
            [
                {
                    PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.8))),
                    PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 2.0))),
                    PerfDimension.IOPS: float(scale * abs(rng.normal(350.0, 120.0))),
                    PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.3),
                    PerfDimension.LOG_RATE: float(scale * abs(rng.normal(2.5, 0.8))),
                    PerfDimension.STORAGE: 150.0 + customer * 0.1,
                }
                for _ in range(samples_each)
            ]
        )
    feed = []
    for index in range(samples_each):
        for customer in range(n_customers):
            feed.append(
                FleetSample(
                    customer_id=f"cust-{customer:05d}", values=streams[customer][index]
                )
            )
    return feed


def canonical_watch_bytes(updates) -> bytes:
    """Deterministic byte encoding of a fleet watch for equality checks."""
    lines = []
    for update in updates:
        if update.update is None:
            lines.append(f"{update.customer_id}|ERROR|{update.error}")
        else:
            live = update.update
            rec = live.recommendation
            lines.append(
                f"{update.customer_id}|{live.n_seen}|{live.n_window}"
                f"|{live.refreshed}|{rec.sku.name if rec else None}"
                f"|{rec.expected_throttling!r}"
            )
    return "\n".join(lines).encode("utf-8")


def bench_watch_scaling(
    n_customers: int, samples_each: int, window: int, seed: int, max_workers: int
) -> dict:
    """Process-sharded fleet watch: 1 worker vs N, against serial.

    One feed drives ``n_customers`` concurrent live assessments four
    times -- serial backend at its default tick, serial backend at
    1-sample ticks (the reference that never defers a refresh: every
    refresh runs as its sample arrives), process backend with one
    worker, process backend with ``max_workers`` -- asserting all four
    emit byte-identical update streams (the sticky-routing and
    tick-batching identity contracts) and recording customers/s for
    the scaling trajectory.
    """
    engine = DopplerEngine(catalog=SkuCatalog.default())
    fleet = FleetEngine(engine=engine, backend="serial")
    feed = make_fleet_feed(n_customers, samples_each, seed)
    watch_config = WatchConfig(window=window, min_refresh_samples=min(12, window))

    def run(
        backend: str, workers: int | None, tick_samples: int | None = None
    ) -> tuple[bytes, float]:
        config = watch_config.replace(
            backend=backend, max_workers=workers, tick_samples=tick_samples
        )
        start = time.perf_counter()
        updates = list(fleet.watch_fleet(feed, config=config))
        seconds = time.perf_counter() - start
        return canonical_watch_bytes(updates), seconds

    serial_blob, serial_seconds = run("serial", None)
    tick1_blob, tick1_seconds = run("serial", None, tick_samples=1)
    one_blob, one_seconds = run("process", 1)
    many_blob, many_seconds = run("process", max_workers)
    return {
        "n_customers": n_customers,
        "samples_each": samples_each,
        "window": window,
        "max_workers": max_workers,
        "serial_customers_per_sec": n_customers / serial_seconds,
        "serial_1tick_customers_per_sec": n_customers / tick1_seconds,
        "process_1w_customers_per_sec": n_customers / one_seconds,
        "process_nw_customers_per_sec": n_customers / many_seconds,
        "scaling_vs_1w": one_seconds / many_seconds,
        "identical_serial_1tick": tick1_blob == serial_blob,
        "identical_1w": one_blob == serial_blob,
        "identical_nw": many_blob == serial_blob,
    }


def make_skewed_feed(
    n_hot: int, n_cold_per_shard: int, samples_each: int, seed: int, n_shards: int = 4
) -> tuple[list[FleetSample], dict]:
    """An interleaved feed whose static routing piles onto one shard.

    Customer ids are mined against the default :class:`ShardRing` for
    ``n_shards`` workers so that shard 0 owns ``n_hot`` customers while
    every other shard owns ``n_cold_per_shard`` -- the skew a frozen
    router can never recover from, and exactly what the rebalance
    policy exists to fix.
    """
    ring = ShardRing(n_shards)
    hot_ids: list[str] = []
    cold_ids: dict[int, list[str]] = {shard: [] for shard in range(1, n_shards)}
    index = 0
    while len(hot_ids) < n_hot or any(
        len(ids) < n_cold_per_shard for ids in cold_ids.values()
    ):
        customer_id = f"cust-{index:06d}"
        index += 1
        shard = ring.route(customer_id)
        if shard == 0:
            if len(hot_ids) < n_hot:
                hot_ids.append(customer_id)
        elif len(cold_ids[shard]) < n_cold_per_shard:
            cold_ids[shard].append(customer_id)
    customers = hot_ids + [cid for ids in cold_ids.values() for cid in ids]
    rng = np.random.default_rng(seed)
    scales = {cid: 0.5 + 3.0 * rng.random() for cid in customers}
    feed = []
    for sample_index in range(samples_each):
        for customer_id in customers:
            scale = scales[customer_id]
            feed.append(
                FleetSample(
                    customer_id=customer_id,
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
    skew = {
        "n_customers": len(customers),
        "hot_shard_customers": len(hot_ids),
        "cold_shard_customers": n_cold_per_shard,
        "skew_ratio": len(hot_ids) / max(n_cold_per_shard, 1),
    }
    return feed, skew


def bench_rebalance_skew(
    n_hot: int,
    n_cold_per_shard: int,
    samples_each: int,
    window: int,
    seed: int,
    n_workers: int = 4,
) -> dict:
    """Static vs rebalancing watch throughput under a skewed feed.

    Three runs over the same mined-skew feed: serial (the identity
    reference), static process sharding at ``n_workers`` (the hot
    shard serializes most of the fleet), and elastic process sharding
    under :class:`LoadImbalancePolicy` (migrations shed the hot
    shard's customers onto idle workers mid-watch).  Asserts both
    parallel streams byte-match serial -- migration schedules must be
    invisible in the output -- and records the throughput ratio.
    """
    engine = DopplerEngine(catalog=SkuCatalog.default())
    fleet = FleetEngine(engine=engine, backend="serial")
    feed, skew = make_skewed_feed(n_hot, n_cold_per_shard, samples_each, seed, n_workers)
    n_customers = skew["n_customers"]
    watch_config = WatchConfig(window=window, min_refresh_samples=min(12, window))

    def run(policy) -> tuple[bytes, float]:
        start = time.perf_counter()
        updates = list(
            fleet.watch_fleet(
                feed,
                config=watch_config.replace(
                    backend="process",
                    max_workers=n_workers,
                    rebalance=policy,
                    tick_samples=16,
                ),
            )
        )
        return canonical_watch_bytes(updates), time.perf_counter() - start

    start = time.perf_counter()
    serial_blob = canonical_watch_bytes(fleet.watch_fleet(feed, config=watch_config))
    serial_seconds = time.perf_counter() - start
    static_blob, static_seconds = run(None)
    policy = LoadImbalancePolicy(
        imbalance_threshold=1.3,
        min_samples=max(32, n_customers),
        max_migrations=16,
        interval_ticks=1,
    )
    rebalancing_blob, rebalancing_seconds = run(policy)
    rebalance_stats = fleet.watch_rebalance_stats()
    return {
        **skew,
        "samples_each": samples_each,
        "window": window,
        "n_workers": n_workers,
        "serial_customers_per_sec": n_customers / serial_seconds,
        "static_customers_per_sec": n_customers / static_seconds,
        "rebalancing_customers_per_sec": n_customers / rebalancing_seconds,
        "speedup_vs_static": static_seconds / rebalancing_seconds,
        "identical_static": static_blob == serial_blob,
        "identical_rebalancing": rebalancing_blob == serial_blob,
        "n_rebalances": rebalance_stats.n_rebalances,
        "n_migrations": rebalance_stats.n_migrations,
    }


def bench_checkpoint_overhead(
    n_customers: int, samples_each: int, seed: int, tick_samples: int, pairs: int = 1
) -> dict:
    """Durable-watch tax: a serial watch with and without checkpoints.

    The same interleaved feed runs on the serial backend memory-only
    and checkpointing to a WAL-mode :class:`~repro.store.FleetStore`
    at the default cadence
    (:data:`~repro.fleet.config.DEFAULT_CHECKPOINT_EVERY_TICKS` drained
    ticks of ``tick_samples`` each; 64 is the default watch tick of
    both the serial and the process pools), asserting the update
    streams are byte-identical
    (durability must be invisible in the output) and measuring the
    throughput cost.  The two variants run as ``pairs`` back-to-back
    pairs, alternating which goes first, each checkpointed run on a
    fresh store; the overhead is the median of the per-pair
    overheads, so one slow stretch of the box moves one pair rather
    than the verdict.
    Afterwards a third checkpointed watch on a fresh store is killed
    mid-stream (the generator closed after 60% of the baseline updates)
    and resumed from the store's last checkpoint; the resumed stream
    must byte-match the baseline tail, which is the crash-recovery
    contract the test suite SIGKILLs real processes to verify.
    """
    engine = DopplerEngine(catalog=SkuCatalog.default())
    fleet = FleetEngine(engine=engine, backend="serial")
    feed = make_fleet_feed(n_customers, samples_each, seed)
    watch_config = WatchConfig(
        window=12, min_refresh_samples=12, tick_samples=tick_samples
    )

    def timed_watch(config) -> tuple[float, list]:
        start = time.perf_counter()
        updates = list(fleet.watch_fleet(feed, config=config))
        return time.perf_counter() - start, updates

    with tempfile.TemporaryDirectory() as tmp_dir:
        baseline_updates: list = []
        blobs: set[bytes] = set()
        baseline_seconds: list[float] = []
        durable_seconds: list[float] = []
        n_checkpoints = 0
        state_bytes_per_customer = 0.0
        for pair in range(pairs):
            for durable in (False, True) if pair % 2 == 0 else (True, False):
                if not durable:
                    seconds, updates = timed_watch(watch_config)
                    baseline_seconds.append(seconds)
                    baseline_updates = baseline_updates or updates
                    blobs.add(canonical_watch_bytes(updates))
                    continue
                store = FleetStore(str(Path(tmp_dir) / f"bench_fleet_{pair}.db"))
                seconds, updates = timed_watch(
                    watch_config.replace(checkpoint=CheckpointConfig(store=store))
                )
                durable_seconds.append(seconds)
                blobs.add(canonical_watch_bytes(updates))
                n_checkpoints = store.checkpoint_count()
                latest = store.latest_checkpoint()
                if latest is not None and latest.n_customers:
                    state_bytes_per_customer = latest.n_state_bytes / latest.n_customers
                store.close()
        pair_overheads = [
            durable / baseline - 1.0
            for baseline, durable in zip(baseline_seconds, durable_seconds)
        ]

        # Kill-and-resume identity on a fresh store: consume 60% of the
        # stream, drop the watch, resume from the last checkpoint.
        kill_store = FleetStore(str(Path(tmp_dir) / "bench_killed.db"))
        kill_config = watch_config.replace(checkpoint=CheckpointConfig(store=kill_store))
        killed = []
        stream = fleet.watch_fleet(feed, config=kill_config)
        try:
            for update in stream:
                killed.append(update)
                if len(killed) >= (len(baseline_updates) * 3) // 5:
                    break
        finally:
            stream.close()
        checkpoint = kill_store.require_checkpoint()
        resumed_blob = canonical_watch_bytes(
            fleet.watch_fleet(feed, config=kill_config, resume_from=kill_store)
        )
        tail_blob = canonical_watch_bytes(baseline_updates[checkpoint.n_emitted :])
        kill_store.close()

    return {
        "n_customers": n_customers,
        "samples_each": samples_each,
        "tick_samples": tick_samples,
        "pairs": pairs,
        "baseline_customers_per_sec": n_customers / float(np.median(baseline_seconds)),
        "checkpointed_customers_per_sec": n_customers / float(np.median(durable_seconds)),
        "overhead_fraction": float(np.median(pair_overheads)),
        "pair_overhead_fractions": pair_overheads,
        "n_checkpoints": n_checkpoints,
        # Mean encoded state blob of the last checkpoint's customers:
        # what each checkpoint persists per customer.
        "state_bytes_per_customer": state_bytes_per_customer,
        # Every run, either variant, streamed the same bytes.
        "identical": len(blobs) == 1,
        "resume_identical": resumed_blob == tail_blob,
    }


def bench_zero_copy_watch(
    n_customers: int, samples_each: int, window: int, seed: int, n_workers: int
) -> dict:
    """The process watch on its tick plane.

    The same interleaved feed runs twice: serial (the identity
    reference) and process sharding, whose ticks cross the worker
    queues as pickled sample lists and whose numeric results return as
    pickled columns.  Records whether the process stream byte-matches
    serial and whether ``/dev/shm`` holds no ``doppler-arena`` segment
    after the drain -- the throughput figure never gets to trade
    against hygiene or identity.  The record keeps its historical
    ``zero_copy`` key names.
    """
    from repro.fleet.arena import leaked_segments

    engine = DopplerEngine(catalog=SkuCatalog.default())
    fleet = FleetEngine(engine=engine, backend="serial")
    feed = make_fleet_feed(n_customers, samples_each, seed)
    watch_config = WatchConfig(window=window, min_refresh_samples=min(12, window))

    start = time.perf_counter()
    serial_blob = canonical_watch_bytes(fleet.watch_fleet(feed, config=watch_config))
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    zero_copy_blob = canonical_watch_bytes(
        fleet.watch_fleet(
            feed, config=watch_config.replace(backend="process", max_workers=n_workers)
        )
    )
    zero_copy_seconds = time.perf_counter() - start
    return {
        "n_customers": n_customers,
        "samples_each": samples_each,
        "window": window,
        "n_workers": n_workers,
        "serial_customers_per_sec": n_customers / serial_seconds,
        "zero_copy_customers_per_sec": n_customers / zero_copy_seconds,
        "zero_copy_observe_per_sec": len(feed) / zero_copy_seconds,
        "identical_zero_copy": zero_copy_blob == serial_blob,
        "shm_clean": leaked_segments() == [],
    }


def bench_shard_ticks(
    n_customers: int, warm_each: int, timed_each: int, seed: int, runs: int = 3
) -> dict:
    """One watch shard's ``process`` at one-sample and at 64-sample ticks.

    The serving tier's observe shards call ``_WatchShard.process`` with
    about one sample per flush, a serial watch with 64; both shapes
    run the same columnar tick.  Each run warms a fresh shard over
    ``warm_each`` samples per customer (64-sample ticks, untimed,
    window and warm-up at the serving defaults), then times its next
    ``timed_each`` samples per customer at one tick size.  The two
    sizes alternate for ``runs`` runs each and the record keeps each
    one's median rate, so a slow stretch of the box moves one run;
    the emitted streams must be equal at both sizes.
    """
    from repro.fleet.backends import _WatchShard

    fleet = FleetEngine(engine=DopplerEngine(catalog=SkuCatalog.default()))
    config = fleet._shard_config(WatchConfig(), refreshes_only=False)
    feed = list(enumerate(make_fleet_feed(n_customers, warm_each + timed_each, seed)))
    n_warm = n_customers * warm_each
    warm, timed = feed[:n_warm], feed[n_warm:]

    def run(tick: int) -> tuple[float, bytes]:
        shard = _WatchShard(config)
        for start in range(0, n_warm, 64):
            shard.process(warm[start : start + 64])
        emitted = []
        started = time.perf_counter()
        for start in range(0, len(timed), tick):
            emitted.extend(shard.process(timed[start : start + tick])[0])
        seconds = time.perf_counter() - started
        emitted.sort(key=lambda pair: pair[0])
        return len(timed) / seconds, canonical_watch_bytes(update for _, update in emitted)

    rates: dict[int, list[float]] = {1: [], 64: []}
    blobs: set[bytes] = set()
    for index in range(runs):
        for tick in (1, 64) if index % 2 == 0 else (64, 1):
            rate, blob = run(tick)
            rates[tick].append(rate)
            blobs.add(blob)
    return {
        "n_customers": n_customers,
        "warm_each": warm_each,
        "timed_each": timed_each,
        "runs": runs,
        "one_sample_samples_per_sec": float(np.median(rates[1])),
        "one_sample_us_per_call": 1e6 / float(np.median(rates[1])),
        "one_sample_samples_per_sec_by_run": rates[1],
        "tick64_samples_per_sec": float(np.median(rates[64])),
        "tick64_samples_per_sec_by_run": rates[64],
        "identical": len(blobs) == 1,
    }


def bench_live_loop(samples: list[dict[PerfDimension, float]], window: int) -> dict:
    """End-to-end LiveRecommender observe() throughput."""
    engine = DopplerEngine(catalog=SkuCatalog.default())
    live = LiveRecommender(
        engine, DeploymentType.SQL_DB, window=window, min_refresh_samples=12
    )
    start = time.perf_counter()
    for sample in samples:
        live.observe(sample)
    seconds = time.perf_counter() - start
    return {
        "window": window,
        "n_samples": len(samples),
        "observe_per_sec": len(samples) / seconds,
        "n_refreshes": live.n_refreshes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1000, help="stream length")
    parser.add_argument("--skus", type=int, default=50, help="candidate SKU count")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="required incremental-over-rebuild speedup (default: 10)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny fast run for CI: 200 samples, 12 SKUs"
    )
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args(argv)

    n_samples, n_skus = args.samples, args.skus
    if args.smoke:
        n_samples, n_skus = 200, 12
    if n_samples < 2 or n_skus < 1:
        parser.error("need at least 2 samples and 1 SKU")

    skus = make_sku_ladder(n_skus)
    samples = make_samples(n_samples, seed=args.seed)

    print(f"Streaming estimator benchmark: {n_samples} samples x {n_skus} SKUs ...")
    estimator_record = bench_estimators(skus, samples)
    print(
        f"  incremental {estimator_record['incremental_updates_per_sec']:>10.0f} updates/s"
        f"   rebuild {estimator_record['rebuild_updates_per_sec']:>8.1f} updates/s"
        f"   speedup {estimator_record['speedup']:.1f}x"
        f"   max|diff| {estimator_record['max_abs_diff']:.2e}"
    )

    profile_window = min(n_samples, 1008)  # one week at the DMA cadence
    print(f"Streaming profiling benchmark: window {profile_window} ...")
    profiling_record = bench_profiling(
        samples, window=profile_window, pairs=3 if args.smoke else 5
    )
    pair_speedups = ", ".join(f"{ratio:.1f}x" for ratio in profiling_record["pair_speedups"])
    print(
        f"  streaming {profiling_record['streaming_updates_per_sec']:>10.0f} profiles/s"
        f"   re-scan {profiling_record['rescan_updates_per_sec']:>8.1f} profiles/s"
        f"   speedup {profiling_record['speedup']:.1f}x (pairs {pair_speedups})"
        f"   max|feature diff| {profiling_record['max_feature_diff']:.2e}"
    )
    scaling_record = bench_profiling_scaling(seed=args.seed)
    print(
        f"  per-sample cost at 4x window: {scaling_record['cost_ratio_4x_window']:.2f}x"
        " (O(1) contract: should stay near 1x)"
    )

    live_window = min(n_samples, 288)
    print(f"Live recommendation loop: window {live_window} over the default catalog ...")
    live_record = bench_live_loop(samples, window=live_window)
    print(
        f"  observe {live_record['observe_per_sec']:>8.1f} samples/s"
        f"   refreshes {live_record['n_refreshes']}"
    )

    if args.smoke:
        tick_customers, tick_timed = 32, 16
    else:
        tick_customers, tick_timed = 64, 32
    print(
        f"Watch shard ticks: {tick_customers} warmed customers x {tick_timed} samples, "
        "one-sample vs 64-sample ticks, 3 alternating runs each ..."
    )
    tick_record = bench_shard_ticks(tick_customers, 96, tick_timed, seed=args.seed)
    print(
        f"  one-sample ticks {tick_record['one_sample_samples_per_sec']:>8.1f} samples/s"
        f" ({tick_record['one_sample_us_per_call']:.1f} us per call)"
        f"   64-sample ticks {tick_record['tick64_samples_per_sec']:>8.1f} samples/s"
        f"   identical={tick_record['identical']}"
    )

    cores = os.cpu_count() or 1
    if args.smoke:
        watch_customers, watch_samples_each = 40, 12
    else:
        watch_customers, watch_samples_each = 1000, 16
    watch_workers = max(2, min(4, cores))
    print(
        f"Process-sharded fleet watch: {watch_customers} customers x "
        f"{watch_samples_each} samples, 1 vs {watch_workers} workers ..."
    )
    watch_record = bench_watch_scaling(
        watch_customers,
        watch_samples_each,
        window=12,
        seed=args.seed,
        max_workers=watch_workers,
    )
    watch_identical = (
        watch_record["identical_serial_1tick"]
        and watch_record["identical_1w"]
        and watch_record["identical_nw"]
        and tick_record["identical"]
    )
    print(
        f"  serial {watch_record['serial_customers_per_sec']:>8.1f} cust/s"
        f"   serial@1-sample ticks {watch_record['serial_1tick_customers_per_sec']:>8.1f} cust/s"
        f"   process@1 {watch_record['process_1w_customers_per_sec']:>8.1f} cust/s"
        f"   process@{watch_workers} {watch_record['process_nw_customers_per_sec']:>8.1f} cust/s"
        f"   scaling {watch_record['scaling_vs_1w']:.2f}x"
        f"   identical={watch_identical}"
    )

    if args.smoke:
        skew_hot, skew_cold, skew_samples = 12, 3, 12
    else:
        skew_hot, skew_cold, skew_samples = 48, 12, 24
    print(
        f"Skewed-feed rebalance: {skew_hot} customers on one shard vs "
        f"{skew_cold} on each other, static vs elastic at 4 process workers ..."
    )
    skew_record = bench_rebalance_skew(
        skew_hot, skew_cold, skew_samples, window=12, seed=args.seed, n_workers=4
    )
    print(
        f"  static {skew_record['static_customers_per_sec']:>8.1f} cust/s"
        f"   rebalancing {skew_record['rebalancing_customers_per_sec']:>8.1f} cust/s"
        f"   speedup {skew_record['speedup_vs_static']:.2f}x"
        f"   migrations {skew_record['n_migrations']}"
        f"   identical={skew_record['identical_static'] and skew_record['identical_rebalancing']}"
    )

    if args.smoke:
        zc_customers, zc_samples_each = 40, 12
    else:
        zc_customers, zc_samples_each = 600, 16
    zc_workers = max(2, min(4, cores))
    print(
        f"Process tick plane: {zc_customers} customers x {zc_samples_each} "
        f"samples at {zc_workers} process workers ..."
    )
    zero_copy_record = bench_zero_copy_watch(
        zc_customers, zc_samples_each, window=12, seed=args.seed, n_workers=zc_workers
    )
    print(
        f"  process {zero_copy_record['zero_copy_customers_per_sec']:>8.1f} cust/s"
        f"   {zero_copy_record['zero_copy_observe_per_sec']:>8.1f} obs/s"
        f"   identical={zero_copy_record['identical_zero_copy']}"
        f"   shm_clean={zero_copy_record['shm_clean']}"
    )

    if args.smoke:
        # Small ticks so the tiny smoke feed still crosses the default
        # every-64-ticks cadence and writes a mid-stream checkpoint.
        ckpt_customers, ckpt_samples_each, ckpt_tick = 40, 12, 4
    else:
        ckpt_customers, ckpt_samples_each, ckpt_tick = 400, 16, 64
    print(
        f"Durable watch: {ckpt_customers} customers x {ckpt_samples_each} samples, "
        "memory-only vs checkpointing at the default cadence ..."
    )
    checkpoint_record = bench_checkpoint_overhead(
        ckpt_customers,
        ckpt_samples_each,
        seed=args.seed,
        tick_samples=ckpt_tick,
        pairs=1 if args.smoke else 5,
    )
    pair_overheads = " ".join(
        f"{overhead:+.1%}" for overhead in checkpoint_record["pair_overhead_fractions"]
    )
    print(
        f"  baseline {checkpoint_record['baseline_customers_per_sec']:>8.1f} cust/s"
        f"   checkpointed {checkpoint_record['checkpointed_customers_per_sec']:>8.1f} cust/s"
        f"   overhead {checkpoint_record['overhead_fraction']:+.1%} (pairs {pair_overheads})"
        f"   checkpoints {checkpoint_record['n_checkpoints']}"
        f"   state {checkpoint_record['state_bytes_per_customer']:,.0f} B/customer"
        f"   identical={checkpoint_record['identical']}"
        f"   resume={checkpoint_record['resume_identical']}"
    )

    record = {
        "benchmark": "streaming",
        "timestamp": time.time(),
        "python": platform.python_version(),
        "smoke": args.smoke,
        "min_speedup": args.min_speedup,
        "estimator": estimator_record,
        "profiling": profiling_record,
        "profiling_scaling": scaling_record,
        "live_loop": live_record,
        "shard_ticks": tick_record,
        "watch_scaling": watch_record,
        "rebalance_skew": skew_record,
        "zero_copy": zero_copy_record,
        "checkpoint": checkpoint_record,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    TEXT_PATH.write_text(
        f"streaming benchmark: {n_samples} samples x {n_skus} SKUs  "
        f"speedup {estimator_record['speedup']:.1f}x  "
        f"observe {live_record['observe_per_sec']:.1f}/s  "
        f"refreshes {live_record['n_refreshes']}\n",
        encoding="utf-8",
    )
    print(f"Perf record written to {JSON_PATH}")

    if estimator_record["max_abs_diff"] > 1e-12:
        print(
            f"FAIL: incremental and batch probabilities diverge "
            f"({estimator_record['max_abs_diff']:.3e} > 1e-12)",
            file=sys.stderr,
        )
        return 1
    # Accuracy gates run in every mode; only timing gates are
    # smoke-exempt.  Tolerance: the sketch's documented rank error
    # (1/63) plus the one-block coverage overhang on a drifting feed.
    if (
        profiling_record["max_feature_diff"] > 0.05
        or not profiling_record["group_keys_agree"]
    ):
        print(
            f"FAIL: streaming profiling diverges from the window re-scan "
            f"(max feature diff {profiling_record['max_feature_diff']:.3f}, "
            f"group keys agree: {profiling_record['group_keys_agree']})",
            file=sys.stderr,
        )
        return 3
    if not watch_identical:
        print(
            "FAIL: watch_fleet diverges from the serial backend at its default tick "
            f"(serial@1-sample ticks={watch_record['identical_serial_1tick']}, "
            f"identical@1w={watch_record['identical_1w']}, "
            f"identical@{watch_workers}w={watch_record['identical_nw']}, "
            f"shard one-sample vs 64-sample ticks={tick_record['identical']})",
            file=sys.stderr,
        )
        return 5
    # Migration-schedule identity blocks in every mode: rebalancing
    # must be invisible in the update stream, skew or not.
    if not (skew_record["identical_static"] and skew_record["identical_rebalancing"]):
        print(
            "FAIL: skewed-feed watch diverges from the serial backend "
            f"(static={skew_record['identical_static']}, "
            f"rebalancing={skew_record['identical_rebalancing']})",
            file=sys.stderr,
        )
        return 6
    # Durability identity blocks in every mode: checkpointing must be
    # invisible in the output, and a resume must replay the exact tail.
    if checkpoint_record["n_checkpoints"] < 1 or not (
        checkpoint_record["identical"] and checkpoint_record["resume_identical"]
    ):
        print(
            "FAIL: durable watch broke the byte-identity contract "
            f"(checkpoints={checkpoint_record['n_checkpoints']}, "
            f"identical={checkpoint_record['identical']}, "
            f"resume_identical={checkpoint_record['resume_identical']})",
            file=sys.stderr,
        )
        return 7
    # Tick-plane identity and hygiene block in every mode: the plane
    # must be invisible in the output and leave /dev/shm alone.
    if not (zero_copy_record["identical_zero_copy"] and zero_copy_record["shm_clean"]):
        print(
            "FAIL: process watch broke the identity/hygiene contract "
            f"(identical_zero_copy={zero_copy_record['identical_zero_copy']}, "
            f"shm_clean={zero_copy_record['shm_clean']})",
            file=sys.stderr,
        )
        return 8
    if args.smoke:
        # Same policy as bench_fleet_scale: correctness (the agreement
        # gates above) blocks CI, timing does not -- shared runners
        # are too noisy for a hard speedup threshold on a tiny run.
        print("smoke mode: speedup gates skipped (timing noise on shared CI runners)")
        return 0
    if estimator_record["speedup"] < args.min_speedup:
        print(
            f"FAIL: incremental speedup {estimator_record['speedup']:.1f}x "
            f"below the {args.min_speedup:.1f}x threshold",
            file=sys.stderr,
        )
        return 2
    if (
        profiling_record["speedup"] < 3.0
        or scaling_record["cost_ratio_4x_window"] > 2.0
    ):
        print(
            f"FAIL: streaming profiling is not O(1) per sample "
            f"(median speedup {profiling_record['speedup']:.1f}x vs re-scan, "
            f"4x-window cost ratio {scaling_record['cost_ratio_4x_window']:.2f}x)",
            file=sys.stderr,
        )
        return 4
    # Sharded-watch scaling gate: like the fleet bench's parallel gate,
    # only meaningful with real cores behind the workers.
    if cores >= 4 and watch_record["scaling_vs_1w"] < 1.5:
        print(
            f"FAIL: process-sharded watch scaling "
            f"{watch_record['scaling_vs_1w']:.2f}x at {watch_workers} workers "
            f"is below the 1.5x threshold on a {cores}-core machine",
            file=sys.stderr,
        )
        return 5
    # Elastic-watch payoff gate: under a >=4x customer skew, live
    # rebalancing must beat static sharding by 1.3x at 4 workers.
    # Like the other scaling gates, only meaningful with real cores.
    if cores >= 4 and skew_record["speedup_vs_static"] < 1.3:
        print(
            f"FAIL: skewed-feed rebalancing speedup "
            f"{skew_record['speedup_vs_static']:.2f}x at 4 workers is below "
            f"the 1.3x threshold on a {cores}-core machine",
            file=sys.stderr,
        )
        return 6
    # Durable-watch budget: checkpointing at the default cadence may
    # cost at most 10% of memory-only throughput (median over pairs).
    if checkpoint_record["overhead_fraction"] > 0.10:
        print(
            f"FAIL: median checkpoint overhead {checkpoint_record['overhead_fraction']:.1%} "
            "exceeds the 10% budget at the default cadence",
            file=sys.stderr,
        )
        return 7
    if cores < 4:
        print(
            f"note: watch scaling and rebalance gates skipped on a "
            f"{cores}-core machine (need >= 4 cores)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
