"""Live recommendation: keep a SKU verdict fresh under streaming telemetry.

Trains a Doppler engine on a simulated migrated fleet, then feeds one
customer's telemetry sample-by-sample through a
:class:`~repro.streaming.live.LiveRecommender`.  The workload grows
mid-stream; the live loop notices the drift in its incremental
throttling estimates and re-issues the recommendation -- without ever
re-running the batch pipeline on the unchanged stretches.

The second act scales the same loop to a whole fleet:
``FleetEngine.watch_fleet(backend="process")`` shards an interleaved
multi-customer feed across persistent worker processes with sticky
per-customer routing over a consistent-hash ring, emitting the exact
update stream the serial loop would -- one feed, many concurrent live
assessments.  The final act makes the watch *elastic*: a
``LoadImbalancePolicy`` watches per-shard load and migrates customers
off the hottest worker mid-stream (drain -> snapshot -> re-route ->
restore), without changing a byte of the output.

Run with::

    python examples/live_recommendation.py
"""

import sys
from pathlib import Path

import numpy as np

if __package__ in (None, ""):  # running as a script without installation
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import DeploymentType, DopplerEngine, LiveRecommender, PerfDimension, SkuCatalog
from repro.fleet import FleetEngine, FleetSample, LoadImbalancePolicy, WatchConfig
from repro.simulation import FleetConfig, simulate_fleet


def telemetry_feed(n_samples: int, rng: np.random.Generator):
    """One customer's counters, tripling in demand mid-stream."""
    for index in range(n_samples):
        scale = 1.0 if index < n_samples // 2 else 3.0
        yield {
            PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.6))),
            PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 1.5))),
            PerfDimension.IOPS: float(scale * abs(rng.normal(350.0, 90.0))),
            PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 0.8)) + 0.5),
            PerfDimension.LOG_RATE: float(scale * abs(rng.normal(2.5, 0.7))),
            PerfDimension.STORAGE: 150.0 + index * 0.02,
        }


def main() -> None:
    # 1. A fitted engine: group targets learned from a simulated
    #    migrated fleet (same training path as the batch examples).
    catalog = SkuCatalog.default()
    engine = DopplerEngine(catalog=catalog)
    config = FleetConfig.paper_db(80, duration_days=4.0, interval_minutes=30.0)
    population = simulate_fleet(config, catalog, rng=7)
    FleetEngine(engine=engine, backend="serial").fit_fleet(
        [customer.record for customer in population]
    )
    print("Engine fitted; starting the live loop.\n")

    # 2. The live loop: one day of 10-minute samples in the window,
    #    re-assessment only when the incremental estimates drift.
    live = LiveRecommender(
        engine,
        DeploymentType.SQL_DB,
        window=144,
        min_refresh_samples=12,
        drift_threshold=0.03,
        entity_id="live-customer",
    )
    rng = np.random.default_rng(2022)
    for index, sample in enumerate(telemetry_feed(400, rng)):
        update = live.observe(sample)
        if not update.refreshed:
            continue
        rec = update.recommendation
        cause = (
            f"drift {update.drift.max_divergence:.1%} on {update.drift.worst_sku}"
            if update.drift is not None
            else "initial assessment"
        )
        print(
            f"sample {index + 1:>4}: {rec.sku.name:<28} "
            f"${rec.monthly_price:>8,.0f}/mo  "
            f"throttling {rec.expected_throttling:.1%}  ({cause})"
        )

    # 3. What the stream cost: refreshes vs samples.  A refresh builds
    #    its curve from the incremental window counts, never re-scanning
    #    the window for throttling.
    print(
        f"\n{live.builder.n_seen} samples ingested, {live.n_refreshes} full "
        f"re-assessments ({live.n_refreshes / live.builder.n_seen:.0%} of samples)."
    )
    print("\nFinal verdict:\n" + live.recommendation.explain())

    # 4. Fleet scale: the same live loop over an interleaved
    #    multi-customer feed, sharded across worker processes.  Each
    #    customer's state lives on exactly one worker (sticky routing
    #    by customer id), so the update stream is byte-identical to
    #    running the whole feed serially in the parent.
    print("\n--- Fleet watch: 12 customers through 2 worker processes ---\n")
    rng = np.random.default_rng(7)
    feeds = {
        f"tenant-{index:02d}": telemetry_feed(60, rng)
        for index in range(12)
    }
    fleet_feed = [
        FleetSample(customer_id=customer_id, values=sample)
        for batch in zip(*(list(feed) for feed in feeds.values()))
        for customer_id, sample in zip(feeds, batch)
    ]
    fleet = FleetEngine(engine=engine, backend="process", max_workers=2)
    n_updates = 0
    final = {}
    for update in fleet.watch_fleet(
        fleet_feed, config=WatchConfig(window=48, min_refresh_samples=12)
    ):
        n_updates += 1
        final[update.customer_id] = update.recommendation
    for customer_id in sorted(final):
        rec = final[customer_id]
        print(
            f"{customer_id}: {rec.sku.name:<28} "
            f"${rec.monthly_price:>8,.0f}/mo  "
            f"throttling {rec.expected_throttling:.1%}"
        )
    print(
        f"\n{len(fleet_feed)} samples -> {n_updates} refresh events across "
        f"{len(feeds)} customers."
    )

    # 5. Elastic watch: the same feed with a rebalance policy attached.
    #    The parent tracks per-shard load; when one worker runs hot, the
    #    policy migrates customers off it mid-stream -- drain, snapshot
    #    the live state on the source shard, re-route on the ring,
    #    restore on the target -- and the update stream is still
    #    byte-identical to the static run above.
    print("\n--- Elastic watch: same feed, load-imbalance rebalancing ---\n")
    policy = LoadImbalancePolicy(
        imbalance_threshold=1.1, min_samples=48, interval_ticks=2, max_migrations=4
    )
    n_updates = 0
    for update in fleet.watch_fleet(
        fleet_feed,
        config=WatchConfig(
            window=48,
            min_refresh_samples=12,
            rebalance=policy,
            on_rebalance=lambda event: print(
                f"  rebalance @tick {event.tick_id}: {event.n_moves} customers moved"
                + (
                    f", pool {event.resized_from} -> {event.resized_to} workers"
                    if event.resized_to is not None
                    else ""
                )
            ),
            tick_samples=16,
        ),
    ):
        n_updates += 1
    stats = fleet.watch_rebalance_stats()
    print(
        f"\n{n_updates} refresh events (identical stream); "
        f"{stats.n_decisions} load checks -> {stats.n_rebalances} rebalances, "
        f"{stats.n_migrations} customer migrations, {stats.n_resizes} resizes; "
        f"samples/shard: {dict(stats.samples_by_shard)}"
    )


if __name__ == "__main__":
    main()
