"""Elastic watch: mid-watch migration parity, stats, and policies.

The hard contract under test: whatever migration schedule executes --
random moves, hot-customer pins, migrate-while-quarantined, pool grow
and shrink, all mid-stream -- every backend's update stream must stay
byte-identical to the serial backend's static run, because state moves
only at fully drained tick boundaries and the reorder buffer works on
global sequence numbers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog import DeploymentType, ServiceTier, SkuCatalog
from repro.core import DopplerEngine
from repro.fleet import (
    FleetEngine,
    LoadImbalancePolicy,
    WatchConfig,
    Migration,
    RebalanceDecision,
    ScheduledRebalancePolicy,
    ShardLoad,
    WatchLoadSnapshot,
)
from repro.streaming import LiveRecommender

from .conftest import make_sku
from .test_fleet_backends import (
    WATCH_CONFIG,
    canonical_updates,
    interleaved_feed,
    live_samples,
)

BACKENDS = [("serial", None), ("thread", 3), ("process", 3)]


def compact_catalog() -> SkuCatalog:
    """The ``small_catalog`` ladder, buildable at class scope."""
    skus = []
    for vcores in (2, 4, 8, 16, 32):
        skus.append(make_sku(vcores, ServiceTier.GENERAL_PURPOSE))
        skus.append(
            make_sku(
                vcores,
                ServiceTier.BUSINESS_CRITICAL,
                iops_per_vcore=4000.0,
                log_per_vcore=12.0,
                price_per_vcore_hour=0.68,
            )
        )
    return SkuCatalog.from_skus(skus)


def snapshot(shards, customers=(), tick_id=0, n_decisions=0):
    """Synthetic load snapshot: shards = {shard_id: samples_recent}."""
    return WatchLoadSnapshot(
        tick_id=tick_id,
        n_decisions=n_decisions,
        shards=tuple(
            ShardLoad(
                shard_id=shard_id,
                n_customers=8,
                samples_recent=samples,
                samples_total=samples,
                busy_seconds_recent=0.0,
                busy_seconds_total=0.0,
            )
            for shard_id, samples in sorted(shards.items())
        ),
        customer_samples_recent=tuple(customers),
    )


def busy_snapshot(shards, customers=(), tick_id=0, n_decisions=0):
    """Synthetic snapshot with a busy signal: shards = {id: (samples, busy_s)}."""
    return WatchLoadSnapshot(
        tick_id=tick_id,
        n_decisions=n_decisions,
        shards=tuple(
            ShardLoad(
                shard_id=shard_id,
                n_customers=8,
                samples_recent=samples,
                samples_total=samples,
                busy_seconds_recent=busy,
                busy_seconds_total=busy,
            )
            for shard_id, (samples, busy) in sorted(shards.items())
        ),
        customer_samples_recent=tuple(customers),
    )


def random_schedule(rng, customers, n_decisions=14, max_shards=5):
    """A randomized but reproducible migration schedule.

    Tracks the pool size decision-by-decision so every migration
    targets a shard that will exist when it executes (the coordinator
    rejects unknown targets by design).
    """
    schedule = {}
    n_shards = 3
    for index in range(n_decisions):
        roll = rng.random()
        if roll < 0.35:
            continue  # no-op decision point
        migrations = []
        resize_to = None
        if roll < 0.65 or n_shards == 1:
            resize_to = int(rng.integers(1, max_shards + 1))
        if rng.random() < 0.8:
            pool = resize_to if resize_to is not None else n_shards
            for customer in rng.choice(customers, size=rng.integers(1, 4), replace=False):
                migrations.append(Migration(str(customer), int(rng.integers(0, pool))))
        schedule[index] = RebalanceDecision(
            migrations=tuple(migrations), resize_to=resize_to
        )
        if resize_to is not None:
            n_shards = resize_to
    return schedule


# ----------------------------------------------------------------------
# Migration parity across backends
# ----------------------------------------------------------------------
class TestMigrationParity:
    @pytest.fixture(scope="class")
    def fleet_and_serial(self):
        fleet = FleetEngine(engine=DopplerEngine(catalog=compact_catalog()), backend="serial")
        feed = interleaved_feed(8, 24, seed=91, poison=("cust-2", "cust-5"))
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        return fleet, feed, serial

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_schedule_matches_serial(
        self, backend, workers, seed, fleet_and_serial
    ):
        fleet, feed, serial = fleet_and_serial
        customers = [f"cust-{index}" for index in range(8)]
        schedule = random_schedule(np.random.default_rng(seed), customers)
        policy = ScheduledRebalancePolicy(schedule=schedule)
        events = []
        sharded = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend=backend,
                    max_workers=workers,
                    rebalance=policy,
                    on_rebalance=events.append,
                    tick_samples=4,
                ),
            )
        )
        assert sharded == serial
        stats = fleet.watch_rebalance_stats()
        # Accounting invariants: events mirror the stats counters, the
        # routed sample totals cover the whole feed, and every executed
        # move resolved its source shard.
        assert stats.events == tuple(events)
        assert stats.n_rebalances == len(events)
        assert stats.n_migrations == sum(
            1 for event in events for move in event.moves if move.source is not None
        )
        assert stats.n_resizes == sum(
            1 for event in events if event.resized_to is not None
        )
        # Post-quarantine samples are dropped in the parent (never
        # routed), so the routed totals cover the feed minus the
        # poisoned customers' tails.
        routed = sum(count for _, count in stats.samples_by_shard)
        assert 0 < routed <= len(feed)
        assert stats.n_decisions > 0

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_migrate_while_quarantined(self, backend, workers, fleet_and_serial):
        """A quarantined customer's silence must survive its migration."""
        fleet, feed, serial = fleet_and_serial
        # Late decisions, well after cust-2/cust-5 poisoned and quarantined.
        schedule = {
            6: RebalanceDecision(resize_to=max(2, (workers or 1))),
            8: RebalanceDecision(
                migrations=(Migration("cust-2", 1), Migration("cust-5", 0))
            ),
            10: RebalanceDecision(migrations=(Migration("cust-2", 0),)),
        }
        sharded = list(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend=backend,
                    max_workers=workers,
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                    tick_samples=4,
                ),
            )
        )
        assert canonical_updates(sharded) == serial
        failures = [update for update in sharded if not update.ok]
        assert {update.customer_id for update in failures} == {"cust-2", "cust-5"}
        assert len(failures) == 2  # quarantined once each, never resurrected

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_migrate_then_resize_in_one_decision(self, backend, workers, fleet_and_serial):
        fleet, feed, serial = fleet_and_serial
        schedule = {
            2: RebalanceDecision(resize_to=4),
            7: RebalanceDecision(
                migrations=(Migration("cust-0", 1), Migration("cust-6", 0)),
                resize_to=2,
            ),
        }
        sharded = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend=backend,
                    max_workers=workers,
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                    tick_samples=4,
                ),
            )
        )
        assert sharded == serial
        stats = fleet.watch_rebalance_stats()
        assert stats.final_n_shards == 2
        assert stats.n_resizes == 2
        assert stats.n_migrations > 0

    @pytest.mark.parametrize("backend,workers", BACKENDS)
    def test_streaming_profile_mode_survives_migration(
        self, backend, workers, small_catalog
    ):
        """Migrated `StreamingSeriesStats` keep profiling identically."""
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(5, 20, seed=98)
        config = WATCH_CONFIG.replace(profile_mode="streaming")
        serial = canonical_updates(fleet.watch_fleet(feed, config=config))
        schedule = {
            3: RebalanceDecision(resize_to=max(2, workers or 2)),
            6: RebalanceDecision(
                migrations=(Migration("cust-0", 1), Migration("cust-3", 0))
            ),
        }
        sharded = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=config.replace(
                    backend=backend,
                    max_workers=workers,
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                    tick_samples=4,
                ),
            )
        )
        assert sharded == serial

    def test_unconsumed_watch_spawns_no_workers(self, small_catalog):
        """Creating (and abandoning) a watch generator is free.

        The process pool must spawn lazily on first iteration; a
        generator that is never consumed must not park worker
        processes on their queues for the parent's lifetime.
        """
        import multiprocessing

        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(3, 8, seed=99)
        before = len(multiprocessing.active_children())
        stream = fleet.watch_fleet(
            feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2)
        )
        assert len(multiprocessing.active_children()) == before
        stream.close()  # never iterated: nothing to tear down

    def test_quarantined_customers_stop_counting_as_load(self, small_catalog):
        """Post-quarantine samples are dropped, not routed as phantom load.

        The parent learns of a quarantine from the error emission, so
        a few in-flight samples still route before the drop kicks in;
        after that the poisoned customer's tail (it fails at its
        ``min_refresh_samples``-th sample) must vanish from the
        routed totals instead of reading as the hottest load forever.
        """
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        n_customers, n_each = 4, 20
        feed = interleaved_feed(n_customers, n_each, seed=100, poison=("cust-1",))
        updates = list(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="thread", max_workers=2, tick_samples=2
                ),
            )
        )
        assert sum(1 for update in updates if not update.ok) == 1
        stats = fleet.watch_rebalance_stats()
        routed = sum(count for _, count in stats.samples_by_shard)
        assert routed < len(feed)  # the tail was dropped...
        assert routed >= len(feed) - n_each  # ...but only cust-1's tail

    def test_empty_feed_with_policy_is_clean(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        policy = LoadImbalancePolicy()
        assert list(fleet.watch_fleet([], config=WATCH_CONFIG.replace(rebalance=policy))) == []
        stats = fleet.watch_rebalance_stats()
        assert stats.n_decisions == 0
        assert stats.samples_by_shard == ()

    def test_unknown_migration_target_fails_fast(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(3, 12, seed=92)
        policy = ScheduledRebalancePolicy(
            schedule={0: RebalanceDecision(migrations=(Migration("cust-0", 9),))}
        )
        with pytest.raises(ValueError, match="unknown shard"):
            list(fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(rebalance=policy)))


# ----------------------------------------------------------------------
# Watch accounting
# ----------------------------------------------------------------------
class TestWatchAccounting:
    def test_stats_none_before_any_watch(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        assert fleet.watch_rebalance_stats() is None

    def test_static_watch_reports_routing_load(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(5, 12, seed=93)
        updates = list(
            fleet.watch_fleet(
                feed, config=WATCH_CONFIG.replace(backend="thread", max_workers=3)
            )
        )
        assert updates
        stats = fleet.watch_rebalance_stats()
        assert stats.n_decisions == 0
        assert stats.events == ()
        assert stats.final_n_shards == 3
        assert sum(count for _, count in stats.samples_by_shard) == len(feed)

    def test_on_rebalance_sees_resolved_sources(self, small_catalog):
        from repro.fleet import ShardRing

        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 16, seed=95)
        away = 1 - ShardRing(2).route("cust-1")  # a shard cust-1 is NOT on
        schedule = {
            4: RebalanceDecision(resize_to=2),
            6: RebalanceDecision(migrations=(Migration("cust-1", away),)),
        }
        events = []
        list(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                    on_rebalance=events.append,
                    tick_samples=4,
                ),
            )
        )
        assert [event.resized_to for event in events][0] == 2
        explicit = [
            move
            for event in events
            for move in event.moves
            if move.customer_id == "cust-1"
        ]
        assert explicit and explicit[0].source is not None

    def test_pipeline_watch_fleet_passes_rebalance_through(self, small_catalog):
        from repro.dma import AssessmentPipeline

        pipeline = AssessmentPipeline(engine=DopplerEngine(catalog=small_catalog))
        feed = interleaved_feed(4, 16, seed=97)
        serial = canonical_updates(pipeline.watch_fleet(feed, config=WATCH_CONFIG))
        schedule = {2: RebalanceDecision(resize_to=2)}
        events = []
        elastic = canonical_updates(
            pipeline.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                    on_rebalance=events.append,
                    tick_samples=4,
                ),
            )
        )
        assert elastic == serial
        assert events and events[0].resized_to == 2

    def test_watch_fleet_validates_rebalance_arguments_eagerly(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        with pytest.raises(ValueError, match="RebalancePolicy"):
            fleet.watch_fleet([], config=WatchConfig(rebalance="load"))
        with pytest.raises(ValueError, match="on_rebalance"):
            fleet.watch_fleet([], config=WatchConfig(on_rebalance="notify"))
        with pytest.raises(ValueError, match="tick_samples"):
            fleet.watch_fleet([], config=WatchConfig(tick_samples=0))


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestLoadImbalancePolicy:
    def test_quiet_fleet_decides_nothing(self):
        policy = LoadImbalancePolicy(min_samples=100)
        assert policy.decide(snapshot({0: 10, 1: 10})) is None
        # Balanced load above the gate: still nothing.
        assert policy.decide(snapshot({0: 100, 1: 100, 2: 100})) is None

    def test_imbalance_moves_hottest_customers_to_colder_shards(self):
        policy = LoadImbalancePolicy(min_samples=10, max_migrations=2)
        decision = policy.decide(
            snapshot(
                {0: 90, 1: 10, 2: 20},
                customers=[("hot-a", 30, 0), ("hot-b", 25, 0), ("cold", 10, 1)],
            )
        )
        assert decision is not None
        # Hottest residents shed first, spread round-robin coldest-first.
        targets = {move.customer_id: move.target for move in decision.migrations}
        assert targets == {"hot-a": 1, "hot-b": 2}

    def test_hot_customer_keeps_shard_neighbours_move(self):
        policy = LoadImbalancePolicy(min_samples=10, hot_customer_share=0.5)
        decision = policy.decide(
            snapshot(
                {0: 100, 1: 10},
                customers=[("whale", 80, 0), ("minnow-a", 12, 0), ("minnow-b", 8, 0)],
            )
        )
        moved = {move.customer_id for move in decision.migrations}
        assert "whale" not in moved  # indivisible hot key is isolated in place
        assert moved == {"minnow-a", "minnow-b"}

    def test_resize_targets_samples_per_shard(self):
        policy = LoadImbalancePolicy(
            min_samples=10, samples_per_shard_target=100, max_workers=8
        )
        decision = policy.decide(snapshot({0: 250, 1: 250}))
        assert decision.resize_to == 5
        shrink = policy.decide(snapshot({0: 40, 1: 40, 2: 40}))
        assert shrink.resize_to == 2

    def test_shrink_never_targets_removed_shards(self):
        """A shrink+migrate decision must stay executable.

        With a skewed fleet the coldest shards are exactly the ones a
        shrink removes; handing them out as migration targets would
        make the coordinator reject the decision and kill the watch.
        """
        policy = LoadImbalancePolicy(
            min_samples=10, samples_per_shard_target=100, max_migrations=4
        )
        decision = policy.decide(
            snapshot(
                {0: 150, 1: 20, 2: 10, 3: 5},
                customers=[("a", 60, 0), ("b", 50, 0), ("c", 30, 0)],
            )
        )
        assert decision is not None
        assert decision.resize_to == 2  # 185 recent / 100 target
        for move in decision.migrations:
            assert move.target < decision.resize_to

    def test_shrink_to_one_shard_skips_migrations(self):
        policy = LoadImbalancePolicy(min_samples=10, samples_per_shard_target=1000)
        decision = policy.decide(
            snapshot({0: 90, 1: 10}, customers=[("a", 60, 0), ("b", 30, 0)])
        )
        assert decision is not None
        assert decision.resize_to == 1
        assert decision.migrations == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="imbalance_threshold"):
            LoadImbalancePolicy(imbalance_threshold=1.0)
        with pytest.raises(ValueError, match="hot_customer_share"):
            LoadImbalancePolicy(hot_customer_share=0.0)
        with pytest.raises(ValueError, match="max_workers"):
            LoadImbalancePolicy(min_workers=4, max_workers=2)
        with pytest.raises(ValueError, match="interval_ticks"):
            LoadImbalancePolicy(interval_ticks=0)

    def test_skewed_watch_rebalances_and_stays_identical(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(8, 24, seed=96)
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        policy = LoadImbalancePolicy(
            min_samples=16, interval_ticks=2, imbalance_threshold=1.2
        )
        sharded = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="thread", max_workers=3, rebalance=policy, tick_samples=4
                ),
            )
        )
        assert sharded == serial

    def test_decision_validation(self):
        with pytest.raises(ValueError, match="resize_to"):
            RebalanceDecision(resize_to=0)
        decision = RebalanceDecision(migrations=[Migration("c", 1)])
        assert isinstance(decision.migrations, tuple)
        assert not decision.is_noop
        assert RebalanceDecision().is_noop


class TestBusySecondsPolicy:
    """The busy-seconds unit of account: expensive customers count as load."""

    def test_expensive_customers_trigger_without_sample_skew(self):
        """Equal sample counts, skewed busy-seconds: the trigger fires.

        Shard 0's customers cost 9x the seconds per sample, which the
        sample-count view cannot see -- the whole point of switching
        the trigger to busy-seconds.
        """
        policy = LoadImbalancePolicy(min_samples=10)
        customers = [("pricey", 20, 0), ("cheap-a", 15, 0), ("cheap-b", 10, 1)]
        # Sample-count view of the same fleet: perfectly balanced, no move.
        assert policy.decide(snapshot({0: 50, 1: 50}, customers=customers)) is None
        decision = policy.decide(
            busy_snapshot({0: (50, 9.0), 1: (50, 1.0)}, customers=customers)
        )
        assert decision is not None
        targets = {move.customer_id: move.target for move in decision.migrations}
        assert targets == {"pricey": 1, "cheap-a": 1}

    def test_busy_excess_converts_to_sample_counts_for_shedding(self):
        """Shedding stops once moved samples cover the busy excess.

        Excess 4 busy-seconds at shard 0's 9s/50-sample rate is ~22
        samples: the hottest resident (20) is not enough, two are.
        The third resident stays put.
        """
        policy = LoadImbalancePolicy(min_samples=10, max_migrations=8)
        decision = policy.decide(
            busy_snapshot(
                {0: (50, 9.0), 1: (50, 1.0)},
                customers=[("a", 20, 0), ("b", 15, 0), ("c", 10, 0)],
            )
        )
        assert [move.customer_id for move in decision.migrations] == ["a", "b"]

    def test_resize_targets_busy_seconds_per_shard(self):
        policy = LoadImbalancePolicy(
            min_samples=10, busy_seconds_per_shard_target=1.0, max_workers=8
        )
        grow = policy.decide(busy_snapshot({0: (100, 2.4), 1: (100, 2.4)}))
        assert grow.resize_to == 5  # ceil(4.8 busy-seconds / 1.0 target)
        shrink = policy.decide(
            busy_snapshot({0: (100, 0.6), 1: (100, 0.5), 2: (100, 0.4)})
        )
        assert shrink.resize_to == 2

    def test_busy_target_falls_back_to_samples_without_signal(self):
        """Synthetic snapshots without busy-seconds keep working."""
        policy = LoadImbalancePolicy(
            min_samples=10,
            busy_seconds_per_shard_target=1.0,
            samples_per_shard_target=100,
            max_workers=8,
        )
        decision = policy.decide(snapshot({0: 250, 1: 250}))
        assert decision.resize_to == 5  # ceil(500 samples / 100 target)

    def test_busy_target_validation(self):
        with pytest.raises(ValueError, match="busy_seconds_per_shard_target"):
            LoadImbalancePolicy(busy_seconds_per_shard_target=0.0)
        with pytest.raises(ValueError, match="busy_seconds_per_shard_target"):
            LoadImbalancePolicy(busy_seconds_per_shard_target=-1.5)


# ----------------------------------------------------------------------
# Migration-safe state epochs
# ----------------------------------------------------------------------
class TestStateEpochs:
    def fresh(self, engine):
        return LiveRecommender(
            engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
        )

    def test_epochs_advance_along_a_migration_chain(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        rng = np.random.default_rng(70)
        first = self.fresh(engine)
        for sample in live_samples(12, rng):
            first.observe(sample)
        assert first.state_epoch == 0
        second = self.fresh(engine)
        second.restore_state(first.snapshot_state())
        assert second.state_epoch == 1
        third = self.fresh(engine)
        third.restore_state(second.snapshot_state())
        assert third.state_epoch == 2

    def test_stale_snapshot_is_rejected(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        rng = np.random.default_rng(71)
        source = self.fresh(engine)
        for sample in live_samples(12, rng):
            source.observe(sample)
        stale = source.snapshot_state()
        target = self.fresh(engine)
        target.restore_state(stale)
        for sample in live_samples(6, rng):
            target.observe(sample)
        with pytest.raises(ValueError, match="stale live state snapshot"):
            target.restore_state(stale)  # epoch 0 onto an epoch-1 recommender
