"""Watch-level durability: checkpoint, kill, resume, byte-identity.

The contract under test (ISSUE tentpole): a watch killed at tick T and
resumed from its store emits the same update stream from T onward as
the uninterrupted run -- on every execution backend -- and
checkpointing/eviction are invisible in the output of an uninterrupted
run.  Store unit tests live in ``test_store.py``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import FleetEngine, RecommendationService, ServeConfig
from repro.core import DopplerEngine
from repro.fleet import CheckpointConfig, WatchConfig
from repro.fleet.rebalance import Migration, RebalanceDecision, ScheduledRebalancePolicy
from repro.store import FleetStore, FleetStoreError

from .test_fleet_backends import canonical_updates, interleaved_feed

WATCH = WatchConfig(window=16, min_refresh_samples=8, tick_samples=8)


def make_fleet(small_catalog, backend="serial", max_workers=None):
    return FleetEngine(
        engine=DopplerEngine(catalog=small_catalog),
        backend=backend,
        max_workers=max_workers,
    )


def checkpointed(store, **changes):
    return WATCH.replace(checkpoint=CheckpointConfig(store=store, **changes))


def idle_tail_feed(n_customers, n_warm=16, n_tail=32):
    """Every customer streams ``n_warm`` samples, then only cust-0 goes on."""
    from repro.fleet import FleetSample

    from .test_fleet_backends import live_samples

    rng = np.random.default_rng(3)
    streams = {
        f"cust-{i}": live_samples(n_warm + n_tail, rng, scale=1.0 + 0.3 * i)
        for i in range(n_customers)
    }
    return [
        FleetSample(customer_id=cid, values=streams[cid][pos])
        for pos in range(n_warm)
        for cid in streams
    ] + [
        FleetSample(customer_id="cust-0", values=streams["cust-0"][pos])
        for pos in range(n_warm, n_warm + n_tail)
    ]


def checkpoint_rows(store):
    """``(n_customers, n_state_bytes)`` per checkpoint, oldest first."""
    return store._conn.execute(
        "SELECT n_customers, n_state_bytes FROM checkpoints ORDER BY checkpoint_id"
    ).fetchall()


def run_killed(fleet, feed, config, n_consume):
    """Run a checkpointed watch and kill it after ``n_consume`` updates."""
    consumed = []
    stream = fleet.watch_fleet(feed, config=config)
    try:
        for update in stream:
            consumed.append(update)
            if len(consumed) >= n_consume:
                break
    finally:
        stream.close()
    return consumed


# ----------------------------------------------------------------------
# Resume byte-identity, all backends
# ----------------------------------------------------------------------
class TestResumeIdentity:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kill_at_random_tick_resumes_byte_identically(
        self, backend, small_catalog, tmp_path
    ):
        """Property test: kill points drawn per backend, resume parity."""
        feed = interleaved_feed(5, 24, seed=9)
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        assert len(baseline) >= 10
        rng = np.random.default_rng(hash(backend) % 2**32)
        kill_points = sorted(
            rng.integers(3, len(baseline) - 1, size=2 if backend == "serial" else 1)
        )
        for trial, kill_at in enumerate(kill_points):
            store = FleetStore(str(tmp_path / f"{backend}-{trial}.db"))
            config = checkpointed(store, every_ticks=2).replace(
                backend=backend, max_workers=2
            )
            consumed = run_killed(
                make_fleet(small_catalog), feed, config, int(kill_at)
            )
            checkpoint = store.require_checkpoint()
            assert checkpoint.n_emitted <= len(consumed)
            resumed = list(
                make_fleet(small_catalog).watch_fleet(
                    feed, config=config, resume_from=store
                )
            )
            # Everything consumed before the kill matches the baseline...
            assert canonical_updates(consumed) == canonical_updates(
                baseline[: len(consumed)]
            )
            # ...and the resumed stream continues exactly at the
            # checkpoint position, byte-identical to the rest.
            assert canonical_updates(resumed) == canonical_updates(
                baseline[checkpoint.n_emitted :]
            )
            store.close()

    def test_cross_backend_resume(self, small_catalog, tmp_path):
        """A checkpoint written by one backend resumes on another."""
        feed = interleaved_feed(4, 20, seed=17)
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        store = FleetStore(str(tmp_path / "cross.db"))
        config = checkpointed(store, every_ticks=2).replace(
            backend="process", max_workers=2
        )
        run_killed(make_fleet(small_catalog), feed, config, len(baseline) // 2)
        checkpoint = store.require_checkpoint()
        resumed = list(
            make_fleet(small_catalog).watch_fleet(
                feed,
                config=checkpointed(store, every_ticks=2),  # serial resume
                resume_from=store,
            )
        )
        assert canonical_updates(resumed) == canonical_updates(
            baseline[checkpoint.n_emitted :]
        )
        store.close()

    def test_resume_from_checkpointless_store_is_clear(self, small_catalog):
        store = FleetStore()
        fleet = make_fleet(small_catalog)
        with pytest.raises(FleetStoreError, match="no checkpoint to resume from"):
            list(fleet.watch_fleet([], config=WATCH, resume_from=store))

    def test_resume_from_non_store_rejected(self, small_catalog):
        fleet = make_fleet(small_catalog)
        with pytest.raises(ValueError, match="resume_from must be a FleetStore"):
            fleet.watch_fleet([], config=WATCH, resume_from="/tmp/fleet.db")


# ----------------------------------------------------------------------
# Checkpointing and eviction are invisible in the output
# ----------------------------------------------------------------------
class TestOutputInvariance:
    def test_checkpointing_does_not_change_the_stream(self, small_catalog):
        feed = interleaved_feed(4, 20, seed=3)
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        store = FleetStore()
        with_checkpoints = list(
            make_fleet(small_catalog).watch_fleet(
                feed, config=checkpointed(store, every_ticks=2)
            )
        )
        assert canonical_updates(with_checkpoints) == canonical_updates(baseline)
        assert store.checkpoint_count() >= 2
        store.close()

    def test_eviction_round_trips_through_the_store(self, small_catalog):
        feed = interleaved_feed(6, 20, seed=4)
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        store = FleetStore()
        evicting = list(
            make_fleet(small_catalog).watch_fleet(
                feed, config=checkpointed(store, every_ticks=1, max_resident=2)
            )
        )
        # Every tick evicts down to 2 residents and every customer
        # reappears next tick, so the restore path runs constantly --
        # and must be invisible in the output.
        assert canonical_updates(evicting) == canonical_updates(baseline)
        assert store.event_counts().get("eviction", 0) > 0
        store.close()

    def test_quarantine_survives_kill_and_resume(self, small_catalog, tmp_path):
        feed = interleaved_feed(4, 24, seed=6, poison=("cust-1",))
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        errors = [u for u in baseline if u.error is not None]
        assert len(errors) == 1  # quarantined exactly once uninterrupted
        store = FleetStore(str(tmp_path / "quarantine.db"))
        config = checkpointed(store, every_ticks=1)
        consumed = run_killed(
            make_fleet(small_catalog), feed, config, len(baseline) // 2
        )
        checkpoint = store.require_checkpoint()
        resumed = list(
            make_fleet(small_catalog).watch_fleet(
                feed, config=config, resume_from=store
            )
        )
        combined = consumed[: checkpoint.n_emitted] + resumed
        assert canonical_updates(combined) == canonical_updates(baseline)
        assert sum(1 for u in combined if u.error is not None) == 1
        assert store.event_counts().get("quarantine", 0) == 1
        store.close()

    def test_delta_checkpoints_shrink_on_mostly_idle_fleet(
        self, small_catalog, tmp_path
    ):
        """Satellite contract: delta checkpoints write the active minority.

        A fleet where every customer streams for a warm-up phase and
        then all but one go idle: checkpoints shrink to the single
        active one -- in rows and in bytes -- while the store still
        holds (and can resume) the whole fleet.
        """
        n_customers = 6
        feed = idle_tail_feed(n_customers)
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        delta_store = FleetStore(str(tmp_path / "delta.db"))
        stream = list(
            make_fleet(small_catalog).watch_fleet(
                feed, config=checkpointed(delta_store, every_ticks=1)
            )
        )
        assert canonical_updates(stream) == canonical_updates(baseline)
        delta_rows = checkpoint_rows(delta_store)
        # The warm phase still writes everyone, the idle tail shrinks
        # to the lone active customer -- and the bytes shrink with the
        # rows.
        first_customers, first_bytes = delta_rows[0]
        tail_customers, tail_bytes = delta_rows[-1]
        assert first_customers == n_customers
        assert tail_customers == 1
        assert 0 < tail_bytes < first_bytes
        # The idle majority was skipped, not lost: the store holds the
        # whole fleet and resumes it byte-identically.
        assert delta_store.customer_counts()[0] == n_customers
        resumed = list(
            make_fleet(small_catalog).watch_fleet(
                feed,
                config=checkpointed(delta_store, every_ticks=1),
                resume_from=delta_store,
            )
        )
        checkpoint = delta_store.require_checkpoint()
        assert canonical_updates(resumed) == canonical_updates(
            baseline[checkpoint.n_emitted :]
        )
        delta_store.close()

    def test_retired_delta_flag_is_rejected(self, small_catalog):
        """``CheckpointConfig(delta=...)`` is gone: checkpoints are always delta."""
        with pytest.raises(TypeError, match="delta"):
            CheckpointConfig(store=FleetStore(), every_ticks=1, delta=False)

    def test_rebalance_events_land_in_the_store(self, small_catalog):
        feed = interleaved_feed(6, 24, seed=8)
        store = FleetStore()
        schedule = {
            2: RebalanceDecision(
                migrations=(Migration("cust-0", 2), Migration("cust-1", 2))
            ),
            4: RebalanceDecision(migrations=(Migration("cust-2", 0),), resize_to=2),
        }
        config = checkpointed(store, every_ticks=4).replace(
            backend="process",
            max_workers=3,
            rebalance=ScheduledRebalancePolicy(schedule=schedule),
        )
        list(make_fleet(small_catalog).watch_fleet(feed, config=config))
        counts = store.event_counts()
        assert counts.get("rebalance", 0) > 0
        rolling = store.rolling_event_counts("migration", window_ticks=8)
        total_migrations = counts.get("migration", 0)
        assert sum(n for _, n, _ in rolling) == total_migrations
        store.close()


# ----------------------------------------------------------------------
# Serving-tier durability
# ----------------------------------------------------------------------
class TestServiceDurability:
    def run(self, coro):
        return asyncio.run(coro)

    def test_checkpoint_evict_and_cold_read(self, small_catalog):
        feed = interleaved_feed(6, 14, seed=12)

        async def scenario():
            store = FleetStore()
            fleet = make_fleet(small_catalog)
            service = RecommendationService(
                fleet, ServeConfig(n_shards=2, watch=WATCH), store=store
            )
            async with service:
                for sample in feed:
                    await service.observe(sample)
                hot = service.recommendation_for("cust-0")
                assert hot is not None
                checkpoint = await service.checkpoint()
                assert checkpoint.n_customers == 6
                n_evicted = await service.evict_cold(2)
                assert n_evicted == 4
                stats = service.stats()["durability"]
                assert stats["n_checkpoints"] == 1
                assert stats["n_evicted_resident"] == 4
                # Cold customers answer from the store, identically.
                cold = service.recommendation_for("cust-0")
                assert cold is not None and cold.sku.name == hot.sku.name
                # A returning evicted customer restores transparently.
                update = await service.observe(feed[0])
                assert update.error is None
                assert service.stats()["durability"]["n_evicted_resident"] == 3
            store.close()

        self.run(scenario())

    def test_evict_without_store_is_an_error(self, small_catalog):
        async def scenario():
            fleet = make_fleet(small_catalog)
            async with RecommendationService(fleet, ServeConfig(n_shards=1)) as service:
                with pytest.raises(RuntimeError, match="no FleetStore attached"):
                    await service.checkpoint()
                with pytest.raises(RuntimeError, match="no FleetStore attached"):
                    await service.evict_cold(1)

        self.run(scenario())

    def test_unknown_customer_recommendation_is_none(self, small_catalog):
        async def scenario():
            fleet = make_fleet(small_catalog)
            store = FleetStore()
            service = RecommendationService(
                fleet, ServeConfig(n_shards=1), store=store
            )
            async with service:
                assert service.recommendation_for("nobody") is None
            store.close()

        self.run(scenario())


# ----------------------------------------------------------------------
# Serving warm restart: a new service resumes from the latest checkpoint
# ----------------------------------------------------------------------
class TestServiceWarmRestart:
    def run(self, coro):
        return asyncio.run(coro)

    def test_restart_restores_observe_state_and_serves_identically(
        self, small_catalog
    ):
        feed = interleaved_feed(5, 20, seed=17)
        half = len(feed) // 2

        async def scenario():
            store = FleetStore()
            fleet = make_fleet(small_catalog)
            config = ServeConfig(n_shards=2, watch=WATCH)
            service = RecommendationService(fleet, config, store=store)
            async with service:
                for sample in feed[:half]:
                    await service.observe(sample)
                await service.checkpoint()
                assert service.stats()["durability"]["n_warm_restored"] == 0

            # A direct (never-interrupted) run over the whole feed is
            # the identity baseline.
            direct_store = FleetStore()
            direct = RecommendationService(
                make_fleet(small_catalog), config, store=direct_store
            )
            direct_updates = {}
            async with direct:
                for sample in feed:
                    update = await direct.observe(sample)
                    direct_updates[sample.customer_id] = update

            # Restart: a fresh service on the same store picks up the
            # checkpointed observe state before accepting traffic.
            restarted = RecommendationService(
                make_fleet(small_catalog), config, store=store
            )
            served_updates = {}
            async with restarted:
                assert (
                    restarted.stats()["durability"]["n_warm_restored"] == 5
                )
                for sample in feed[half:]:
                    update = await restarted.observe(sample)
                    served_updates[sample.customer_id] = update
            store.close()
            direct_store.close()
            return direct_updates, served_updates

        direct_updates, served_updates = self.run(scenario())
        assert set(served_updates) == set(direct_updates)
        for customer_id, expected in sorted(direct_updates.items()):
            served = served_updates[customer_id]
            assert served.ok and expected.ok
            assert served.update.n_seen == expected.update.n_seen
            expected_rec = expected.update.recommendation
            served_rec = served.update.recommendation
            assert (served_rec is None) == (expected_rec is None)
            if expected_rec is not None:
                assert served_rec.sku.name == expected_rec.sku.name
                assert repr(served_rec.expected_throttling) == repr(
                    expected_rec.expected_throttling
                )

    def test_restart_without_checkpoint_is_cold(self, small_catalog):
        async def scenario():
            store = FleetStore()
            fleet = make_fleet(small_catalog)
            service = RecommendationService(
                fleet, ServeConfig(n_shards=1, watch=WATCH), store=store
            )
            async with service:
                assert service.stats()["durability"]["n_warm_restored"] == 0
            store.close()

        self.run(scenario())

    def test_restart_quarantines_corrupt_blobs_but_serves_the_rest(
        self, small_catalog
    ):
        from repro.faults import FaultPlan

        feed = interleaved_feed(4, 16, seed=19)

        async def scenario():
            store = FleetStore()
            config = ServeConfig(n_shards=2, watch=WATCH)
            service = RecommendationService(
                make_fleet(small_catalog), config, store=store
            )
            async with service:
                for sample in feed:
                    await service.observe(sample)
                await service.checkpoint()
            FaultPlan(corrupt_snapshots=("cust-2",)).corrupt_store(store)
            restarted = RecommendationService(
                make_fleet(small_catalog), config, store=store
            )
            async with restarted:
                stats = restarted.stats()
                assert stats["durability"]["n_warm_restored"] == 3
                assert stats["degraded"]["n_corrupt_quarantined"] == 1
                update = await restarted.observe(feed[0])
                assert update.ok
            kinds = [
                (event.kind, event.customer_id) for event in store.events()
            ]
            assert ("quarantine", "cust-2") in kinds
            store.close()

        self.run(scenario())
