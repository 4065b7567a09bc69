"""Self-healing watch runtime: fault injection, recovery, quarantine.

The contract under test (ISSUE tentpole): a watch whose worker is
killed, hung, or silenced at a deterministic
:class:`~repro.faults.FaultPlan` coordinate restores the shard from
its last checkpoint (or in-parent snapshot), replays the
un-checkpointed feed suffix, and emits a stream **byte-identical** to
the uninterrupted run -- on every execution backend.  Past
``max_restarts`` the shard quarantines instead; a hung worker never
blocks teardown; corrupt store blobs quarantine one customer, not the
watch.  Degraded-mode serving tests live at the bottom; resume
byte-identity without faults is ``test_checkpoint_resume.py``.
"""

from __future__ import annotations

import asyncio
import multiprocessing

import numpy as np
import pytest

from repro import (
    AdmissionError,
    DeploymentType,
    FaultPlan,
    FleetEngine,
    RecommendationService,
    ServeConfig,
)
from repro.core import DopplerEngine
from repro.fleet import (
    CheckpointConfig,
    FleetCustomer,
    FleetSample,
    SupervisionConfig,
    WatchConfig,
)
from repro.fleet import backends as backends_module
from repro.store import FleetStore, StoreCorruptionError

from .test_fleet_backends import canonical_updates, interleaved_feed, live_samples

#: Small ticks so short feeds still span many fault coordinates.
WATCH = WatchConfig(window=16, min_refresh_samples=8, tick_samples=8)


def make_fleet(small_catalog, backend="serial", max_workers=None):
    return FleetEngine(
        engine=DopplerEngine(catalog=small_catalog),
        backend=backend,
        max_workers=max_workers,
    )


def supervised(faults, **changes):
    defaults = dict(backoff_base_s=0.0, snapshot_every_ticks=2, faults=faults)
    defaults.update(changes)
    return SupervisionConfig(**defaults)


# ----------------------------------------------------------------------
# FaultPlan and SupervisionConfig units
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_noop_by_default(self):
        assert FaultPlan().is_noop()
        assert not FaultPlan(kill_worker=((0, 1),)).is_noop()
        assert not FaultPlan(corrupt_snapshots=("cust-1",)).is_noop()

    def test_coordinate_lookups(self):
        plan = FaultPlan(
            kill_worker=((1, 3),),
            delay_shard=((2, 4, 1.5),),
            drop_result=((0, 5),),
        )
        assert plan.kill_at(1, 3) and not plan.kill_at(1, 4)
        assert plan.delay_at(2, 4) == 1.5 and plan.delay_at(2, 5) == 0.0
        assert plan.drop_at(0, 5) and not plan.drop_at(1, 5)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(kill_worker=((-1, 0),))
        with pytest.raises(ValueError, match="delay seconds"):
            FaultPlan(delay_shard=((0, 0, 0.0),))

    def test_plans_are_picklable_by_value(self):
        import pickle

        plan = FaultPlan(kill_worker=[(1, 2)])  # list input normalized
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestSupervisionConfig:
    def test_backoff_is_capped_exponential(self):
        config = SupervisionConfig(backoff_base_s=0.1, backoff_cap_s=0.5)
        assert config.backoff_delay(0) == 0.0
        assert config.backoff_delay(1) == pytest.approx(0.1)
        assert config.backoff_delay(2) == pytest.approx(0.2)
        assert config.backoff_delay(3) == pytest.approx(0.4)
        assert config.backoff_delay(4) == 0.5  # capped
        assert config.backoff_delay(50) == 0.5

    def test_zero_base_disables_backoff(self):
        config = SupervisionConfig(backoff_base_s=0.0, backoff_cap_s=1.0)
        assert config.backoff_delay(3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisionConfig(max_restarts=-1)
        with pytest.raises(ValueError, match="backoff_cap_s"):
            SupervisionConfig(backoff_base_s=1.0, backoff_cap_s=0.5)
        with pytest.raises(ValueError, match="tick_deadline_s"):
            SupervisionConfig(tick_deadline_s=0.0)
        with pytest.raises(ValueError, match="snapshot_every_ticks"):
            SupervisionConfig(snapshot_every_ticks=0)
        with pytest.raises(ValueError, match="faults"):
            SupervisionConfig(faults="kill everything")

    def test_watch_config_validates_supervision(self):
        with pytest.raises(ValueError, match="supervision"):
            WatchConfig(supervision="yes please")


# ----------------------------------------------------------------------
# Kill-at-tick byte-identity, all backends
# ----------------------------------------------------------------------
class TestKillRecoveryIdentity:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_kill_at_random_tick_is_byte_identical(self, backend, small_catalog):
        """Property test: kill coordinates drawn per backend, output parity."""
        feed = interleaved_feed(6, 32, seed=11)
        baseline = canonical_updates(
            make_fleet(small_catalog).watch_fleet(feed, config=WATCH)
        )
        rng = np.random.default_rng(hash(backend) % 2**32)
        # Serial pools have one shard; process watches get 3.
        shard_id = 0 if backend == "serial" else 1
        ticks = rng.integers(0, 4, size=2 if backend == "serial" else 1)
        for tick in ticks:
            fleet = make_fleet(small_catalog)
            config = WATCH.replace(
                backend=backend,
                max_workers=3,
                supervision=supervised(FaultPlan(kill_worker=((shard_id, int(tick)),))),
            )
            assert canonical_updates(fleet.watch_fleet(feed, config=config)) == baseline
            stats = fleet.watch_supervision_stats()
            assert stats is not None
            assert stats.n_restarts == 1
            assert stats.quarantined_shards == ()
            (event,) = [e for e in stats.events if e.kind == "worker_restart"]
            assert event.shard_id == shard_id
            assert event.reason in ("death", "killed")

    def test_checkpointed_kill_restores_from_the_store(self, small_catalog, tmp_path):
        """With a durable store attached, recovery baselines come from it
        and the restart lands in the event log."""
        feed = interleaved_feed(6, 32, seed=11)
        baseline = canonical_updates(
            make_fleet(small_catalog).watch_fleet(feed, config=WATCH)
        )
        store = FleetStore(str(tmp_path / "supervised.db"))
        fleet = make_fleet(small_catalog)
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            checkpoint=CheckpointConfig(store=store, every_ticks=2),
            supervision=supervised(FaultPlan(kill_worker=((1, 2),))),
        )
        assert canonical_updates(fleet.watch_fleet(feed, config=config)) == baseline
        stats = fleet.watch_supervision_stats()
        assert stats.n_restarts == 1
        kinds = [event.kind for event in store.events()]
        assert kinds.count("worker_restart") == 1
        store.close()

    def test_healthy_watch_reports_zero_counters(self, small_catalog):
        feed = interleaved_feed(4, 16, seed=3)
        fleet = make_fleet(small_catalog)
        list(fleet.watch_fleet(feed, config=WATCH.replace(backend="process", max_workers=2)))
        stats = fleet.watch_supervision_stats()
        assert stats is not None
        assert stats.n_restarts == 0
        assert stats.n_deadline_kills == 0
        assert stats.n_replayed_ticks == 0
        assert stats.quarantined_shards == ()
        assert stats.events == ()


# ----------------------------------------------------------------------
# Deadlines: dropped results and hung workers
# ----------------------------------------------------------------------
class TestDeadlines:
    @pytest.mark.parametrize("backend", ["process"])
    def test_dropped_result_is_detected_by_deadline(self, backend, small_catalog):
        """A worker that processes but never replies is only visible as a
        deadline overrun; the restart must still keep byte-identity."""
        feed = interleaved_feed(6, 32, seed=11)
        baseline = canonical_updates(
            make_fleet(small_catalog).watch_fleet(feed, config=WATCH)
        )
        fleet = make_fleet(small_catalog)
        config = WATCH.replace(
            backend=backend,
            max_workers=3,
            supervision=supervised(
                FaultPlan(drop_result=((1, 1),)), tick_deadline_s=1.5
            ),
        )
        assert canonical_updates(fleet.watch_fleet(feed, config=config)) == baseline
        stats = fleet.watch_supervision_stats()
        assert stats.n_restarts == 1
        assert stats.n_deadline_kills == 1

    def test_hung_worker_never_blocks_teardown(
        self, small_catalog, monkeypatch
    ):
        """A worker sleeping far past its deadline is forcibly stopped
        (escalating join -> terminate -> kill) and the watch completes."""
        monkeypatch.setattr(backends_module, "_JOIN_TIMEOUT_S", 0.2)
        feed = interleaved_feed(6, 32, seed=11)
        baseline = canonical_updates(
            make_fleet(small_catalog).watch_fleet(feed, config=WATCH)
        )
        fleet = make_fleet(small_catalog)
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            supervision=supervised(
                FaultPlan(delay_shard=((1, 1, 60.0),)), tick_deadline_s=1.0
            ),
        )
        assert canonical_updates(fleet.watch_fleet(feed, config=config)) == baseline
        stats = fleet.watch_supervision_stats()
        assert stats.n_deadline_kills == 1
        assert stats.n_forced_stops >= 1


# ----------------------------------------------------------------------
# Restart exhaustion: shard quarantine
# ----------------------------------------------------------------------
class TestShardQuarantine:
    def test_exhausted_restarts_quarantine_the_shard(self, small_catalog, tmp_path):
        feed = interleaved_feed(6, 32, seed=11)
        store = FleetStore(str(tmp_path / "quarantine.db"))
        fleet = make_fleet(small_catalog)
        kills = tuple((1, tick) for tick in range(64))
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            checkpoint=CheckpointConfig(store=store, every_ticks=2),
            supervision=supervised(
                FaultPlan(kill_worker=kills), max_restarts=2, snapshot_every_ticks=1
            ),
        )
        updates = list(fleet.watch_fleet(feed, config=config))
        stats = fleet.watch_supervision_stats()
        assert stats.n_restarts == 2  # budget consumed...
        assert stats.quarantined_shards == (1,)  # ...then quarantine
        errors = [u for u in updates if u.error and "quarantined" in u.error]
        assert errors  # in-flight customers got an answer, not silence
        assert all("after 2 worker restarts" in u.error for u in errors)
        kinds = [event.kind for event in stats.events]
        assert kinds == ["worker_restart", "worker_restart", "shard_quarantine"]
        store_kinds = [event.kind for event in store.events()]
        assert store_kinds.count("shard_quarantine") == 1
        store.close()

    def test_other_shards_keep_streaming_after_quarantine(self, small_catalog):
        feed = interleaved_feed(6, 32, seed=11)
        fleet = make_fleet(small_catalog)
        kills = tuple((1, tick) for tick in range(64))
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            supervision=supervised(
                FaultPlan(kill_worker=kills), max_restarts=1, snapshot_every_ticks=1
            ),
        )
        updates = list(fleet.watch_fleet(feed, config=config))
        healthy = [u for u in updates if u.update is not None]
        assert healthy  # the un-quarantined shards' customers still emit


# ----------------------------------------------------------------------
# Store corruption: per-customer quarantine, not watch abort
# ----------------------------------------------------------------------
class TestCorruptionQuarantine:
    def run_checkpointed(self, small_catalog, store, feed):
        config = WATCH.replace(
            checkpoint=CheckpointConfig(store=store, every_ticks=2)
        )
        return list(make_fleet(small_catalog).watch_fleet(feed, config=config))

    def test_corrupt_blob_quarantines_one_customer_on_resume(
        self, small_catalog, tmp_path
    ):
        feed = interleaved_feed(4, 24, seed=5)
        store = FleetStore(str(tmp_path / "corrupt.db"))
        self.run_checkpointed(small_catalog, store, feed)
        plan = FaultPlan(corrupt_snapshots=("cust-1",))
        assert plan.corrupt_store(store) == 1
        with pytest.raises(StoreCorruptionError):
            store.load_customer_state("cust-1")
        # Resume must survive the bad blob: cust-1 quarantines with an
        # audit event, everyone else restores normally.
        config = WATCH.replace(checkpoint=CheckpointConfig(store=store, every_ticks=2))
        resumed = list(
            make_fleet(small_catalog).watch_fleet(feed, config=config, resume_from=store)
        )
        assert resumed == []  # the killed run had already drained the feed
        quarantines = [
            event
            for event in store.events()
            if event.kind == "quarantine" and event.customer_id == "cust-1"
        ]
        assert quarantines
        assert "corrupt_state" in quarantines[-1].detail  # JSON detail blob
        store.close()

    def test_unresolvable_curve_key_quarantines_one_customer_on_resume(
        self, small_catalog, tmp_path
    ):
        """A blob naming a catalog no engine here holds is corruption.

        Curves pickle their candidates by catalog key; a key this
        process never interned (another catalog's) fails that one
        customer's decode, and the resume quarantines just that
        customer while the rest continue byte-identically.
        """
        feed = interleaved_feed(4, 24, seed=6)
        baseline = list(make_fleet(small_catalog).watch_fleet(feed, config=WATCH))
        store = FleetStore(str(tmp_path / "foreign.db"))
        config = WATCH.replace(checkpoint=CheckpointConfig(store=store, every_ticks=2))
        fleet = make_fleet(small_catalog)
        consumed = []
        stream = fleet.watch_fleet(feed, config=config)
        try:
            for update in stream:
                consumed.append(update)
                if len(consumed) >= len(baseline) // 2:
                    break
        finally:
            stream.close()
        signature = fleet.engine.ppm.catalog_signature.encode()
        (blob,) = store._conn.execute(
            "SELECT state FROM customers WHERE customer_id = 'cust-1'"
        ).fetchone()
        assert signature in blob
        with store._conn:
            store._conn.execute(
                "UPDATE customers SET state = ? WHERE customer_id = 'cust-1'",
                (blob.replace(signature, b"0" * len(signature)),),
            )
        with pytest.raises(StoreCorruptionError, match="interned"):
            store.load_customer_state("cust-1")
        n_emitted = store.require_checkpoint().n_emitted
        resumed = list(
            make_fleet(small_catalog).watch_fleet(feed, config=config, resume_from=store)
        )
        quarantined = {
            event.customer_id
            for event in store.events()
            if event.kind == "quarantine" and "corrupt_state" in event.detail
        }
        assert quarantined == {"cust-1"}
        tail = [u for u in baseline[n_emitted:] if u.customer_id != "cust-1"]
        assert canonical_updates(
            [u for u in resumed if u.customer_id != "cust-1"]
        ) == canonical_updates(tail)
        assert any(u.customer_id != "cust-1" for u in resumed)
        store.close()

    def test_corrupt_customer_state_returns_false_for_unknown(self, tmp_path):
        store = FleetStore(str(tmp_path / "empty.db"))
        assert store.corrupt_customer_state("nobody") is False
        store.close()

    def test_iter_customer_states_callback_skips_corrupt_rows(
        self, small_catalog, tmp_path
    ):
        feed = interleaved_feed(3, 24, seed=5)
        store = FleetStore(str(tmp_path / "iter.db"))
        self.run_checkpointed(small_catalog, store, feed)
        FaultPlan(corrupt_snapshots=("cust-0",)).corrupt_store(store)
        seen, bad = [], []
        for record in store.iter_customer_states(
            on_corrupt=lambda cid, exc: bad.append(cid)
        ):
            seen.append(record.customer_id)
        assert bad == ["cust-0"]
        assert "cust-0" not in seen and "cust-1" in seen
        # Without the callback the iterator propagates the error.
        with pytest.raises(StoreCorruptionError):
            list(store.iter_customer_states())
        store.close()


# ----------------------------------------------------------------------
# Degraded-mode serving
# ----------------------------------------------------------------------
class TestDegradedServing:
    WATCH = WatchConfig(window=8, min_refresh_samples=4)

    def make_service(self, small_catalog, store=None, **overrides):
        config = ServeConfig(
            n_shards=1,
            max_batch=8,
            queue_limit=4096,
            slo_ms=60_000.0,
            watch=self.WATCH,
            **overrides,
        )
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog))
        return RecommendationService(fleet, config, store=store)

    def warm_samples(self, n, seed=3):
        rng = np.random.default_rng(seed)
        return [
            FleetSample(customer_id="alpha", values=values)
            for values in live_samples(n, rng)
        ]

    def break_shard(self, service, shard_id=0):
        def boom(batch):
            raise RuntimeError("injected shard failure")

        service._shards[shard_id].process = boom

    def test_failed_flush_defers_and_restore_replays(self, small_catalog, tmp_path):
        store = FleetStore(str(tmp_path / "serve.db"))
        service = self.make_service(small_catalog, store=store)
        samples = self.warm_samples(8)

        async def scenario():
            async with service:
                for sample in samples[:6]:
                    update = await service.observe(sample)
                    assert not update.deferred
                await service.checkpoint()
                self.break_shard(service)
                deferred = await service.observe(samples[6])
                assert deferred.deferred and not deferred.ok
                assert "buffered" in deferred.error
                # Further observes short-circuit into the replay buffer.
                also_deferred = await service.observe(samples[7])
                assert also_deferred.deferred
                stats = service.stats()
                assert stats["degraded"]["shards"] == [0]
                assert stats["degraded"]["replay_buffered"] == 2
                assert stats["observe"]["shards"][0]["degraded"] is True
                replayed = await service.restore_shard(0)
                assert replayed == 2
                healed = service.stats()["degraded"]
                assert healed["shards"] == []
                assert healed["n_shard_restores"] == 1
                # Normal service resumes on the rebuilt shard.
                update = await service.observe(samples[6])
                assert update.ok and not update.deferred
                return service._shards[0].recommenders

        recommenders = asyncio.run(scenario())
        assert "alpha" in recommenders  # members restored from the store
        store.close()

    def make_customer(self, customer_id="alpha"):
        from .conftest import full_trace

        return FleetCustomer(
            customer_id=customer_id,
            trace=full_trace(n=64, entity_id=customer_id),
            deployment=DeploymentType.SQL_DB,
        )

    def test_degraded_recommend_serves_stale_from_store(
        self, small_catalog, tmp_path
    ):
        store = FleetStore(str(tmp_path / "stale.db"))
        service = self.make_service(small_catalog, store=store)
        samples = self.warm_samples(8)
        customer = self.make_customer()

        async def scenario():
            async with service:
                for sample in samples[:6]:
                    await service.observe(sample)
                await service.checkpoint()
                fresh = await service.recommend(customer)
                assert not fresh.stale and fresh.retry_after_s is None
                self.break_shard(service)
                await service.observe(samples[6])  # trips degraded mode
                stale = await service.recommend(customer)
                assert stale.stale is True
                assert stale.retry_after_s is not None and stale.retry_after_s > 0
                assert stale.recommendation is not None
                assert service.stats()["degraded"]["n_stale_served"] == 1
                await service.restore_shard(0)
                again = await service.recommend(customer)
                assert not again.stale

        asyncio.run(scenario())
        store.close()

    def test_degraded_recommend_without_store_sheds(self, small_catalog):
        service = self.make_service(small_catalog)  # no store attached
        samples = self.warm_samples(8)
        customer = self.make_customer()

        async def scenario():
            async with service:
                for sample in samples[:4]:
                    await service.observe(sample)
                self.break_shard(service)
                await service.observe(samples[4])
                with pytest.raises(AdmissionError, match="no stored recommendation"):
                    await service.recommend(customer)

        asyncio.run(scenario())

    def test_full_replay_buffer_sheds_observes(self, small_catalog):
        service = self.make_service(small_catalog, replay_limit=2)
        samples = self.warm_samples(8)

        async def scenario():
            async with service:
                for sample in samples[:3]:
                    await service.observe(sample)
                self.break_shard(service)
                await service.observe(samples[3])  # buffered (1/2)
                await service.observe(samples[4])  # buffered (2/2)
                with pytest.raises(AdmissionError, match="replay buffer full"):
                    await service.observe(samples[5])
                assert service.stats()["degraded"]["replay_buffered"] == 2

        asyncio.run(scenario())

    def test_corrupt_blob_on_readmission_quarantines_customer(
        self, small_catalog, tmp_path
    ):
        store = FleetStore(str(tmp_path / "readmit.db"))
        service = self.make_service(small_catalog, store=store)
        samples = self.warm_samples(8)
        # A second customer keeps the shard populated so alpha is
        # evictable (evict_cold keeps the most recently observed).
        rng = np.random.default_rng(9)
        beta = [
            FleetSample(customer_id="beta", values=values)
            for values in live_samples(6, rng)
        ]

        async def scenario():
            async with service:
                for sample in samples[:6]:
                    await service.observe(sample)
                for sample in beta:
                    await service.observe(sample)
                await service.checkpoint()
                # Evict alpha so its next observe takes the readmission
                # path, then corrupt its stored blob.
                evicted = await service.evict_cold(1)
                assert evicted == 1  # alpha (least recently observed)
                FaultPlan(corrupt_snapshots=("alpha",)).corrupt_store(store)
                update = await service.observe(samples[6])
                assert not update.ok and "quarantined" in update.error
                stats = service.stats()
                assert stats["degraded"]["n_corrupt_quarantined"] == 1
                assert stats["degraded"]["shards"] == []  # shard stays up
                # The quarantine is audited in the store's event log.
                kinds = [
                    (event.kind, event.customer_id) for event in store.events()
                ]
                assert ("quarantine", "alpha") in kinds

        asyncio.run(scenario())
        store.close()


# ----------------------------------------------------------------------
# Probation: quarantined shards re-enter service after a cool-down
# ----------------------------------------------------------------------
class TestShardProbation:
    @pytest.mark.parametrize("backend", ["process"])
    def test_quarantined_shard_reenters_after_cooldown(
        self, backend, small_catalog, tmp_path
    ):
        feed = interleaved_feed(6, 48, seed=11)
        store = FleetStore(str(tmp_path / "probation.db"))
        fleet = make_fleet(small_catalog)
        # Kill shard 1 on its first few ticks only: the restart budget
        # exhausts, the shard quarantines, then the cool-down elapses
        # with no further faults and probation readmits it.  (Several
        # coordinates because the pipelined watch replays in-flight
        # ticks without their directives.)
        config = WATCH.replace(
            backend=backend,
            max_workers=3,
            checkpoint=CheckpointConfig(store=store, every_ticks=2),
            supervision=supervised(
                FaultPlan(kill_worker=tuple((1, tick) for tick in range(4))),
                max_restarts=1,
                snapshot_every_ticks=1,
                probation_ticks=2,
            ),
        )
        list(fleet.watch_fleet(feed, config=config))
        stats = fleet.watch_supervision_stats()
        kinds = [event.kind for event in stats.events]
        assert "shard_quarantine" in kinds
        assert "shard_probation" in kinds
        assert kinds.index("shard_quarantine") < kinds.index("shard_probation")
        probation = [e for e in stats.events if e.kind == "shard_probation"]
        assert probation[0].shard_id == 1
        assert probation[0].reason == "cooldown elapsed"
        # Readmitted: the shard is no longer quarantined at drain time,
        # and its restart budget is back for the next incident.
        assert stats.quarantined_shards == ()
        # The readmission is audited durably too.
        store_kinds = [event.kind for event in store.events()]
        assert store_kinds.count("shard_probation") >= 1
        store.close()

    def test_probation_disabled_by_default(self, small_catalog):
        feed = interleaved_feed(6, 32, seed=11)
        fleet = make_fleet(small_catalog)
        kills = tuple((1, tick) for tick in range(64))
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            supervision=supervised(
                FaultPlan(kill_worker=kills), max_restarts=1, snapshot_every_ticks=1
            ),
        )
        list(fleet.watch_fleet(feed, config=config))
        stats = fleet.watch_supervision_stats()
        assert stats.quarantined_shards == (1,)  # no cool-down configured
        assert all(event.kind != "shard_probation" for event in stats.events)

    def test_probation_ticks_validated(self):
        with pytest.raises(ValueError, match="probation_ticks"):
            SupervisionConfig(probation_ticks=0)


# ----------------------------------------------------------------------
# Worker hygiene under faults
# ----------------------------------------------------------------------
class TestFaultHygiene:
    def test_sigkill_recovery_is_identical_and_leaves_no_worker(self, small_catalog):
        feed = interleaved_feed(6, 32, seed=11)
        baseline = canonical_updates(
            make_fleet(small_catalog).watch_fleet(feed, config=WATCH)
        )
        fleet = make_fleet(small_catalog)
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            supervision=supervised(FaultPlan(kill_worker=((1, 1),))),
        )
        assert canonical_updates(fleet.watch_fleet(feed, config=config)) == baseline
        assert fleet.watch_supervision_stats().n_restarts == 1
        # The killed worker's replacement and its peers are all reaped.
        assert multiprocessing.active_children() == []

    def test_quarantine_leaves_no_worker(self, small_catalog):
        feed = interleaved_feed(6, 32, seed=11)
        fleet = make_fleet(small_catalog)
        kills = tuple((1, tick) for tick in range(64))
        config = WATCH.replace(
            backend="process",
            max_workers=3,
            supervision=supervised(
                FaultPlan(kill_worker=kills), max_restarts=1, snapshot_every_ticks=1
            ),
        )
        updates = list(fleet.watch_fleet(feed, config=config))
        stats = fleet.watch_supervision_stats()
        assert stats.quarantined_shards == (1,)
        assert [u for u in updates if u.update is not None]
        assert multiprocessing.active_children() == []
