"""Unit tests for the durable fleet store (:mod:`repro.store`).

Covers the persistence protocol surface on its own terms -- schema
round-trips, versioned migrations, epoch guards, the append-only event
log with its SQL-window-function rolling counts, checkpoint atomicity
and corruption handling -- without running a watch.  The watch-level
crash/resume contract lives in ``test_checkpoint_resume.py``.
"""

from __future__ import annotations

import pickle
import sqlite3

import numpy as np
import pytest

from repro.catalog import DeploymentType
from repro.core import DopplerEngine
from repro.store import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    CustomerStateRecord,
    FleetStore,
    FleetStoreError,
    RetentionPolicy,
    StaleStateError,
    StoreCorruptionError,
    StoreSchemaError,
    register_migration,
)
from repro.store.fleetstore import _MIGRATIONS
from repro.streaming import LiveRecommender

from .test_fleet_backends import live_samples

DB = DeploymentType.SQL_DB


def make_state(small_catalog, entity_id="cust-0", n_samples=12, seed=0):
    """A real, refreshed live-assessment snapshot for store round-trips."""
    engine = DopplerEngine(catalog=small_catalog)
    live = LiveRecommender(
        engine,
        DeploymentType.SQL_DB,
        window=16,
        min_refresh_samples=8,
        entity_id=entity_id,
    )
    rng = np.random.default_rng(seed)
    for sample in live_samples(n_samples, rng):
        live.observe(sample)
    return live.snapshot_state()


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "fleet.db")


# ----------------------------------------------------------------------
# Open, pragmas, lifecycle
# ----------------------------------------------------------------------
class TestOpen:
    def test_file_store_runs_in_wal_mode(self, store_path):
        with FleetStore(store_path) as store:
            mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            assert store.path == store_path
            assert store.schema_version == SCHEMA_VERSION

    def test_memory_store_works(self):
        with FleetStore() as store:
            assert store.customer_counts() == (0, 0)

    def test_reopen_preserves_contents(self, store_path, small_catalog):
        state = make_state(small_catalog)
        with FleetStore(store_path) as store:
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
        with FleetStore(store_path) as store:
            assert store.customer_counts() == (1, 0)

    def test_garbage_file_is_a_corruption_error(self, store_path):
        with open(store_path, "wb") as fh:
            fh.write(b"this is definitely not a sqlite database" * 40)
        with pytest.raises(StoreCorruptionError, match="not a readable fleet store"):
            FleetStore(store_path)

    def test_foreign_sqlite_db_is_a_corruption_error(self, store_path):
        conn = sqlite3.connect(store_path)
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreCorruptionError, match="not a fleet store"):
            FleetStore(store_path)

    def test_null_state_blob_is_a_corruption_error(self, store_path, small_catalog):
        state = make_state(small_catalog)
        with FleetStore(store_path) as store:
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
            store._conn.execute("UPDATE customers SET state = NULL")
            store._conn.commit()
            with pytest.raises(StoreCorruptionError, match="no state blob"):
                store.load_customer_state("cust-0")


# ----------------------------------------------------------------------
# Schema versioning and migrations
# ----------------------------------------------------------------------
class TestSchemaVersioning:
    def _set_version(self, path: str, version: int) -> None:
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'", (str(version),)
        )
        conn.commit()
        conn.close()

    def test_newer_schema_is_rejected_with_upgrade_hint(self, store_path):
        FleetStore(store_path).close()
        self._set_version(store_path, SCHEMA_VERSION + 3)
        with pytest.raises(StoreSchemaError, match="upgrade this build"):
            FleetStore(store_path)

    def test_missing_migration_is_a_schema_error(self, store_path):
        FleetStore(store_path).close()
        self._set_version(store_path, SCHEMA_VERSION - 1)
        # The newest shipped migration occupies the slot; hide it to
        # exercise the missing-migration error path.
        shipped = _MIGRATIONS.pop(SCHEMA_VERSION - 1)
        try:
            with pytest.raises(StoreSchemaError, match="no migration registered"):
                FleetStore(store_path)
        finally:
            _MIGRATIONS[SCHEMA_VERSION - 1] = shipped

    def test_registered_migration_upgrades_on_open(self, store_path, small_catalog):
        state = make_state(small_catalog)
        with FleetStore(store_path) as store:
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
        self._set_version(store_path, SCHEMA_VERSION - 1)
        ran = []

        def migrate(conn: sqlite3.Connection) -> None:
            ran.append(conn.execute("SELECT COUNT(*) FROM customers").fetchone()[0])

        # Swap the newest shipped migration for an observable one.
        shipped = _MIGRATIONS.pop(SCHEMA_VERSION - 1)
        register_migration(SCHEMA_VERSION - 1, migrate)
        try:
            with FleetStore(store_path) as store:
                assert store.schema_version == SCHEMA_VERSION
                assert store.customer_counts() == (1, 0)
        finally:
            _MIGRATIONS[SCHEMA_VERSION - 1] = shipped
        assert ran == [1]
        # The bumped version is durable: reopening does not migrate again.
        with FleetStore(store_path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_duplicate_migration_registration_rejected(self):
        def migrate(conn: sqlite3.Connection) -> None:  # pragma: no cover
            pass

        # The newest shipped migration already holds this slot.
        with pytest.raises(ValueError, match="already registered"):
            register_migration(SCHEMA_VERSION - 1, migrate)


# ----------------------------------------------------------------------
# Customer state round-trips and the epoch guard
# ----------------------------------------------------------------------
class TestCustomerState:
    def test_state_round_trip_is_byte_identical(self, small_catalog):
        import dataclasses

        state = make_state(small_catalog)
        with FleetStore() as store:
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
            loaded = store.load_customer_state("cust-0")
        assert loaded is not None and not loaded.quarantined
        # Field-wise pickle equality: whole-object bytes can differ by
        # memoized sharing alone, which restore does not observe.
        for field in dataclasses.fields(state):
            assert pickle.dumps(getattr(loaded.state, field.name)) == pickle.dumps(
                getattr(state, field.name)
            ), field.name

    def test_quarantined_record_round_trips_without_state(self):
        with FleetStore() as store:
            store.save_customer_states(
                [CustomerStateRecord("bad", None, quarantined=True)]
            )
            loaded = store.load_customer_state("bad")
            assert loaded is not None and loaded.quarantined and loaded.state is None
            assert store.customer_counts() == (1, 1)

    def test_iteration_is_ordered_by_customer_id(self, small_catalog):
        with FleetStore() as store:
            store.save_customer_states(
                [
                    CustomerStateRecord("cust-2", make_state(small_catalog, "cust-2")),
                    CustomerStateRecord("cust-0", make_state(small_catalog, "cust-0")),
                    CustomerStateRecord("cust-1", None, quarantined=True),
                ]
            )
            assert [r.customer_id for r in store.iter_customer_states()] == [
                "cust-0",
                "cust-1",
                "cust-2",
            ]

    def test_stale_epoch_is_rejected(self, small_catalog):
        import dataclasses

        state = make_state(small_catalog)
        newer = dataclasses.replace(state, epoch=state.epoch + 2)
        with FleetStore() as store:
            store.save_customer_states([CustomerStateRecord("cust-0", newer)])
            with pytest.raises(StaleStateError, match="refusing to store epoch"):
                store.save_customer_states([CustomerStateRecord("cust-0", state)])
            # Equal epoch re-checkpoints fine (unchanged customers).
            store.save_customer_states([CustomerStateRecord("cust-0", newer)])

    def test_missing_customer_loads_as_none(self):
        with FleetStore() as store:
            assert store.load_customer_state("nobody") is None

    def test_delete_removes_state_and_recommendations(self, small_catalog):
        state = make_state(small_catalog)
        with FleetStore() as store:
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
            assert store.latest_recommendation("cust-0") is not None
            store.delete_customer_states(["cust-0"])
            assert store.customer_counts() == (0, 0)
            # FK cascade clears the recommendation history too.
            assert store.latest_recommendation("cust-0") is None

    def test_record_validation(self, small_catalog):
        state = make_state(small_catalog)
        with pytest.raises(ValueError):
            CustomerStateRecord("cust-0", None)  # live record needs state
        with pytest.raises(ValueError):
            CustomerStateRecord("cust-0", state, quarantined=True)


# ----------------------------------------------------------------------
# Recommendation history
# ----------------------------------------------------------------------
class TestRecommendations:
    def test_resaving_same_refresh_does_not_duplicate(self, small_catalog):
        state = make_state(small_catalog)
        assert state.recommendation is not None
        with FleetStore() as store:
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
            history = store.recommendation_history("cust-0")
        assert len(history) == 1
        assert history[0].sku_name == state.recommendation.sku.name
        assert history[0].n_refreshes == state.n_refreshes

    def test_latest_recommendation_orders_by_refresh_count(self, small_catalog):
        import dataclasses

        early = make_state(small_catalog, n_samples=10)
        # A later refresh of the same assessment (drift may or may not
        # fire on synthetic feeds, so bump the counter directly).
        late = dataclasses.replace(early, n_refreshes=early.n_refreshes + 1)
        assert late.n_refreshes > early.n_refreshes
        with FleetStore() as store:
            store.save_customer_states([CustomerStateRecord("cust-0", early)])
            store.save_customer_states([CustomerStateRecord("cust-0", late)])
            latest = store.latest_recommendation("cust-0")
            assert latest is not None
            assert latest.n_refreshes == late.n_refreshes
            assert len(store.recommendation_history("cust-0")) == 2


# ----------------------------------------------------------------------
# Event log and rolling analytics
# ----------------------------------------------------------------------
class TestEvents:
    def test_unknown_event_kind_rejected(self):
        with FleetStore() as store:
            with pytest.raises(ValueError, match="unknown event kind"):
                store.append_event("reboot", tick_id=0)

    def test_events_filter_and_counts(self):
        with FleetStore() as store:
            store.append_event("migration", tick_id=1, customer_id="a", source_shard=0, target_shard=1)
            store.append_event("quarantine", tick_id=2, customer_id="b", source_shard=1)
            store.append_event("migration", tick_id=3, customer_id="c", source_shard=1, target_shard=0)
            assert [e.customer_id for e in store.events("migration")] == ["a", "c"]
            assert store.event_counts() == {"migration": 2, "quarantine": 1}
            everything = store.events()
            assert [e.kind for e in everything] == ["migration", "quarantine", "migration"]

    def test_event_detail_round_trips_as_json(self):
        import json

        with FleetStore() as store:
            store.append_event("rebalance", tick_id=5, detail={"n_moves": 3, "resized_to": 4})
            (event,) = store.events("rebalance")
            assert json.loads(event.detail) == {"n_moves": 3, "resized_to": 4}

    def test_rolling_counts_match_python_reference(self):
        rng = np.random.default_rng(33)
        per_tick: dict[int, int] = {}
        with FleetStore() as store:
            for tick in sorted(rng.choice(60, size=25, replace=False).tolist()):
                count = int(rng.integers(1, 5))
                per_tick[tick] = count
                for _ in range(count):
                    store.append_event("migration", tick_id=tick, customer_id="x")
            window = 4
            rows = store.rolling_event_counts("migration", window_ticks=window)
        ticks = sorted(per_tick)
        assert [(t, per_tick[t]) for t in ticks] == [(t, n) for t, n, _ in rows]
        for index, (_, _, rolling) in enumerate(rows):
            expected = sum(per_tick[t] for t in ticks[max(0, index - window + 1) : index + 1])
            assert rolling == expected

    def test_rolling_counts_validate_window(self):
        with FleetStore() as store:
            with pytest.raises(ValueError, match="window_ticks"):
                store.rolling_event_counts("migration", window_ticks=0)

    def test_event_kinds_constant_matches_schema_check(self):
        with FleetStore() as store:
            for kind in EVENT_KINDS:
                store.append_event(kind, tick_id=0)
            assert sum(store.event_counts().values()) == len(EVENT_KINDS)


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpoints:
    def test_checkpoint_round_trip(self, small_catalog):
        state = make_state(small_catalog)
        with FleetStore() as store:
            written = store.checkpoint(
                tick_id=7,
                n_consumed=420,
                n_emitted=55,
                n_shards=3,
                overrides={"hot-cust": 2},
                records=[
                    CustomerStateRecord("cust-0", state),
                    CustomerStateRecord("bad", None, quarantined=True),
                ],
            )
            latest = store.latest_checkpoint()
        assert latest == written
        assert latest.overrides == {"hot-cust": 2}
        assert latest.n_customers == 2

    def test_checkpoint_writes_states_and_event_atomically(self, small_catalog):
        state = make_state(small_catalog)
        with FleetStore() as store:
            store.checkpoint(
                tick_id=1,
                n_consumed=10,
                n_emitted=2,
                n_shards=1,
                overrides={},
                records=[CustomerStateRecord("cust-0", state)],
            )
            assert store.customer_counts() == (1, 0)
            assert store.event_counts().get("checkpoint") == 1
            assert store.checkpoint_count() == 1

    def test_require_checkpoint_on_empty_store_is_clear(self):
        with FleetStore() as store:
            with pytest.raises(FleetStoreError, match="no checkpoint to resume from"):
                store.require_checkpoint()

    def test_latest_checkpoint_wins(self, small_catalog):
        state = make_state(small_catalog)
        with FleetStore() as store:
            for tick in (1, 2, 3):
                store.checkpoint(
                    tick_id=tick,
                    n_consumed=tick * 10,
                    n_emitted=tick,
                    n_shards=1,
                    overrides={},
                    records=[CustomerStateRecord("cust-0", state)],
                )
            assert store.require_checkpoint().tick_id == 3

    def test_corrupt_overrides_surface_as_corruption(self, small_catalog):
        state = make_state(small_catalog)
        with FleetStore() as store:
            store.checkpoint(
                tick_id=1,
                n_consumed=1,
                n_emitted=1,
                n_shards=1,
                overrides={},
                records=[CustomerStateRecord("cust-0", state)],
            )
            store._conn.execute("UPDATE checkpoints SET overrides = 'not json'")
            store._conn.commit()
            with pytest.raises(StoreCorruptionError, match="unreadable overrides"):
                store.latest_checkpoint()

    def test_checkpoint_records_state_bytes(self, small_catalog):
        states = [make_state(small_catalog, f"cust-{i}", seed=i) for i in range(3)]
        with FleetStore() as store:
            full = store.checkpoint(
                tick_id=1,
                n_consumed=30,
                n_emitted=3,
                n_shards=1,
                overrides={},
                records=[
                    CustomerStateRecord(f"cust-{i}", state)
                    for i, state in enumerate(states)
                ],
            )
            assert full.n_state_bytes > 0
            partial = store.checkpoint(
                tick_id=2,
                n_consumed=40,
                n_emitted=4,
                n_shards=1,
                overrides={},
                records=[CustomerStateRecord("cust-0", states[0])],
            )
            # Fewer rows written -> fewer bytes, surfaced on the
            # record, the latest_checkpoint read-back, and the event.
            assert 0 < partial.n_state_bytes < full.n_state_bytes
            assert store.latest_checkpoint().n_state_bytes == partial.n_state_bytes
            import json

            details = [
                json.loads(e.detail) for e in store.events("checkpoint")
            ]
            assert [d["n_state_bytes"] for d in details] == [
                full.n_state_bytes,
                partial.n_state_bytes,
            ]

    def test_v2_store_migrates_and_backfills_zero_bytes(self, store_path):
        FleetStore(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute("ALTER TABLE checkpoints DROP COLUMN n_state_bytes")
        conn.execute("UPDATE meta SET value = '2' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with FleetStore(store_path) as store:
            assert store.schema_version == SCHEMA_VERSION
            record = store.checkpoint(
                tick_id=1, n_consumed=0, n_emitted=0, n_shards=1, overrides={}, records=[]
            )
            assert record.n_state_bytes == 0
            assert store.latest_checkpoint() == record


# ----------------------------------------------------------------------
# Retention policies
# ----------------------------------------------------------------------
class TestRetention:
    def checkpoint_at(self, store, tick):
        return store.checkpoint(
            tick_id=tick, n_consumed=0, n_emitted=0, n_shards=1, overrides={}, records=[]
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_count"):
            RetentionPolicy(max_count=0)
        with pytest.raises(ValueError, match="max_age_ticks"):
            RetentionPolicy(max_age_ticks=-1)
        assert RetentionPolicy().is_noop
        assert not RetentionPolicy(max_count=5).is_noop
        with pytest.raises(ValueError, match="retain_events must be a RetentionPolicy"):
            FleetStore(retain_events=42)
        with pytest.raises(ValueError, match="retain_recommendations"):
            FleetStore(retain_recommendations="forever")

    def test_events_pruned_by_count_at_checkpoint_only(self):
        with FleetStore(retain_events=RetentionPolicy(max_count=4)) as store:
            for tick in range(10):
                store.append_event("eviction", tick_id=tick, customer_id="c")
            # Appending never prunes; only a checkpoint does.
            assert len(store.events("eviction")) == 10
            self.checkpoint_at(store, 10)
            kept = store.events()
            assert len(kept) == 4
            # The newest events survive -- including the checkpoint's own.
            assert kept[-1].kind == "checkpoint"
            assert [e.tick_id for e in kept[:-1]] == [7, 8, 9]

    def test_events_pruned_by_age(self):
        with FleetStore(retain_events=RetentionPolicy(max_age_ticks=5)) as store:
            for tick in (1, 4, 8, 12):
                store.append_event("migration", tick_id=tick, customer_id="c")
            self.checkpoint_at(store, 14)
            # Ticks below 14 - 5 = 9 are dropped.
            assert [e.tick_id for e in store.events("migration")] == [12]

    def test_recommendation_history_bounded_per_customer(self, small_catalog):
        import dataclasses

        base = make_state(small_catalog)
        refreshes = [
            dataclasses.replace(base, n_refreshes=base.n_refreshes + bump)
            for bump in range(4)
        ]
        with FleetStore(
            retain_recommendations=RetentionPolicy(max_count=2)
        ) as store:
            for tick, state in enumerate(refreshes):
                store.save_customer_states(
                    [CustomerStateRecord("cust-0", state)], tick_id=tick
                )
            assert len(store.recommendation_history("cust-0")) == 4
            self.checkpoint_at(store, 10)
            history = store.recommendation_history("cust-0")
            # The two newest refreshes survive, newest still queryable.
            assert [h.n_refreshes for h in history] == [
                refreshes[-2].n_refreshes,
                refreshes[-1].n_refreshes,
            ]
            latest = store.latest_recommendation("cust-0")
            assert latest is not None
            assert latest.n_refreshes == refreshes[-1].n_refreshes

    def test_recommendations_pruned_by_age(self, small_catalog):
        import dataclasses

        base = make_state(small_catalog)
        with FleetStore(
            retain_recommendations=RetentionPolicy(max_age_ticks=3)
        ) as store:
            for tick, bump in ((1, 0), (8, 1)):
                state = dataclasses.replace(base, n_refreshes=base.n_refreshes + bump)
                store.save_customer_states(
                    [CustomerStateRecord("cust-0", state)], tick_id=tick
                )
            self.checkpoint_at(store, 10)
            history = store.recommendation_history("cust-0")
            assert [h.tick_id for h in history] == [8]

    def test_no_policy_keeps_everything(self, small_catalog):
        state = make_state(small_catalog)
        with FleetStore() as store:
            for tick in range(6):
                store.append_event("eviction", tick_id=tick, customer_id="c")
            store.save_customer_states([CustomerStateRecord("cust-0", state)])
            self.checkpoint_at(store, 6)
            assert len(store.events("eviction")) == 6
            assert len(store.recommendation_history("cust-0")) == 1


# ----------------------------------------------------------------------
# Cross-thread access (the serving tier's usage pattern)
# ----------------------------------------------------------------------
class TestThreading:
    def test_concurrent_writers_from_threads(self, small_catalog):
        import concurrent.futures

        state = make_state(small_catalog)
        with FleetStore() as store:

            def write(index: int) -> None:
                store.save_customer_states(
                    [CustomerStateRecord(f"cust-{index}", state)], tick_id=index
                )
                store.append_event("eviction", tick_id=index, customer_id=f"cust-{index}")

            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(write, range(32)))
            assert store.customer_counts() == (32, 0)
            assert store.event_counts()["eviction"] == 32


# ----------------------------------------------------------------------
# State blob encoding
# ----------------------------------------------------------------------
class TestStateBlobEncoding:
    def test_encode_state_writes_a_plain_pickle(self, small_catalog):
        import dataclasses

        from repro.store.persistence import encode_state

        state = make_state(small_catalog)
        blob = encode_state(state)
        assert blob == pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        loaded = pickle.loads(blob)
        for field in dataclasses.fields(state):
            assert pickle.dumps(getattr(loaded, field.name)) == pickle.dumps(
                getattr(state, field.name)
            ), field.name

    def test_round_trip_is_field_identical(self, small_catalog):
        import dataclasses

        from repro.store.persistence import decode_state, encode_state

        state = make_state(small_catalog)
        decoded = decode_state(encode_state(state), customer_id="cust-0")
        for field in dataclasses.fields(state):
            assert pickle.dumps(getattr(decoded, field.name)) == pickle.dumps(
                getattr(state, field.name)
            ), field.name

    def test_legacy_plain_pickle_blob_still_decodes(self, small_catalog):
        import dataclasses

        from repro.store.persistence import decode_state

        state = make_state(small_catalog)
        decoded = decode_state(pickle.dumps(state), customer_id="cust-0")
        for field in dataclasses.fields(state):
            assert pickle.dumps(getattr(decoded, field.name)) == pickle.dumps(
                getattr(state, field.name)
            ), field.name

    def test_torn_blob_is_a_corruption_error(self, small_catalog):
        from repro.store.persistence import encode_state

        blob = encode_state(make_state(small_catalog))
        with pytest.raises(StoreCorruptionError, match="cust-9"):
            from repro.store.persistence import decode_state

            decode_state(blob[: len(blob) // 2], customer_id="cust-9")


# ----------------------------------------------------------------------
# Derivable state: no ring, curves by catalog reference, older blobs
# ----------------------------------------------------------------------
def stream_outcome(update):
    """What a live update shows a caller, comparable across runs."""
    rec = update.recommendation
    return (
        update.n_seen,
        update.refreshed,
        rec.curve.points if rec else None,
        repr(rec.expected_throttling) if rec else None,
    )


def update_outcome(update):
    """Every field of a live update, the recommendation's profile included."""
    rec = update.recommendation
    drift = update.drift
    return (
        update.n_seen,
        update.n_window,
        update.refreshed,
        None if drift is None else (repr(drift.max_divergence), drift.worst_sku, drift.drifted),
        None
        if rec is None
        else (
            rec.sku.name,
            rec.strategy,
            repr(rec.expected_throttling),
            repr(rec.target_probability),
            rec.profile.group_key,
            rec.profile.features.tobytes(),
            rec.curve.points,
        ),
    )


class TestDerivableState:
    def test_blob_holds_no_ring_and_references_the_catalog(self, small_catalog):
        from repro.store.persistence import encode_state

        state = make_state(small_catalog)
        blob = encode_state(state)
        assert "ring" not in state.estimator
        assert "ring" not in pickle.loads(blob).estimator  # the stored estimator has none
        # The curve names its candidate tuple instead of pickling it.
        assert b"_from_reference" in blob and b"_from_fields" not in blob

    def test_pre_change_blob_restores_and_continues_identically(self, default_catalog):
        """A blob stored before rings were rebuilt still resumes exactly.

        ``tests/data/live_state_w24_legacy.bin`` was written by commit
        1884422, whose snapshots carried the violation ring and pickled
        curves by value::

            mkdir -p /tmp/repro-1884422
            git archive 1884422 src | tar -x -C /tmp/repro-1884422
            PYTHONPATH=/tmp/repro-1884422/src python tests/legacy_state_fixture.py
        """
        from repro.store.persistence import decode_state

        from .legacy_state_fixture import (
            FIXTURE,
            N_HEAD,
            WINDOW,
            fixture_feed,
            fixture_recommender,
        )

        blob = FIXTURE.read_bytes()
        assert len(blob) <= 64 * 1024
        assert b"_from_fields" in blob and b"_from_reference" not in blob
        engine = DopplerEngine(catalog=default_catalog)
        state = decode_state(blob, customer_id="legacy-cust")
        assert state.window == WINDOW
        assert state.estimator["ring"].shape == (WINDOW, len(engine.ppm.candidates(DB)))
        assert state.recommendation is not None

        feed = fixture_feed()
        reference = fixture_recommender(engine)
        expected = [stream_outcome(reference.observe(sample)) for sample in feed]
        restored = fixture_recommender(engine)
        restored.restore_state(state)
        assert restored.builder.n_seen == N_HEAD
        np.testing.assert_array_equal(
            restored.estimator._ring, state.estimator["ring"]
        )
        tail = [stream_outcome(restored.observe(sample)) for sample in feed[N_HEAD:]]
        assert tail == expected[N_HEAD:]
        # Re-encoded, the same state drops the ring and the SKUs.
        from repro.store.persistence import encode_state

        assert len(encode_state(restored.snapshot_state())) < len(blob) // 2

    def test_ring_free_dsf1_blob_restores_and_continues_identically(self, default_catalog):
        """A ring-free array-framed blob still decodes and resumes exactly.

        ``tests/data/live_state_w24_dsf1_exact.bin`` was written by
        commit fb15a56, the last one whose ``encode_state`` framed
        arrays (``DSF1``).  Unlike ``live_state_w24_legacy.bin`` it
        carries no ring and pickles curves by catalog reference;
        ``tests/legacy_state_fixture.py`` says how to regenerate it.
        """
        import dataclasses

        from repro.store.persistence import STATE_FRAME_MAGIC, decode_state

        from .legacy_state_fixture import (
            N_HEAD,
            RING_FREE_FIXTURE,
            WINDOW,
            fixture_feed,
            fixture_recommender,
        )

        blob = RING_FREE_FIXTURE.read_bytes()
        assert blob[:4] == STATE_FRAME_MAGIC
        assert b"has_ring" not in blob and b"_from_reference" in blob
        engine = DopplerEngine(catalog=default_catalog)
        state = decode_state(blob, customer_id="legacy-cust")
        assert state.window == WINDOW
        assert "ring" not in state.estimator
        assert state.recommendation is not None

        feed = fixture_feed()
        reference = fixture_recommender(engine)
        expected = [stream_outcome(reference.observe(sample)) for sample in feed]
        # The blob holds what this code snapshots at the same point.
        head = fixture_recommender(engine)
        for sample in feed[:N_HEAD]:
            head.observe(sample)
        fresh = head.snapshot_state()
        for field in dataclasses.fields(state):
            assert pickle.dumps(getattr(state, field.name)) == pickle.dumps(
                getattr(fresh, field.name)
            ), field.name
        restored = fixture_recommender(engine)
        restored.restore_state(state)
        assert restored.builder.n_seen == N_HEAD
        tail = [stream_outcome(restored.observe(sample)) for sample in feed[N_HEAD:]]
        assert tail == expected[N_HEAD:]
        with pytest.raises(StoreCorruptionError, match="legacy-cust"):
            decode_state(blob[: len(blob) // 2], customer_id="legacy-cust")

    @pytest.mark.parametrize("fixture", ["dsf1", "pickle"])
    def test_streaming_mode_blob_resumes_in_exact_mode(self, fixture, default_catalog):
        """A blob stored in the removed streaming profile mode still resumes.

        ``tests/data/live_state_w24_dsf1_streaming.bin`` (commit
        fb15a56, array-framed) and ``live_state_w24_pickle_streaming.bin``
        (commit 54b9a98, a plain pickle) also carry the sliding profile
        stats that mode kept.  Both modes refresh on the same samples,
        so each blob decodes to what an exact-mode loop snapshots at
        the same point, bar the recommendation, which was profiled
        from those stats.  Restored, that recommendation stays in force
        until the next refresh, and from then on the stream is the
        exact-mode one.
        """
        from repro.store.persistence import STATE_FRAME_MAGIC, decode_state

        from .legacy_state_fixture import (
            N_HEAD,
            STREAMING_FIXTURES,
            fixture_feed,
            fixture_recommender,
        )

        blob = STREAMING_FIXTURES[fixture].read_bytes()
        assert (blob[:4] == STATE_FRAME_MAGIC) == (fixture == "dsf1")
        assert b"profile_stats" in blob
        engine = DopplerEngine(catalog=default_catalog)
        state = decode_state(blob, customer_id="legacy-cust")
        assert state.recommendation is not None

        feed = fixture_feed()
        head = fixture_recommender(engine)
        for sample in feed[:N_HEAD]:
            head.observe(sample)
        fresh = head.snapshot_state()
        for name in (
            "deployment_value",
            "window",
            "dimensions",
            "entity_id",
            "builder",
            "estimator",
            "detector",
            "epoch",
            "n_refreshes",
        ):
            assert pickle.dumps(getattr(state, name)) == pickle.dumps(
                getattr(fresh, name)
            ), name

        reference = fixture_recommender(engine)
        expected = [update_outcome(reference.observe(sample)) for sample in feed]
        restored = fixture_recommender(engine)
        restored.restore_state(state)
        assert restored.recommendation is state.recommendation
        updates = [restored.observe(sample) for sample in feed[N_HEAD:]]
        first = next(index for index, update in enumerate(updates) if update.refreshed)
        assert all(update.recommendation is state.recommendation for update in updates[:first])
        tail = [update_outcome(update) for update in updates[first:]]
        assert tail == expected[N_HEAD + first :]
        with pytest.raises(StoreCorruptionError, match="legacy-cust"):
            decode_state(blob[: len(blob) // 2], customer_id="legacy-cust")

    def test_identical_streams_encode_identical_bytes(self, small_catalog):
        """A partly filled window stores no leftover heap bytes.

        Window slots no sample reached yet are zeros, so two
        identically fed assessments write byte-identical blobs
        whatever memory the process reused for their buffers.
        """
        from repro.store.persistence import encode_state

        engine = DopplerEngine(catalog=small_catalog)
        feed = live_samples(20, np.random.default_rng(5))
        blobs = []
        for fill in (1.5, -2.5):
            # Free a few window-sized buffers holding ``fill``, so a
            # fresh uninitialized allocation would be handed them back.
            dirty = [np.full(64, fill) for _ in range(32)]
            del dirty
            live = LiveRecommender(
                engine,
                DB,
                window=64,
                min_refresh_samples=8,
            )
            for sample in feed:
                live.observe(sample)
            blobs.append(encode_state(live.snapshot_state()))
        assert blobs[0] == blobs[1]

    def test_unknown_catalog_key_is_a_corruption_error(self, small_catalog):
        from repro.store.persistence import decode_state, encode_state

        state = make_state(small_catalog)
        signature = DopplerEngine(catalog=small_catalog).ppm.catalog_signature
        blob = encode_state(state)
        assert signature.encode() in blob
        foreign = blob.replace(signature.encode(), b"f" * len(signature))
        with pytest.raises(StoreCorruptionError, match="cust-7.*interned") as caught:
            decode_state(foreign, customer_id="cust-7")
        assert isinstance(caught.value.__cause__, LookupError)


# ----------------------------------------------------------------------
# v3 -> v4: the shard_probation event kind
# ----------------------------------------------------------------------
class TestProbationEventMigration:
    def test_v3_store_upgrades_and_accepts_shard_probation(self, store_path):
        FleetStore(store_path).close()
        # Downgrade on disk: rebuild the events table with the v3 CHECK
        # (no shard_probation) and stamp the old schema version.
        conn = sqlite3.connect(store_path)
        conn.executescript(
            """
            DROP INDEX idx_events_kind_tick;
            DROP TABLE events;
            CREATE TABLE events (
                event_id     INTEGER PRIMARY KEY AUTOINCREMENT,
                tick_id      INTEGER NOT NULL,
                kind         TEXT NOT NULL CHECK (kind IN
                    ('rebalance', 'migration', 'quarantine', 'resize', 'eviction',
                     'checkpoint', 'worker_restart', 'shard_quarantine')),
                customer_id  TEXT,
                source_shard INTEGER,
                target_shard INTEGER,
                detail       TEXT
            );
            CREATE INDEX idx_events_kind_tick ON events (kind, tick_id);
            """
        )
        conn.execute(
            "INSERT INTO events (tick_id, kind, source_shard) VALUES (3, 'shard_quarantine', 1)"
        )
        conn.execute(
            "UPDATE meta SET value = '3' WHERE key = 'schema_version'"
        )
        conn.commit()
        # Sanity: the v3 CHECK really rejects the new kind.
        with pytest.raises(sqlite3.IntegrityError):
            conn.execute(
                "INSERT INTO events (tick_id, kind) VALUES (4, 'shard_probation')"
            )
        conn.close()
        with FleetStore(store_path) as store:
            assert store.schema_version == SCHEMA_VERSION
            # History survived the rebuild verbatim...
            (survivor,) = store.events()
            assert survivor.kind == "shard_quarantine" and survivor.tick_id == 3
            # ...and the widened CHECK admits the probation kind.
            store.append_event("shard_probation", tick_id=5, source_shard=1)
            assert store.event_counts()["shard_probation"] == 1
