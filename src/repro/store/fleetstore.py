"""SQLite-backed durable fleet store.

``FleetStore`` is the warm tier of the fleet's state hierarchy: hot
customer state lives in-process inside watch/observe shards, and at
drained tick boundaries the coordinator persists it here.  The store
holds four kinds of durable fact:

* **customer state** -- pickled, epoch-guarded
  :class:`~repro.streaming.live.LiveAssessmentState` snapshots (or a
  bare quarantine marker), one row per customer, newest epoch wins;
* **recommendations** -- an append-only history of SKU recommendations,
  deduplicated per ``(customer_id, n_refreshes)`` so re-checkpointing
  an unchanged customer adds nothing;
* **events** -- an append-only audit log (rebalance, migration,
  quarantine, resize, eviction, checkpoint) replacing the ad-hoc
  in-memory lists the coordinator used to keep;
* **checkpoints** -- stream positions (samples consumed, updates
  emitted) plus ring topology, from which ``watch_fleet(resume_from=)``
  rebuilds a byte-identical continuation.

Durability properties: the database runs in WAL journal mode (readers
never block the writer; a SIGKILL mid-transaction rolls back cleanly on
the next open), foreign keys are enforced, and every checkpoint is a
single transaction -- a resume sees either the whole checkpoint or the
previous one, never a torn mix.

The schema is versioned.  Forward migrations registered via
:func:`register_migration` run automatically on open; opening a store
written by a *newer* build raises :class:`StoreSchemaError` instead of
guessing.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

from .persistence import (
    CustomerStateRecord,
    FleetStoreError,
    StaleStateError,
    StoreCorruptionError,
    StoreSchemaError,
    decode_state,
    encode_state,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..streaming.live import LiveAssessmentState

__all__ = [
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "CheckpointRecord",
    "FleetStore",
    "RetentionPolicy",
    "StoredEvent",
    "StoredRecommendation",
    "register_migration",
]

SCHEMA_VERSION = 4

EVENT_KINDS = (
    "rebalance",
    "migration",
    "quarantine",
    "resize",
    "eviction",
    "checkpoint",
    "worker_restart",
    "shard_quarantine",
    "shard_probation",
)

# Registered forward migrations: version N -> callable upgrading an open
# connection from schema N to N+1.  Migrations run in sequence on open.
_MIGRATIONS: dict[int, Callable[[sqlite3.Connection], None]] = {}


def register_migration(from_version: int, migrate: Callable[[sqlite3.Connection], None]) -> None:
    """Register a forward migration from ``from_version`` to ``from_version + 1``.

    The callable receives the open connection inside a transaction; it
    must leave the schema in the ``from_version + 1`` shape (the store
    bumps the recorded version itself).
    """
    if from_version in _MIGRATIONS:
        raise ValueError(f"migration from schema version {from_version} already registered")
    _MIGRATIONS[from_version] = migrate


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: extend the event-kind vocabulary with supervision kinds.

    SQLite cannot alter a CHECK constraint in place, so the events
    table is rebuilt with the extended kind list and its rows copied
    across (ids included -- audit history must survive verbatim).
    """
    conn.executescript(
        """
        CREATE TABLE events_v2 (
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
        INSERT INTO events_v2 (event_id, tick_id, kind, customer_id, source_shard,
                               target_shard, detail)
            SELECT event_id, tick_id, kind, customer_id, source_shard,
                   target_shard, detail FROM events;
        DROP TABLE events;
        ALTER TABLE events_v2 RENAME TO events;
        CREATE INDEX IF NOT EXISTS idx_events_kind_tick ON events (kind, tick_id);
        """
    )


register_migration(1, _migrate_v1_to_v2)


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: record per-checkpoint state bytes (delta accounting).

    Pre-delta checkpoints rewrote the full fleet, so their byte count
    was uninteresting; delta checkpoints persist only dirty customers
    and ``n_state_bytes`` is the observable that shrinks.  Historical
    rows default to 0 (unknown).
    """
    conn.execute(
        "ALTER TABLE checkpoints ADD COLUMN n_state_bytes INTEGER NOT NULL DEFAULT 0"
    )


register_migration(2, _migrate_v2_to_v3)


def _migrate_v3_to_v4(conn: sqlite3.Connection) -> None:
    """v3 -> v4: admit ``shard_probation`` into the event-kind CHECK.

    Same rebuild dance as v1 -> v2: SQLite cannot alter a CHECK
    constraint in place, so the events table is recreated with the
    extended kind list and its rows copied across verbatim.
    """
    conn.executescript(
        """
        CREATE TABLE events_v4 (
            event_id     INTEGER PRIMARY KEY AUTOINCREMENT,
            tick_id      INTEGER NOT NULL,
            kind         TEXT NOT NULL CHECK (kind IN
                ('rebalance', 'migration', 'quarantine', 'resize', 'eviction',
                 'checkpoint', 'worker_restart', 'shard_quarantine',
                 'shard_probation')),
            customer_id  TEXT,
            source_shard INTEGER,
            target_shard INTEGER,
            detail       TEXT
        );
        INSERT INTO events_v4 (event_id, tick_id, kind, customer_id, source_shard,
                               target_shard, detail)
            SELECT event_id, tick_id, kind, customer_id, source_shard,
                   target_shard, detail FROM events;
        DROP TABLE events;
        ALTER TABLE events_v4 RENAME TO events;
        CREATE INDEX IF NOT EXISTS idx_events_kind_tick ON events (kind, tick_id);
        """
    )


register_migration(3, _migrate_v3_to_v4)


@dataclass(frozen=True)
class RetentionPolicy:
    """Age/count bounds for an append-only store table.

    Applied at checkpoint time (the store's natural maintenance
    boundary, already one transaction): rows older than
    ``max_age_ticks`` before the checkpoint's tick are dropped, then
    rows beyond ``max_count`` newest are dropped.  ``None`` disables a
    bound; ``RetentionPolicy()`` retains everything.

    For the recommendation history the count bound applies *per
    customer* (each keeps its ``max_count`` newest refreshes); for the
    event log it applies globally.
    """

    max_count: int | None = None
    max_age_ticks: int | None = None

    def __post_init__(self) -> None:
        if self.max_count is not None and self.max_count < 1:
            raise ValueError(f"max_count must be >= 1, got {self.max_count!r}")
        if self.max_age_ticks is not None and self.max_age_ticks < 0:
            raise ValueError(
                f"max_age_ticks must be >= 0, got {self.max_age_ticks!r}"
            )

    @property
    def is_noop(self) -> bool:
        return self.max_count is None and self.max_age_ticks is None


@dataclass(frozen=True)
class StoredEvent:
    """One row of the append-only fleet event log."""

    event_id: int
    tick_id: int
    kind: str
    customer_id: str | None
    source_shard: int | None
    target_shard: int | None
    detail: str | None


@dataclass(frozen=True)
class StoredRecommendation:
    """One historical SKU recommendation for a customer."""

    customer_id: str
    tick_id: int
    n_refreshes: int
    sku_name: str
    monthly_price: float
    expected_throttling: float
    strategy: str


@dataclass(frozen=True)
class CheckpointRecord:
    """A durable stream position a watch can resume from.

    ``n_customers`` counts the customer rows *written by this
    checkpoint* -- a watch writes only the dirty subset, not the
    fleet; ``n_state_bytes`` sums their encoded state blobs (the
    quantity delta checkpointing exists to shrink).
    """

    checkpoint_id: int
    tick_id: int
    n_consumed: int
    n_emitted: int
    n_shards: int
    overrides: Mapping[str, int]
    n_customers: int
    n_state_bytes: int = 0


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS customers (
    customer_id  TEXT PRIMARY KEY,
    quarantined  INTEGER NOT NULL DEFAULT 0 CHECK (quarantined IN (0, 1)),
    epoch        INTEGER NOT NULL DEFAULT 0,
    updated_tick INTEGER NOT NULL DEFAULT 0,
    state        BLOB
);
CREATE TABLE IF NOT EXISTS recommendations (
    recommendation_id   INTEGER PRIMARY KEY AUTOINCREMENT,
    customer_id         TEXT NOT NULL REFERENCES customers(customer_id) ON DELETE CASCADE,
    tick_id             INTEGER NOT NULL,
    n_refreshes         INTEGER NOT NULL,
    sku_name            TEXT NOT NULL,
    monthly_price       REAL NOT NULL,
    expected_throttling REAL NOT NULL,
    strategy            TEXT NOT NULL,
    UNIQUE (customer_id, n_refreshes)
);
CREATE TABLE IF NOT EXISTS events (
    event_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    tick_id      INTEGER NOT NULL,
    kind         TEXT NOT NULL CHECK (kind IN
        ('rebalance', 'migration', 'quarantine', 'resize', 'eviction', 'checkpoint',
         'worker_restart', 'shard_quarantine', 'shard_probation')),
    customer_id  TEXT,
    source_shard INTEGER,
    target_shard INTEGER,
    detail       TEXT
);
CREATE INDEX IF NOT EXISTS idx_events_kind_tick ON events (kind, tick_id);
CREATE TABLE IF NOT EXISTS checkpoints (
    checkpoint_id INTEGER PRIMARY KEY AUTOINCREMENT,
    tick_id       INTEGER NOT NULL,
    n_consumed    INTEGER NOT NULL,
    n_emitted     INTEGER NOT NULL,
    n_shards      INTEGER NOT NULL,
    overrides     TEXT NOT NULL DEFAULT '{}',
    n_customers   INTEGER NOT NULL,
    n_state_bytes INTEGER NOT NULL DEFAULT 0
);
"""


class FleetStore:
    """WAL-mode SQLite store for durable fleet state.

    Thread-safe: the connection is opened with
    ``check_same_thread=False`` and all access is serialized behind one
    re-entrant lock, so threads may share one store.  WAL mode
    makes concurrent *processes* safe too -- the crash-recovery smoke
    polls a store that a soon-to-be-SIGKILLed child is writing.
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        retain_events: RetentionPolicy | None = None,
        retain_recommendations: RetentionPolicy | None = None,
    ) -> None:
        """Open (or create) a fleet store.

        Args:
            path: SQLite database path; ``":memory:"`` for ephemeral.
            retain_events: Age/count bounds for the append-only event
                log, enforced at each checkpoint.  ``None`` retains
                everything.
            retain_recommendations: Bounds for the recommendation
                history; the count bound is per customer (newest
                refreshes win).  ``None`` retains everything.
        """
        for name, policy in (
            ("retain_events", retain_events),
            ("retain_recommendations", retain_recommendations),
        ):
            if policy is not None and not isinstance(policy, RetentionPolicy):
                raise ValueError(f"{name} must be a RetentionPolicy, got {policy!r}")
        self.retain_events = retain_events
        self.retain_recommendations = retain_recommendations
        self._path = str(path)
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(self._path, check_same_thread=False)
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            existing = self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            ).fetchall()
        except sqlite3.DatabaseError as exc:
            raise StoreCorruptionError(
                f"{self._path}: not a readable fleet store ({exc})"
            ) from exc
        tables = {row[0] for row in existing}
        if tables and "meta" not in tables:
            raise StoreCorruptionError(
                f"{self._path}: existing database is not a fleet store "
                f"(tables: {sorted(tables)})"
            )
        with self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
                version = SCHEMA_VERSION
            else:
                try:
                    version = int(row[0])
                except ValueError as exc:
                    raise StoreCorruptionError(
                        f"{self._path}: unreadable schema version {row[0]!r}"
                    ) from exc
        self._schema_version = self._migrate(version)
        try:
            ok = self._conn.execute("PRAGMA quick_check").fetchone()
        except sqlite3.DatabaseError as exc:  # pragma: no cover - defensive
            raise StoreCorruptionError(f"{self._path}: integrity check failed ({exc})") from exc
        if ok is None or ok[0] != "ok":
            raise StoreCorruptionError(
                f"{self._path}: integrity check failed ({ok[0] if ok else 'no result'})"
            )

    def _migrate(self, version: int) -> int:
        if version > SCHEMA_VERSION:
            raise StoreSchemaError(
                f"{self._path}: store schema version {version} is newer than the "
                f"supported version {SCHEMA_VERSION}; upgrade this build to open it"
            )
        while version < SCHEMA_VERSION:
            migrate = _MIGRATIONS.get(version)
            if migrate is None:
                raise StoreSchemaError(
                    f"{self._path}: no migration registered from schema version {version}"
                )
            with self._conn:
                migrate(self._conn)
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                    (str(version + 1),),
                )
            version += 1
        return version

    # -- lifecycle ---------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def schema_version(self) -> int:
        return self._schema_version

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "FleetStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- customer state ----------------------------------------------

    def _upsert_records(
        self, records: Sequence[CustomerStateRecord], tick_id: int
    ) -> int:
        """Upsert customer rows inside the caller's transaction (lock held).

        Returns the summed size of the state blobs written, the
        per-checkpoint byte account delta checkpointing shrinks.
        """
        n_bytes = 0
        for record in records:
            epoch = record.state.epoch if record.state is not None else 0
            row = self._conn.execute(
                "SELECT epoch, quarantined FROM customers WHERE customer_id = ?",
                (record.customer_id,),
            ).fetchone()
            if row is not None and record.state is not None and epoch < row[0]:
                raise StaleStateError(
                    f"customer {record.customer_id!r}: refusing to store epoch {epoch} "
                    f"over stored epoch {row[0]}"
                )
            blob = encode_state(record.state) if record.state is not None else None
            if blob is not None:
                n_bytes += len(blob)
            self._conn.execute(
                "INSERT INTO customers (customer_id, quarantined, epoch, updated_tick, state)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (customer_id) DO UPDATE SET"
                "   quarantined = excluded.quarantined,"
                "   epoch = excluded.epoch,"
                "   updated_tick = excluded.updated_tick,"
                "   state = excluded.state",
                (record.customer_id, int(record.quarantined), epoch, tick_id, blob),
            )
            if record.state is not None and record.state.recommendation is not None:
                rec = record.state.recommendation
                self._conn.execute(
                    "INSERT OR IGNORE INTO recommendations"
                    " (customer_id, tick_id, n_refreshes, sku_name, monthly_price,"
                    "  expected_throttling, strategy)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        record.customer_id,
                        tick_id,
                        record.state.n_refreshes,
                        rec.sku.name,
                        float(rec.sku.monthly_price),
                        float(rec.expected_throttling),
                        str(rec.strategy),
                    ),
                )
        return n_bytes

    def save_customer_states(
        self, records: Sequence[CustomerStateRecord], *, tick_id: int = 0
    ) -> None:
        """Persist customer snapshots (and their recommendations) atomically."""
        with self._lock, self._conn:
            self._upsert_records(records, tick_id)

    def load_customer_state(self, customer_id: str) -> CustomerStateRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT quarantined, state FROM customers WHERE customer_id = ?",
                (customer_id,),
            ).fetchone()
        if row is None:
            return None
        return self._record_from_row(customer_id, row[0], row[1])

    def iter_customer_states(
        self,
        on_corrupt: Callable[[str, StoreCorruptionError], None] | None = None,
    ) -> Iterator[CustomerStateRecord]:
        """Yield every stored customer record, ordered by customer id.

        With ``on_corrupt`` given, a customer whose state blob fails to
        decode invokes the callback and is skipped instead of aborting
        the whole iteration -- the resume path uses this to quarantine
        the one damaged customer rather than losing the entire fleet.
        Without it, corruption raises :class:`StoreCorruptionError` as
        before.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT customer_id, quarantined, state FROM customers ORDER BY customer_id"
            ).fetchall()
        for customer_id, quarantined, blob in rows:
            try:
                record = self._record_from_row(customer_id, quarantined, blob)
            except StoreCorruptionError as exc:
                if on_corrupt is None:
                    raise
                on_corrupt(customer_id, exc)
                continue
            yield record

    @staticmethod
    def _record_from_row(
        customer_id: str, quarantined: int, blob: bytes | None
    ) -> CustomerStateRecord:
        if quarantined:
            return CustomerStateRecord(customer_id, None, quarantined=True)
        if blob is None:
            raise StoreCorruptionError(
                f"customer {customer_id!r}: non-quarantined row has no state blob"
            )
        state = decode_state(blob, customer_id=customer_id)
        return CustomerStateRecord(customer_id, state, quarantined=False)

    def corrupt_customer_state(self, customer_id: str) -> bool:
        """Deliberately truncate a customer's stored state blob.

        Fault-injection hook for :meth:`repro.faults.FaultPlan.corrupt_store`
        and the recovery tests: the damaged blob fails to decode on the
        next load, exercising the corruption-quarantine path.  Returns
        False when the customer has no stored state to damage.
        """
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE customers SET state = X'00' WHERE customer_id = ?"
                " AND state IS NOT NULL",
                (customer_id,),
            )
        return cursor.rowcount > 0

    def delete_customer_states(self, customer_ids: Sequence[str]) -> None:
        with self._lock, self._conn:
            self._conn.executemany(
                "DELETE FROM customers WHERE customer_id = ?",
                [(cid,) for cid in customer_ids],
            )

    def customer_counts(self) -> tuple[int, int]:
        """Return ``(n_customers, n_quarantined)``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(quarantined), 0) FROM customers"
            ).fetchone()
        return int(row[0]), int(row[1])

    # -- recommendations ---------------------------------------------

    def latest_recommendation(self, customer_id: str) -> StoredRecommendation | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT customer_id, tick_id, n_refreshes, sku_name, monthly_price,"
                "       expected_throttling, strategy"
                " FROM recommendations WHERE customer_id = ?"
                " ORDER BY n_refreshes DESC LIMIT 1",
                (customer_id,),
            ).fetchone()
        return StoredRecommendation(*row) if row is not None else None

    def recommendation_history(self, customer_id: str) -> list[StoredRecommendation]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT customer_id, tick_id, n_refreshes, sku_name, monthly_price,"
                "       expected_throttling, strategy"
                " FROM recommendations WHERE customer_id = ? ORDER BY n_refreshes",
                (customer_id,),
            ).fetchall()
        return [StoredRecommendation(*row) for row in rows]

    # -- events ------------------------------------------------------

    def append_event(
        self,
        kind: str,
        *,
        tick_id: int,
        customer_id: str | None = None,
        source_shard: int | None = None,
        target_shard: int | None = None,
        detail: Mapping[str, object] | None = None,
    ) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        payload = json.dumps(detail, sort_keys=True) if detail is not None else None
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO events (tick_id, kind, customer_id, source_shard,"
                " target_shard, detail) VALUES (?, ?, ?, ?, ?, ?)",
                (tick_id, kind, customer_id, source_shard, target_shard, payload),
            )

    def events(self, kind: str | None = None) -> list[StoredEvent]:
        query = (
            "SELECT event_id, tick_id, kind, customer_id, source_shard, target_shard,"
            " detail FROM events"
        )
        params: tuple[object, ...] = ()
        if kind is not None:
            query += " WHERE kind = ?"
            params = (kind,)
        query += " ORDER BY event_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [StoredEvent(*row) for row in rows]

    def event_counts(self) -> dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT kind, COUNT(*) FROM events GROUP BY kind"
            ).fetchall()
        return {kind: int(count) for kind, count in rows}

    def rolling_event_counts(
        self, kind: str, *, window_ticks: int = 16
    ) -> list[tuple[int, int, int]]:
        """Per-tick and rolling event counts via a SQL window function.

        Returns ``(tick_id, count, rolling_count)`` rows where
        ``rolling_count`` sums the trailing ``window_ticks`` ticks that
        actually saw events of this kind.  The aggregation runs inside
        SQLite (``SUM(...) OVER (ORDER BY tick_id ROWS BETWEEN ...)``)
        rather than a Python loop -- the first step toward the ROADMAP's
        SQL-window-function fleet analytics.
        """
        if window_ticks < 1:
            raise ValueError(f"window_ticks must be >= 1, got {window_ticks}")
        with self._lock:
            rows = self._conn.execute(
                "SELECT tick_id, COUNT(*) AS n,"
                "       SUM(COUNT(*)) OVER ("
                "           ORDER BY tick_id"
                f"           ROWS BETWEEN {int(window_ticks) - 1} PRECEDING AND CURRENT ROW"
                "       ) AS rolling"
                " FROM events WHERE kind = ? GROUP BY tick_id ORDER BY tick_id",
                (kind,),
            ).fetchall()
        return [(int(t), int(n), int(r)) for t, n, r in rows]

    # -- checkpoints -------------------------------------------------

    def checkpoint(
        self,
        *,
        tick_id: int,
        n_consumed: int,
        n_emitted: int,
        n_shards: int,
        overrides: Mapping[str, int],
        records: Sequence[CustomerStateRecord],
    ) -> CheckpointRecord:
        """Persist a full fleet checkpoint in one transaction.

        A resume sees either all of this checkpoint (states, topology,
        stream position) or none of it -- WAL plus the single
        transaction guarantee there is no torn middle ground.

        Retention policies attached to the store (``retain_events``,
        ``retain_recommendations``) are enforced here, inside the same
        transaction: checkpoints are the store's natural maintenance
        boundary, and a crash mid-prune rolls back with the checkpoint
        it belonged to.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        overrides_json = json.dumps(dict(overrides), sort_keys=True)
        with self._lock, self._conn:
            n_state_bytes = self._upsert_records(records, tick_id)
            cursor = self._conn.execute(
                "INSERT INTO checkpoints (tick_id, n_consumed, n_emitted, n_shards,"
                " overrides, n_customers, n_state_bytes) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    tick_id,
                    n_consumed,
                    n_emitted,
                    n_shards,
                    overrides_json,
                    len(records),
                    n_state_bytes,
                ),
            )
            checkpoint_id = int(cursor.lastrowid or 0)
            self._conn.execute(
                "INSERT INTO events (tick_id, kind, detail) VALUES (?, 'checkpoint', ?)",
                (
                    tick_id,
                    json.dumps(
                        {
                            "n_customers": len(records),
                            "n_consumed": n_consumed,
                            "n_state_bytes": n_state_bytes,
                        },
                        sort_keys=True,
                    ),
                ),
            )
            self._apply_retention(tick_id)
        return CheckpointRecord(
            checkpoint_id=checkpoint_id,
            tick_id=tick_id,
            n_consumed=n_consumed,
            n_emitted=n_emitted,
            n_shards=n_shards,
            overrides=dict(overrides),
            n_customers=len(records),
            n_state_bytes=n_state_bytes,
        )

    def _apply_retention(self, tick_id: int) -> None:
        """Prune events/recommendations inside the caller's transaction."""
        events = self.retain_events
        if events is not None and not events.is_noop:
            if events.max_age_ticks is not None:
                self._conn.execute(
                    "DELETE FROM events WHERE tick_id < ?",
                    (tick_id - events.max_age_ticks,),
                )
            if events.max_count is not None:
                self._conn.execute(
                    "DELETE FROM events WHERE event_id NOT IN"
                    " (SELECT event_id FROM events ORDER BY event_id DESC LIMIT ?)",
                    (events.max_count,),
                )
        recs = self.retain_recommendations
        if recs is not None and not recs.is_noop:
            if recs.max_age_ticks is not None:
                self._conn.execute(
                    "DELETE FROM recommendations WHERE tick_id < ?",
                    (tick_id - recs.max_age_ticks,),
                )
            if recs.max_count is not None:
                # Per-customer bound: each keeps its newest refreshes.
                self._conn.execute(
                    "DELETE FROM recommendations WHERE recommendation_id IN ("
                    " SELECT recommendation_id FROM ("
                    "   SELECT recommendation_id, ROW_NUMBER() OVER ("
                    "     PARTITION BY customer_id ORDER BY n_refreshes DESC"
                    "   ) AS rank FROM recommendations"
                    " ) WHERE rank > ?)",
                    (recs.max_count,),
                )

    def latest_checkpoint(self) -> CheckpointRecord | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT checkpoint_id, tick_id, n_consumed, n_emitted, n_shards,"
                " overrides, n_customers, n_state_bytes FROM checkpoints"
                " ORDER BY checkpoint_id DESC LIMIT 1"
            ).fetchone()
        if row is None:
            return None
        try:
            overrides = {str(k): int(v) for k, v in json.loads(row[5]).items()}
        except (ValueError, AttributeError) as exc:
            raise StoreCorruptionError(
                f"{self._path}: checkpoint {row[0]} has unreadable overrides"
            ) from exc
        return CheckpointRecord(
            checkpoint_id=int(row[0]),
            tick_id=int(row[1]),
            n_consumed=int(row[2]),
            n_emitted=int(row[3]),
            n_shards=int(row[4]),
            overrides=overrides,
            n_customers=int(row[6]),
            n_state_bytes=int(row[7]),
        )

    def checkpoint_count(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()
        return int(row[0])

    def require_checkpoint(self) -> CheckpointRecord:
        """Return the latest checkpoint or raise a clear resume error."""
        checkpoint = self.latest_checkpoint()
        if checkpoint is None:
            raise FleetStoreError(
                f"{self._path}: store holds no checkpoint to resume from"
            )
        return checkpoint
