"""Unified persistence protocol for live fleet state.

The watch tier (``fleet/backends.py``), the serving tier
(``serve/service.py``), and the streaming recommender
(``streaming/live.py``) each grew their own snapshot/restore surface:
migration tuples, ad-hoc pickles, in-memory event lists.  This module
extracts the shared contract into one place:

* :class:`CustomerStateRecord` -- the unit of durable customer state: an
  epoch-guarded :class:`~repro.streaming.live.LiveAssessmentState`
  snapshot (or ``None`` for quarantined customers, who hold no state).
* :class:`StatePersistence` -- the protocol every state holder (watch
  shard, observe shard) implements: non-destructive ``snapshot_records``
  at drained tick boundaries, ``restore_records`` with epoch validation.
* ``encode_state`` / ``decode_state`` -- the blob format of the
  SQLite-backed :class:`~repro.store.fleetstore.FleetStore` (a plain
  pickle; older array-framed blobs still decode), with corruption
  surfaced as :class:`StoreCorruptionError` rather than a silently
  empty fleet.

Keeping the protocol separate from the SQLite store means in-memory and
store-backed paths share one surface (and one set of byte-identity
gates) without the fleet layer importing ``sqlite3``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..streaming.live import LiveAssessmentState

__all__ = [
    "CustomerStateRecord",
    "FleetStoreError",
    "STATE_FRAME_MAGIC",
    "StaleStateError",
    "StatePersistence",
    "StoreCorruptionError",
    "StoreSchemaError",
    "decode_state",
    "encode_state",
]

#: Magic prefix of the array-framed (``DSF1``) state blobs that
#: :func:`encode_state` wrote before it wrote plain pickles.  Nothing
#: writes the format any more; :func:`decode_state` keeps reading the
#: blobs stores already hold.  A plain pickle stream starts with
#: ``\x80`` (the PROTO opcode), so the two formats never collide.
STATE_FRAME_MAGIC = b"DSF1"


class FleetStoreError(RuntimeError):
    """Base class for durable-store failures."""


class StoreCorruptionError(FleetStoreError):
    """The store file or a stored blob is unreadable.

    Raised instead of returning an empty fleet so that a corrupted
    checkpoint is a loud, actionable failure rather than a silent
    cold start.
    """


class StoreSchemaError(FleetStoreError):
    """The store schema version cannot be handled by this build."""


class StaleStateError(FleetStoreError):
    """A customer snapshot is older than the one already stored.

    Live state carries a monotonically increasing epoch bumped on every
    restore (see ``LiveRecommender.restore_state``); refusing epoch
    regressions at the store boundary means a lagging writer can never
    clobber newer durable state.
    """


@dataclass(frozen=True)
class CustomerStateRecord:
    """One customer's durable state at a drained tick boundary.

    ``state`` is ``None`` exactly when the customer is quarantined:
    quarantine drops the live recommender, so the only durable fact is
    the quarantine itself.
    """

    customer_id: str
    state: "LiveAssessmentState | None"
    quarantined: bool = False

    def __post_init__(self) -> None:
        if not self.quarantined and self.state is None:
            raise ValueError(
                f"customer {self.customer_id!r}: non-quarantined records need a state snapshot"
            )
        if self.quarantined and self.state is not None:
            raise ValueError(
                f"customer {self.customer_id!r}: quarantined records must not carry state"
            )


@runtime_checkable
class StatePersistence(Protocol):
    """The snapshot/restore surface shared by watch and observe shards.

    ``snapshot_records`` must be non-destructive and called only at
    drained tick boundaries so that snapshots never race in-flight
    assessment work; ``restore_records`` must validate epochs (a
    restore onto fresher state raises) and rebuild live state exactly
    as live creation would.
    """

    def snapshot_records(
        self, customer_ids: Sequence[str] | None = None
    ) -> list[CustomerStateRecord]: ...

    def restore_records(self, records: Sequence[CustomerStateRecord]) -> None: ...


def encode_state(state: "LiveAssessmentState") -> bytes:
    """Serialize a live-assessment snapshot for storage: a plain pickle.

    The same encoding the process watch uses for every state handoff
    over its worker queues.  A blob holds only what cannot be derived:
    no violation ring (the restore rebuilds it from the window
    samples) and no candidate SKUs (the recommendation's curve names
    its catalog slice by content key), so :func:`decode_state` needs
    an engine over the same catalog in the decoding process.
    """
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def decode_state(blob: bytes, *, customer_id: str = "?") -> "LiveAssessmentState":
    """Deserialize a stored snapshot, surfacing corruption loudly.

    Reads every format a store may hold: plain pickles (what
    :func:`encode_state` writes, and what it wrote before the array
    framing) and the array-framed blobs (``DSF1`` prefix, rebuilt by
    :func:`~repro.streaming.live.unflatten_state`) that stores written
    in between hold, with or without a violation ring and with curves
    pickled by value or by catalog reference.  A curve whose catalog
    key is not interned in this process (no engine over that catalog)
    is corruption too.
    """
    from ..streaming.live import unflatten_state

    try:
        if blob[:4] == STATE_FRAME_MAGIC:
            skeleton, arrays = pickle.loads(blob[4:])
            state = unflatten_state(skeleton, arrays)
        else:
            state = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure is corruption
        raise StoreCorruptionError(
            f"customer {customer_id!r}: stored state blob is corrupt ({exc})"
        ) from exc
    if not hasattr(state, "epoch"):
        raise StoreCorruptionError(
            f"customer {customer_id!r}: stored blob is not a live-assessment state"
        )
    return state
