"""Tick plane of the process watch: how ticks and results cross the queues.

A process watch dispatches thousands of small microbatches ("ticks")
per shard.  Both directions cross the worker queues as pickles:

* **Ticks.**  :meth:`TickPlane.pack_tick` pickles the shard's
  ``(seq, FleetSample)`` list once, in the parent, and the worker
  ``pickle.loads`` it.  Supervisor replays take the same path, so a
  tick has one encoding.  Pickling in the parent (rather than leaving
  it to the queue's feeder thread) makes a sample that cannot be
  pickled raise at the watch's call site instead of vanishing with
  its tick.
* **Results.**  :func:`write_result_columns` folds one tick's
  emissions into a :class:`ResultFrame`: nine numpy columns for the
  numeric update fields plus a small per-emission sidecar.  A
  recommendation the worker already shipped for a customer crosses as
  a one-token reference that :meth:`TickPlane.read_results` resolves
  from its memo, so the parent unpickles each recommendation once per
  change rather than once per emission.

Nothing here uses shared memory: on a 2-vCPU box (Python 3.11.7,
numpy 2.4.6) a 64-sample tick costs under half as much pickled as its
sample list as through a column codec, while a 64-emission reply as
columns with the memo takes about half the time and a quarter of the
bytes of pickled ``FleetLiveUpdate``s, which is why the replies stay
columnar.  State handoffs (migration, supervisor restores, checkpoint
snapshots) do not use the plane: their ``CustomerStateRecord`` lists
cross the worker queues as plain pickles too.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResultFrame",
    "TickPlane",
    "leaked_segments",
    "write_result_columns",
]

#: Name prefix of the segments :func:`leaked_segments` looks for.
SEGMENT_PREFIX = "doppler-arena"


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shared-memory segments under ``prefix``.

    The watch creates no segment, so this is ``[]`` after any run; the
    hygiene checks keep asserting it so a segment can never come back
    unnoticed.  Reads ``/dev/shm`` directly (Linux), so it sees
    segments whichever process created them; on platforms without
    ``/dev/shm`` it returns an empty list.
    """
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


#: The numeric update fields of a reply, one column each, in order.
_RESULT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("seq", "int64"),
    ("n_seen", "int64"),
    ("n_window", "int64"),
    ("refreshed", "bool"),
    ("has_update", "bool"),
    ("has_drift", "bool"),
    ("deferred", "bool"),
    ("drift_max", "float64"),
    ("drift_threshold", "float64"),
)


@dataclass(frozen=True)
class ResultFrame:
    """One tick's emissions as columns: what a worker's reply carries.

    ``columns`` holds one ndarray per :data:`_RESULT_COLUMNS` entry.
    ``sidecar`` holds the per-emission non-numeric fields:
    ``(customer_id, error, worst_sku, rec_token)`` where ``rec_token``
    is ``0`` (no recommendation), ``1`` (unchanged since this worker
    last shipped it -- the parent re-uses its memoized copy), or the
    full recommendation object (shipped once per change).
    """

    columns: tuple[np.ndarray, ...]
    sidecar: tuple[tuple, ...]


class TickPlane:
    """Parent-side codec of one process watch's ticks and replies.

    Holds the recommendation memo that resolves a reply's ``1``
    tokens, so one plane serves one watch.  The memo is only correct
    if replies are decoded in the order each worker sent them and a
    replaced worker's stale duplicates are never decoded: the pool
    calls :meth:`read_results` only while its reorder buffer still
    owes that (tick, shard).
    """

    def __init__(self) -> None:
        self._rec_memo: dict[str, object] = {}

    @staticmethod
    def pack_tick(batch: list) -> bytes:
        """One shard's ``(seq, FleetSample)`` microbatch, pickled.

        Raises whatever :func:`pickle.dumps` raises for a sample that
        cannot be pickled (a lambda value, say), here in the parent.
        """
        return pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)

    def read_results(self, reply: ResultFrame) -> list:
        """Decode one tick's ``(seq, FleetLiveUpdate)`` emissions."""
        from ..streaming.drift import DriftReport
        from ..streaming.live import LiveUpdate
        from .engine import FleetLiveUpdate

        (
            seq,
            n_seen,
            n_window,
            refreshed,
            has_update,
            has_drift,
            deferred,
            drift_max,
            drift_threshold,
        ) = (column.tolist() for column in reply.columns)
        memo = self._rec_memo
        emissions: list = []
        for i, (customer_id, error, worst_sku, rec_token) in enumerate(reply.sidecar):
            if isinstance(rec_token, int):
                recommendation = None if rec_token == 0 else memo[customer_id]
            else:
                recommendation = rec_token
                memo[customer_id] = rec_token
            update = None
            if has_update[i]:
                drift = None
                if has_drift[i]:
                    drift = DriftReport(
                        max_divergence=drift_max[i],
                        worst_sku=worst_sku,
                        threshold=drift_threshold[i],
                    )
                update = LiveUpdate(
                    n_seen=n_seen[i],
                    n_window=n_window[i],
                    refreshed=refreshed[i],
                    drift=drift,
                    recommendation=recommendation,
                )
            emissions.append(
                (
                    seq[i],
                    FleetLiveUpdate(
                        customer_id=customer_id,
                        update=update,
                        error=error,
                        deferred=deferred[i],
                    ),
                )
            )
        return emissions


def write_result_columns(emissions: list, shipped: dict) -> ResultFrame:
    """Worker side: fold one tick's emissions into a :class:`ResultFrame`.

    ``shipped`` memoizes the last recommendation object shipped per
    customer; unchanged recommendations cross as a one-token reference
    instead of a re-pickled object.
    """
    rows: list[tuple] = []
    sidecar: list[tuple] = []
    for seq, update in emissions:
        inner = update.update
        worst_sku = None
        rec_token: object = 0
        if inner is None:
            rows.append((seq, 0, 0, False, False, False, update.deferred, 0.0, 0.0))
        else:
            drift = inner.drift
            if drift is None:
                drift_max = drift_threshold = 0.0
            else:
                drift_max, drift_threshold = drift.max_divergence, drift.threshold
                worst_sku = drift.worst_sku
            rows.append(
                (
                    seq,
                    inner.n_seen,
                    inner.n_window,
                    inner.refreshed,
                    True,
                    drift is not None,
                    update.deferred,
                    drift_max,
                    drift_threshold,
                )
            )
            recommendation = inner.recommendation
            if recommendation is not None:
                if shipped.get(update.customer_id) is recommendation:
                    rec_token = 1
                else:
                    shipped[update.customer_id] = recommendation
                    rec_token = recommendation
        sidecar.append((update.customer_id, update.error, worst_sku, rec_token))
    fields = zip(*rows) if rows else ((),) * len(_RESULT_COLUMNS)
    columns = tuple(
        np.array(values, dtype=dtype)
        for values, (_, dtype) in zip(fields, _RESULT_COLUMNS)
    )
    return ResultFrame(columns=columns, sidecar=tuple(sidecar))
