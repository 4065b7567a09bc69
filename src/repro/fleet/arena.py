"""Shared-memory tick plane of the process watch.

A process watch dispatches thousands of small microbatches per shard.
Rather than pickle every tick's samples and every result's numbers
through the worker queues, this module moves them through POSIX
shared memory (:mod:`multiprocessing.shared_memory`): the
:class:`TickPlane` gives each shard double-buffered tick and result
slots, allocated once and reused for the watch's lifetime, and only
lightweight descriptors (segment name, offset, shape, dtype) cross the
queues.  Workers map ndarray views over the segments.  State handoffs
(migration, supervisor restores, checkpoint snapshots) do not use the
plane: their ``CustomerStateRecord`` lists cross the worker queues as
plain pickles.

Lifecycle contract (the part that keeps ``/dev/shm`` clean):

* The parent owns every segment.  An :class:`ArenaRegistry` tracks
  them; releasing a segment closes *and unlinks* it, and
  :meth:`TickPlane.close` force-releases whatever is left at watch
  end.  Unlinking while a straggler worker still maps
  a segment is safe on POSIX: the name disappears, the mapping
  survives until the worker drops it.
* Workers never own anything: they attach to tick and result slots
  for the worker's lifetime.  Attach-time resource-tracker
  registrations are left alone -- under fork the workers share the
  parent's tracker, whose set-based cache collapses the duplicates
  (see :func:`_attach`).
* If the parent itself dies, its resource tracker unlinks the
  registered segments -- the crash-safe backstop.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass
from itertools import count
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from ..catalog.models import DeploymentType
from ..telemetry.counters import PerfDimension

__all__ = [
    "ArenaRegistry",
    "ArrayDescriptor",
    "ResultFrame",
    "TickFrame",
    "TickPlane",
    "leaked_segments",
    "result_nbytes",
    "unpack_tick",
    "write_result_columns",
]

#: Prefix of every arena segment name; the leak checks key off it.
SEGMENT_PREFIX = "doppler-arena"


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shared-memory segments under ``prefix``.

    Reads ``/dev/shm`` directly (Linux), so it sees segments regardless
    of which process created them -- the property the killed-worker
    tests need.  On platforms without ``/dev/shm`` it returns an empty
    list; the lifecycle tests are effectively Linux-only.
    """
    try:
        entries = os.listdir("/dev/shm")
    except FileNotFoundError:
        return []
    return sorted(entry for entry in entries if entry.startswith(prefix))


@dataclass(frozen=True)
class ArrayDescriptor:
    """Where one ndarray lives inside a shared segment.

    The only thing that crosses a process queue in place of the array
    itself.  ``segment`` names the shared-memory block; ``offset`` is
    in bytes from its start.  Besides float64 values the tick plane
    ships int64 index columns and bool flag columns, hence the
    ``dtype`` field.
    """

    segment: str
    offset: int
    shape: tuple[int, ...]
    dtype: str = "float64"

    @property
    def nbytes(self) -> int:
        n = int(np.dtype(self.dtype).itemsize)
        for extent in self.shape:
            n *= extent
        return n

    def view(self, buf) -> np.ndarray:
        """A read-write ndarray view over ``buf`` (no copy)."""
        return np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=buf, offset=self.offset
        )


class ArenaRegistry:
    """Parent-side owner of the tick plane's shared-memory segments.

    The tick and result slots are the only segments a watch creates.
    Every segment created through the registry is unlinked exactly
    once: when it is released, or -- whichever comes first -- when
    :meth:`close_all` force-releases the registry.  The registry is
    process-local and not thread-safe; the watch loop drives it from a
    single thread.
    """

    #: Process-wide name counter.  Registries are per-watch, but
    #: watches can coexist in one parent (tests build planes back to
    #: back); a per-registry counter would mint colliding names -- and
    #: stale entries in the worker-side attachment cache would
    #: silently alias them.
    _name_counter = count(1)

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        atexit.register(self.close_all)

    def __len__(self) -> int:
        return len(self._segments)

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """A fresh segment, named for this process."""
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(self._name_counter)}"
        segment = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        self._segments[segment.name] = segment
        return segment

    def get(self, name: str) -> shared_memory.SharedMemory | None:
        """The owned segment by name, or None once released.

        The tick plane's staleness check: a reply descriptor naming a
        segment the registry no longer owns (recycled after a slot
        grew, or force-released) must not be mapped.
        """
        return self._segments.get(name)

    def release(self, name: str) -> None:
        """Close and unlink an owned segment; a no-op once released."""
        if name in self._segments:
            self._unlink(name)

    def close_all(self) -> None:
        """Force-release every owned segment (teardown/crash path)."""
        for name in list(self._segments):
            self._unlink(name)
        # Registries are per-watch; drop the atexit hook so finished
        # watches don't pile dead callbacks onto long-lived processes.
        atexit.unregister(self.close_all)

    def _unlink(self, name: str) -> None:
        segment = self._segments.pop(name)
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:
                pass  # e.g. an external cleaner raced us


# ----------------------------------------------------------------------
# Worker-side attachment management
# ----------------------------------------------------------------------
#: Per-process cache of attached segments, by name.  Tick and result
#: slots stay attached for the worker's lifetime.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    segment = _ATTACHED.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        # Attaching re-registers the segment with the resource tracker
        # (Python < 3.13 has no track=False).  Under the fork start
        # method -- the tick plane's platform -- pool workers share
        # the parent's tracker process, whose cache is a *set*: the
        # duplicate registration collapses and the parent's single
        # ``unlink`` balances it.  Unregistering here instead would
        # strip the parent's crash-safety registration out of the
        # shared cache, so we deliberately leave the tracker alone.
        _ATTACHED[name] = segment
    return segment


# ----------------------------------------------------------------------
# Streaming tick plane
# ----------------------------------------------------------------------
# The streaming watch dispatches thousands of small microbatches per
# shard, where per-tick create/unlink would dominate; instead each
# shard gets *double-buffered ring slots*,
# allocated once (lazily, grown in place when a tick outsizes them) and
# reused for the watch's lifetime.  Slot parity follows the tick id:
# with the watch loop's in-flight window of two ticks, tick T's slot is
# never repacked before T has fully drained.  Every slot carries a
# 16-byte header -- ``[generation, payload_bytes]`` as int64 -- whose
# generation (the tick id) is written *last* by the packer and checked
# by every reader, so a slow consumer can never silently read a
# recycled buffer: a mismatch is either rejected loudly (worker side)
# or discarded as a known-stale duplicate (parent side).

#: Slot header: ``generation`` (int64, the commit word, written last)
#: followed by the payload byte count (int64, informational).
_HEADER_BYTES = 16

#: Growth headroom applied when a slot is (re)sized, so one outlier
#: tick does not cause a resize-per-tick treadmill.
_SLOT_HEADROOM = 1.5


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _arrays_nbytes(arrays: Sequence[np.ndarray], offset: int = _HEADER_BYTES) -> int:
    for array in arrays:
        offset = _align8(offset) + array.nbytes
    return _align8(offset)


def _pack_arrays(
    segment_name: str, buf, offset: int, arrays: Sequence[np.ndarray]
) -> tuple[tuple[ArrayDescriptor, ...], int]:
    """Copy ``arrays`` into ``buf`` at 8-aligned offsets; return descriptors."""
    descriptors: list[ArrayDescriptor] = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        offset = _align8(offset)
        descriptor = ArrayDescriptor(
            segment_name, offset, array.shape, str(array.dtype)
        )
        descriptor.view(buf)[...] = array
        descriptors.append(descriptor)
        offset += descriptor.nbytes
    return tuple(descriptors), offset


def _header(buf) -> np.ndarray:
    return np.ndarray((2,), dtype=np.int64, buffer=buf)


@dataclass(frozen=True)
class TickFrame:
    """One packed tick microbatch: the descriptor that crosses the queue.

    Numeric columns live in the shard's tick slot (``segment``);
    strings and enum tables ride here, pickled, because they are tiny
    and interned.  ``irregular`` carries whole sample mappings the
    packer could not reduce to float64 (non-numeric values, non-enum
    keys) verbatim, so the worker reproduces the exact per-customer
    parse error the plain path would have raised.
    """

    segment: str
    generation: int
    n_rows: int
    #: seqs int64 (n,), row_splits int64 (n+1,), dim_idx int64 (total,),
    #: values float64 (total,)
    arrays: tuple[ArrayDescriptor, ...]
    customer_ids: tuple[str, ...]
    deployment_values: tuple[str, ...]
    dim_table: tuple[PerfDimension, ...]
    irregular: tuple[tuple[int, dict], ...]
    result_segment: str
    result_capacity: int


@dataclass(frozen=True)
class ResultFrame:
    """One tick's update columns, written worker-side into a result slot.

    ``sidecar`` holds the per-emission non-numeric fields:
    ``(customer_id, error, worst_sku, rec_token)`` where ``rec_token``
    is ``0`` (no recommendation), ``1`` (unchanged since this worker
    last shipped it -- the parent re-uses its memoized copy), or the
    full recommendation object (shipped once per change).
    """

    segment: str
    generation: int
    n: int
    #: seq i64, n_seen i64, n_window i64, refreshed b, has_update b,
    #: has_drift b, deferred b, drift_max f64, drift_threshold f64
    arrays: tuple[ArrayDescriptor, ...]
    sidecar: tuple[tuple, ...]


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


def result_nbytes(n: int) -> int:
    """Bytes one result slot needs for ``n`` emissions (shared sizing)."""
    offset = _HEADER_BYTES
    for _, dtype in _RESULT_COLUMNS:
        offset = _align8(offset) + np.dtype(dtype).itemsize * n
    return _align8(offset)


def _result_descriptors(
    segment_name: str, n: int
) -> tuple[ArrayDescriptor, ...]:
    offset = _HEADER_BYTES
    descriptors: list[ArrayDescriptor] = []
    for _, dtype in _RESULT_COLUMNS:
        offset = _align8(offset)
        descriptor = ArrayDescriptor(segment_name, offset, (n,), dtype)
        descriptors.append(descriptor)
        offset += descriptor.nbytes
    return tuple(descriptors)


class TickPlane:
    """Parent-owned double-buffered ring arenas for one process watch.

    One tick slot and one result slot per (shard, tick-parity) pair,
    created lazily on first use and grown in place (release + bigger
    replacement) when a tick outsizes them -- never created or
    unlinked per tick.  The parent packs microbatches in, workers map
    views out; workers write result columns in, the parent maps them
    out.  State handoffs (extract, install, snapshot) do not touch the
    plane: they cross the worker queues as plain pickles.

    Everything is owned by the parent through one
    :class:`ArenaRegistry`, so a worker SIGKILL leaks nothing and
    :meth:`close` (plus the registry's atexit backstop) restores a
    clean ``/dev/shm`` after drains, abandonment and crashes alike.
    """

    def __init__(self) -> None:
        # The plane is built before the watch workers fork.  Starting
        # the resource tracker *now* means every worker inherits the
        # shared tracker, so their attach-time registrations collapse
        # into the parent's (see ``_attach``).  Without this, a worker
        # forked before the first segment exists would lazily spawn
        # its own tracker, which at worker exit would "clean up" --
        # unlink -- segments the parent still owns.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self.registry = ArenaRegistry()
        self._tick_slots: dict[int, list] = {}
        self._result_slots: dict[int, list] = {}
        self._rec_memo: dict[str, object] = {}

    # -- slot management -----------------------------------------------
    def _slot(self, slots: dict[int, list], shard_id: int, parity: int, nbytes: int):
        pair = slots.setdefault(shard_id, [None, None])
        segment = pair[parity]
        if segment is None or segment.size < nbytes:
            if segment is not None:
                self.registry.release(segment.name)
            segment = self.registry.create(int(nbytes * _SLOT_HEADROOM) + 64)
            _header(segment.buf)[0] = -1  # never a valid generation
            pair[parity] = segment
        return segment

    def drop_shard(self, shard_id: int) -> None:
        """Release a retired shard's slots."""
        for slots in (self._tick_slots, self._result_slots):
            for segment in slots.pop(shard_id, ()):  # pragma: no branch
                if segment is not None:
                    self.registry.release(segment.name)

    def close(self) -> None:
        """Force-release every slot."""
        self._tick_slots.clear()
        self._result_slots.clear()
        self._rec_memo.clear()
        self.registry.close_all()

    # -- tick direction (parent packs, worker maps) ----------------------
    def pack_tick(self, shard_id: int, tick_id: int, batch: list) -> TickFrame:
        """Publish one shard's microbatch into its tick slot.

        Samples whose values cannot be reduced to float64 (or whose
        keys are not :class:`PerfDimension`) travel verbatim in the
        frame's ``irregular`` sidecar, so worker-side validation
        raises exactly what the plain path would.
        """
        n = len(batch)
        seqs = np.empty(n, dtype=np.int64)
        row_splits = np.zeros(n + 1, dtype=np.int64)
        dim_table: list[PerfDimension] = []
        dim_index: dict[PerfDimension, int] = {}
        dim_idx: list[int] = []
        values: list[float] = []
        customer_ids: list[str] = []
        deployment_values: list[str] = []
        irregular: list[tuple[int, dict]] = []
        for row, (seq, sample) in enumerate(batch):
            seqs[row] = seq
            customer_ids.append(sample.customer_id)
            deployment_values.append(sample.deployment.value)
            packed_row: list[tuple[PerfDimension, float]] = []
            try:
                for dim, value in sample.values.items():
                    if not isinstance(dim, PerfDimension):
                        raise TypeError(dim)
                    packed_row.append((dim, float(value)))
            except (TypeError, ValueError, OverflowError):
                irregular.append((row, dict(sample.values)))
                packed_row = []
            for dim, value in packed_row:
                index = dim_index.get(dim)
                if index is None:
                    index = dim_index[dim] = len(dim_table)
                    dim_table.append(dim)
                dim_idx.append(index)
                values.append(value)
            row_splits[row + 1] = len(values)
        arrays = [
            seqs,
            row_splits,
            np.asarray(dim_idx, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        ]
        parity = tick_id % 2
        segment = self._slot(
            self._tick_slots, shard_id, parity, _arrays_nbytes(arrays)
        )
        header = _header(segment.buf)
        header[0] = -1  # invalidate while repacking
        descriptors, end = _pack_arrays(segment.name, segment.buf, _HEADER_BYTES, arrays)
        header[1] = end
        header[0] = tick_id  # commit
        result = self._slot(
            self._result_slots, shard_id, parity, result_nbytes(n)
        )
        return TickFrame(
            segment=segment.name,
            generation=tick_id,
            n_rows=n,
            arrays=descriptors,
            customer_ids=tuple(customer_ids),
            deployment_values=tuple(deployment_values),
            dim_table=tuple(dim_table),
            irregular=tuple(irregular),
            result_segment=result.name,
            result_capacity=result.size,
        )

    # -- result direction (worker packs, parent maps) --------------------
    def read_results(self, reply: ResultFrame) -> list | None:
        """Decode one tick's emissions from its result slot.

        Returns None for a stale reply -- the slot was recycled (grown,
        dropped, or regenerated) since the worker wrote it.  The caller
        only decodes replies it still owes, so None can only mean a
        replaced incarnation's duplicate, which the reorder buffer
        would discard anyway.
        """
        from ..streaming.drift import DriftReport
        from ..streaming.live import LiveUpdate
        from .engine import FleetLiveUpdate

        segment = self.registry.get(reply.segment)
        if segment is None:
            return None
        buf = segment.buf
        if int(_header(buf)[0]) != reply.generation:
            return None
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
        ) = (descriptor.view(buf) for descriptor in reply.arrays)
        emissions: list = []
        for i, (customer_id, error, worst_sku, rec_token) in enumerate(reply.sidecar):
            if isinstance(rec_token, int):
                recommendation = (
                    None if rec_token == 0 else self._rec_memo[customer_id]
                )
            else:
                recommendation = rec_token
                self._rec_memo[customer_id] = rec_token
            update = None
            if has_update[i]:
                drift = None
                if has_drift[i]:
                    drift = DriftReport(
                        max_divergence=float(drift_max[i]),
                        worst_sku=worst_sku,
                        threshold=float(drift_threshold[i]),
                    )
                update = LiveUpdate(
                    n_seen=int(n_seen[i]),
                    n_window=int(n_window[i]),
                    refreshed=bool(refreshed[i]),
                    drift=drift,
                    recommendation=recommendation,
                )
            emissions.append(
                (
                    int(seq[i]),
                    FleetLiveUpdate(
                        customer_id=customer_id,
                        update=update,
                        error=error,
                        deferred=bool(deferred[i]),
                    ),
                )
            )
        return emissions


def unpack_tick(frame: TickFrame) -> list:
    """Worker side: map one tick frame back into ``(seq, FleetSample)``s.

    Raises:
        RuntimeError: If the slot's generation does not match the
            frame -- the buffer was recycled under a slow reader, and
            continuing would assess another tick's bytes.
    """
    from .engine import FleetSample

    segment = _attach(frame.segment)
    generation = int(_header(segment.buf)[0])
    if generation != frame.generation:
        raise RuntimeError(
            f"tick slot {frame.segment} holds generation {generation}, "
            f"frame expects {frame.generation}: buffer recycled under a "
            "slow worker"
        )
    seqs, row_splits, dim_idx, values = (
        descriptor.view(segment.buf) for descriptor in frame.arrays
    )
    irregular = dict(frame.irregular)
    dim_table = frame.dim_table
    batch: list = []
    for row in range(frame.n_rows):
        row_values = irregular.get(row)
        if row_values is None:
            start = int(row_splits[row])
            stop = int(row_splits[row + 1])
            row_values = {
                dim_table[dim_idx[k]]: float(values[k]) for k in range(start, stop)
            }
        batch.append(
            (
                int(seqs[row]),
                FleetSample(
                    customer_id=frame.customer_ids[row],
                    values=row_values,
                    deployment=DeploymentType(frame.deployment_values[row]),
                ),
            )
        )
    return batch


def write_result_columns(
    frame: TickFrame, emissions: list, shipped: dict
) -> ResultFrame | None:
    """Worker side: write one tick's emissions into the result slot.

    ``shipped`` memoizes the last recommendation object shipped per
    customer; unchanged recommendations cross as a one-byte token
    instead of a re-pickled object.  Returns None when the emissions
    outsize the slot (cannot happen for the watch's own dispatches --
    the parent sizes the slot for the batch, and each sample yields at
    most one emission -- but the plain fallback keeps the protocol
    total).
    """
    n = len(emissions)
    if result_nbytes(n) > frame.result_capacity:
        return None
    segment = _attach(frame.result_segment)
    buf = segment.buf
    header = _header(buf)
    header[0] = -1  # invalidate while writing
    descriptors = _result_descriptors(frame.result_segment, n)
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
    ) = (descriptor.view(buf) for descriptor in descriptors)
    sidecar: list[tuple] = []
    for i, (seq_value, update) in enumerate(emissions):
        seq[i] = seq_value
        deferred[i] = update.deferred
        inner = update.update
        has_update[i] = inner is not None
        worst_sku = None
        rec_token: object = 0
        if inner is None:
            n_seen[i] = 0
            n_window[i] = 0
            refreshed[i] = False
            has_drift[i] = False
            drift_max[i] = 0.0
            drift_threshold[i] = 0.0
        else:
            n_seen[i] = inner.n_seen
            n_window[i] = inner.n_window
            refreshed[i] = inner.refreshed
            drift = inner.drift
            has_drift[i] = drift is not None
            if drift is None:
                drift_max[i] = 0.0
                drift_threshold[i] = 0.0
            else:
                drift_max[i] = drift.max_divergence
                drift_threshold[i] = drift.threshold
                worst_sku = drift.worst_sku
            recommendation = inner.recommendation
            if recommendation is not None:
                if shipped.get(update.customer_id) is recommendation:
                    rec_token = 1
                else:
                    shipped[update.customer_id] = recommendation
                    rec_token = recommendation
        sidecar.append((update.customer_id, update.error, worst_sku, rec_token))
    header[1] = result_nbytes(n)
    header[0] = frame.generation  # commit
    return ResultFrame(
        segment=frame.result_segment,
        generation=frame.generation,
        n=n,
        arrays=descriptors,
        sidecar=tuple(sidecar),
    )
