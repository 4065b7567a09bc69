"""Execution backends for fleet watches.

Batch passes (``fit_fleet`` / ``recommend_fleet``) always run their
chunks in a plain loop in the parent (see
:mod:`repro.fleet.engine`): a columnar chunk costs well under a
millisecond per customer, and no pool has beaten that loop on this
system's measurements.  What this module runs is the streaming
protocol (:meth:`ExecutionBackend.watch`): a fleet-wide telemetry feed
is routed *sticky-by-customer-id* over a consistent-hash
:class:`~repro.fleet.sharding.ShardRing` to stateful shard workers,
each owning its customers' :class:`~repro.streaming.live.LiveRecommender`
state, and per-sample outcomes flow back in feed order.

Two backends implement it: ``serial`` (every shard in the parent) and
``process`` (persistent worker processes with per-worker input queues
and one shared result queue).  The contract both uphold is *serial
identity*: the emitted result sequence -- including per-customer
failure containment and quarantine ordering -- is byte-identical to the
serial backend's, because each customer's state lives on exactly one
shard at a time, shards process their samples in feed order, and the
parent reorders emissions by global sequence number before yielding.

Streaming shards exchange *microbatches* ("ticks") with the parent
rather than single samples, so per-tick overhead (queue/IPC for the
process pool, bookkeeping for both) amortizes across
:data:`WATCH_TICK_PER_WORKER` samples, and a shard folds each tick
across its customers as arrays -- one block ingest per wave of
samples, and one curve pass and one batched profile per deployment
for the refreshes that come due in it (:meth:`_WatchShard.process`);
up to
:data:`WATCH_INFLIGHT_TICKS` ticks are in flight per watch, which
pipelines parent-side routing against worker-side assessment without
unbounded buffering.

**Elastic watches.**  The watch loop is no longer frozen at its
starting topology: the parent tracks per-shard load (samples routed,
worker busy seconds) and per-customer sample counts, and a pluggable
:class:`~repro.fleet.rebalance.RebalancePolicy` may order customer
migrations, hot-customer pins or a pool resize at tick boundaries.
Execution follows one protocol on every backend: drain all in-flight
ticks, ``snapshot_state`` each moving customer on its source shard,
re-route on the ring, ``restore_state`` on the target shard.  The
serial backend moves state as in-process bookkeeping; the process
backend does the real handoff over its worker queues.  Because a
customer's samples are never in flight while its state moves and the
reorder buffer works on global sequence numbers, the merged update
stream stays byte-identical to the serial backend's across any
migration schedule.

**Durable watches.**  With a
:class:`~repro.fleet.config.CheckpointConfig` attached, the
coordinator periodically persists every shard's state to a
:class:`~repro.store.FleetStore` at fully drained tick boundaries
(``snapshot_records`` is non-destructive, so checkpointing is
invisible in the update stream), appends rebalance/migration/
quarantine/resize events to the store's audit log instead of only the
in-memory list, and -- when ``max_resident`` caps the hot set --
evicts the least-recently-seen customers to the store, restoring them
transparently if the feed mentions them again.  A killed watch resumes
via ``watch(resume_from=store)``: ring topology, overrides, quarantine
and per-customer live state are rebuilt from the latest checkpoint and
the feed prefix it had consumed is skipped, after which the emitted
stream is byte-identical to the uninterrupted run's tail.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal

from ..catalog.models import DeploymentType
from ..store.persistence import CustomerStateRecord
from ..streaming.live import LiveRecommender
from .arena import TickPlane, write_result_columns
from .cache import CurveCacheStats
from .config import SupervisionConfig
from .rebalance import (
    Migration,
    RebalanceEvent,
    RebalancePolicy,
    ShardLoad,
    WatchLoadSnapshot,
    WatchRebalanceStats,
)
from .sharding import ShardRing

if TYPE_CHECKING:  # imported lazily at run time to avoid cycles
    from ..core.engine import DopplerEngine
    from ..store import CheckpointRecord, FleetStore
    from .config import CheckpointConfig
    from .engine import FleetLiveUpdate, FleetSample

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "FleetBackend",
    "ProcessBackend",
    "SerialBackend",
    "ShardAssessmentConfig",
    "WatchSupervisionStats",
    "WorkerEvent",
    "make_backend",
]

FleetBackend = Literal["serial", "process"]

#: Valid backend selectors, in documentation order.
BACKEND_NAMES: tuple[str, ...] = ("serial", "process")

#: Samples routed per worker per streaming tick.  Large enough that
#: queue round-trips amortize, small enough that emission latency
#: stays bounded (a tick is the unit of reordering).
WATCH_TICK_PER_WORKER = 64

#: Streaming ticks in flight before the parent blocks on results:
#: double-buffering overlaps routing with assessment.
WATCH_INFLIGHT_TICKS = 2

#: Hottest customers included in a rebalance load snapshot; policies
#: balance shards, not individual tails, so a bounded leaderboard
#: keeps decision points cheap at fleet scale.
SNAPSHOT_TOP_CUSTOMERS = 256

#: Seconds between liveness checks while waiting on worker results.
_WORKER_POLL_SECONDS = 1.0

#: Seconds granted to each stage of the worker teardown escalation
#: (graceful join, then ``terminate()``, then ``kill()``).  Module
#: level so tests can shrink it and exercise the escalation quickly.
_JOIN_TIMEOUT_S = 5.0


class _WorkerFailure(RuntimeError):
    """One or more shard workers failed in a *recoverable* way.

    Raised by pool submit/drain/handshake paths instead of aborting the
    watch; the :class:`_WatchSupervisor` catches it, restarts the named
    shards and replays their un-checkpointed feed suffix.  Subclasses
    ``RuntimeError`` so a watch run *without* a supervisor (direct pool
    use in tests) still fails loudly rather than hanging.

    Attributes:
        shard_ids: The shards whose workers failed, sorted.
        reason: ``"death"`` (process found dead), ``"deadline"`` (tick
            unanswered past the deadline), ``"killed"`` (injected
            kill), ``"drop"`` (injected result drop), or ``"error"``
            (worker reported a shard-level exception).
        detail: Human-readable diagnostics (worker names, tracebacks).
    """

    def __init__(self, shard_ids: "Iterable[int]", reason: str, detail: str = "") -> None:
        self.shard_ids = tuple(sorted(set(shard_ids)))
        self.reason = reason
        self.detail = detail
        described = ", ".join(str(shard_id) for shard_id in self.shard_ids)
        message = f"fleet watch worker(s) {described} failed ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class WorkerEvent:
    """One supervision action taken during a watch.

    Attributes:
        kind: ``"worker_restart"``, ``"shard_quarantine"`` or
            ``"shard_probation"`` (a quarantined shard readmitted to
            supervision after its cool-down).
        tick_id: The tick the watch was on when the action ran.
        shard_id: The shard acted on.
        restarts: The shard's restart count after this action.
        reason: The triggering failure reason (see
            :class:`_WorkerFailure`).
        replayed_ticks: Buffered ticks replayed to restore the shard.
    """

    kind: str
    tick_id: int
    shard_id: int
    restarts: int
    reason: str = ""
    replayed_ticks: int = 0


@dataclass(frozen=True)
class WatchSupervisionStats:
    """Self-healing account of one watch.

    Attributes:
        n_restarts: Shard workers restarted (replacement spawned and
            state restored).
        n_deadline_kills: Restarts triggered by a tick deadline rather
            than observed death.
        n_forced_stops: Workers that had to be ``terminate()``/
            ``kill()``-ed because they did not stop gracefully --
            nonzero values are the teardown-hang warning counter.
        n_replayed_ticks: Total buffered ticks replayed across all
            recoveries.
        n_corrupt_quarantined: Customers quarantined because their
            stored state blob failed to decode.
        max_recovery_ticks: Largest single-recovery replay (the
            watch's MTTR in ticks).
        quarantined_shards: Shards retired from restarting after
            exhausting ``max_restarts``.
        events: Ordered :class:`WorkerEvent` log.
    """

    n_restarts: int = 0
    n_deadline_kills: int = 0
    n_forced_stops: int = 0
    n_replayed_ticks: int = 0
    n_corrupt_quarantined: int = 0
    max_recovery_ticks: int = 0
    quarantined_shards: tuple[int, ...] = ()
    events: tuple[WorkerEvent, ...] = ()


class _PendingTick:
    """Reorder-buffer entry: one dispatched tick awaiting its shards.

    Shared by both pools so the supervisor can credit replayed
    results uniformly (:meth:`_WatchPool.fold`).  ``owing`` is the set
    of shards whose results are still outstanding; a shard not in it
    has already been credited, so late duplicates (a replaced worker's
    stale reply racing its replacement's replay) fold to nothing.
    """

    __slots__ = ("tick_id", "owing", "emissions", "busy", "deadline")

    def __init__(
        self, tick_id: int, owing: "Iterable[int]", deadline: float | None = None
    ) -> None:
        self.tick_id = tick_id
        self.owing = set(owing)
        self.emissions: list = []
        self.busy: dict[int, float] = {}
        self.deadline = deadline


@dataclass(frozen=True)
class ShardAssessmentConfig:
    """Everything a streaming shard needs to assess its customers.

    Picklable on purpose: the process backend ships one copy to every
    worker at startup; workers construct per-customer
    :class:`~repro.streaming.live.LiveRecommender` instances from it
    on first sight of each customer.

    The constructor validates the per-customer assessment parameters
    up front with the same messages ``LiveRecommender`` would raise,
    so a misconfigured watch fails at the call site in the parent
    instead of surfacing as a wrapped worker error mid-stream.
    """

    engine: "DopplerEngine"
    window: int
    interval_minutes: float
    drift_threshold: float
    min_refresh_samples: int
    refreshes_only: bool
    profile_mode: str

    def __post_init__(self) -> None:
        # LiveRecommender.validate_config is the single source of
        # truth for these constraints and their messages.
        LiveRecommender.validate_config(
            self.window,
            self.min_refresh_samples,
            self.profile_mode,
            self.engine.summarizer,
        )


class _NoCurveCache:
    """All-zero counters for readers of a watch shard's ``cache.stats()``.

    Live refreshes build their curves from the incremental window
    counts, so shards memoize no curves.  The attribute stays readable
    for one release -- the perfbench serve workload reads it -- and
    reports what :meth:`FleetEngine.watch_cache_stats
    <repro.fleet.engine.FleetEngine.watch_cache_stats>` does.
    """

    def stats(self) -> CurveCacheStats:
        return CurveCacheStats(hits=0, misses=0, evictions=0, size=0)


class _WatchShard:
    """One worker's share of a fleet watch: live state plus quarantine.

    Owns every :class:`~repro.streaming.live.LiveRecommender` routed to
    it and the per-customer quarantine set.  Keeps each customer's feed
    order -- a tick is folded in waves across customers, with no order
    kept between customers -- so per-customer update sequences --
    including the quarantine-after-failure containment contract -- are
    identical to the serial loop's regardless of how many shards a
    watch runs or how many samples a tick holds.

    Implements the :class:`~repro.store.StatePersistence` protocol
    (shared with the serving tier's observe shards):
    :meth:`snapshot_records` freezes customer state non-destructively
    for checkpoints, :meth:`restore_records` adopts records with epoch
    validation.  Migration composes the same surface: :meth:`extract`
    is a destructive snapshot, and :meth:`install` aliases
    ``restore_records`` on the target shard.
    """

    cache = _NoCurveCache()

    def __init__(self, config: ShardAssessmentConfig) -> None:
        from .engine import FleetLiveUpdate  # the engine module imports this one

        self.config = config
        self.recommenders: dict[str, object] = {}
        self.quarantined: set[str] = set()
        self._update_type = FleetLiveUpdate

    def _new_live(self, customer_id: str, deployment, dimensions=None):
        config = self.config
        return LiveRecommender(
            config.engine,
            deployment,
            window=config.window,
            interval_minutes=config.interval_minutes,
            dimensions=dimensions,
            drift_threshold=config.drift_threshold,
            min_refresh_samples=config.min_refresh_samples,
            entity_id=customer_id,
            profile_mode=config.profile_mode,
        )

    def process(
        self, batch: "list[tuple[int, FleetSample]]"
    ) -> "tuple[list[tuple[int, FleetLiveUpdate]], float]":
        """Assess one tick of (sequence number, sample) pairs, as arrays.

        The tick is folded across its customers in *waves*: wave ``k``
        holds the ``k``-th sample of every customer in the tick, in
        feed order per customer.  A wave is ingested as one block
        (:meth:`~repro.streaming.live.LiveRecommender.ingest_many`: one
        parse, one violation compare per shared capacity matrix, one
        drift pass), and the refreshes that come due in it run
        together (:meth:`~repro.streaming.live.LiveRecommender.refresh_many`:
        one curve pass and one batched profile per deployment) before
        any of those customers' next sample.  Each customer still sees
        its own samples and refreshes in feed order, and no state is
        shared between customers, so the updates equal a
        sample-by-sample ``observe`` loop's at any tick size.  A
        one-sample tick (the serving tier's usual flush) is a wave of
        one, which ``ingest_many`` hands to the one-row
        :meth:`~repro.streaming.live.LiveRecommender.ingest`.

        Returns the emissions -- refresh events (or every sample when
        ``refreshes_only`` is off) and one-shot failure updates --
        tagged with their global sequence numbers so the parent can
        interleave shards back into feed order, plus the wall-clock
        seconds this tick cost (the per-shard load signal rebalance
        policies act on).
        """
        started = time.perf_counter()
        update_type = self._update_type
        refreshes_only = self.config.refreshes_only
        recommenders = self.recommenders
        quarantined = self.quarantined
        emissions: list[tuple[int, FleetLiveUpdate]] = []
        # Wave k holds the k-th sample of every customer in the tick.
        waves: list[list[tuple[int, FleetSample]]] = []
        depth: dict[str, int] = {}
        for item in batch:
            customer_id = item[1].customer_id
            k = depth.get(customer_id, 0)
            depth[customer_id] = k + 1
            if k == len(waves):
                waves.append([item])
            else:
                waves[k].append(item)
        for wave in waves:
            members: list[tuple[int, str]] = []
            lives: list[LiveRecommender] = []
            samples: list = []
            for seq, sample in wave:
                customer_id = sample.customer_id
                if customer_id in quarantined:
                    continue
                live = recommenders.get(customer_id)
                if live is None:
                    live = self._new_live(customer_id, sample.deployment)
                    recommenders[customer_id] = live
                members.append((seq, customer_id))
                lives.append(live)
                samples.append(sample.values)
            due: list[tuple[int, str, LiveRecommender, object]] = []
            outcomes = LiveRecommender.ingest_many(lives, samples)
            for (seq, customer_id), live, outcome in zip(members, lives, outcomes):
                if isinstance(outcome, Exception):
                    self._quarantine(seq, customer_id, outcome, emissions)
                elif outcome[0]:
                    due.append((seq, customer_id, live, outcome[1]))
                elif not refreshes_only:
                    emissions.append(
                        (
                            seq,
                            update_type(
                                customer_id=customer_id,
                                update=live.current_update(
                                    refreshed=False, drift=outcome[1]
                                ),
                            ),
                        )
                    )
            if due:
                self._refresh_due(due, emissions)
        return emissions, time.perf_counter() - started

    def _refresh_due(self, due: list, emissions: list) -> None:
        """Run a wave's due refreshes together and emit their updates."""
        outcomes = LiveRecommender.refresh_many([live for _, _, live, _ in due])
        for (seq, customer_id, live, drift), outcome in zip(due, outcomes):
            if isinstance(outcome, Exception):
                self._quarantine(seq, customer_id, outcome, emissions)
            else:
                emissions.append(
                    (
                        seq,
                        self._update_type(
                            customer_id=customer_id,
                            update=live.current_update(refreshed=True, drift=drift),
                        ),
                    )
                )

    def _quarantine(
        self, seq: int, customer_id: str, exc: Exception, emissions: list
    ) -> None:
        """Drop a failed customer's state and emit its one failure update."""
        self.quarantined.add(customer_id)
        self.recommenders.pop(customer_id, None)
        emissions.append(
            (
                seq,
                self._update_type(
                    customer_id=customer_id,
                    update=None,
                    error=f"{type(exc).__name__}: {exc}",
                ),
            )
        )

    def snapshot_records(
        self, customer_ids: "Iterable[str] | None" = None
    ) -> list[CustomerStateRecord]:
        """Freeze customer state without disturbing it (checkpoint path).

        ``snapshot_state`` copies the live recommenders' internals, so
        a checkpointed watch emits exactly what an uncheckpointed one
        would.  Defaults to every customer this shard owns, in sorted
        order for deterministic checkpoints; customers this shard has
        never seen produce no record.
        """
        if customer_ids is None:
            customer_ids = sorted(set(self.recommenders) | self.quarantined)
        records: list[CustomerStateRecord] = []
        for customer_id in customer_ids:
            live = self.recommenders.get(customer_id)
            if live is not None:
                records.append(
                    CustomerStateRecord(customer_id, live.snapshot_state())
                )
            elif customer_id in self.quarantined:
                records.append(CustomerStateRecord(customer_id, None, quarantined=True))
        return records

    def extract(self, customer_ids: "Iterable[str]") -> list[CustomerStateRecord]:
        """Freeze and remove departing customers' state for handoff.

        Customers this shard has never seen produce no record.
        """
        records: list[CustomerStateRecord] = []
        for customer_id in customer_ids:
            quarantined = customer_id in self.quarantined
            self.quarantined.discard(customer_id)
            live = self.recommenders.pop(customer_id, None)
            if live is not None:
                records.append(CustomerStateRecord(customer_id, live.snapshot_state()))
            elif quarantined:
                records.append(CustomerStateRecord(customer_id, None, quarantined=True))
        return records

    def restore_records(self, records: "Iterable[CustomerStateRecord]") -> None:
        """Adopt customer records; the inverse of :meth:`extract`.

        Epoch validation happens inside ``restore_state``: restoring a
        snapshot older than state this shard already advanced raises
        rather than silently rewinding a customer.
        """
        for record in records:
            if record.quarantined:
                self.quarantined.add(record.customer_id)
                continue
            state = record.state
            if state is None:
                continue
            live = self._new_live(
                record.customer_id,
                DeploymentType(state.deployment_value),
                dimensions=state.dimensions,
            )
            live.restore_state(state)
            self.recommenders[record.customer_id] = live

    # Migration arrives through the same persistence surface.
    install = restore_records


# ----------------------------------------------------------------------
# Elastic watch coordination (parent side)
# ----------------------------------------------------------------------
class _WatchCoordinator:
    """Routing, load accounting and rebalance execution for one watch.

    Lives in the parent for every backend.  Owns the
    :class:`~repro.fleet.sharding.ShardRing`, memoizes each customer's
    current shard (one keyed hash per customer, not per sample),
    counts per-shard and per-customer load, and -- when a policy is
    attached -- executes its decisions against the backend's worker
    pool at fully drained tick boundaries.
    """

    def __init__(
        self,
        n_shards: int,
        policy: RebalancePolicy | None,
        on_rebalance: Callable[[RebalanceEvent], None] | None,
        checkpoint: "CheckpointConfig | None" = None,
    ) -> None:
        self.ring = ShardRing(n_shards)
        self.policy = policy
        self.on_rebalance = on_rebalance
        self.checkpoint_config = checkpoint
        self.store = checkpoint.store if checkpoint is not None else None
        self.quarantined: set[str] = set()
        self.evicted: set[str] = set()
        self.n_corrupt_quarantined = 0
        self.current_tick = 0
        self.n_emitted = 0
        self.n_checkpoints = 0
        self.n_evictions = 0
        self._routes: dict[str, int] = {}
        self._members: dict[int, set[str]] = {sid: set() for sid in range(n_shards)}
        self._samples_total: dict[int, int] = {}
        self._samples_recent: dict[int, int] = {}
        self._busy_total: dict[int, float] = {}
        self._busy_recent: dict[int, float] = {}
        self._customer_recent: dict[str, int] = {}
        # LRU clock for cold-customer eviction; only maintained when a
        # resident cap is configured.
        self._track_last_seen = checkpoint is not None and checkpoint.max_resident is not None
        # Delta-checkpoint dirty set: customers whose live state may
        # have moved since the last checkpoint.  Only maintained when a
        # checkpoint config is attached.
        self._track_dirty = checkpoint is not None
        self._dirty: set[str] = set()
        self._last_seen: dict[str, int] = {}
        self._seen_counter = 0
        self._n_decisions = 0
        self._n_rebalances = 0
        self._n_migrations = 0
        self._n_resizes = 0
        self._events: list[RebalanceEvent] = []

    # -- hot path ------------------------------------------------------
    def route(self, customer_id: str) -> int:
        """The shard owning ``customer_id``'s live state, with accounting."""
        shard_id = self._routes.get(customer_id)
        if shard_id is None:
            shard_id = self.ring.route(customer_id)
            self._routes[customer_id] = shard_id
            self._members.setdefault(shard_id, set()).add(customer_id)
        self._samples_total[shard_id] = self._samples_total.get(shard_id, 0) + 1
        if self._track_last_seen:
            self._seen_counter += 1
            self._last_seen[customer_id] = self._seen_counter
        if self._track_dirty:
            self._dirty.add(customer_id)
        if self.policy is not None:
            self._samples_recent[shard_id] = self._samples_recent.get(shard_id, 0) + 1
            self._customer_recent[customer_id] = (
                self._customer_recent.get(customer_id, 0) + 1
            )
        return shard_id

    def record_busy(self, busy_by_shard: dict[int, float]) -> None:
        for shard_id, seconds in busy_by_shard.items():
            self._busy_total[shard_id] = self._busy_total.get(shard_id, 0.0) + seconds
            self._busy_recent[shard_id] = self._busy_recent.get(shard_id, 0.0) + seconds

    def mark_quarantined(self, customer_id: str) -> None:
        """Note a customer's quarantine (learned from its error update).

        The parent drops the customer's further samples instead of
        shipping work its shard would silently skip, and stops
        counting it as load -- a quarantined whale must not keep
        reading as the hottest customer of an actually idle shard and
        bait the policy into migrating its innocent neighbours.

        Idempotent: shard quarantine marks every resident at once and
        their error updates flow through here again when emitted, so a
        repeat call must not double-log the event.
        """
        if customer_id in self.quarantined:
            return
        self.quarantined.add(customer_id)
        if self._track_dirty:
            self._dirty.add(customer_id)
        self._customer_recent.pop(customer_id, None)
        self._last_seen.pop(customer_id, None)
        shard_id = self._routes.get(customer_id)
        if shard_id is not None:
            self._members.get(shard_id, set()).discard(customer_id)
        if self.store is not None:
            self.store.append_event(
                "quarantine",
                tick_id=self.current_tick,
                customer_id=customer_id,
                source_shard=shard_id,
            )

    def quarantine_corrupt(self, customer_id: str, detail: str) -> None:
        """Quarantine one customer whose stored state failed to decode.

        A single damaged blob must cost one customer, not the fleet:
        resume, readmission and recovery-baseline loads all route
        decode failures here instead of aborting.  The event log gets
        a ``quarantine`` entry with the corruption detail so operators
        can distinguish data damage from feed-triggered quarantine.
        """
        already = customer_id in self.quarantined
        self.quarantined.add(customer_id)
        self._customer_recent.pop(customer_id, None)
        self._last_seen.pop(customer_id, None)
        self.evicted.discard(customer_id)
        shard_id = self._routes.pop(customer_id, None)
        if shard_id is not None:
            self._members.get(shard_id, set()).discard(customer_id)
        if already:
            return
        self.n_corrupt_quarantined += 1
        if self.store is not None:
            self.store.append_event(
                "quarantine",
                tick_id=self.current_tick,
                customer_id=customer_id,
                source_shard=shard_id,
                detail={"reason": "corrupt_state", "error": detail},
            )

    # -- decision points -----------------------------------------------
    def _snapshot(self, tick_id: int) -> WatchLoadSnapshot:
        shards = tuple(
            ShardLoad(
                shard_id=shard_id,
                n_customers=len(self._members.get(shard_id, ())),
                samples_recent=self._samples_recent.get(shard_id, 0),
                samples_total=self._samples_total.get(shard_id, 0),
                busy_seconds_recent=self._busy_recent.get(shard_id, 0.0),
                busy_seconds_total=self._busy_total.get(shard_id, 0.0),
            )
            for shard_id in self.ring.shard_ids
        )
        hot = sorted(self._customer_recent.items(), key=lambda kv: (-kv[1], kv[0]))
        return WatchLoadSnapshot(
            tick_id=tick_id,
            n_decisions=self._n_decisions,
            shards=shards,
            customer_samples_recent=tuple(
                (customer_id, count, self._routes[customer_id])
                for customer_id, count in hot[:SNAPSHOT_TOP_CUSTOMERS]
            ),
        )

    def rebalance(self, pool: "_WatchPool", tick_id: int) -> None:
        """Consult the policy and execute its decision.

        Caller guarantees nothing is in flight: every dispatched tick
        has drained, so no moving customer has samples pending and
        extract sees fully settled state.
        """
        snapshot = self._snapshot(tick_id)
        decision = self.policy.decide(snapshot)
        self._n_decisions += 1
        if decision is None:
            return  # keep watching: the recent window keeps accumulating
        # The policy acted (even a no-op decision is a verdict on this
        # evidence): start a fresh observation window.
        self._samples_recent = {}
        self._busy_recent = {}
        self._customer_recent = {}
        if decision.is_noop:
            return
        moves: list[Migration] = []
        resized_from = resized_to = None
        # Planned state moves: customer -> (source shard, target shard).
        planned: dict[str, tuple[int, int]] = {}
        if decision.resize_to is not None and decision.resize_to != self.ring.n_shards:
            resized_from = self.ring.n_shards
            resized_to = decision.resize_to
            for shard_id in range(resized_from, resized_to):
                pool.add_shard(shard_id)  # grow before any state needs a home
                self._members.setdefault(shard_id, set())
            self.ring.resize(resized_to)
            # Consistent hashing keeps this diff minimal: growth moves
            # ~1/new of the known customers, shrink moves only the
            # removed shards' residents.
            for customer_id, old in self._routes.items():
                new = self.ring.route(customer_id)
                if new != old:
                    planned[customer_id] = (old, new)
        for migration in decision.migrations:
            target = migration.target
            if target not in self.ring.shard_ids:
                raise ValueError(
                    f"rebalance decision targets unknown shard {target!r}; "
                    f"the pool has shards 0..{self.ring.n_shards - 1}"
                )
            self.ring.set_override(migration.customer_id, target)
            old = self._routes.get(migration.customer_id)
            if old is None:
                # Never-seen customer: the pin takes effect on first
                # sight; there is no state to move yet.
                moves.append(Migration(migration.customer_id, target, source=None))
            elif old != target:
                planned[migration.customer_id] = (old, target)
            else:
                planned.pop(migration.customer_id, None)  # pinned where it lives
        by_source: dict[int, list[str]] = {}
        for customer_id, (source, _) in planned.items():
            by_source.setdefault(source, []).append(customer_id)
        for source in sorted(by_source):
            customer_ids = sorted(by_source[source])
            records = {
                record.customer_id: record
                for record in pool.extract(source, customer_ids)
            }
            by_target: dict[int, list[CustomerStateRecord]] = {}
            for customer_id in customer_ids:
                target = planned[customer_id][1]
                record = records.get(customer_id)
                if record is not None:
                    by_target.setdefault(target, []).append(record)
                self._routes[customer_id] = target
                self._members.get(source, set()).discard(customer_id)
                self._members.setdefault(target, set()).add(customer_id)
                moves.append(Migration(customer_id, target, source=source))
            for target in sorted(by_target):
                pool.install(target, by_target[target])
        if self._track_dirty:
            # Moved state re-persists on the next delta checkpoint: the
            # stored rows are not stale (state is unchanged by a move),
            # but restored epochs advance and the cheap re-write keeps
            # the store unconditionally current across migrations.
            self._dirty.update(planned)
        if resized_to is not None and resized_to < (resized_from or 0):
            for shard_id in range(resized_to, resized_from):
                pool.retire_shard(shard_id)  # empty by now; state moved above
                self._members.pop(shard_id, None)
        if not moves and resized_to is None:
            return  # decision changed nothing observable (e.g. in-place pins)
        event = RebalanceEvent(
            tick_id=tick_id,
            moves=tuple(moves),
            resized_from=resized_from,
            resized_to=resized_to,
        )
        self._events.append(event)
        self._n_rebalances += 1
        self._n_migrations += sum(1 for move in moves if move.source is not None)
        if resized_to is not None:
            self._n_resizes += 1
        if self.store is not None:
            self.store.append_event(
                "rebalance",
                tick_id=tick_id,
                detail={
                    "n_moves": len(moves),
                    "resized_from": resized_from,
                    "resized_to": resized_to,
                },
            )
            for move in moves:
                self.store.append_event(
                    "migration",
                    tick_id=tick_id,
                    customer_id=move.customer_id,
                    source_shard=move.source,
                    target_shard=move.target,
                )
            if resized_to is not None:
                self.store.append_event(
                    "resize",
                    tick_id=tick_id,
                    detail={"from": resized_from, "to": resized_to},
                )
        if self.on_rebalance is not None:
            self.on_rebalance(event)

    # -- durability ----------------------------------------------------
    def checkpoint_now(self, pool: "_WatchPool", tick_id: int, n_consumed: int) -> None:
        """Persist every shard's state plus the stream position.

        Caller guarantees nothing is in flight, so the snapshots are a
        consistent cut: every update for a consumed sample has been
        emitted (``n_emitted`` counts them) and no shard holds partial
        tick state.  The store write is one transaction -- a crash
        mid-checkpoint leaves the previous checkpoint intact.

        Only dirty customers -- those routed, quarantined, migrated or
        readmitted since the last checkpoint -- are snapshot and
        re-written; everyone else's last-stored row is already
        current, so resumes see the full fleet while a mostly-idle
        fleet's checkpoint shrinks to its active minority.
        """
        assert self.checkpoint_config is not None and self.store is not None
        records: list[CustomerStateRecord] = []
        wanted_by_shard: dict[int, list[str]] = {}
        for customer_id in self._dirty:
            shard_id = self._routes.get(customer_id)
            if shard_id is not None:
                wanted_by_shard.setdefault(shard_id, []).append(customer_id)
        for shard_id in self.ring.shard_ids:
            wanted = wanted_by_shard.get(shard_id)
            if wanted:
                records.extend(pool.snapshot_shard(shard_id, sorted(wanted)))
        self.store.checkpoint(
            tick_id=tick_id,
            n_consumed=n_consumed,
            n_emitted=self.n_emitted,
            n_shards=self.ring.n_shards,
            overrides=self.ring.overrides,
            records=records,
        )
        self._dirty.clear()
        self.n_checkpoints += 1
        # The store is now the recovery baseline: truncate the
        # supervisor's replay buffers *before* eviction, so any
        # post-checkpoint extract events land in a fresh buffer and a
        # recovery never double-applies pre-checkpoint ticks on top of
        # state the checkpoint already contains.
        supervisor = getattr(pool, "supervisor", None)
        if supervisor is not None:
            supervisor.on_checkpoint()
        max_resident = self.checkpoint_config.max_resident
        if max_resident is not None:
            self._evict_cold(pool, tick_id, max_resident)

    def _evict_cold(self, pool: "_WatchPool", tick_id: int, max_resident: int) -> None:
        """Evict the least-recently-seen customers beyond the cap.

        Runs right after a checkpoint, at the same drained boundary, so
        the extracted state equals what the checkpoint just persisted;
        the store write is belt-and-braces for eviction between
        checkpoints via other paths.  Quarantined customers hold no
        state and stay as cheap set entries.
        """
        resident = [cid for cid in self._routes if cid not in self.quarantined]
        excess = len(resident) - max_resident
        if excess <= 0:
            return
        victims = sorted(
            resident, key=lambda cid: (self._last_seen.get(cid, 0), cid)
        )[:excess]
        by_shard: dict[int, list[str]] = {}
        for customer_id in victims:
            by_shard.setdefault(self._routes[customer_id], []).append(customer_id)
        assert self.store is not None
        for shard_id in sorted(by_shard):
            customer_ids = sorted(by_shard[shard_id])
            records = pool.extract(shard_id, customer_ids)
            self.store.save_customer_states(records, tick_id=tick_id)
            for customer_id in customer_ids:
                self.store.append_event(
                    "eviction",
                    tick_id=tick_id,
                    customer_id=customer_id,
                    source_shard=shard_id,
                )
                self._routes.pop(customer_id, None)
                self._members.get(shard_id, set()).discard(customer_id)
                self._last_seen.pop(customer_id, None)
                self._customer_recent.pop(customer_id, None)
                self.evicted.add(customer_id)
        self.n_evictions += len(victims)

    def readmit(self, pool: "_WatchPool", customer_ids: "Iterable[str]") -> None:
        """Restore evicted customers whose samples are back in the feed.

        Caller guarantees a drained boundary (installs must not race
        in-flight ticks).  A customer with no stored record -- deleted
        out-of-band -- is simply treated as brand new.
        """
        from ..store import StoreCorruptionError

        assert self.store is not None
        for customer_id in sorted(set(customer_ids)):
            self.evicted.discard(customer_id)
            try:
                record = self.store.load_customer_state(customer_id)
            except StoreCorruptionError as exc:
                self.quarantine_corrupt(customer_id, str(exc))
                continue
            if record is None:
                continue
            shard_id = self.ring.route(customer_id)
            pool.install(shard_id, [record])
            if record.quarantined:
                self.quarantined.add(customer_id)
            else:
                self._routes[customer_id] = shard_id
                self._members.setdefault(shard_id, set()).add(customer_id)
                if self._track_dirty:
                    # The install bumped the state's epoch; re-persist
                    # it at the next delta checkpoint.
                    self._dirty.add(customer_id)

    def restore(self, pool: "_WatchPool", store: "FleetStore") -> "CheckpointRecord":
        """Rebuild topology and state from the store's latest checkpoint.

        Returns the checkpoint so the watch loop can skip the consumed
        feed prefix and continue emission counting where the killed run
        stopped.  A customer whose stored blob fails to decode is
        quarantined (event-logged) instead of aborting the resume.
        """
        checkpoint = store.require_checkpoint()
        current = pool.n_shards
        if checkpoint.n_shards > current:
            for shard_id in range(current, checkpoint.n_shards):
                pool.add_shard(shard_id)
        elif checkpoint.n_shards < current:
            for shard_id in range(checkpoint.n_shards, current):
                pool.retire_shard(shard_id)
        if checkpoint.n_shards != self.ring.n_shards:
            self.ring.resize(checkpoint.n_shards)
        self._members = {sid: set() for sid in range(checkpoint.n_shards)}
        self._routes = {}
        for customer_id, shard_id in checkpoint.overrides.items():
            self.ring.set_override(customer_id, shard_id)
        by_shard: dict[int, list[CustomerStateRecord]] = {}

        def quarantine_corrupt(customer_id: str, exc: Exception) -> None:
            self.quarantine_corrupt(customer_id, str(exc))
            if self.store is None:
                # Resume without continued checkpointing: the event
                # still belongs in the resume store's audit log.
                store.append_event(
                    "quarantine",
                    tick_id=checkpoint.tick_id,
                    customer_id=customer_id,
                    detail={"reason": "corrupt_state", "error": str(exc)},
                )

        for record in store.iter_customer_states(on_corrupt=quarantine_corrupt):
            shard_id = self.ring.route(record.customer_id)
            by_shard.setdefault(shard_id, []).append(record)
            if record.quarantined:
                self.quarantined.add(record.customer_id)
            else:
                self._routes[record.customer_id] = shard_id
                self._members.setdefault(shard_id, set()).add(record.customer_id)
        for shard_id in sorted(by_shard):
            pool.install(shard_id, by_shard[shard_id])
        self.n_emitted = checkpoint.n_emitted
        return checkpoint

    def stats(self) -> WatchRebalanceStats:
        return WatchRebalanceStats(
            n_decisions=self._n_decisions,
            n_rebalances=self._n_rebalances,
            n_migrations=self._n_migrations,
            n_resizes=self._n_resizes,
            final_n_shards=self.ring.n_shards,
            samples_by_shard=tuple(sorted(self._samples_total.items())),
            events=tuple(self._events),
        )


class _WatchPool(ABC):
    """One backend's worker pool behind the generic watch loop.

    The loop (:meth:`ExecutionBackend._watch_loop`) owns tick
    iteration, routing and rebalancing; pools own execution: where
    shards live, how ticks reach them, how migrated state crosses the
    boundary.  ``extract``/``install``/``add_shard``/``retire_shard``
    are only called at fully drained tick boundaries.

    Supervision hooks: :meth:`submit`/:meth:`extract`/:meth:`install`
    are concrete templates that record what they dispatched with the
    attached :class:`_WatchSupervisor` (when active) before deferring
    to the per-backend ``_do_*`` implementations.  Recoverable
    failures surface as :class:`_WorkerFailure`; the supervisor heals
    them with :meth:`replace_shard`, :meth:`replay_tick` and
    :meth:`fold`.
    """

    #: Samples per shard per tick (the unit of refresh work: a shard's
    #: tick runs its due refreshes together, see
    #: :meth:`_WatchShard.process`) and reorder-buffer depth.  Both
    #: pools tick the same number of samples; the serial pool runs
    #: each tick to completion, so it keeps a depth of 1.
    tick_per_shard: int = WATCH_TICK_PER_WORKER
    max_inflight: int = WATCH_INFLIGHT_TICKS

    #: Whether this pool's workers can die out from under the parent
    #: (process pools).  Volatile pools keep the supervisor recording
    #: even without injected faults, so a real crash is recoverable.
    volatile: bool = False

    def __init__(self, config: ShardAssessmentConfig) -> None:
        self.config = config
        self.supervisor: "_WatchSupervisor | None" = None
        self.n_forced_stops = 0
        self._pending: deque[_PendingTick] = deque()

    @property
    @abstractmethod
    def n_shards(self) -> int:
        """Current worker-pool size."""

    # -- dispatch templates (supervision-aware) ------------------------
    def submit(self, tick_id: int, by_shard: dict[int, list]) -> None:
        """Dispatch one routed tick to its shards.

        Consults the fault plan exactly once per ``(shard, tick)``
        here -- replays go through :meth:`replay_tick`, which never
        injects, so a respawned worker cannot re-trip the fault that
        killed its predecessor.
        """
        directives: dict[int, tuple] = {}
        supervisor = self.supervisor
        if supervisor is not None and supervisor.active:
            directives = supervisor.directives_for(tick_id, by_shard)
            supervisor.note_tick(tick_id, by_shard)
        self._do_submit(tick_id, by_shard, directives)

    def extract(self, shard_id: int, customer_ids: list[str]) -> list:
        """Pull migration records off a shard (nothing in flight)."""
        records = self._do_extract(shard_id, customer_ids)
        supervisor = self.supervisor
        if supervisor is not None and supervisor.active:
            # Recorded only after success: a failed extract left the
            # worker dead with its state intact in the baseline.
            supervisor.note_extract(shard_id, customer_ids)
        return records

    def install(self, shard_id: int, records: list) -> None:
        """Deliver migration records to a shard (nothing in flight)."""
        self._do_install(shard_id, records)
        supervisor = self.supervisor
        if supervisor is not None and supervisor.active:
            supervisor.note_install(shard_id, records)

    @abstractmethod
    def _do_submit(
        self, tick_id: int, by_shard: dict[int, list], directives: dict[int, tuple]
    ) -> None:
        """Backend-specific tick dispatch (with injected-fault directives)."""

    @abstractmethod
    def _do_extract(self, shard_id: int, customer_ids: list[str]) -> list:
        """Backend-specific migration-record extraction."""

    @abstractmethod
    def _do_install(self, shard_id: int, records: list) -> None:
        """Backend-specific migration-record delivery."""

    # -- reorder buffer ------------------------------------------------
    def pending(self) -> int:
        """Ticks dispatched but not yet drained."""
        return len(self._pending)

    def fold(
        self, tick_id: int, shard_id: int, emissions: list, busy_seconds: float
    ) -> bool:
        """Credit one shard's tick result against the reorder buffer.

        Returns False -- and discards the result -- when the tick is
        unknown or the shard already credited it: late duplicates from
        a replaced worker's stale reply, or re-replays after a nested
        recovery, fold to nothing instead of corrupting the stream.
        """
        for entry in self._pending:
            if entry.tick_id == tick_id:
                if shard_id not in entry.owing:
                    return False
                entry.owing.discard(shard_id)
                entry.emissions.extend(emissions)
                entry.busy[shard_id] = entry.busy.get(shard_id, 0.0) + busy_seconds
                return True
        return False

    def _tick_deadline(self) -> float | None:
        """Absolute deadline for a tick dispatched now (None = unbounded)."""
        supervisor = self.supervisor
        if supervisor is None or not supervisor.active:
            return None
        seconds = supervisor.config.tick_deadline_s
        if seconds is None:
            return None
        return time.monotonic() + seconds

    def refresh_deadlines(self) -> None:
        """Restart every pending tick's deadline clock (post-recovery).

        Recovery (backoff sleep + replay) eats wall-clock the healthy
        shards' in-flight ticks should not be billed for; without a
        refresh one shard's restart could cascade into spurious
        deadline kills on its peers.
        """
        deadline = self._tick_deadline()
        for entry in self._pending:
            if entry.deadline is not None:
                entry.deadline = deadline

    @abstractmethod
    def drain_next(self) -> tuple[list, dict[int, float]]:
        """Complete the oldest tick: (seq-sorted emissions, busy seconds by shard)."""

    # -- shard lifecycle -----------------------------------------------
    @abstractmethod
    def snapshot_shard(
        self, shard_id: int, customer_ids: list[str] | None = None
    ) -> list[CustomerStateRecord]:
        """Non-destructive state snapshot of a shard (nothing in flight)."""

    @abstractmethod
    def add_shard(self, shard_id: int) -> None:
        """Bring a new empty shard online."""

    @abstractmethod
    def retire_shard(self, shard_id: int) -> None:
        """Take an emptied shard offline."""

    @abstractmethod
    def replace_shard(self, shard_id: int) -> None:
        """Discard a failed shard's worker and bring up an empty one.

        The replacement owns no state; the supervisor restores the
        baseline and replays the buffered suffix afterwards.
        """

    @abstractmethod
    def replay_tick(
        self, shard_id: int, tick_id: int, batch: list
    ) -> tuple[list, float]:
        """Synchronously re-run one buffered tick on a restored shard.

        Never consults the fault plan.  Returns the shard's
        ``(emissions, busy_seconds)`` for :meth:`fold`.
        """

    def finish(self) -> None:
        """Graceful end-of-feed handshake (workers acknowledge the stop)."""

    def abort(self) -> None:
        """Hard teardown after an abandoned or failed stream."""

    def close(self) -> None:
        """Release pool resources; called exactly once, at watch end."""


class _InlinePool(_WatchPool):
    """Serial execution: shards processed synchronously in the parent.

    Ticks hold :data:`WATCH_TICK_PER_WORKER` samples per shard, as the
    process pool's do, so a tick's refreshes share one batched profile
    and its bookkeeping amortizes over the tick; each tick runs to
    completion before the next is routed.  Rebalance support is pure
    bookkeeping -- state moves between in-process shard objects --
    which keeps the serial backend the identity baseline for any
    migration schedule.
    """

    max_inflight = 1

    def __init__(self, config: ShardAssessmentConfig, n_shards: int) -> None:
        super().__init__(config)
        self._shards: dict[int, _WatchShard] = {
            shard_id: _WatchShard(config) for shard_id in range(n_shards)
        }

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def _do_submit(
        self, tick_id: int, by_shard: dict[int, list], directives: dict[int, tuple]
    ) -> None:
        # The entry goes in *before* any injected failure fires so the
        # supervisor's replay can fold the recovered results into it;
        # submit failures are therefore recovered without a resubmit.
        entry = _PendingTick(tick_id, by_shard)
        self._pending.append(entry)
        failed: list[int] = []
        reason = ""
        for shard_id in sorted(by_shard):
            directive = directives.get(shard_id)
            if directive is not None and directive[0] == "kill":
                # Simulated death: the shard object (and the tick's
                # work) is lost with its "worker".
                self._shards[shard_id] = _WatchShard(self.config)
                failed.append(shard_id)
                reason = "killed"
                continue
            if directive is not None and directive[0] == "delay":
                time.sleep(directive[1])
            emissions, seconds = self._shards[shard_id].process(by_shard[shard_id])
            if directive is not None and directive[0] == "drop":
                # The work happened (state advanced) but the reply is
                # lost; recovery discards this incarnation and replays
                # from the baseline.
                failed.append(shard_id)
                reason = "drop"
                continue
            self.fold(tick_id, shard_id, emissions, seconds)
        if failed:
            raise _WorkerFailure(failed, reason, "injected fault")

    def drain_next(self) -> tuple[list, dict[int, float]]:
        entry = self._pending.popleft()
        entry.emissions.sort(key=lambda pair: pair[0])
        return entry.emissions, entry.busy

    def snapshot_shard(
        self, shard_id: int, customer_ids: list[str] | None = None
    ) -> list[CustomerStateRecord]:
        return self._shards[shard_id].snapshot_records(customer_ids)

    def _do_extract(self, shard_id: int, customer_ids: list[str]) -> list:
        return self._shards[shard_id].extract(customer_ids)

    def _do_install(self, shard_id: int, records: list) -> None:
        self._shards[shard_id].install(records)

    def add_shard(self, shard_id: int) -> None:
        self._shards[shard_id] = _WatchShard(self.config)

    def retire_shard(self, shard_id: int) -> None:
        del self._shards[shard_id]

    def replace_shard(self, shard_id: int) -> None:
        self._shards[shard_id] = _WatchShard(self.config)

    def replay_tick(
        self, shard_id: int, tick_id: int, batch: list
    ) -> tuple[list, float]:
        return self._shards[shard_id].process(batch)


# ----------------------------------------------------------------------
# Process-pool plumbing (module level so it pickles by reference).
# ----------------------------------------------------------------------
#: Stop sentinel for streaming workers (acknowledged with ``stopped``).
_STOP = None


def _watch_worker_main(
    worker_id: int, config: ShardAssessmentConfig, in_queue, out_queue
) -> None:
    """Persistent streaming worker: owns one shard until retired.

    Message protocol (all tuples, kind first):

    * parent -> worker: ``("tick", tick_id, payload, directive)`` where
      ``payload`` is the tick's ``(seq, FleetSample)`` list pickled by
      :meth:`~repro.fleet.arena.TickPlane.pack_tick` (live ticks and
      supervisor replays alike), and ``directive`` is ``None`` or an
      injected-fault order (``("kill",)``, ``("delay", seconds)``,
      ``("drop",)``),
      ``("extract", request_id, customer_ids)``,
      ``("install", request_id, records)``,
      ``("snapshot", request_id, customer_ids_or_None)``,
      or the ``None`` stop sentinel.
    * worker -> parent: ``("tick", worker_id, tick_id, reply,
      busy_seconds)`` where ``reply`` is a
      :class:`~repro.fleet.arena.ResultFrame`, ``("extracted",
      worker_id, request_id, records)``, ``("installed",
      worker_id, request_id)``, ``("snapshotted", worker_id,
      request_id, records)``, ``("stopped", worker_id)`` on
      graceful stop, or ``("error", worker_id,
      details)`` on any failure the shard's per-customer containment
      did not absorb.

    ``records`` is always a list of
    :class:`~repro.store.persistence.CustomerStateRecord`, pickled
    by the queue like every other message.

    Fault directives execute *here*, in the real worker, so the parent
    sees exactly what a production failure looks like: ``kill`` is a
    hard ``os._exit`` (no cleanup, no reply), ``delay`` really sleeps
    (a deadline overrun if it outlasts the tick deadline), ``drop``
    does the work but never replies (detectable only by deadline).
    """
    try:
        shard = _WatchShard(config)
        # Last recommendation object shipped per customer; unchanged
        # objects cross as a 1-token instead of a re-pickle (see
        # ``write_result_columns``).
        shipped: dict[str, object] = {}
        while True:
            message = in_queue.get()
            if message is _STOP:
                out_queue.put(("stopped", worker_id))
                return
            kind = message[0]
            if kind == "tick":
                _, tick_id, payload, directive = message
                if directive is not None:
                    if directive[0] == "kill":
                        os._exit(13)
                    if directive[0] == "delay":
                        time.sleep(directive[1])
                emissions, busy_seconds = shard.process(pickle.loads(payload))
                if directive is not None and directive[0] == "drop":
                    continue
                reply = write_result_columns(emissions, shipped)
                out_queue.put(("tick", worker_id, tick_id, reply, busy_seconds))
            elif kind == "extract":
                _, request_id, customer_ids = message
                records = shard.extract(customer_ids)
                out_queue.put(("extracted", worker_id, request_id, records))
            elif kind == "install":
                _, request_id, records = message
                shard.install(records)
                out_queue.put(("installed", worker_id, request_id))
            elif kind == "snapshot":
                _, request_id, customer_ids = message
                records = shard.snapshot_records(customer_ids)
                out_queue.put(("snapshotted", worker_id, request_id, records))
            else:
                raise RuntimeError(f"unknown watch message kind {kind!r}")
    except BaseException as exc:  # noqa: BLE001 - parent must see worker death
        out_queue.put(
            (
                "error",
                worker_id,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        )


class _ProcessShardPool(_WatchPool):
    """Persistent worker processes fed over per-worker queues.

    Sticky routing needs *dedicated* per-worker queues, which executor
    pools cannot promise, so each shard is one long-lived
    :mod:`multiprocessing` process fed through its own input queue;
    emissions return over one shared result queue and the parent
    reorders them into feed order.  Ticks cross as pickled sample
    lists and replies as pickled result columns, both encoded and
    decoded by the pool's :class:`~repro.fleet.arena.TickPlane`; a
    reply is decoded only while the reorder buffer owes it (see
    :meth:`_reply_emissions`).  Live state -- migration
    extract/install, checkpoint and supervisor snapshots -- travels
    the same queues as plain pickled ``CustomerStateRecord`` lists,
    one request and one reply per handshake.  Pool growth spawns a
    fresh worker and shrink runs the stop handshake on the retiring
    one.
    """

    volatile = True

    def __init__(self, config: ShardAssessmentConfig, n_shards: int) -> None:
        super().__init__(config)
        self._context = multiprocessing.get_context()
        self._out_queue = self._context.Queue()
        self._workers: dict[int, object] = {}
        self._in_queues: dict[int, object] = {}
        self._closed_queues: list = []
        self._request_id = 0
        self._plane = TickPlane()
        for shard_id in range(n_shards):
            self.add_shard(shard_id)

    @property
    def n_shards(self) -> int:
        return len(self._workers)

    def _do_submit(
        self, tick_id: int, by_shard: dict[int, list], directives: dict[int, tuple]
    ) -> None:
        for shard_id, batch in by_shard.items():
            self._in_queues[shard_id].put(
                ("tick", tick_id, self._plane.pack_tick(batch), directives.get(shard_id))
            )
        self._pending.append(
            _PendingTick(tick_id, by_shard, deadline=self._tick_deadline())
        )

    def _owes(self, tick_id: int, shard_id: int) -> bool:
        """Is this (tick, shard) reply still expected by the buffer?"""
        for entry in self._pending:
            if entry.tick_id == tick_id:
                return shard_id in entry.owing
        return False

    def _reply_emissions(self, shard_id: int, tick_id: int, reply):
        """Decode one tick reply's emissions, or None if it is not owed.

        A reply the reorder buffer no longer owes is a replaced
        incarnation's stale duplicate (or a replay of a tick that
        already drained): ``fold`` would discard it anyway, and
        decoding it would overwrite the recommendation memo with an
        older recommendation that a later ``1`` token would then
        resolve to.  Replayed ticks skipped here need no decode
        either: the replay reproduces exactly the emissions the
        parent already decoded, so the memo and the new worker's
        shipped recommendations stay equal in value.
        """
        if not self._owes(tick_id, shard_id):
            return None
        return self._plane.read_results(reply)

    def _receive(
        self,
        awaiting: set[int],
        deadline: float | None = None,
        deadline_shards: "Iterable[int] | None" = None,
    ) -> tuple:
        """One worker message, failing recoverably on death or deadline.

        Only workers in ``awaiting`` count as casualties: a worker
        that already delivered everything it owed exits legitimately
        during the shutdown handshake, and must not be mistaken for
        a crash while the parent waits on its peers.  With a
        ``deadline``, expiry raises a :class:`_WorkerFailure` naming
        ``deadline_shards`` (default: everything awaited) instead of
        blocking forever on a hung worker.
        """
        while True:
            timeout = _WORKER_POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise _WorkerFailure(
                        deadline_shards if deadline_shards is not None else awaiting,
                        "deadline",
                        "tick deadline expired",
                    )
                timeout = min(timeout, remaining)
            try:
                return self._out_queue.get(timeout=timeout)
            except queue_module.Empty:
                dead = [
                    shard_id
                    for shard_id in sorted(awaiting)
                    if shard_id in self._workers and not self._workers[shard_id].is_alive()
                ]
                if dead:
                    names = ", ".join(self._workers[shard_id].name for shard_id in dead)
                    raise _WorkerFailure(
                        dead, "death", f"{names} died without reporting a result"
                    ) from None

    def drain_next(self) -> tuple[list, dict[int, float]]:
        head = self._pending[0]
        while head.owing:
            message = self._receive(
                {shard_id for entry in self._pending for shard_id in entry.owing},
                deadline=head.deadline,
                deadline_shards=head.owing,
            )
            kind = message[0]
            if kind == "error":
                raise _WorkerFailure([message[1]], "error", message[2])
            if kind != "tick":
                raise RuntimeError(
                    f"fleet watch worker {message[1]} sent unexpected "
                    f"{kind!r} while ticks were in flight"
                )
            _, shard_id, tick_id, emissions, busy_seconds = message
            # A miss is a replaced worker's stale reply (its
            # replacement already replayed the tick); drop it.
            emissions = self._reply_emissions(shard_id, tick_id, emissions)
            if emissions is None:
                continue
            self.fold(tick_id, shard_id, emissions, busy_seconds)
        entry = self._pending.popleft()
        entry.emissions.sort(key=lambda pair: pair[0])
        return entry.emissions, entry.busy

    def _await_reply(self, kind: str, shard_id: int, request_id: int) -> tuple:
        """Wait for one handshake reply at a drained boundary.

        Stale tick replies from a worker incarnation replaced during
        recovery may still surface here; they fold to nothing (the
        reorder buffer is empty at a drained boundary) and the wait
        continues.
        """
        while True:
            message = self._receive({shard_id})
            if message[0] == "error":
                raise _WorkerFailure([message[1]], "error", message[2])
            if message[0] == "tick":
                _, stale_shard, stale_tick, emissions, busy_seconds = message
                emissions = self._reply_emissions(stale_shard, stale_tick, emissions)
                if emissions is not None:
                    self.fold(stale_tick, stale_shard, emissions, busy_seconds)
                continue
            if message[0] != kind or message[1] != shard_id or message[2] != request_id:
                raise RuntimeError(
                    f"fleet watch worker {message[1]} sent unexpected {message[0]!r} "
                    f"during a drained {kind!r} handshake"
                )
            return message

    def _request(self, kind: str, reply_kind: str, shard_id: int, payload) -> tuple:
        """Run one drained-boundary handshake; return the worker's reply."""
        self._request_id += 1
        self._in_queues[shard_id].put((kind, self._request_id, payload))
        return self._await_reply(reply_kind, shard_id, self._request_id)

    def snapshot_shard(
        self, shard_id: int, customer_ids: list[str] | None = None
    ) -> list[CustomerStateRecord]:
        return self._request("snapshot", "snapshotted", shard_id, customer_ids)[3]

    def _do_extract(self, shard_id: int, customer_ids: list[str]) -> list:
        return self._request("extract", "extracted", shard_id, customer_ids)[3]

    def _do_install(self, shard_id: int, records: list) -> None:
        self._request("install", "installed", shard_id, records)

    def add_shard(self, shard_id: int) -> None:
        in_queue = self._context.Queue()
        worker = self._context.Process(
            target=_watch_worker_main,
            args=(shard_id, self.config, in_queue, self._out_queue),
            daemon=True,
            name=f"fleet-watch-{shard_id}",
        )
        self._in_queues[shard_id] = in_queue
        self._workers[shard_id] = worker
        worker.start()

    def _reap(self, worker) -> None:
        """Join with escalation: a worker may never block teardown.

        ``join(timeout)`` -> ``terminate()`` (SIGTERM) -> ``kill()``
        (SIGKILL), each stage bounded by :data:`_JOIN_TIMEOUT_S`.
        Escalations count as forced stops -- the warning counter a
        healthy watch keeps at zero.
        """
        worker.join(timeout=_JOIN_TIMEOUT_S)
        if not worker.is_alive():
            return
        self.n_forced_stops += 1
        worker.terminate()
        worker.join(timeout=_JOIN_TIMEOUT_S)
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=_JOIN_TIMEOUT_S)

    def retire_shard(self, shard_id: int) -> None:
        self._in_queues[shard_id].put(_STOP)
        while True:
            message = self._receive({shard_id})
            if message[0] == "error":
                raise _WorkerFailure([message[1]], "error", message[2])
            if message[0] == "stopped" and message[1] == shard_id:
                break
            raise RuntimeError(
                f"fleet watch worker {message[1]} sent unexpected "
                f"{message[0]!r} during retirement"
            )
        self._reap(self._workers.pop(shard_id))
        queue = self._in_queues.pop(shard_id)
        self._closed_queues.append(queue)

    def replace_shard(self, shard_id: int) -> None:
        worker = self._workers.pop(shard_id, None)
        if worker is not None and worker.is_alive():
            # Hung or fault-delayed, not dead: force it down.
            self.n_forced_stops += 1
            worker.terminate()
            worker.join(timeout=_JOIN_TIMEOUT_S)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=_JOIN_TIMEOUT_S)
        old_queue = self._in_queues.pop(shard_id, None)
        if old_queue is not None:
            # May still hold undelivered messages; park it for close()
            # rather than risking a feeder-thread deadlock here.
            self._closed_queues.append(old_queue)
        self.add_shard(shard_id)

    def replay_tick(
        self, shard_id: int, tick_id: int, batch: list
    ) -> tuple[list, float]:
        self._in_queues[shard_id].put(("tick", tick_id, self._plane.pack_tick(batch), None))
        deadline = self._tick_deadline()
        while True:
            message = self._receive(
                {shard_id}, deadline=deadline, deadline_shards=[shard_id]
            )
            kind = message[0]
            if kind == "error":
                raise _WorkerFailure([message[1]], "error", message[2])
            if kind != "tick":
                raise RuntimeError(
                    f"fleet watch worker {message[1]} sent unexpected "
                    f"{kind!r} during replay"
                )
            _, msg_shard, msg_tick, reply, busy_seconds = message
            emissions = self._reply_emissions(msg_shard, msg_tick, reply)
            if msg_shard == shard_id and msg_tick == tick_id:
                # The replay target (or the dead incarnation's reply
                # to it: assessment is deterministic, so either holds
                # the same emissions).  A tick that already drained
                # folds to nothing, so it needs no decode.
                return emissions or [], busy_seconds
            # In-flight result from a healthy peer (or a stale reply
            # from the dead incarnation): credit it and keep waiting.
            if emissions is not None:
                self.fold(msg_tick, msg_shard, emissions, busy_seconds)

    def finish(self) -> None:
        for shard_id in sorted(self._workers):
            self._in_queues[shard_id].put(_STOP)
        owing = set(self._workers)
        while owing:
            message = self._receive(owing)
            if message[0] == "error":
                raise _WorkerFailure([message[1]], "error", message[2])
            if message[0] == "stopped":
                owing.discard(message[1])

    def abort(self) -> None:
        # Abandoned or failed stream: tear the pool down hard; shard
        # state is not recoverable anyway.
        for worker in self._workers.values():
            worker.terminate()

    def close(self) -> None:
        for worker in self._workers.values():
            self._reap(worker)
        for queue in (*self._in_queues.values(), *self._closed_queues, self._out_queue):
            queue.close()
            queue.cancel_join_thread()


class _WatchSupervisor:
    """Self-healing controller for one watch's worker pool.

    Keeps, per shard, everything needed to rebuild a failed worker
    from scratch: a *baseline* (the durable store when a checkpoint
    config is attached, otherwise periodic in-parent state snapshots)
    plus an ordered *replay buffer* of every tick batch, install and
    extract dispatched since that baseline.  Recovery is then
    mechanical -- spawn a replacement, restore the baseline, replay
    the buffer -- and byte-identical to the uninterrupted run because
    snapshots and checkpoints only happen at fully drained tick
    boundaries, assessment is deterministic, and results are credited
    through :meth:`_WatchPool.fold`, which drops duplicates.

    Repeated failures of one shard back off exponentially
    (:meth:`~repro.fleet.config.SupervisionConfig.backoff_delay`);
    past ``max_restarts`` the shard is quarantined: its residents emit
    one error update each and further samples are dropped, while a
    fresh worker keeps serving customers first seen later.

    Known limitation: worker failure *during* a rebalance, readmission
    or resume handshake is not recoverable (a partial extract/install
    could lose or fork state) and aborts the watch; failures during
    ticks, checkpoints and recovery snapshots -- the overwhelming
    majority of a watch's wall-clock -- are healed.
    """

    def __init__(
        self,
        supervision: SupervisionConfig,
        coordinator: _WatchCoordinator,
        store: "FleetStore | None" = None,
    ) -> None:
        self.config = supervision
        self.coordinator = coordinator
        self.store = store
        self.faults = supervision.faults
        self.active = False
        self.quarantined_shards: set[int] = set()
        self.events: list[WorkerEvent] = []
        self.n_restarts = 0
        self.n_deadline_kills = 0
        self.n_replayed_ticks = 0
        self.max_recovery_ticks = 0
        self.ticks_since_snapshot = 0
        self._recording = True
        self._buffers: dict[int, list[tuple]] = {}
        self._snapshots: dict[int, list[CustomerStateRecord]] = {}
        self._restarts: dict[int, int] = {}
        self._quarantined_at: dict[int, int] = {}

    # -- recording -----------------------------------------------------
    def directives_for(
        self, tick_id: int, by_shard: dict[int, list]
    ) -> dict[int, tuple]:
        """Injected-fault orders for this tick (empty without a plan)."""
        plan = self.faults
        if plan is None or plan.is_noop():
            return {}
        directives: dict[int, tuple] = {}
        for shard_id in by_shard:
            if plan.kill_at(shard_id, tick_id):
                directives[shard_id] = ("kill",)
                continue
            delay = plan.delay_at(shard_id, tick_id)
            if delay > 0:
                directives[shard_id] = ("delay", delay)
                continue
            if plan.drop_at(shard_id, tick_id):
                directives[shard_id] = ("drop",)
        return directives

    def note_tick(self, tick_id: int, by_shard: dict[int, list]) -> None:
        if not self._recording:
            return
        for shard_id, batch in by_shard.items():
            self._buffers.setdefault(shard_id, []).append(("tick", tick_id, batch))

    def note_extract(self, shard_id: int, customer_ids: list[str]) -> None:
        if not self._recording:
            return
        self._buffers.setdefault(shard_id, []).append(("extract", list(customer_ids)))

    def note_install(self, shard_id: int, records: list) -> None:
        if not self._recording:
            return
        self._buffers.setdefault(shard_id, []).append(("install", list(records)))

    @contextmanager
    def suppress(self):
        """Stop recording while restoring/replaying (not new work)."""
        previous = self._recording
        self._recording = False
        try:
            yield
        finally:
            self._recording = previous

    def on_checkpoint(self) -> None:
        """A durable checkpoint landed: it is the new recovery baseline."""
        self._buffers.clear()
        self._snapshots.clear()
        self.ticks_since_snapshot = 0

    def snapshot_now(self, pool: _WatchPool) -> None:
        """Refresh the in-parent baseline (no-store mode, fully drained).

        Snapshot and buffer truncation advance *per shard* so a worker
        failure mid-pass leaves every shard self-consistent: either
        new snapshot + empty buffer, or old snapshot + full buffer --
        never a new snapshot with pre-snapshot ticks still buffered
        (which a recovery would double-apply).
        """
        for shard_id in sorted(self.coordinator.ring.shard_ids):
            self._snapshots[shard_id] = pool.snapshot_shard(shard_id)
            self._buffers.pop(shard_id, None)
        self.ticks_since_snapshot = 0

    # -- recovery ------------------------------------------------------
    def recover(
        self, pool: _WatchPool, coordinator: _WatchCoordinator, failure: _WorkerFailure
    ) -> None:
        """Heal every shard named by ``failure`` and any nested casualty."""
        queue: deque[int] = deque(failure.shard_ids)
        reason = failure.reason
        while queue:
            shard_id = queue.popleft()
            try:
                self._recover_one(pool, coordinator, shard_id, reason)
            except _WorkerFailure as nested:
                # The replacement (or a peer mid-replay) failed too:
                # re-queue everything implicated plus the interrupted
                # shard.  Terminates because each attempt consumes a
                # restart and max_restarts ends in quarantine.
                for casualty in nested.shard_ids:
                    if casualty not in queue:
                        queue.append(casualty)
                if shard_id not in queue:
                    queue.appendleft(shard_id)
                reason = nested.reason
        # Healthy shards' in-flight ticks must not be billed for the
        # recovery wall-clock (backoff + replay).
        pool.refresh_deadlines()

    def _recover_one(
        self,
        pool: _WatchPool,
        coordinator: _WatchCoordinator,
        shard_id: int,
        reason: str,
    ) -> None:
        n_restart = self._restarts.get(shard_id, 0) + 1
        self._restarts[shard_id] = n_restart
        if n_restart > self.config.max_restarts:
            self._quarantine_shard(pool, coordinator, shard_id, reason)
            return
        delay = self.config.backoff_delay(n_restart)
        if delay > 0:
            time.sleep(delay)
        replayed = 0
        with self.suppress():
            pool.replace_shard(shard_id)
            baseline = self._baseline_records(coordinator, shard_id)
            if baseline:
                pool.install(shard_id, baseline)
            for event in list(self._buffers.get(shard_id, ())):
                if event[0] == "install":
                    pool.install(shard_id, event[1])
                elif event[0] == "extract":
                    pool.extract(shard_id, event[1])
                else:  # ("tick", tick_id, batch)
                    _, tick_id, batch = event
                    emissions, busy_seconds = pool.replay_tick(shard_id, tick_id, batch)
                    pool.fold(tick_id, shard_id, emissions, busy_seconds)
                    replayed += 1
        self.n_restarts += 1
        if reason == "deadline":
            self.n_deadline_kills += 1
        self.n_replayed_ticks += replayed
        self.max_recovery_ticks = max(self.max_recovery_ticks, replayed)
        self._record_event(
            "worker_restart",
            coordinator.current_tick,
            shard_id,
            n_restart,
            reason,
            replayed,
        )

    def _baseline_records(
        self, coordinator: _WatchCoordinator, shard_id: int
    ) -> list[CustomerStateRecord]:
        """The failed shard's state as of its last baseline.

        Customers that a *buffered* install event will (re)deliver are
        skipped: replaying their install restores them at the correct
        position, and installing the baseline copy first would trip
        the live-state epoch guard when the replayed record arrives.
        """
        covered: set[str] = set()
        for event in self._buffers.get(shard_id, ()):
            if event[0] == "install":
                covered.update(record.customer_id for record in event[1])
        if self.store is None:
            return [
                record
                for record in self._snapshots.get(shard_id, ())
                if record.customer_id not in covered
            ]
        from ..store import StoreCorruptionError

        records: list[CustomerStateRecord] = []
        for customer_id in sorted(coordinator._members.get(shard_id, ())):
            if customer_id in covered:
                continue
            try:
                record = self.store.load_customer_state(customer_id)
            except StoreCorruptionError as exc:
                # One damaged blob costs one customer, not the shard:
                # quarantine it (event-logged) and restore the rest.
                # The marker record keeps the replay from resurrecting
                # it as a brand-new customer.
                coordinator.quarantine_corrupt(customer_id, str(exc))
                records.append(
                    CustomerStateRecord(customer_id, None, quarantined=True)
                )
                continue
            if record is not None:
                records.append(record)
        return records

    def _quarantine_shard(
        self,
        pool: _WatchPool,
        coordinator: _WatchCoordinator,
        shard_id: int,
        reason: str,
    ) -> None:
        """Retire a flapping shard from restarting; contain the blast.

        Every in-flight sample on the shard resolves to one error
        update per customer (at its first owed sequence position, so
        the merged stream stays ordered), every resident is
        customer-quarantined, and a fresh empty worker takes over for
        customers first seen later.
        """
        from .engine import FleetLiveUpdate

        n_restart = self._restarts.get(shard_id, 0)
        message = (
            f"shard {shard_id} quarantined after {self.config.max_restarts} "
            f"worker restarts ({reason})"
        )
        buffered_ticks = {
            event[1]: event[2]
            for event in self._buffers.get(shard_id, ())
            if event[0] == "tick"
        }
        already_errored: set[str] = set()
        for entry in pool._pending:
            if shard_id not in entry.owing:
                continue
            emissions: list = []
            for seq, sample in buffered_ticks.get(entry.tick_id, ()):
                if sample.customer_id in already_errored:
                    continue
                already_errored.add(sample.customer_id)
                emissions.append(
                    (
                        seq,
                        FleetLiveUpdate(
                            customer_id=sample.customer_id,
                            update=None,
                            error=message,
                        ),
                    )
                )
            pool.fold(entry.tick_id, shard_id, emissions, 0.0)
        for customer_id in sorted(coordinator._members.get(shard_id, set())):
            coordinator.mark_quarantined(customer_id)
        with self.suppress():
            pool.replace_shard(shard_id)
        self._buffers.pop(shard_id, None)
        self._snapshots.pop(shard_id, None)
        self.quarantined_shards.add(shard_id)
        self._quarantined_at[shard_id] = coordinator.current_tick
        self._record_event(
            "shard_quarantine", coordinator.current_tick, shard_id, n_restart, reason
        )

    def probation_sweep(self, tick_id: int) -> None:
        """Readmit cooled-down quarantined shards to supervision.

        With ``probation_ticks`` configured, a shard that survived its
        cool-down (its replacement worker has been serving newly seen
        customers without exhausting restarts again) gets its restart
        budget back: future failures restart it instead of being
        terminal.  Customers quarantined when the shard went down stay
        quarantined -- their update streams already carry the error
        emission, and resurrecting them would punch a hole in serial
        byte-identity.
        """
        window = self.config.probation_ticks
        if window is None or not self.quarantined_shards:
            return
        for shard_id in sorted(self.quarantined_shards):
            quarantined_at = self._quarantined_at.get(shard_id, 0)
            if tick_id - quarantined_at < window:
                continue
            self.quarantined_shards.discard(shard_id)
            self._quarantined_at.pop(shard_id, None)
            self._restarts[shard_id] = 0
            self._record_event(
                "shard_probation", tick_id, shard_id, 0, "cooldown elapsed"
            )

    def _record_event(
        self,
        kind: str,
        tick_id: int,
        shard_id: int,
        restarts: int,
        reason: str,
        replayed_ticks: int = 0,
    ) -> None:
        self.events.append(
            WorkerEvent(kind, tick_id, shard_id, restarts, reason, replayed_ticks)
        )
        if self.store is not None:
            self.store.append_event(
                kind,
                tick_id=tick_id,
                source_shard=shard_id,
                detail={
                    "reason": reason,
                    "restarts": restarts,
                    "replayed_ticks": replayed_ticks,
                },
            )

    def stats(self, pool: _WatchPool) -> WatchSupervisionStats:
        return WatchSupervisionStats(
            n_restarts=self.n_restarts,
            n_deadline_kills=self.n_deadline_kills,
            n_forced_stops=pool.n_forced_stops,
            n_replayed_ticks=self.n_replayed_ticks,
            n_corrupt_quarantined=self.coordinator.n_corrupt_quarantined,
            max_recovery_ticks=self.max_recovery_ticks,
            quarantined_shards=tuple(sorted(self.quarantined_shards)),
            events=tuple(self.events),
        )


class ExecutionBackend(ABC):
    """One execution substrate for fleet watches.

    Attributes:
        name: The selector this backend answers to.
        max_workers: Requested pool size (None = machine CPU count;
            always 1 for the serial backend).
    """

    name: str = "abstract"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers!r}")
        self.max_workers = max_workers
        self._rebalance_stats: WatchRebalanceStats | None = None
        self._supervision_stats: WatchSupervisionStats | None = None

    @property
    def n_workers(self) -> int:
        """Effective parallelism of this backend."""
        return self.max_workers or os.cpu_count() or 1

    @abstractmethod
    def _make_watch_pool(self, config: ShardAssessmentConfig) -> _WatchPool:
        """This backend's worker pool for one watch."""

    def watch(
        self,
        config: ShardAssessmentConfig,
        samples: "Iterable[FleetSample]",
        policy: RebalancePolicy | None = None,
        on_rebalance: Callable[[RebalanceEvent], None] | None = None,
        tick_samples: int | None = None,
        checkpoint: "CheckpointConfig | None" = None,
        resume_from: "FleetStore | None" = None,
        supervision: SupervisionConfig | None = None,
    ) -> "Iterator[FleetLiveUpdate]":
        """Stream live assessments over a fleet-wide feed, in feed order.

        With a ``policy`` attached the watch is elastic: at drained
        tick boundaries the policy may migrate customers between
        shards or resize the pool; ``on_rebalance`` observes each
        executed :class:`~repro.fleet.rebalance.RebalanceEvent`.  The
        emitted stream is byte-identical to the serial backend's
        either way.  ``tick_samples`` overrides the per-shard tick
        size (:data:`WATCH_TICK_PER_WORKER`, on the serial and the
        process pools alike).  A tick is the unit of refresh work --
        its due refreshes share one batched profile per deployment --
        and an update is emitted when its tick completes, so smaller
        ticks bound emission latency tighter and give rebalance
        policies finer decision boundaries, at more per-tick
        bookkeeping, more queue round-trips and smaller profile
        batches.  The stream is byte-identical at every tick size.

        With a ``checkpoint`` config the watch persists shard state to
        the config's store at its tick cadence; with ``resume_from``
        it rebuilds state from that store's latest checkpoint and
        skips the consumed feed prefix, emitting exactly what the
        uninterrupted run would have emitted from that point.  The
        caller must replay the *same* feed; the checkpoint records how
        much of it is already accounted for.

        ``supervision`` (default: :class:`SupervisionConfig`'s
        defaults -- supervision is always on) governs worker-failure
        recovery: a dead or deadline-hung process worker is replaced,
        restored and replayed instead of aborting the watch, and the
        emitted stream stays byte-identical to the unfailed run.
        """
        if tick_samples is not None and tick_samples <= 0:
            raise ValueError(f"tick_samples must be positive, got {tick_samples!r}")
        if supervision is None:
            supervision = SupervisionConfig()
        return self._watch_loop(
            config,
            samples,
            policy,
            on_rebalance,
            tick_samples,
            checkpoint,
            resume_from,
            supervision,
        )

    def _watch_loop(
        self,
        config: ShardAssessmentConfig,
        samples: "Iterable[FleetSample]",
        policy: RebalancePolicy | None,
        on_rebalance: Callable[[RebalanceEvent], None] | None,
        tick_samples: int | None = None,
        checkpoint: "CheckpointConfig | None" = None,
        resume_from: "FleetStore | None" = None,
        supervision: SupervisionConfig | None = None,
    ) -> "Iterator[FleetLiveUpdate]":
        # The pool spawns lazily, on first iteration: a watch generator
        # that is created but never consumed must not leave worker
        # processes parked on their queues.
        pool = self._make_watch_pool(config)
        if tick_samples is not None:
            pool.tick_per_shard = tick_samples
        coordinator = _WatchCoordinator(pool.n_shards, policy, on_rebalance, checkpoint)
        if supervision is None:
            supervision = SupervisionConfig()
        supervisor = _WatchSupervisor(
            supervision,
            coordinator,
            store=checkpoint.store if checkpoint is not None else None,
        )
        # Recording (replay buffers, baseline snapshots, deadlines)
        # only pays for itself where recovery is possible and wanted:
        # always on volatile (process) pools, and anywhere a fault
        # plan will injure workers on purpose.
        supervisor.active = pool.volatile or (
            supervision.faults is not None and not supervision.faults.is_noop()
        )
        pool.supervisor = supervisor
        snapshot_mode = supervisor.active and supervisor.store is None
        stream = iter(enumerate(samples))
        completed = False

        def drain_one() -> "list[FleetLiveUpdate]":
            while True:
                try:
                    emissions, busy = pool.drain_next()
                    break
                except _WorkerFailure as failure:
                    supervisor.recover(pool, coordinator, failure)
            coordinator.record_busy(busy)
            updates: "list[FleetLiveUpdate]" = []
            for _, update in emissions:
                if update.update is None:  # failure update: customer quarantined
                    coordinator.mark_quarantined(update.customer_id)
                coordinator.n_emitted += 1
                updates.append(update)
            return updates

        def checkpoint_with_recovery(at_tick: int, n_consumed: int) -> None:
            # Snapshot handshakes are read-only and idempotent, so a
            # worker death mid-checkpoint recovers and retries; a
            # second failure aborts (something is systemically wrong).
            try:
                coordinator.checkpoint_now(pool, at_tick, n_consumed)
            except _WorkerFailure as failure:
                supervisor.recover(pool, coordinator, failure)
                coordinator.checkpoint_now(pool, at_tick, n_consumed)

        try:
            n_consumed = 0
            if resume_from is not None:
                # Restore handshakes are not recoverable mid-flight (a
                # partial install forks state); suppress recording --
                # the store itself is the baseline for resumed state.
                with supervisor.suppress():
                    resume_point = coordinator.restore(pool, resume_from)
                if snapshot_mode:
                    # Resumed state continues without a durable
                    # baseline: seed the in-parent one immediately.
                    supervisor.snapshot_now(pool)
                # The checkpointed run already consumed (and emitted
                # for) this feed prefix; skip it.
                while n_consumed < resume_point.n_consumed:
                    if next(stream, None) is None:
                        break
                    n_consumed += 1
            tick_id = 0
            ticks_since_decision = 0
            ticks_since_checkpoint = 0
            while True:
                tick: list = []
                size = pool.tick_per_shard * coordinator.ring.n_shards
                for seq, sample in stream:
                    tick.append((seq, sample))
                    if len(tick) >= size:
                        break
                if not tick:
                    break
                n_consumed += len(tick)
                coordinator.current_tick = tick_id
                if coordinator.evicted:
                    returning = sorted(
                        {
                            sample.customer_id
                            for _, sample in tick
                            if sample.customer_id in coordinator.evicted
                        }
                    )
                    if returning:
                        while pool.pending():  # installs only run fully drained
                            yield from drain_one()
                        coordinator.readmit(pool, returning)
                by_shard: dict[int, list] = {}
                for seq, sample in tick:
                    if sample.customer_id in coordinator.quarantined:
                        continue  # the shard would skip it; don't ship the work
                    by_shard.setdefault(coordinator.route(sample.customer_id), []).append(
                        (seq, sample)
                    )
                try:
                    pool.submit(tick_id, by_shard)
                except _WorkerFailure as failure:
                    # The tick is already in the reorder buffer; the
                    # recovery replay credits it, so no resubmit.
                    supervisor.recover(pool, coordinator, failure)
                tick_id += 1
                if supervisor.active:
                    supervisor.probation_sweep(tick_id)
                if pool.pending() >= pool.max_inflight:
                    yield from drain_one()
                if policy is not None:
                    ticks_since_decision += 1
                    if ticks_since_decision >= policy.interval_ticks:
                        while pool.pending():  # decision points run fully drained
                            yield from drain_one()
                        coordinator.rebalance(pool, tick_id - 1)
                        ticks_since_decision = 0
                if checkpoint is not None:
                    ticks_since_checkpoint += 1
                    if ticks_since_checkpoint >= checkpoint.every_ticks:
                        while pool.pending():  # checkpoints run fully drained
                            yield from drain_one()
                        checkpoint_with_recovery(tick_id - 1, n_consumed)
                        ticks_since_checkpoint = 0
                if snapshot_mode:
                    supervisor.ticks_since_snapshot += 1
                    if supervisor.ticks_since_snapshot >= supervision.snapshot_every_ticks:
                        while pool.pending():  # snapshots run fully drained
                            yield from drain_one()
                        try:
                            supervisor.snapshot_now(pool)
                        except _WorkerFailure as failure:
                            supervisor.recover(pool, coordinator, failure)
                            supervisor.snapshot_now(pool)
            while pool.pending():
                yield from drain_one()
            if checkpoint is not None and ticks_since_checkpoint > 0:
                # End-of-feed checkpoint: a completed watch leaves the
                # store current, so a restart has nothing to replay.
                checkpoint_with_recovery(max(tick_id - 1, 0), n_consumed)
            pool.finish()
            completed = True
        finally:
            if not completed:
                pool.abort()
            self._rebalance_stats = coordinator.stats()
            self._supervision_stats = supervisor.stats(pool)
            pool.close()

    def watch_rebalance_stats(self) -> WatchRebalanceStats | None:
        """Rebalancing account of the last watch (None before any watch)."""
        return self._rebalance_stats

    def watch_supervision_stats(self) -> WatchSupervisionStats | None:
        """Self-healing account of the last watch (None before any watch).

        A healthy run reports all-zero counters; nonzero
        ``n_forced_stops`` means a worker had to be terminated to keep
        teardown from hanging.
        """
        return self._supervision_stats


class SerialBackend(ExecutionBackend):
    """Every shard in the parent process; the identity baseline."""

    name = "serial"

    @property
    def n_workers(self) -> int:
        return 1

    def _make_watch_pool(self, config: ShardAssessmentConfig) -> _WatchPool:
        return _InlinePool(config, self.n_workers)


class ProcessBackend(ExecutionBackend):
    """Persistent worker processes, one per shard.

    Each shard is a long-lived :mod:`multiprocessing` worker owning its
    customers' live state (see :class:`_ProcessShardPool`); ticks
    cross the worker queues as pickled sample lists and results as
    pickled columns (:class:`~repro.fleet.arena.TickPlane`).  Live
    state crosses process boundaries only at drained tick boundaries
    (migrations, checkpoints, supervisor restores), as plain pickled
    ``CustomerStateRecord`` lists over the worker queues.
    """

    name = "process"

    def _make_watch_pool(self, config: ShardAssessmentConfig) -> _WatchPool:
        return _ProcessShardPool(config, self.n_workers)


_BACKENDS: dict[str, type[ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def make_backend(name: str, max_workers: int | None = None) -> ExecutionBackend:
    """Construct the execution backend answering to ``name``.

    Raises:
        ValueError: For an unknown selector (message lists the valid
            ones) or a non-positive ``max_workers``.
    """
    backend_cls = _BACKENDS.get(name)
    if backend_cls is None:
        raise ValueError(
            f"unknown fleet backend {name!r}; choose one of "
            + ", ".join(repr(option) for option in BACKEND_NAMES)
        )
    return backend_cls(max_workers=max_workers)
