"""The asyncio recommendation service.

:class:`RecommendationService` is the online front door over the
library's two request classes, routed onto different execution
substrates behind one API (the Polynesia framing from PAPERS.md --
engines per access pattern):

* **observe** -- cheap, stateful telemetry ingestion.  Requests route
  sticky-by-customer-id over the fleet's consistent-hash
  :class:`~repro.fleet.sharding.ShardRing` to per-shard
  :class:`~repro.fleet.backends._WatchShard` state, each shard
  confined to its own single-thread executor (so a shard's state is
  only ever touched by one thread, without locks), with microbatching
  in front so queued samples run through one ``process`` call per
  flush.
* **recommend** -- expensive, stateless curve/SKU queries.  Requests
  microbatch into :meth:`~repro.fleet.engine.FleetEngine.recommend_batch`
  calls -- the columnar chunk kernel -- on a dedicated executor, and
  results are byte-identical to a direct ``recommend_fleet`` pass
  over the same customers (the serving identity gate).

Admission control is per lane (one lane per observe shard, one for
recommend): a bounded queue plus an SLO budget checked against the
lane's observed seconds-per-request -- the same busy-seconds signal
the elastic watch's rebalance policy reads.  A request that would
blow the budget is rejected *immediately* with a suggested
retry-after, which is what keeps p99 bounded under overload instead
of letting queues grow without bound.

With a :class:`~repro.store.FleetStore` attached the service is
durable: :meth:`RecommendationService.checkpoint` persists every
observe shard's state through the same
:class:`~repro.store.StatePersistence` surface the watch tier uses,
:meth:`RecommendationService.evict_cold` spills the least-recently
observed customers to the store (fleets larger than RAM), evicted
customers are transparently restored when they observe again, and
:meth:`RecommendationService.recommendation_for` serves cold
customers' recommendations straight from the store without waking
their state.

The service also degrades instead of failing.  When a shard's flush
raises -- its in-memory state can no longer be trusted -- the shard
enters *degraded mode*: observes for its customers buffer into a
bounded replay queue and answer immediately with a ``deferred`` error
update; recommends for its customers answer from the store's last
known recommendation marked ``stale`` with a suggested retry-after.
:meth:`RecommendationService.restore_shard` rebuilds the shard from
the store's snapshots (corrupt per-customer blobs quarantine that
customer rather than aborting the restore), replays the buffered
samples, and returns the shard to normal service.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from ..fleet.backends import _WatchShard
from ..fleet.engine import (
    FleetCustomer,
    FleetEngine,
    FleetLiveUpdate,
    FleetRecommendation,
    FleetSample,
)
from ..fleet.sharding import ShardRing
from .config import ServeConfig
from .metrics import LatencyRecorder
from .microbatch import MicroBatcher

if TYPE_CHECKING:  # typing only; the store import is lazy at run time
    from ..core.types import DopplerRecommendation
    from ..store import CheckpointRecord, FleetStore

__all__ = ["AdmissionError", "RecommendationService"]

#: Smoothing factor of the per-lane seconds-per-request EWMA; high
#: enough to track load shifts within tens of batches, low enough not
#: to chase single-batch noise.
_EWMA_ALPHA = 0.2


class AdmissionError(RuntimeError):
    """A request the service refused to queue.

    Attributes:
        lane: The saturated lane (``observe[<shard>]`` or
            ``recommend``).
        retry_after_s: Suggested back-off: the lane's estimated time
            to drain its current queue.
    """

    def __init__(self, lane: str, retry_after_s: float, reason: str) -> None:
        super().__init__(
            f"{lane} saturated ({reason}); retry in ~{retry_after_s:.3f}s"
        )
        self.lane = lane
        self.retry_after_s = retry_after_s


class _Lane:
    """One admission-controlled microbatch lane.

    Owns the bounded queue accounting and the seconds-per-request
    estimate its admission decisions are based on.  ``inflight``
    counts requests admitted but not yet answered (queued in the
    batcher, or inside a running flush).
    """

    def __init__(self, name: str, batcher: MicroBatcher, config: ServeConfig) -> None:
        self.name = name
        self.batcher = batcher
        self.queue_limit = config.queue_limit
        self.slo_s = config.slo_ms / 1000.0
        self.inflight = 0
        self.max_inflight = 0
        self.n_rejected = 0
        self.ewma_s_per_item = 0.0

    def admit(self) -> None:
        """Admit one request or raise :class:`AdmissionError`."""
        estimated_wait = (self.inflight + 1) * self.ewma_s_per_item
        if self.inflight + 1 > self.queue_limit:
            self.n_rejected += 1
            raise AdmissionError(
                self.name, max(estimated_wait, self.ewma_s_per_item), "queue full"
            )
        if estimated_wait > self.slo_s:
            self.n_rejected += 1
            raise AdmissionError(self.name, estimated_wait, "SLO budget exceeded")
        self.inflight += 1
        if self.inflight > self.max_inflight:
            self.max_inflight = self.inflight

    def release(self) -> None:
        self.inflight -= 1

    def observe_flush(self, busy_seconds: float, batch_size: int) -> None:
        """Fold one flush's busy time into the per-request estimate."""
        if batch_size <= 0:
            return
        per_item = busy_seconds / batch_size
        if self.ewma_s_per_item == 0.0:
            self.ewma_s_per_item = per_item
        else:
            self.ewma_s_per_item += _EWMA_ALPHA * (per_item - self.ewma_s_per_item)

    def summary(self) -> dict:
        return {
            "inflight": self.inflight,
            "max_inflight": self.max_inflight,
            "n_rejected": self.n_rejected,
            "ewma_ms_per_request": self.ewma_s_per_item * 1000.0,
            "batches": self.batcher.stats.summary(),
        }


class RecommendationService:
    """Async serving tier over one :class:`~repro.fleet.engine.FleetEngine`.

    Use as an async context manager (or call :meth:`start` /
    :meth:`stop`)::

        service = RecommendationService(fleet, ServeConfig(n_shards=4))
        async with service:
            update = await service.observe(sample)
            result = await service.recommend(customer)
            service.stats()

    All coroutine methods must be called from the event loop that ran
    :meth:`start`.  Blocking work (assessment, curve building) happens
    on executors, never on the loop.
    """

    def __init__(
        self,
        fleet: FleetEngine,
        config: ServeConfig | None = None,
        store: "FleetStore | None" = None,
    ) -> None:
        self.fleet = fleet
        self.config = config if config is not None else ServeConfig()
        if not isinstance(self.config, ServeConfig):
            raise ValueError(f"config must be a ServeConfig, got {self.config!r}")
        if store is not None:
            from ..store import FleetStore as _FleetStore

            if not isinstance(store, _FleetStore):
                raise ValueError(f"store must be a FleetStore, got {store!r}")
        self.store = store
        # Fail fast on bad assessment parameters, like watch_fleet does.
        self._shard_config = fleet._shard_config(self.config.watch, refreshes_only=False)
        self._ring = ShardRing(self.config.n_shards)
        self._started = False
        self._evicted: set[str] = set()
        self._observed_seq = 0
        self._last_observed: dict[str, int] = {}
        self._n_checkpoints = 0
        self._n_evictions = 0
        self._shards: list[_WatchShard] = []
        self._executors: list[ThreadPoolExecutor] = []
        self._observe_lanes: list[_Lane] = []
        # Degraded-mode bookkeeping: shard_id -> replay queue of
        # samples buffered while that shard awaits restore_shard().
        self._degraded: dict[int, deque[FleetSample]] = {}
        self._degraded_reason: dict[int, str] = {}
        self._n_deferred = 0
        self._n_stale_served = 0
        self._n_shard_restores = 0
        self._n_corrupt_quarantined = 0
        self._n_warm_restored = 0
        self._recommend_lane: _Lane | None = None
        self._recommend_executor: ThreadPoolExecutor | None = None
        self.observe_latency = LatencyRecorder()
        self.recommend_latency = LatencyRecorder()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build shards, executors and batch loops on the running loop.

        With a store attached that holds a checkpoint, start is a
        *warm restart*: every checkpointed customer's live state is
        restored into its ring-routed shard before the first request
        lands, so a restarted service answers exactly as the
        uninterrupted one would instead of re-warming every customer
        from scratch.  A customer whose stored blob fails to decode is
        quarantined (event-logged) rather than aborting startup.
        """
        if self._started:
            return
        config = self.config
        max_delay_s = config.max_delay_ms / 1000.0
        for shard_id in range(config.n_shards):
            shard = _WatchShard(self._shard_config)
            executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"serve-shard-{shard_id}"
            )
            batcher: MicroBatcher = MicroBatcher(
                self._make_observe_flush(shard_id), config.max_batch, max_delay_s
            )
            self._shards.append(shard)
            self._executors.append(executor)
            self._observe_lanes.append(_Lane(f"observe[{shard_id}]", batcher, config))
            batcher.start()
        self._recommend_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-recommend"
        )
        recommend_batcher: MicroBatcher = MicroBatcher(
            self._recommend_flush, config.max_batch, max_delay_s
        )
        self._recommend_lane = _Lane("recommend", recommend_batcher, config)
        recommend_batcher.start()
        self._warm_restore()
        self._started = True

    def _warm_restore(self) -> None:
        """Restore checkpointed observe-shard state from the store."""
        if self.store is None or self.store.latest_checkpoint() is None:
            return
        corrupt: list[tuple[int, str, str]] = []

        def on_corrupt(customer_id: str, exc: Exception) -> None:
            shard_id = self._ring.route(customer_id)
            self._shards[shard_id].quarantined.add(customer_id)
            corrupt.append((shard_id, customer_id, str(exc)))

        by_shard: dict[int, list] = {}
        for record in self.store.iter_customer_states(on_corrupt=on_corrupt):
            by_shard.setdefault(self._ring.route(record.customer_id), []).append(
                record
            )
        for shard_id, records in sorted(by_shard.items()):
            self._shards[shard_id].restore_records(records)
            self._n_warm_restored += sum(
                1 for record in records if not record.quarantined
            )
        for shard_id, customer_id, detail in corrupt:
            self._n_corrupt_quarantined += 1
            self.store.append_event(
                "quarantine",
                tick_id=self._n_checkpoints,
                customer_id=customer_id,
                source_shard=shard_id,
                detail={"reason": "corrupt_state", "error": detail},
            )

    async def stop(self) -> None:
        """Drain every lane, then tear down executors and shard state."""
        if not self._started:
            return
        for lane in self._observe_lanes:
            await lane.batcher.stop()
        if self._recommend_lane is not None:
            await self._recommend_lane.batcher.stop()
        for executor in self._executors:
            executor.shutdown(wait=True)
        if self._recommend_executor is not None:
            self._recommend_executor.shutdown(wait=True)
        self._shards.clear()
        self._executors.clear()
        self._observe_lanes.clear()
        self._degraded.clear()
        self._degraded_reason.clear()
        self._recommend_lane = None
        self._recommend_executor = None
        self._started = False

    async def __aenter__(self) -> "RecommendationService":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def observe(self, sample: FleetSample) -> FleetLiveUpdate:
        """Ingest one telemetry sample; answer with its live outcome.

        Routes to the owning shard, admits against the shard lane's
        queue bound and SLO budget, and microbatches into one
        ``_WatchShard.process`` call per flush.  Quarantined customers
        (a previous sample's assessment failed) answer with an error
        update rather than silence -- an online caller always gets a
        response.

        Raises:
            AdmissionError: When the shard lane is saturated.
        """
        self._require_started()
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._observed_seq += 1
        self._last_observed[sample.customer_id] = self._observed_seq
        shard_id = self._ring.route(sample.customer_id)
        if shard_id in self._degraded:
            update = self._defer_observe(shard_id, sample)
            self.observe_latency.record(loop.time() - started)
            return update
        lane = self._observe_lanes[shard_id]
        lane.admit()
        try:
            update = await lane.batcher.submit(sample)
        finally:
            lane.release()
        self.observe_latency.record(loop.time() - started)
        return update

    async def recommend(self, customer: FleetCustomer) -> FleetRecommendation:
        """Assess one customer; answer with its ``FleetRecommendation``.

        Microbatches into the columnar
        :meth:`~repro.fleet.engine.FleetEngine.recommend_batch` kernel;
        results are byte-identical to a direct ``recommend_fleet``
        pass.  Per-customer assessment failures come back as error
        results (the fleet containment contract), never exceptions.

        While the customer's observe shard is degraded, the freshest
        verdict may depend on state that is mid-restore; with a store
        attached the service answers from the last stored
        recommendation marked ``stale=True`` with a ``retry_after_s``
        hint instead of computing a possibly-inconsistent fresh one.

        Raises:
            AdmissionError: When the recommend lane is saturated, or
                the customer's shard is degraded and no stored
                recommendation exists to serve stale.
        """
        self._require_started()
        loop = asyncio.get_running_loop()
        started = loop.time()
        shard_id = self._ring.route(customer.customer_id)
        if shard_id in self._degraded:
            result = self._stale_recommend(shard_id, customer)
            self.recommend_latency.record(loop.time() - started)
            return result
        lane = self._recommend_lane
        assert lane is not None
        lane.admit()
        try:
            result = await lane.batcher.submit(customer)
        finally:
            lane.release()
        self.recommend_latency.record(loop.time() - started)
        return result

    def stats(self) -> dict:
        """Request-level metrics snapshot (the stats endpoint body)."""
        per_shard = []
        for shard_id, lane in enumerate(self._observe_lanes):
            shard = self._shards[shard_id]
            entry = {"shard_id": shard_id}
            entry.update(lane.summary())
            entry["n_customers"] = len(shard.recommenders)
            entry["n_quarantined"] = len(shard.quarantined)
            entry["degraded"] = shard_id in self._degraded
            per_shard.append(entry)
        recommend = (
            self._recommend_lane.summary() if self._recommend_lane is not None else {}
        )
        return {
            "running": self._started,
            "n_shards": self.config.n_shards,
            "durability": {
                "store_attached": self.store is not None,
                "n_checkpoints": self._n_checkpoints,
                "n_evictions": self._n_evictions,
                "n_evicted_resident": len(self._evicted),
                "n_warm_restored": self._n_warm_restored,
            },
            "degraded": {
                "shards": sorted(self._degraded),
                "reasons": {
                    str(shard_id): reason
                    for shard_id, reason in sorted(self._degraded_reason.items())
                },
                "replay_buffered": sum(len(q) for q in self._degraded.values()),
                "n_deferred": self._n_deferred,
                "n_stale_served": self._n_stale_served,
                "n_shard_restores": self._n_shard_restores,
                "n_corrupt_quarantined": self._n_corrupt_quarantined,
            },
            "observe": {
                "latency": self.observe_latency.summary(),
                "n_rejected": sum(lane.n_rejected for lane in self._observe_lanes),
                "queue_depth": sum(lane.inflight for lane in self._observe_lanes),
                "shards": per_shard,
            },
            "recommend": {
                "latency": self.recommend_latency.summary(),
                "n_rejected": recommend.get("n_rejected", 0),
                "queue_depth": recommend.get("inflight", 0),
                "lane": recommend,
            },
        }

    # ------------------------------------------------------------------
    # Flush bodies
    # ------------------------------------------------------------------
    def _make_observe_flush(self, shard_id: int):
        async def flush(samples: list[FleetSample]) -> list[FleetLiveUpdate]:
            from ..store import StoreCorruptionError

            loop = asyncio.get_running_loop()
            shard = self._shards[shard_id]
            batch = list(enumerate(samples))
            returning = (
                sorted(
                    {s.customer_id for s in samples if s.customer_id in self._evicted}
                )
                if self._evicted and self.store is not None
                else []
            )
            corrupt: list[tuple[str, str]] = []

            def run() -> tuple:
                # Cold customers observing again: restore their stored
                # state before the batch runs, on the shard's own
                # executor thread so state stays thread-confined.  A
                # corrupt blob quarantines that one customer instead of
                # failing the whole flush.
                if returning:
                    assert self.store is not None
                    records = []
                    for customer_id in returning:
                        try:
                            record = self.store.load_customer_state(customer_id)
                        except StoreCorruptionError as exc:
                            corrupt.append((customer_id, str(exc)))
                            shard.quarantined.add(customer_id)
                            continue
                        if record is not None:
                            records.append(record)
                    shard.restore_records(records)
                return shard.process(batch)

            try:
                emissions, busy_seconds = await loop.run_in_executor(
                    self._executors[shard_id], run
                )
            except Exception as exc:
                # The shard's in-memory state can no longer be trusted:
                # degrade it and answer every admitted sample with a
                # deferred update instead of failing the whole lane.
                return self._fail_shard(shard_id, samples, exc)
            if returning:
                self._evicted.difference_update(returning)
            if corrupt:
                self._note_corrupt(shard_id, corrupt)
            self._observe_lanes[shard_id].observe_flush(busy_seconds, len(batch))
            # refreshes_only is forced off, so every non-quarantined
            # sample emits; the missing sequence numbers are exactly
            # the quarantined customers' samples.
            by_seq = dict(emissions)
            return [
                by_seq.get(
                    seq,
                    FleetLiveUpdate(
                        customer_id=sample.customer_id,
                        update=None,
                        error="customer is quarantined",
                    ),
                )
                for seq, sample in batch
            ]

        return flush

    # ------------------------------------------------------------------
    # Degraded mode and self-healing
    # ------------------------------------------------------------------
    def _fail_shard(
        self, shard_id: int, samples: list[FleetSample], exc: Exception
    ) -> list[FleetLiveUpdate]:
        """Degrade a shard whose flush raised; answer its admitted batch."""
        reason = f"{type(exc).__name__}: {exc}"
        if shard_id not in self._degraded:
            self._degraded[shard_id] = deque()
            self._degraded_reason[shard_id] = reason
        buffer = self._degraded[shard_id]
        updates = []
        for sample in samples:
            if len(buffer) < self.config.replay_limit:
                buffer.append(sample)
                self._n_deferred += 1
                updates.append(self._deferred_update(shard_id, sample))
            else:
                updates.append(
                    FleetLiveUpdate(
                        customer_id=sample.customer_id,
                        update=None,
                        error=(
                            f"shard {shard_id} is restarting and its replay "
                            "buffer is full; sample dropped"
                        ),
                    )
                )
        return updates

    def _deferred_update(self, shard_id: int, sample: FleetSample) -> FleetLiveUpdate:
        return FleetLiveUpdate(
            customer_id=sample.customer_id,
            update=None,
            error=f"shard {shard_id} is restarting; sample buffered for replay",
            deferred=True,
        )

    def _defer_observe(self, shard_id: int, sample: FleetSample) -> FleetLiveUpdate:
        """Buffer one observe against a degraded shard, or shed it."""
        buffer = self._degraded[shard_id]
        if len(buffer) >= self.config.replay_limit:
            lane = self._observe_lanes[shard_id]
            lane.n_rejected += 1
            raise AdmissionError(
                lane.name,
                self._restore_eta(shard_id),
                "shard degraded and replay buffer full",
            )
        buffer.append(sample)
        self._n_deferred += 1
        return self._deferred_update(shard_id, sample)

    def _stale_recommend(
        self, shard_id: int, customer: FleetCustomer
    ) -> FleetRecommendation:
        """Answer a recommend for a degraded shard from the store."""
        from ..store import StoreCorruptionError

        stored = None
        if self.store is not None:
            try:
                record = self.store.load_customer_state(customer.customer_id)
            except StoreCorruptionError:
                record = None
            if record is not None and record.state is not None:
                stored = record.state.recommendation
        retry_after = self._restore_eta(shard_id)
        if stored is None:
            raise AdmissionError(
                f"recommend[{shard_id}]",
                retry_after,
                "shard degraded and no stored recommendation to serve stale",
            )
        self._n_stale_served += 1
        return FleetRecommendation(
            customer_id=customer.customer_id,
            recommendation=stored,
            stale=True,
            retry_after_s=retry_after,
        )

    def _restore_eta(self, shard_id: int) -> float:
        """Suggested retry-after while a shard restores: its replay debt."""
        lane = self._observe_lanes[shard_id]
        buffered = len(self._degraded.get(shard_id, ()))
        return max(0.05, (buffered + 1) * max(lane.ewma_s_per_item, 0.001))

    def _note_corrupt(self, shard_id: int, corrupt: list[tuple[str, str]]) -> None:
        """Record corrupt-blob quarantines (event log + counters)."""
        self._n_corrupt_quarantined += len(corrupt)
        self._evicted.difference_update(cid for cid, _ in corrupt)
        if self.store is None:
            return
        for customer_id, detail in corrupt:
            self.store.append_event(
                "quarantine",
                tick_id=self._n_checkpoints,
                customer_id=customer_id,
                source_shard=shard_id,
                detail={"reason": "corrupt_state", "error": detail},
            )

    async def restore_shard(self, shard_id: int) -> int:
        """Heal a degraded shard; returns the number of replayed samples.

        Rebuilds the shard from scratch, restores its customers'
        snapshots from the attached store (per-customer corruption
        quarantines that customer instead of aborting the restore;
        without a store, customers restart their warm-up from the
        replayed samples alone), replays the buffered observes in
        arrival order, and returns the shard to normal service.
        """
        self._require_started()
        if shard_id not in self._degraded:
            raise ValueError(f"shard {shard_id} is not degraded")
        from ..store import StoreCorruptionError

        loop = asyncio.get_running_loop()
        executor = self._executors[shard_id]
        old = self._shards[shard_id]
        fresh = _WatchShard(self._shard_config)
        fresh.quarantined.update(old.quarantined)
        members = sorted(old.recommenders)
        corrupt: list[tuple[str, str]] = []

        def rebuild() -> None:
            if self.store is None:
                return
            records = []
            for customer_id in members:
                try:
                    record = self.store.load_customer_state(customer_id)
                except StoreCorruptionError as exc:
                    corrupt.append((customer_id, str(exc)))
                    fresh.quarantined.add(customer_id)
                    continue
                if record is not None:
                    records.append(record)
            fresh.restore_records(records)

        await loop.run_in_executor(executor, rebuild)
        if corrupt:
            self._note_corrupt(shard_id, corrupt)
        # Replay in rounds: each round drains the buffer on the loop
        # thread, then processes off-loop; observes arriving during a
        # round land in the buffer and are picked up by the next one.
        replayed = 0
        while True:
            buffer = self._degraded[shard_id]
            if not buffer:
                # No await between this check and the hand-back below,
                # so no observe can slip into the buffer we are about
                # to discard.
                break
            batch: list[FleetSample] = []
            while buffer:
                batch.append(buffer.popleft())
            await loop.run_in_executor(
                executor, fresh.process, list(enumerate(batch))
            )
            replayed += len(batch)
        self._shards[shard_id] = fresh
        del self._degraded[shard_id]
        self._degraded_reason.pop(shard_id, None)
        self._n_shard_restores += 1
        return replayed

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    async def checkpoint(self) -> "CheckpointRecord":
        """Persist every observe shard's state to the attached store.

        Each shard snapshots on its own executor thread (the only
        thread that ever touches its state), so a checkpoint never
        races an in-flight flush; ``snapshot_records`` is
        non-destructive, so serving continues unchanged.  One store
        transaction covers all shards.
        """
        self._require_started()
        store = self._require_store()
        loop = asyncio.get_running_loop()
        # Degraded shards are excluded: their in-memory state is the
        # very thing that failed, and checkpointing it would poison the
        # snapshots restore_shard rebuilds from.
        shard_records = await asyncio.gather(
            *(
                loop.run_in_executor(executor, shard.snapshot_records)
                for shard_id, (shard, executor) in enumerate(
                    zip(self._shards, self._executors)
                )
                if shard_id not in self._degraded
            )
        )
        records = [record for batch in shard_records for record in batch]
        self._n_checkpoints += 1
        return store.checkpoint(
            tick_id=self._n_checkpoints,
            n_consumed=self._observed_seq,
            n_emitted=self._observed_seq,
            n_shards=self.config.n_shards,
            overrides=self._ring.overrides,
            records=records,
        )

    async def evict_cold(self, max_resident: int) -> int:
        """Evict the least-recently-observed customers beyond the cap.

        State moves to the store (with an ``eviction`` audit event per
        customer) and the customers' next observe restores it
        transparently; meanwhile :meth:`recommendation_for` still
        answers for them from the store.  Returns the number evicted.
        """
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident!r}")
        self._require_started()
        store = self._require_store()
        loop = asyncio.get_running_loop()
        listings = await asyncio.gather(
            *(
                loop.run_in_executor(executor, lambda s=shard: sorted(s.recommenders))
                for shard, executor in zip(self._shards, self._executors)
            )
        )
        resident = [
            (self._last_observed.get(customer_id, 0), customer_id, shard_id)
            for shard_id, customer_ids in enumerate(listings)
            for customer_id in customer_ids
        ]
        excess = len(resident) - max_resident
        if excess <= 0:
            return 0
        victims = sorted(resident)[:excess]
        by_shard: dict[int, list[str]] = {}
        for _, customer_id, shard_id in victims:
            by_shard.setdefault(shard_id, []).append(customer_id)
        for shard_id in sorted(by_shard):
            customer_ids = sorted(by_shard[shard_id])
            shard = self._shards[shard_id]
            records = await loop.run_in_executor(
                self._executors[shard_id], shard.extract, customer_ids
            )
            store.save_customer_states(records, tick_id=self._n_checkpoints)
            for customer_id in customer_ids:
                store.append_event(
                    "eviction",
                    tick_id=self._n_checkpoints,
                    customer_id=customer_id,
                    source_shard=shard_id,
                )
            self._evicted.update(customer_ids)
        self._n_evictions += excess
        return excess

    def recommendation_for(self, customer_id: str) -> "DopplerRecommendation | None":
        """The customer's current recommendation, hot or cold.

        Resident customers answer from their live state; evicted (or
        otherwise store-only) customers answer from their stored
        snapshot without rehydrating it.  None when the customer is
        unknown everywhere or has not warmed up yet.
        """
        for shard in self._shards:
            live = shard.recommenders.get(customer_id)
            if live is not None:
                return live.recommendation
        if self.store is not None:
            record = self.store.load_customer_state(customer_id)
            if record is not None and record.state is not None:
                return record.state.recommendation
        return None

    def _require_store(self) -> "FleetStore":
        if self.store is None:
            raise RuntimeError(
                "RecommendationService has no FleetStore attached; pass "
                "store=FleetStore(...) at construction"
            )
        return self.store

    async def _recommend_flush(self, customers: list[FleetCustomer]) -> list:
        loop = asyncio.get_running_loop()
        lane = self._recommend_lane
        assert lane is not None
        started = loop.time()
        results = await loop.run_in_executor(
            self._recommend_executor, self.fleet.recommend_batch, customers
        )
        lane.observe_flush(loop.time() - started, len(customers))
        return results

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError(
                "RecommendationService is not running; use 'async with service:' "
                "or call start() from the event loop first"
            )
