"""SLO-aware request microbatching.

The serving tier's throughput lever: individual awaiting requests
coalesce into bounded batches that run through the engine's columnar
chunk kernels (:meth:`~repro.fleet.engine.FleetEngine.recommend_batch`,
:meth:`_WatchShard.process <repro.fleet.backends._WatchShard.process>`),
amortizing cache probes and violation-kernel passes exactly the way
the offline fleet pass does.

A batch flushes on whichever trigger fires first:

* **size** -- ``max_batch`` requests are waiting (throughput bound);
* **deadline** -- ``max_delay`` elapsed since the oldest waiting
  request arrived (latency bound: no request waits longer than the
  coalescing budget before its batch is dispatched).

Flushes are strictly sequential per batcher, so a batcher in front of
stateful per-shard assessment preserves arrival order -- the property
the serve tier's byte-identity contract rests on.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Generic, TypeVar

from .metrics import BatchStats

__all__ = ["MicroBatcher"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class MicroBatcher(Generic[ItemT, ResultT]):
    """Coalesce awaited submissions into bounded, ordered batches.

    Args:
        flush: Async batch body; receives the items of one batch in
            submission order and returns one result per item, aligned.
            An exception from ``flush`` fails every request in that
            batch (and only that batch).
        max_batch: Flush as soon as this many items wait.
        max_delay: Seconds the oldest waiting item may wait before a
            partial batch is forced out.
    """

    def __init__(
        self,
        flush: Callable[[list[ItemT]], Awaitable[list[ResultT]]],
        max_batch: int,
        max_delay: float,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay!r}")
        self._flush = flush
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.stats = BatchStats()
        self._pending: list[tuple[ItemT, asyncio.Future]] = []
        self._wakeup = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False

    @property
    def depth(self) -> int:
        """Items waiting for a batch (not yet dispatched)."""
        return len(self._pending)

    def start(self) -> None:
        if self._task is None:
            self._closed = False
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain remaining items, then stop the flush loop."""
        if self._task is None:
            return
        self._closed = True
        self._wakeup.set()
        await self._task
        self._task = None

    async def submit(self, item: ItemT) -> ResultT:
        """Queue one item and await its batch's result for it."""
        if self._closed or self._task is None:
            raise RuntimeError("MicroBatcher is not running")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append((item, future))
        self._wakeup.set()
        return await future

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._pending:
                if self._closed:
                    return
                continue
            # The coalescing window opens when the loop first sees a
            # non-empty queue; the oldest item never waits past it.
            deadline = loop.time() + self.max_delay
            while len(self._pending) < self.max_batch and not self._closed:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
                self._wakeup.clear()
            reason = "size" if len(self._pending) >= self.max_batch else "deadline"
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            self.stats.record(len(batch), reason)
            await self._dispatch(batch)
            if self._pending or self._closed:
                self._wakeup.set()

    async def _dispatch(self, batch: list[tuple[ItemT, asyncio.Future]]) -> None:
        items = [item for item, _ in batch]
        try:
            results = await self._flush(items)
        except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        if len(results) != len(items):
            error = RuntimeError(
                f"flush returned {len(results)} results for {len(items)} items"
            )
            for _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
