"""Request-level metrics for the serving tier.

Percentile tracking rides the repo's own
:class:`~repro.ml.sketch.MergingQuantileSketch` (whole-stream mode)
instead of keeping every latency sample: a serving process answering
millions of requests must account for its tail in O(compressed
blocks) memory, and the sketch's rank error is far below the
run-to-run noise of any latency measurement.

Everything here is synchronous and lock-free on purpose: recorders
are only touched from the event-loop thread, so plain attributes are
safe and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ml.sketch import MergingQuantileSketch

__all__ = ["BatchStats", "LatencyRecorder"]

#: The percentiles every latency summary reports, as (label, q) pairs.
REPORTED_PERCENTILES: tuple[tuple[str, float], ...] = (
    ("p50_ms", 0.50),
    ("p95_ms", 0.95),
    ("p99_ms", 0.99),
)


class LatencyRecorder:
    """Streaming latency percentiles, recorded in seconds, read in ms."""

    def __init__(self) -> None:
        self._sketch = MergingQuantileSketch(window=None)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        self._sketch.update(seconds * 1000.0)
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def quantile_ms(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        return float(self._sketch.quantile(q))

    def summary(self) -> dict:
        """The stats-endpoint projection: counts, mean and tail."""
        mean_ms = (self.total_seconds / self.count * 1000.0) if self.count else 0.0
        out = {"count": self.count, "mean_ms": mean_ms, "max_ms": self.max_seconds * 1000.0}
        for label, q in REPORTED_PERCENTILES:
            out[label] = self.quantile_ms(q)
        return out


@dataclass
class BatchStats:
    """Flush accounting for one microbatcher.

    ``n_size_flushes`` counts full batches (``max_batch`` items: a
    backlog was waiting) and ``n_deadline_flushes`` partial ones (the
    batcher took everything queued).  No deadline forces a batch out
    any more; the partial count keeps its old name because the
    end-to-end benchmark reads it under that name.
    """

    n_flushes: int = 0
    n_items: int = 0
    n_size_flushes: int = 0
    n_deadline_flushes: int = 0
    max_batch: int = 0

    def record(self, batch_size: int, full: bool) -> None:
        self.n_flushes += 1
        self.n_items += batch_size
        if full:
            self.n_size_flushes += 1
        else:
            self.n_deadline_flushes += 1
        if batch_size > self.max_batch:
            self.max_batch = batch_size

    @property
    def mean_batch(self) -> float:
        return self.n_items / self.n_flushes if self.n_flushes else 0.0

    def summary(self) -> dict:
        return {
            "n_flushes": self.n_flushes,
            "n_items": self.n_items,
            "n_size_flushes": self.n_size_flushes,
            "n_deadline_flushes": self.n_deadline_flushes,
            "mean_batch": self.mean_batch,
            "max_batch": self.max_batch,
        }
