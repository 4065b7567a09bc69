"""A merging quantile sketch for latency percentiles.

The serving tier reports p50/p95/p99 latencies over every request it
answered (:class:`~repro.serve.metrics.LatencyRecorder`); keeping every
sample would make its memory grow with the request count.  This module
provides a KLL/t-digest-style *merging* quantile sketch over the whole
stream, whose per-sample ingestion cost is O(1) amortized and whose
memory grows with the compressed blocks only.

Design (block-merging sketch):

* Incoming samples insert into a sorted raw buffer of fixed
  ``block_size``.
* A full buffer is *compressed*: reduced to ``compression``
  evenly-spaced order statistics that carry the ranks of the raw
  values they stand in for.
* Rank/CDF/quantile queries merge the compressed blocks (one bisect
  per block) with an exact bisect of the raw buffer.

Error bound: a compressed block of ``S`` values kept at ``k`` order
statistics (both extremes included) estimates any rank within the
block to ``ceil((S - 1) / (k - 1))`` positions.  Summed over blocks,
every CDF/rank query is exact to a fraction

    |cdf_sketch(t) - cdf_exact(t)| <= 1 / (compression - 1)

of the samples (the partial raw buffer contributes no error), and
:meth:`MergingQuantileSketch.quantile` is correct to the same rank
tolerance.  The property suite pins this bound on random streams.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_COMPRESSION",
    "MergingQuantileSketch",
]

#: Raw samples absorbed before a block is compressed.
DEFAULT_BLOCK_SIZE = 256

#: Order statistics kept per compressed block; rank error is
#: ``1 / (compression - 1)`` of the samples.
DEFAULT_COMPRESSION = 64


class _CompressedBlock:
    """``compression`` order statistics standing in for a full block.

    Kept values and cumulative ranks are plain Python lists: queries
    are ``bisect`` calls, whose per-call overhead on these tiny arrays
    is an order of magnitude below ``np.searchsorted``'s.
    """

    __slots__ = ("values", "counts", "n")

    def __init__(self, ordered: list[float], compression: int) -> None:
        n = len(ordered)
        keep = np.unique(
            np.round(np.linspace(0, n - 1, num=min(compression, n))).astype(int)
        )
        self.values = [ordered[index] for index in keep.tolist()]
        # counts[j] = number of raw values with rank <= keep[j]; the
        # cumulative weight a <=-rank query reads off directly.
        self.counts = (keep + 1).tolist()
        self.n = n

    def count_below(self, threshold: float, strict: bool) -> int:
        """Estimated number of block values ``< threshold`` (or ``<=``).

        Never overestimates: it reports the cumulative rank of the
        largest kept value below the threshold, so the true count
        exceeds the estimate by at most the gap between kept ranks.
        """
        bisector = bisect_left if strict else bisect_right
        position = bisector(self.values, threshold)
        if position == 0:
            return 0
        return self.counts[position - 1]


class MergingQuantileSketch:
    """Block-merging quantile sketch over a whole stream.

    Typical use::

        sketch = MergingQuantileSketch()
        for value in stream:
            sketch.update(value)
        p99 = sketch.quantile(0.99)

    Attributes:
        block_size: Raw samples per compression cycle.
        compression: Order statistics kept per compressed block.
    """

    def __init__(
        self,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: int = DEFAULT_COMPRESSION,
    ) -> None:
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size!r}")
        if compression < 2:
            raise ValueError(f"compression must be >= 2, got {compression!r}")
        self.block_size = int(block_size)
        self.compression = int(compression)
        self._blocks: list[_CompressedBlock] = []
        # Current raw block, kept sorted by insort: ingestion is an
        # O(block) C-level shift, queries a bisect.  Arrival order
        # within a block is irrelevant -- compression sorts anyway.
        self._buffer: list[float] = []
        self._compressed_n = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Absorb one sample; O(block_size) worst, cheap C shifts.

        Raises:
            ValueError: If the sample is not finite (NaN compares
                all-False under bisect and would silently park at the
                top rank, skewing every later query).
        """
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample: {value!r}")
        insort(self._buffer, value)
        if len(self._buffer) == self.block_size:
            self._compress()

    def extend(self, values) -> None:
        """Absorb a batch of samples in stream order."""
        for value in np.asarray(values, dtype=float).ravel():
            self.update(float(value))

    def _compress(self) -> None:
        block = _CompressedBlock(self._buffer, self.compression)
        self._blocks.append(block)
        self._compressed_n += block.n
        self._buffer = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Samples absorbed (compressed blocks + raw buffer)."""
        return self._compressed_n + len(self._buffer)

    def count_below(self, threshold: float, strict: bool = True) -> int:
        """Estimated samples ``< threshold`` (``<=`` if not strict).

        Raw-buffer samples are counted exactly; compressed blocks to
        the documented rank tolerance (never overestimating).
        """
        bisector = bisect_left if strict else bisect_right
        count = bisector(self._buffer, threshold)
        for block in self._blocks:
            count += block.count_below(threshold, strict)
        return count

    def cdf(self, threshold: float) -> float:
        """Estimated fraction of samples ``<= threshold``."""
        if self.n == 0:
            raise ValueError("no samples ingested yet")
        return self.count_below(threshold, strict=False) / self.n

    def fraction_at_least(self, threshold: float) -> float:
        """Estimated fraction of samples ``>= threshold``.

        Built on the strict lower count, so compression error can only
        *raise* the estimate.
        """
        if self.n == 0:
            raise ValueError("no samples ingested yet")
        return 1.0 - self.count_below(threshold, strict=True) / self.n

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` of the samples.

        Merges every block's kept points with the raw buffer and reads
        the value whose estimated rank covers ``q * n``; exact to the
        documented rank tolerance.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.n == 0:
            raise ValueError("no samples ingested yet")
        parts = [
            (
                np.asarray(block.values),
                np.diff(block.counts, prepend=0).astype(float),
            )
            for block in self._blocks
        ]
        if self._buffer:
            raw = np.asarray(self._buffer)
            parts.append((raw, np.ones(raw.size)))
        values = np.concatenate([values for values, _ in parts])
        weights = np.concatenate([weights for _, weights in parts])
        order = np.argsort(values, kind="stable")
        cumulative = np.cumsum(weights[order])
        target = q * self.n
        position = int(np.searchsorted(cumulative, target, side="left"))
        position = min(position, len(values) - 1)
        return float(values[order][position])
