"""Sliding-window quantile sketches for streaming profiling.

The batch negotiability summarizers re-scan the whole assessment
window on every refresh; under continuous telemetry that turns a
linear stream into a quadratic bill (the same failure mode the
incremental throttling estimator fixes for equation (1)).  This
module provides the missing distributional piece: a KLL/t-digest-style
*merging* quantile sketch whose per-sample ingestion cost is O(1)
amortized and independent of the window length.

Design (block-merging sketch):

* Incoming samples insert into a sorted raw buffer of fixed
  ``block_size``.
* A full buffer is *compressed*: reduced to ``compression``
  evenly-spaced order statistics that carry the ranks of the raw
  values they stand in for.
* Rank/CDF/quantile queries merge the compressed blocks (one bisect
  per block) with an exact bisect of the raw buffer.
* Sliding windows evict whole expired blocks; coverage therefore
  trails the nominal window by at most one block (``n`` reports the
  exact number of covered samples).

Error bound: a compressed block of ``S`` values kept at ``k`` order
statistics (both extremes included) estimates any rank within the
block to ``ceil((S - 1) / (k - 1))`` positions.  Summed over blocks,
every CDF/rank query is exact to a fraction

    |cdf_sketch(t) - cdf_exact(t)| <= 1 / (compression - 1)

of the covered samples (the partial raw buffer contributes no error),
and :meth:`MergingQuantileSketch.quantile` is correct to the same rank
tolerance.  The property suite pins this bound on random streams.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque

import numpy as np

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_COMPRESSION",
    "MergingQuantileSketch",
]

#: Raw samples absorbed before a block is compressed.  Fixed (not a
#: function of the window) so ingestion cost is O(1) in window length.
DEFAULT_BLOCK_SIZE = 256

#: Order statistics kept per compressed block; rank error is
#: ``1 / (compression - 1)`` of the covered window.
DEFAULT_COMPRESSION = 64


class _CompressedBlock:
    """``compression`` order statistics standing in for a full block.

    Kept values and cumulative ranks are plain Python lists: queries
    are ``bisect`` calls, whose per-call overhead on these tiny arrays
    is an order of magnitude below ``np.searchsorted``'s -- and the
    query path runs once per sample in the live loop.
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

    @classmethod
    def _rebuild(cls, values: list[float], counts: list[int], n: int) -> "_CompressedBlock":
        """Reassemble a block from already-compressed state.

        Bypasses ``__init__`` -- running the constructor would
        re-compress the kept order statistics and change every later
        rank estimate, breaking byte-identity of restored sketches.
        """
        block = cls.__new__(cls)
        block.values = values
        block.counts = counts
        block.n = n
        return block


class MergingQuantileSketch:
    """Block-merging sliding-window quantile sketch.

    Typical use::

        sketch = MergingQuantileSketch(window=1008)
        for value in stream:
            sketch.update(value)
        fraction = sketch.fraction_at_least(threshold)   # O(1) in window

    Attributes:
        window: Nominal sliding window in samples; ``None`` covers the
            whole stream.  Whole blocks expire at once, so coverage
            (:attr:`n`) always spans the newest samples and satisfies
            ``window <= n <= window + block_size - 1`` once the stream
            is long enough.
        block_size: Raw samples per compression cycle.
        compression: Order statistics kept per compressed block.
    """

    def __init__(
        self,
        window: int | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        compression: int = DEFAULT_COMPRESSION,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 sample, got {window!r}")
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size!r}")
        if compression < 2:
            raise ValueError(f"compression must be >= 2, got {compression!r}")
        self.window = window
        self.block_size = int(block_size)
        self.compression = int(compression)
        self._blocks: deque[_CompressedBlock] = deque()
        # Current raw block, kept sorted by insort: ingestion is an
        # O(block) C-level shift, queries a bisect.  Arrival order
        # within a block is irrelevant -- compression sorts anyway and
        # eviction drops whole blocks.
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
        self._evict()

    def extend(self, values) -> None:
        """Absorb a batch of samples in stream order."""
        for value in np.asarray(values, dtype=float).ravel():
            self.update(float(value))

    def _compress(self) -> None:
        block = _CompressedBlock(self._buffer, self.compression)
        self._blocks.append(block)
        self._compressed_n += block.n
        self._buffer = []

    def _evict(self) -> None:
        """Drop whole expired blocks while coverage stays >= window."""
        if self.window is None:
            return
        while self._blocks and self.n - self._blocks[0].n >= self.window:
            expired = self._blocks.popleft()
            self._compressed_n -= expired.n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Samples currently covered (compressed blocks + raw buffer)."""
        return self._compressed_n + len(self._buffer)

    def count_below(self, threshold: float, strict: bool = True) -> int:
        """Estimated covered samples ``< threshold`` (``<=`` if not strict).

        Raw-buffer samples are counted exactly; compressed blocks to
        the documented rank tolerance (never overestimating).
        """
        bisector = bisect_left if strict else bisect_right
        count = bisector(self._buffer, threshold)
        for block in self._blocks:
            count += block.count_below(threshold, strict)
        return count

    def cdf(self, threshold: float) -> float:
        """Estimated fraction of covered samples ``<= threshold``."""
        if self.n == 0:
            raise ValueError("no samples ingested yet")
        return self.count_below(threshold, strict=False) / self.n

    def fraction_at_least(self, threshold: float) -> float:
        """Estimated fraction of covered samples ``>= threshold``.

        The thresholding summarizer's near-peak query.  Built on the
        strict lower count, so compression error can only *raise* the
        estimate -- conservative for negotiability (an overestimated
        near-peak fraction never negotiates away a sustained demand).
        """
        if self.n == 0:
            raise ValueError("no samples ingested yet")
        return 1.0 - self.count_below(threshold, strict=True) / self.n

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` of the covered samples.

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

    # ------------------------------------------------------------------
    # Reading array-framed (DSF1) store blobs
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls, skeleton: dict, arrays: list[np.ndarray]
    ) -> "MergingQuantileSketch":
        """Rebuild a sketch from a ``DSF1`` blob's arrays.

        Reads the array-framed store blobs written before state blobs
        became plain pickles (see
        :func:`~repro.streaming.live.unflatten_state`): the blocks'
        concatenated order statistics and cumulative ranks, each
        block's kept length and sample count, then the raw buffer,
        from ``arrays[base]`` on.  ``.tolist()`` round-trips float64
        exactly, so the rebuilt sketch answers every rank query as its
        source did.
        """
        sketch = cls(
            window=skeleton["window"],
            block_size=skeleton["block_size"],
            compression=skeleton["compression"],
        )
        base = skeleton["base"]
        values = arrays[base].tolist()
        counts = arrays[base + 1].tolist()
        lens = arrays[base + 2].tolist()
        ns = arrays[base + 3].tolist()
        cursor = 0
        for kept, n in zip(lens, ns):
            kept = int(kept)
            sketch._blocks.append(
                _CompressedBlock._rebuild(
                    values[cursor : cursor + kept],
                    [int(count) for count in counts[cursor : cursor + kept]],
                    int(n),
                )
            )
            cursor += kept
        sketch._compressed_n = int(sum(ns))
        sketch._buffer = arrays[base + 4].tolist()
        return sketch
