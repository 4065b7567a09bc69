"""Append-only streaming trace ingestion.

The batch pipeline assesses a *fixed* telemetry window: the collector
hands the engine a complete :class:`~repro.telemetry.trace.PerformanceTrace`
and the assessment is one shot.  A live service sees telemetry arrive
sample-by-sample instead.  :class:`StreamingTraceBuilder` is the
ingestion end of that path: one bounded ``(n_dims, window)`` ring
buffer that absorbs one aligned counter sample at a time (one column
write), keeps only the most recent ``window`` samples, and converts to
an immutable :class:`PerformanceTrace` snapshot on demand (one array
copy of the whole window, no re-scan of history).

The window semantics mirror the paper's assessment guidance: Doppler
wants >= 1 week of history, so the default window holds seven days of
10-minute samples.  Older samples age out of the ring and stop
influencing snapshots -- the streaming counterpart of re-running the
collector over a sliding assessment period.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from typing import Iterable, Mapping

import numpy as np

from ..ml.sketch import MergingQuantileSketch
from .counters import PerfDimension
from .timeseries import DEFAULT_SAMPLE_INTERVAL_MINUTES, TimeSeries
from .trace import PerformanceTrace

__all__ = [
    "StreamingSeriesStats",
    "StreamingTraceBuilder",
    "DEFAULT_STREAM_WINDOW",
    "parse_sample",
]

#: One week of 10-minute samples -- the paper's minimum advised
#: assessment period at the DMA collector cadence.
DEFAULT_STREAM_WINDOW = 7 * 24 * 6


def parse_sample(
    sample: Mapping[PerfDimension, float], dimensions: tuple[PerfDimension, ...]
) -> np.ndarray:
    """Validate one counter sample into a row aligned with ``dimensions``.

    The single definition of the per-sample ingestion contract, shared
    by the ring-buffer builder and the incremental estimator so both
    reject malformed feeds identically.  Keys beyond ``dimensions``
    are ignored.  Values are checked in dimension order with
    :func:`math.isfinite` and the row is built from a list in one
    array call, so a non-finite value ahead of a missing dimension
    raises the ``ValueError``, and a missing dimension ahead of a
    non-finite value the ``KeyError``.

    Raises:
        KeyError: If a declared dimension is missing from the sample.
        ValueError: If any declared value is non-finite.
    """
    values = []
    for dim in dimensions:
        try:
            value = float(sample[dim])
        except KeyError:
            raise KeyError(
                f"sample is missing dimension {dim.name}; "
                f"declared: {[d.name for d in dimensions]}"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"non-finite {dim.name} sample: {value!r}")
        values.append(value)
    return np.array(values)


class StreamingSeriesStats:
    """O(1)-per-sample summary state of one sliding counter series.

    The streaming counterpart of re-scanning a
    :class:`~repro.telemetry.timeseries.TimeSeries` window: maintains
    exactly the statistics the negotiability summarizers consume --
    windowed mean and population standard deviation (running sums with
    ring-buffer eviction), exact windowed max/min (monotonic deques),
    and a :class:`~repro.ml.sketch.MergingQuantileSketch` for rank
    queries like the thresholding algorithm's near-peak fraction.

    Accuracy contract: count/mean/max/min are exact over the newest
    ``window`` samples; the standard deviation is exact up to running
    floating-point drift (a relative ~1e-9 over realistic streams).
    Rank queries carry two error terms: the sketch's documented
    compression error (``1/(compression-1)`` of the window, which
    only *under*-counts ranks), and a coverage overhang -- the sketch
    evicts whole blocks, so up to one block of just-expired samples
    still participates in rank queries.  On a stationary stream the
    overhang is statistically invisible; right after a level shift it
    biases rank fractions toward the *old* level by at most
    ``block_size / window`` until the stale block expires.  The block
    size therefore adapts to the window (``window // 8``, clamped to
    [8, 256]): ~12.5 % for windows of 64 samples and up, degrading to
    as much as a full window below that (toy windows shorter than one
    block cannot bound eviction granularity -- use ``profile_mode=
    "exact"`` or pass ``sketch_block_size`` explicitly there).

    Typical use::

        stats = StreamingSeriesStats(window=1008)
        for value in counter_feed:
            stats.update(value)
        fraction = stats.fraction_at_least(stats.max - stats.std)
    """

    def __init__(
        self,
        window: int = DEFAULT_STREAM_WINDOW,
        sketch_block_size: int | None = None,
        sketch_compression: int | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 sample, got {window!r}")
        self.window = int(window)
        if sketch_block_size is None:
            # Bound the eviction-granularity overhang to ~window/8
            # while keeping blocks large enough to amortize well.
            sketch_block_size = max(8, min(256, self.window // 8))
        sketch_kwargs = {"block_size": sketch_block_size}
        if sketch_compression is not None:
            sketch_kwargs["compression"] = sketch_compression
        self._sketch = MergingQuantileSketch(window=self.window, **sketch_kwargs)
        self._ring = np.zeros(self.window, dtype=float)
        self._n_seen = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        # Monotonic (index, value) deques: non-increasing for max,
        # non-decreasing for min; heads are the exact window extremes.
        self._max_deque: deque[tuple[int, float]] = deque()
        self._min_deque: deque[tuple[int, float]] = deque()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, value: float) -> None:
        """Absorb one sample; O(1) amortized."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample: {value!r}")
        index = self._n_seen
        slot = index % self.window
        if index >= self.window:
            evicted = self._ring[slot]
            self._sum -= evicted
            self._sum_sq -= evicted * evicted
        self._ring[slot] = value
        self._n_seen += 1
        self._sum += value
        self._sum_sq += value * value
        horizon = self._n_seen - self.window  # oldest live index
        while self._max_deque and self._max_deque[0][0] < horizon:
            self._max_deque.popleft()
        while self._max_deque and self._max_deque[-1][1] <= value:
            self._max_deque.pop()
        self._max_deque.append((index, value))
        while self._min_deque and self._min_deque[0][0] < horizon:
            self._min_deque.popleft()
        while self._min_deque and self._min_deque[-1][1] >= value:
            self._min_deque.pop()
        self._min_deque.append((index, value))
        self._sketch.update(value)

    def extend(self, values) -> None:
        """Absorb a batch of samples in stream order."""
        for value in np.asarray(values, dtype=float).ravel():
            self.update(float(value))

    # ------------------------------------------------------------------
    # Exact windowed statistics
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Samples currently inside the window."""
        return min(self._n_seen, self.window)

    @property
    def n_seen(self) -> int:
        """Samples ever ingested (including aged-out ones)."""
        return self._n_seen

    @property
    def mean(self) -> float:
        if self._n_seen == 0:
            raise ValueError("no samples ingested yet")
        return self._sum / self.n

    @property
    def std(self) -> float:
        """Population standard deviation over the window."""
        mean = self.mean  # raises on the empty stream
        return math.sqrt(max(0.0, self._sum_sq / self.n - mean * mean))

    @property
    def max(self) -> float:
        if not self._max_deque:
            raise ValueError("no samples ingested yet")
        return self._max_deque[0][1]

    @property
    def min(self) -> float:
        if not self._min_deque:
            raise ValueError("no samples ingested yet")
        return self._min_deque[0][1]

    def window_values(self) -> np.ndarray:
        """Retained samples in chronological order (a copy).

        The exact window contents backing the incremental STL
        evaluation: streaming decomposition summarizers re-run the
        batch fit over precisely these values, so streaming and batch
        modes agree bit-for-bit on the covered window.
        """
        if self._n_seen < self.window:
            return self._ring[: self._n_seen].copy()
        pivot = self._n_seen % self.window
        if pivot == 0:
            return self._ring.copy()
        return np.concatenate([self._ring[pivot:], self._ring[:pivot]])

    # ------------------------------------------------------------------
    # Sketch-backed rank queries
    # ------------------------------------------------------------------
    def fraction_at_least(self, threshold: float) -> float:
        """Approximate fraction of window samples ``>= threshold``."""
        return self._sketch.fraction_at_least(threshold)

    def quantile(self, q: float) -> float:
        """Approximate window quantile."""
        return self._sketch.quantile(q)

    # ------------------------------------------------------------------
    # Snapshot / restore (worker handoff)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Picklable snapshot of the mutable window state.

        Deep-copies everything mutable (ring, deques, sketch), so the
        snapshot stays frozen while the live stats keep ingesting.
        Configuration (window, sketch sizing) is not included: restore
        targets must be constructed with matching parameters.
        """
        return {
            "n_seen": self._n_seen,
            "ring": self._ring.copy(),
            "sum": self._sum,
            "sum_sq": self._sum_sq,
            "max_deque": tuple(self._max_deque),
            "min_deque": tuple(self._min_deque),
            "sketch": copy.deepcopy(self._sketch),
        }

    def load_state(self, state: dict) -> None:
        """Adopt a :meth:`state_dict` snapshot; the inverse operation.

        Raises:
            ValueError: If the snapshot's ring length disagrees with
                this instance's window.
        """
        ring = np.asarray(state["ring"], dtype=float)
        if ring.shape != (self.window,):
            raise ValueError(
                f"snapshot window {ring.shape[0]} does not match "
                f"this stats window {self.window}"
            )
        self._n_seen = int(state["n_seen"])
        self._ring = ring.copy()
        self._sum = float(state["sum"])
        self._sum_sq = float(state["sum_sq"])
        self._max_deque = deque(state["max_deque"])
        self._min_deque = deque(state["min_deque"])
        self._sketch = copy.deepcopy(state["sketch"])

    @staticmethod
    def state_from_arrays(skeleton: dict, arrays: list[np.ndarray]) -> dict:
        """Rebuild a :meth:`state_dict` from a ``DSF1`` blob's arrays.

        Reads the array-framed store blobs written before state blobs
        became plain pickles (see
        :func:`~repro.streaming.live.unflatten_state`): the ring, the
        monotonic deques as parallel index/value columns, and the
        sketch's blocks.  Copies every array out.
        """
        base = skeleton["base"]
        state = {
            "n_seen": skeleton["n_seen"],
            "ring": np.array(arrays[base], dtype=float),
            "sum": skeleton["sum"],
            "sum_sq": skeleton["sum_sq"],
            "sketch": MergingQuantileSketch.from_arrays(skeleton["sketch"], arrays),
        }
        for offset, key in ((1, "max_deque"), (3, "min_deque")):
            indices = arrays[base + offset].tolist()
            values = arrays[base + offset + 1].tolist()
            state[key] = tuple(
                (int(index), float(value)) for index, value in zip(indices, values)
            )
        return state


class StreamingTraceBuilder:
    """A bounded ``(n_dims, window)`` ring buffer behind a trace interface.

    The ring holds one row per declared dimension: :meth:`append`
    writes one column, and :meth:`snapshot` makes one chronological
    copy of the whole window, checks it once for non-finite samples,
    and hands its rows to the trace's series without re-validating
    them.

    Typical use::

        builder = StreamingTraceBuilder(
            dimensions=(PerfDimension.CPU, PerfDimension.MEMORY),
            window=1008,
        )
        for sample in telemetry_feed:     # {dimension: value} mappings
            builder.append(sample)
        trace = builder.snapshot()        # last `window` samples

    Attributes:
        dimensions: Declared counter dimensions; every appended sample
            must cover all of them (extra keys are ignored, so one
            fleet event stream can feed builders of differing shapes).
        window: Maximum samples retained per dimension.
        interval_minutes: Sampling cadence of the feed.
        entity_id: Identifier stamped onto snapshots.
    """

    def __init__(
        self,
        dimensions: tuple[PerfDimension, ...],
        window: int = DEFAULT_STREAM_WINDOW,
        interval_minutes: float = DEFAULT_SAMPLE_INTERVAL_MINUTES,
        entity_id: str = "stream",
    ) -> None:
        if not dimensions:
            raise ValueError("a streaming builder needs at least one dimension")
        if len(set(dimensions)) != len(dimensions):
            raise ValueError(f"duplicate dimensions in {dimensions!r}")
        if window < 1:
            raise ValueError(f"window must be >= 1 sample, got {window!r}")
        if interval_minutes <= 0:
            raise ValueError(f"interval must be positive, got {interval_minutes!r}")
        self.dimensions = tuple(dimensions)
        self.window = int(window)
        self.interval_minutes = float(interval_minutes)
        self.entity_id = entity_id
        self._ring = np.zeros((len(self.dimensions), self.window), dtype=float)
        self._n_seen = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, sample: Mapping[PerfDimension, float]) -> np.ndarray:
        """Absorb one aligned counter sample: one column write.

        Returns:
            The validated raw values aligned with :attr:`dimensions`,
            so downstream per-sample consumers (e.g. the incremental
            throttling estimator) need not re-parse the mapping.

        Raises:
            KeyError: If a declared dimension is missing from the
                sample.
            ValueError: If any declared value is non-finite.
        """
        row = parse_sample(sample, self.dimensions)
        self._ring[:, self._n_seen % self.window] = row
        self._n_seen += 1
        return row

    def extend(self, samples: Iterable[Mapping[PerfDimension, float]]) -> None:
        """Absorb a batch of samples in arrival order."""
        for sample in samples:
            self.append(sample)

    # ------------------------------------------------------------------
    # Window introspection
    # ------------------------------------------------------------------
    @property
    def n_seen(self) -> int:
        """Samples ever appended (including aged-out ones)."""
        return self._n_seen

    @property
    def n_window(self) -> int:
        """Samples currently held, ``min(n_seen, window)``."""
        return min(self._n_seen, self.window)

    @property
    def is_full(self) -> bool:
        """True once the ring has wrapped at least once."""
        return self._n_seen >= self.window

    @property
    def start_minute(self) -> float:
        """Timestamp of the oldest retained sample.

        Sample ``k`` (zero-based, over the whole stream) lands at
        ``k * interval_minutes``, so the window start advances as old
        samples age out -- snapshots carry real stream time.
        """
        return (self._n_seen - self.n_window) * self.interval_minutes

    def __len__(self) -> int:
        return self.n_window

    def values(self, dimension: PerfDimension) -> np.ndarray:
        """Retained samples of one dimension, oldest first (a copy).

        Raises:
            KeyError: If the dimension was not declared.
        """
        if dimension not in self.dimensions:
            raise KeyError(
                f"builder {self.entity_id!r} does not track {dimension.name}; "
                f"declared: {[d.name for d in self.dimensions]}"
            )
        return self._chronological(self._ring[self.dimensions.index(dimension)])

    def _chronological(self, ring: np.ndarray) -> np.ndarray:
        """The retained columns of ``ring`` (the ring or one row), oldest first, copied."""
        if not self.is_full:
            return ring[..., : self._n_seen].copy()
        pivot = self._n_seen % self.window
        if pivot == 0:
            return ring.copy()
        return np.concatenate((ring[..., pivot:], ring[..., :pivot]), axis=-1)

    # ------------------------------------------------------------------
    # Snapshot / restore (worker handoff)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Picklable snapshot of the ring buffer and stream position.

        The ring is stored per dimension -- one ``(window,)`` array
        each, keyed by dimension in declaration order -- so state blobs
        keep their layout.  Configuration (dimensions, window, cadence,
        entity id) is not included: restore targets must be
        constructed with matching parameters, which :meth:`load_state`
        verifies.
        """
        return {
            "n_seen": self._n_seen,
            "buffers": {dim: row.copy() for dim, row in zip(self.dimensions, self._ring)},
        }

    def load_state(self, state: dict) -> None:
        """Adopt a :meth:`state_dict` snapshot; the inverse operation.

        Samples are not re-validated here: a non-finite value inside
        the window surfaces as the ``ValueError`` of the next
        :meth:`snapshot`.

        Raises:
            ValueError: If the snapshot's dimensions or window shape
                disagree with this builder's configuration.
        """
        buffers = state["buffers"]
        if set(buffers) != set(self.dimensions):
            raise ValueError(
                f"snapshot dimensions {sorted(d.name for d in buffers)} do not "
                f"match this builder's {sorted(d.name for d in self.dimensions)}"
            )
        rows = []
        for dim in self.dimensions:
            array = np.asarray(buffers[dim], dtype=float)
            if array.shape != (self.window,):
                raise ValueError(
                    f"snapshot window {array.shape[0]} does not match "
                    f"this builder's window {self.window}"
                )
            rows.append(array)
        self._ring = np.stack(rows)
        self._n_seen = int(state["n_seen"])

    @staticmethod
    def state_from_arrays(skeleton: dict, arrays: list[np.ndarray]) -> dict:
        """Rebuild a :meth:`state_dict` from a ``DSF1`` blob's arrays.

        Reads the array-framed store blobs written before state blobs
        became plain pickles (see
        :func:`~repro.streaming.live.unflatten_state`): one ring
        buffer per dimension, realigned by the skeleton's dimension
        table.  Copies every array out.
        """
        base = skeleton["base"]
        return {
            "n_seen": skeleton["n_seen"],
            "buffers": {
                dim: np.array(arrays[base + i], dtype=float)
                for i, dim in enumerate(skeleton["dims"])
            },
        }

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> PerformanceTrace:
        """The current window as an immutable :class:`PerformanceTrace`.

        One chronological copy of the whole ``(n_dims, n_window)``
        window, never a re-scan of the stream, checked for non-finite
        samples once; its rows become the trace's series through
        :meth:`TimeSeries._trusted
        <repro.telemetry.timeseries.TimeSeries._trusted>`, since the
        copy already holds every invariant a series checks.

        Raises:
            ValueError: If no samples have been appended yet, or the
                window holds a non-finite sample (only possible after
                :meth:`load_state` adopted one) -- the error a
                :class:`TimeSeries` raises for it.
        """
        if self._n_seen == 0:
            raise ValueError("cannot snapshot an empty stream")
        window = self._chronological(self._ring)
        if not np.isfinite(window).all():
            raise ValueError("time series contains non-finite samples")
        start = self.start_minute
        interval = self.interval_minutes
        return PerformanceTrace(
            series={
                dim: TimeSeries._trusted(row, interval, start)
                for dim, row in zip(self.dimensions, window)
            },
            entity_id=self.entity_id,
        )
