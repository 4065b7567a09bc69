"""Regular-interval counter time series.

The DMA perf collector samples counters every 10 minutes (paper
Section 4).  :class:`TimeSeries` is the in-memory representation of one
counter's samples: a fixed sampling interval, a start offset and a
dense float vector.  It deliberately stays simple -- a thin, validated
wrapper over a NumPy array with the resampling/windowing operations the
preprocessing module and the bootstrap need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["TimeSeries", "DEFAULT_SAMPLE_INTERVAL_MINUTES"]

#: DMA collects perf counters every 10 minutes (paper Section 4).
DEFAULT_SAMPLE_INTERVAL_MINUTES = 10.0


@dataclass(frozen=True)
class TimeSeries:
    """One counter's evenly sampled history.

    Attributes:
        values: Sample values, oldest first.
        interval_minutes: Sampling interval in minutes.
        start_minute: Offset of the first sample from the assessment
            start, in minutes.
    """

    values: np.ndarray
    interval_minutes: float = DEFAULT_SAMPLE_INTERVAL_MINUTES
    start_minute: float = 0.0

    def __post_init__(self) -> None:
        array = np.asarray(self.values, dtype=float)
        if array.ndim != 1:
            raise ValueError(f"time series must be 1-D, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("time series must contain at least one sample")
        if not np.all(np.isfinite(array)):
            raise ValueError("time series contains non-finite samples")
        if self.interval_minutes <= 0 or not math.isfinite(self.interval_minutes):
            raise ValueError(f"interval must be positive, got {self.interval_minutes!r}")
        array.setflags(write=False)
        object.__setattr__(self, "values", array)

    @classmethod
    def _trusted(
        cls, values: np.ndarray, interval_minutes: float, start_minute: float
    ) -> "TimeSeries":
        """A series over already-validated samples, without re-checking them.

        The caller owes every invariant :meth:`__post_init__` checks:
        ``values`` is a 1-D, non-empty float64 array of finite samples
        that nothing writes to afterwards, and ``interval_minutes`` is a
        positive finite float.  The array is adopted as is (marked
        read-only, not copied).  :meth:`StreamingTraceBuilder.snapshot
        <repro.telemetry.streaming.StreamingTraceBuilder.snapshot>`
        uses it for the rows of its one checked window copy.
        """
        series = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(series, "values", values)
        object.__setattr__(series, "interval_minutes", interval_minutes)
        object.__setattr__(series, "start_minute", start_minute)
        return series

    # ------------------------------------------------------------------
    # Basic shape / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values.tolist())

    @property
    def duration_minutes(self) -> float:
        """Span covered by the samples (n * interval)."""
        return len(self) * self.interval_minutes

    @property
    def duration_hours(self) -> float:
        return self.duration_minutes / 60.0

    @property
    def duration_days(self) -> float:
        return self.duration_minutes / (60.0 * 24.0)

    def timestamps_minutes(self) -> np.ndarray:
        """Sample timestamps in minutes from the assessment start."""
        return self.start_minute + np.arange(len(self)) * self.interval_minutes

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------
    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    def mean(self) -> float:
        return float(self.values.mean())

    def std(self) -> float:
        return float(self.values.std())

    def quantile(self, q: float) -> float:
        """Empirical quantile; ``q=0.95`` is the baseline strategy's scalar."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        return float(np.quantile(self.values, q))

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_values(self, values: np.ndarray | Sequence[float]) -> "TimeSeries":
        """Same clock, new sample values."""
        return TimeSeries(
            values=np.asarray(values, dtype=float),
            interval_minutes=self.interval_minutes,
            start_minute=self.start_minute,
        )

    def slice_window(self, start_minute: float, end_minute: float) -> "TimeSeries":
        """Samples whose timestamps fall in ``[start_minute, end_minute)``.

        Raises:
            ValueError: If the window contains no samples.
        """
        stamps = self.timestamps_minutes()
        mask = (stamps >= start_minute) & (stamps < end_minute)
        if not mask.any():
            raise ValueError(
                f"window [{start_minute}, {end_minute}) contains no samples "
                f"(series spans [{stamps[0]}, {stamps[-1]}])"
            )
        first = int(np.argmax(mask))
        return TimeSeries(
            values=self.values[mask],
            interval_minutes=self.interval_minutes,
            start_minute=float(stamps[first]),
        )

    def head_minutes(self, minutes: float) -> "TimeSeries":
        """The first ``minutes`` of the series."""
        return self.slice_window(self.start_minute, self.start_minute + minutes)

    def resample(self, new_interval_minutes: float) -> "TimeSeries":
        """Downsample by averaging fixed-size buckets.

        Only coarsening is supported: the new interval must be an
        integral multiple of the current one.  This is the
        pre-aggregation step of the DMA Perf Collector.
        """
        ratio = new_interval_minutes / self.interval_minutes
        bucket = round(ratio)
        if bucket < 1 or abs(ratio - bucket) > 1e-9:
            raise ValueError(
                f"new interval {new_interval_minutes} must be an integral multiple "
                f"of the current interval {self.interval_minutes}"
            )
        if bucket == 1:
            return self
        n_full = (len(self) // bucket) * bucket
        if n_full == 0:
            raise ValueError("series too short to resample to the requested interval")
        reshaped = self.values[:n_full].reshape(-1, bucket)
        return TimeSeries(
            values=reshaped.mean(axis=1),
            interval_minutes=new_interval_minutes,
            start_minute=self.start_minute,
        )

    def clip_upper(self, ceiling: float) -> "TimeSeries":
        """Clamp samples at ``ceiling`` (used by the replay simulator)."""
        return self.with_values(np.minimum(self.values, ceiling))

    def __add__(self, other: "TimeSeries") -> "TimeSeries":
        """Pointwise sum of two aligned series (file -> database rollup)."""
        self._check_aligned(other)
        return self.with_values(self.values + other.values)

    def pointwise_max(self, other: "TimeSeries") -> "TimeSeries":
        """Pointwise maximum of two aligned series."""
        self._check_aligned(other)
        return self.with_values(np.maximum(self.values, other.values))

    def _check_aligned(self, other: "TimeSeries") -> None:
        if len(self) != len(other):
            raise ValueError(f"length mismatch: {len(self)} vs {len(other)}")
        if abs(self.interval_minutes - other.interval_minutes) > 1e-9:
            raise ValueError(
                f"interval mismatch: {self.interval_minutes} vs {other.interval_minutes}"
            )
