"""Multi-dimensional performance traces.

A :class:`PerformanceTrace` bundles the per-dimension
:class:`~repro.telemetry.timeseries.TimeSeries` of one assessed entity
(a file, a database, or a whole SQL instance).  It is the "customer
performance history" input of the Doppler engine (paper Figure 3) --
the only workload information the engine ever sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .counters import PerfDimension, invert_latency
from .timeseries import TimeSeries

__all__ = ["PerformanceTrace"]


@dataclass(frozen=True)
class PerformanceTrace:
    """Aligned counter series across performance dimensions.

    All series must share length and sampling interval so that the
    non-parametric joint estimator can evaluate the throttling
    predicate per time point.

    Attributes:
        series: Mapping from dimension to its counter series.
        entity_id: Identifier of the assessed entity (database or
            instance name); informational.
    """

    series: Mapping[PerfDimension, TimeSeries]
    entity_id: str = "unnamed"

    def __post_init__(self) -> None:
        if not self.series:
            raise ValueError("a performance trace needs at least one dimension")
        frozen = MappingProxyType(dict(self.series))
        lengths = {len(ts) for ts in frozen.values()}
        if len(lengths) != 1:
            raise ValueError(f"all dimensions must have equal length, got {sorted(lengths)}")
        intervals = {ts.interval_minutes for ts in frozen.values()}
        if len(intervals) != 1:
            raise ValueError(f"all dimensions must share an interval, got {sorted(intervals)}")
        object.__setattr__(self, "series", frozen)

    def __reduce__(self):
        # The mapping proxy guarding immutability cannot pickle; rebuild
        # through the constructor so traces cross process boundaries
        # (fleet-scale worker pools ship them in shards).
        return (type(self), (dict(self.series), self.entity_id))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @cached_property
    def dimensions(self) -> tuple[PerfDimension, ...]:
        """Dimensions present in this trace, in stable enum order.

        Computed once per trace and memoized on it, like
        :meth:`demand_matrix`; the memo never pickles (a trace pickles
        through its constructor).
        """
        present = self.series
        return tuple(dim for dim in PerfDimension if dim in present)

    @property
    def n_samples(self) -> int:
        return len(next(iter(self.series.values())))

    @property
    def interval_minutes(self) -> float:
        return next(iter(self.series.values())).interval_minutes

    @property
    def duration_days(self) -> float:
        return next(iter(self.series.values())).duration_days

    def __contains__(self, dimension: PerfDimension) -> bool:
        return dimension in self.series

    def __getitem__(self, dimension: PerfDimension) -> TimeSeries:
        try:
            return self.series[dimension]
        except KeyError:
            raise KeyError(
                f"trace {self.entity_id!r} has no {dimension.name} counter; "
                f"available: {[d.name for d in self.dimensions]}"
            ) from None

    def matrix(self, dimensions: tuple[PerfDimension, ...] | None = None) -> np.ndarray:
        """Stack counters into an ``(n_samples, n_dims)`` matrix.

        Args:
            dimensions: Column order; defaults to :attr:`dimensions`.
        """
        dims = dimensions if dimensions is not None else self.dimensions
        return np.column_stack([self[dim].values for dim in dims])

    def demand_matrix(self, dimensions: tuple[PerfDimension, ...]) -> np.ndarray:
        """``(n_samples, n_dims)`` demand matrix, memoized per trace.

        Like :meth:`matrix` but with latency columns inverted (the
        paper's equation (1) transformation), which is the form every
        throttling estimator consumes.  The matrix is computed once
        per dimension tuple and cached on the trace -- a fleet pass
        that profiles, fits and recommends over the same trace shares
        a single inversion pass.  The returned array is marked
        read-only; copy before mutating.

        Raises:
            KeyError: If a requested dimension is missing.
        """
        dims = tuple(dimensions)
        cache = self.__dict__.setdefault("_demand_cache", {})
        cached = cache.get(dims)
        if cached is None:
            cached = np.empty((self.n_samples, len(dims)), dtype=np.float64)
            for column, dim in enumerate(dims):
                values = self[dim].values
                cached[:, column] = invert_latency(values) if dim.lower_is_better else values
            cached.flags.writeable = False
            cache[dims] = cached
        return cached

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def restrict(self, dimensions: tuple[PerfDimension, ...]) -> "PerformanceTrace":
        """Keep only the requested dimensions.

        Raises:
            KeyError: If a requested dimension is missing.
        """
        return PerformanceTrace(
            series={dim: self[dim] for dim in dimensions},
            entity_id=self.entity_id,
        )

    def slice_window(self, start_minute: float, end_minute: float) -> "PerformanceTrace":
        """Restrict every dimension to a time window."""
        return PerformanceTrace(
            series={
                dim: ts.slice_window(start_minute, end_minute) for dim, ts in self.series.items()
            },
            entity_id=self.entity_id,
        )

    def head_days(self, days: float) -> "PerformanceTrace":
        """The first ``days`` of the assessment period."""
        start = next(iter(self.series.values())).start_minute
        return self.slice_window(start, start + days * 24.0 * 60.0)

    def subsample(self, indices: np.ndarray) -> "PerformanceTrace":
        """Select sample rows by index (bootstrap resampling).

        The result reuses the original interval; bootstrap consumers
        only look at the empirical sample distribution, never at the
        clock, so this is sound.
        """
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            raise ValueError("subsample needs at least one index")
        return PerformanceTrace(
            series={dim: ts.with_values(ts.values[indices]) for dim, ts in self.series.items()},
            entity_id=self.entity_id,
        )

    def resample(self, new_interval_minutes: float) -> "PerformanceTrace":
        """Downsample every dimension to a coarser interval."""
        return PerformanceTrace(
            series={dim: ts.resample(new_interval_minutes) for dim, ts in self.series.items()},
            entity_id=self.entity_id,
        )

    def peak_demands(self, quantile: float = 1.0) -> dict[PerfDimension, float]:
        """Per-dimension demand scalar at the given quantile.

        ``quantile=1.0`` is the max; ``0.95`` is the baseline
        strategy's default reduction.  Latency uses the opposite tail
        (its demanding direction is small values).
        """
        demands: dict[PerfDimension, float] = {}
        for dim, ts in self.series.items():
            if dim.lower_is_better:
                demands[dim] = ts.quantile(1.0 - quantile)
            else:
                demands[dim] = ts.quantile(quantile)
        return demands
