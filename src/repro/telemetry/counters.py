"""Performance-counter dimensions.

The Doppler engine characterises a workload exclusively through
low-level resource statistics (paper Section 3.1, "Avoid using customer
data/queries").  The four primary dimensions are CPU, memory, IOPS and
IO latency; recommendations targeting Azure SQL DB additionally use log
rate and storage (paper Section 3.2).

Latency is the one dimension where *smaller is better*; equation (1) of
the paper handles it by inverting the counter ("IO latency is taken as
the inverse of the actual IO latency"), so that every dimension shares
the uniform predicate "demand exceeds capacity => throttled".  The
:meth:`PerfDimension.demand_and_capacity` helper centralises that
inversion.
"""

from __future__ import annotations

import enum

import numpy as np

from ..catalog.models import ResourceLimits

__all__ = [
    "LATENCY_FLOOR",
    "PerfDimension",
    "invert_latency",
    "DB_DIMENSIONS",
    "MI_DIMENSIONS",
    "PROFILING_DB_DIMENSIONS",
    "PROFILING_MI_DIMENSIONS",
]

#: Floor applied to latency values before inversion, on both the
#: demand and capacity side: zero-latency samples from idle periods
#: and zero/degenerate latency limits become a large-but-finite
#: inverted value instead of a division error or ``inf``.
LATENCY_FLOOR = 1e-9


def invert_latency(values):
    """The paper's latency inversion, floored at :data:`LATENCY_FLOOR`.

    The single definition of the inversion used by every estimator
    (batch, incremental, serverless) on both sides of the predicate --
    demand and capacity must transform identically or the
    ``demand > capacity`` comparison silently skews.  Accepts scalars
    or arrays.
    """
    return 1.0 / np.maximum(values, LATENCY_FLOOR)


class PerfDimension(enum.Enum):
    """One resource dimension collected by the DMA perf collector."""

    CPU = "cpu_vcores"
    MEMORY = "memory_gb"
    IOPS = "data_iops"
    IO_LATENCY = "io_latency_ms"
    LOG_RATE = "log_rate_mbps"
    STORAGE = "data_size_gb"

    # Members are singletons compared by identity, so the identity
    # hash agrees with equality; Enum's default re-hashes the member
    # name in Python on every dict or set lookup keyed by a dimension.
    __hash__ = object.__hash__

    @property
    def unit(self) -> str:
        """Physical unit of the raw counter."""
        return {
            PerfDimension.CPU: "vCores",
            PerfDimension.MEMORY: "GB",
            PerfDimension.IOPS: "ops/s",
            PerfDimension.IO_LATENCY: "ms",
            PerfDimension.LOG_RATE: "MB/s",
            PerfDimension.STORAGE: "GB",
        }[self]

    @property
    def lower_is_better(self) -> bool:
        """True for latency-like dimensions that are inverted in eq. (1)."""
        return self is PerfDimension.IO_LATENCY

    def capacity_of(self, limits: ResourceLimits) -> float:
        """The ``R_i`` capacity of a SKU along this dimension."""
        return {
            PerfDimension.CPU: limits.vcores,
            PerfDimension.MEMORY: limits.max_memory_gb,
            PerfDimension.IOPS: limits.max_data_iops,
            PerfDimension.IO_LATENCY: limits.min_io_latency_ms,
            PerfDimension.LOG_RATE: limits.max_log_rate_mbps,
            PerfDimension.STORAGE: limits.max_data_size_gb,
        }[self]

    def demand_and_capacity(self, observed: float, limits: ResourceLimits) -> tuple[float, float]:
        """Map an observed counter value and SKU limits to (demand, capacity).

        After this mapping the throttling predicate is uniformly
        ``demand > capacity``:

        * for throughput-like dimensions demand is the raw counter and
          capacity the SKU limit;
        * for IO latency both sides are inverted (paper Section 3.2), so
          a workload needing 2 ms on a SKU with a 5 ms floor yields
          demand 1/2 > capacity 1/5 => throttled.

        Args:
            observed: Raw counter value in this dimension's unit.
            limits: SKU capacity vector.
        """
        capacity = self.capacity_of(limits)
        if not self.lower_is_better:
            return observed, capacity
        return float(invert_latency(observed)), float(invert_latency(capacity))


#: Dimensions used to build price-performance curves for SQL DB
#: targets (paper Section 3.2: four primary + log rate and storage).
DB_DIMENSIONS: tuple[PerfDimension, ...] = (
    PerfDimension.CPU,
    PerfDimension.MEMORY,
    PerfDimension.IOPS,
    PerfDimension.IO_LATENCY,
    PerfDimension.LOG_RATE,
    PerfDimension.STORAGE,
)

#: Dimensions used to build price-performance curves for SQL MI targets.
MI_DIMENSIONS: tuple[PerfDimension, ...] = (
    PerfDimension.CPU,
    PerfDimension.MEMORY,
    PerfDimension.IOPS,
    PerfDimension.IO_LATENCY,
)

#: Dimensions summarized by the Customer Profiler for SQL DB
#: recommendations (paper Section 5.2.1: CPU, memory, IOPs and log
#: rate => 2^4 = 16 groups).
PROFILING_DB_DIMENSIONS: tuple[PerfDimension, ...] = (
    PerfDimension.CPU,
    PerfDimension.MEMORY,
    PerfDimension.IOPS,
    PerfDimension.LOG_RATE,
)

#: Dimensions summarized by the Customer Profiler for SQL MI
#: recommendations (paper Section 5.2.1: CPU, memory and IOPs => 2^3 =
#: 8 groups).
PROFILING_MI_DIMENSIONS: tuple[PerfDimension, ...] = (
    PerfDimension.CPU,
    PerfDimension.MEMORY,
    PerfDimension.IOPS,
)
