"""Resource-throttling probability estimation (paper equation (1)).

The throttling probability of SKU *i* for customer *n* is

    P_n(SKU_i) = P(r_cpu > R_cpu_i  ∪  r_mem > R_mem_i  ∪  ...)

the probability that *any* performance dimension's demand exceeds the
SKU's capacity.  Estimating it requires the *joint* distribution of
demands: dimensions spike together (a CPU-saturating batch job also
hammers the log), so the union probability is not a function of the
per-dimension marginals.

The production estimator is non-parametric -- "calculating the
frequency with which all performance dimensions are satisfied by each
SKU, at each time point" (Section 3.2).  The paper reports trying
multivariate KDE (vine copulas, Gaussian smoothing) and rejecting it
for run time; :class:`KdeThrottlingEstimator` keeps that alternative
behind the same interface for the ablation benchmark.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..catalog.models import ResourceLimits, SkuSpec
from ..ml.kde import GaussianKde
from ..telemetry.counters import LATENCY_FLOOR, PerfDimension, invert_latency
from ..telemetry.trace import PerformanceTrace

__all__ = [
    "ThrottlingEstimator",
    "EmpiricalThrottlingEstimator",
    "CopulaThrottlingEstimator",
    "KdeThrottlingEstimator",
    "DEFAULT_KERNEL_MEMORY_CAP_MB",
    "LATENCY_FLOOR",
    "apply_iops_overrides",
    "batch_violation_counts",
    "capacity_matrix",
    "capacity_vector",
    "demand_matrix",
    "invert_latency",
    "violation_counts",
]

#: Upper bound on the transient ``(n_skus, chunk, n_dims)`` boolean
#: broadcast the empirical kernel materializes.  64 MB keeps the temp
#: inside typical L3/working-set budgets while leaving chunks large
#: enough that the per-chunk Python overhead stays negligible.
DEFAULT_KERNEL_MEMORY_CAP_MB = 64.0


def demand_matrix(
    trace: PerformanceTrace, dimensions: tuple[PerfDimension, ...]
) -> np.ndarray:
    """Stack a trace into an ``(n_samples, n_dims)`` demand matrix.

    Latency columns are inverted so the throttling predicate is a
    uniform ``demand > capacity`` in every column (paper Section 3.2:
    "IO latency is taken as the inverse of the actual IO latency").

    The result is memoized on the trace (see
    :meth:`~repro.telemetry.trace.PerformanceTrace.demand_matrix`), so
    every estimator evaluating the same trace shares one inversion
    pass; treat it as read-only.
    """
    return trace.demand_matrix(tuple(dimensions))


def _chunk_samples(n_skus: int, n_dims: int, memory_cap_mb: float) -> int:
    """Samples per broadcast so the bool temp stays under the cap."""
    if memory_cap_mb <= 0:
        raise ValueError(f"memory cap must be positive, got {memory_cap_mb!r}")
    per_sample = max(1, n_skus * n_dims)  # one byte per bool element
    return max(1, int(memory_cap_mb * 1024 * 1024) // per_sample)


def _violation_mask(demands: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """``(n_skus, n_samples)`` any-dimension violation mask.

    Evaluated dimension-major: one 2-D comparison per dimension OR-ed
    into the output, which is ~3x faster than materializing the 3-D
    ``(n_skus, n_samples, n_dims)`` broadcast and reducing over the
    strided last axis, and keeps the transient footprint at two 2-D
    boolean arrays.  Exactly the same comparisons, so the mask is
    bit-identical to ``(demands[None] > caps[:, None]).any(axis=2)``.
    """
    out = demands[:, 0][None, :] > caps[:, 0][:, None]
    for column in range(1, caps.shape[1]):
        out |= demands[:, column][None, :] > caps[:, column][:, None]
    return out


def violation_counts(
    demands: np.ndarray,
    caps: np.ndarray,
    memory_cap_mb: float = DEFAULT_KERNEL_MEMORY_CAP_MB,
) -> np.ndarray:
    """Per-SKU count of samples violating any dimension, chunked.

    The hot inner kernel of the empirical estimator: evaluates
    ``any_dim(demand > capacity)`` over an ``(n_samples, n_dims)``
    demand matrix and an ``(n_skus, n_dims)`` capacity matrix without
    ever materializing more than ``memory_cap_mb`` of boolean temp.
    Counting integers and dividing once is bit-identical to
    ``violated.any(axis=2).mean(axis=1)`` (bool sums are exact in
    int64/float64 far beyond any realistic trace length), so chunking
    never changes a probability.
    """
    n_skus = caps.shape[0]
    counts = np.zeros(n_skus, dtype=np.int64)
    chunk = _chunk_samples(n_skus, caps.shape[1], memory_cap_mb)
    for start in range(0, demands.shape[0], chunk):
        block = demands[start : start + chunk]
        counts += _violation_mask(block, caps).sum(axis=1, dtype=np.int64)
    return counts


def batch_violation_counts(
    demand_blocks: Sequence[np.ndarray],
    caps: np.ndarray,
    memory_cap_mb: float = DEFAULT_KERNEL_MEMORY_CAP_MB,
) -> np.ndarray:
    """Violation counts for many traces against one capacity matrix.

    The columnar fleet kernel: stacks several traces' demand matrices
    into shared broadcasts (so the per-trace Python/numpy dispatch
    overhead amortizes across the fleet) while still respecting the
    boolean-temp memory cap.  Traces are packed greedily into
    broadcast groups; a single trace longer than the cap falls back to
    the chunked single-trace kernel.

    Args:
        demand_blocks: Per-trace ``(n_i, n_dims)`` demand matrices,
            all sharing one dimension order aligned with ``caps``.
        caps: ``(n_skus, n_dims)`` capacity matrix.
        memory_cap_mb: Bound on the transient boolean broadcast.

    Returns:
        ``(n_traces, n_skus)`` int64 violation counts.
    """
    n_skus = caps.shape[0]
    counts = np.empty((len(demand_blocks), n_skus), dtype=np.int64)
    budget = _chunk_samples(n_skus, caps.shape[1], memory_cap_mb)
    group: list[int] = []
    group_samples = 0

    def flush() -> None:
        nonlocal group, group_samples
        if not group:
            return
        stacked = np.concatenate([demand_blocks[i] for i in group], axis=0)
        violated = _violation_mask(stacked, caps)
        # Segment sums on the shared mask (np.add.reduceat on bool
        # computes logical OR, not counts, so slice-sum instead).
        start = 0
        for index in group:
            end = start + demand_blocks[index].shape[0]
            counts[index] = violated[:, start:end].sum(axis=1, dtype=np.int64)
            start = end
        group, group_samples = [], 0

    for index, block in enumerate(demand_blocks):
        n = block.shape[0]
        if n > budget:  # one oversized trace: chunk it on its own
            flush()
            counts[index] = violation_counts(block, caps, memory_cap_mb)
            continue
        if group_samples + n > budget:
            flush()
        group.append(index)
        group_samples += n
    flush()
    return counts


def capacity_vector(
    limits: ResourceLimits, dimensions: tuple[PerfDimension, ...]
) -> np.ndarray:
    """SKU capacities aligned with :func:`demand_matrix` columns.

    Latency capacities go through the same :func:`invert_latency` as
    the inverted demand, so degenerate latency limits floor instead of
    blowing up.
    """
    caps = []
    for dim in dimensions:
        capacity = dim.capacity_of(limits)
        if dim.lower_is_better:
            caps.append(float(invert_latency(capacity)))
        else:
            caps.append(capacity)
    return np.asarray(caps, dtype=float)


def capacity_matrix(
    skus: list[SkuSpec],
    dimensions: tuple[PerfDimension, ...],
    iops_overrides: dict[str, float] | None = None,
) -> np.ndarray:
    """``(n_skus, n_dims)`` capacity matrix aligned with ``dimensions``.

    The single definition of capacity-matrix construction shared by
    every estimator (batch, incremental, columnar), so the violation
    predicate agrees bit-for-bit across paths.  ``iops_overrides``
    replaces the IOPS capacity per SKU name -- the MI file-layout
    limit of paper Section 3.2 Step 2 (:func:`apply_iops_overrides`).
    """
    caps = np.asarray([capacity_vector(sku.limits, dimensions) for sku in skus], dtype=float)
    return apply_iops_overrides(caps, skus, dimensions, iops_overrides)


def apply_iops_overrides(
    caps: np.ndarray,
    skus: Sequence[SkuSpec],
    dimensions: tuple[PerfDimension, ...],
    iops_overrides: dict[str, float] | None,
) -> np.ndarray:
    """``caps`` with per-SKU-name IOPS capacities written into a copy.

    ``caps`` is a :func:`capacity_matrix` of ``skus`` over
    ``dimensions`` and is never modified (memoized matrices are shared
    read-only); without overrides, or without an IOPS column, it is
    returned as is.
    """
    if not iops_overrides or PerfDimension.IOPS not in dimensions:
        return caps
    caps = caps.copy()
    column = dimensions.index(PerfDimension.IOPS)
    for row, sku in enumerate(skus):
        if sku.name in iops_overrides:
            caps[row, column] = iops_overrides[sku.name]
    return caps


class ThrottlingEstimator(abc.ABC):
    """Estimates ``P_n(SKU_i)`` from a trace for a batch of SKUs.

    Subclasses implement :meth:`probabilities_from_caps`, the estimate
    against an already-built capacity matrix: curve builders pass the
    deployment's memoized capacities
    (:meth:`~repro.core.ppm.PricePerformanceModeler.capacity_matrix_for`)
    so no estimate rebuilds them from the catalog.
    """

    @abc.abstractmethod
    def probabilities_from_caps(
        self, demands: np.ndarray, caps: np.ndarray
    ) -> np.ndarray:
        """Throttling probability per capacity row, each in ``[0, 1]``.

        Args:
            demands: ``(n_samples, n_dims)`` demand matrix
                (:func:`demand_matrix`).
            caps: ``(n_skus, n_dims)`` capacity matrix whose columns
                align with ``demands``.
        """

    def probabilities(
        self,
        trace: PerformanceTrace,
        skus: list[SkuSpec],
        dimensions: tuple[PerfDimension, ...],
        iops_overrides: dict[str, float] | None = None,
    ) -> np.ndarray:
        """Throttling probability per SKU, each in ``[0, 1]``.

        Args:
            trace: Customer performance history.
            skus: Candidate SKUs, any order.
            dimensions: Performance dimensions to evaluate jointly.
            iops_overrides: Optional per-SKU-name replacement of the
                IOPS capacity -- the MI file-layout limit of paper
                Section 3.2 Step 2.
        """
        if not skus:
            return np.zeros(0)
        return self.probabilities_from_caps(
            demand_matrix(trace, dimensions),
            capacity_matrix(list(skus), tuple(dimensions), iops_overrides),
        )

    def probability(
        self,
        trace: PerformanceTrace,
        sku: SkuSpec,
        dimensions: tuple[PerfDimension, ...],
    ) -> float:
        """Convenience scalar wrapper around :meth:`probabilities`."""
        return float(self.probabilities(trace, [sku], dimensions)[0])

    def probabilities_batch(
        self,
        traces: Sequence[PerformanceTrace],
        skus: list[SkuSpec],
        dimensions: tuple[PerfDimension, ...],
        iops_overrides: dict[str, float] | None = None,
    ) -> np.ndarray:
        """Throttling probabilities for many traces at once.

        Columnar fleet entry point: all traces share one SKU set, one
        dimension order and one override mapping (the caller groups
        customers accordingly), so the capacity matrix is built once
        for the whole batch.  Per-SKU probabilities are independent of
        the other traces in the batch, so the result rows equal the
        per-trace :meth:`probabilities` outputs exactly.

        The base implementation is a plain per-trace loop -- correct
        for every estimator; :class:`EmpiricalThrottlingEstimator`
        overrides it with stacked chunked broadcasts.

        Returns:
            ``(n_traces, n_skus)`` probabilities.
        """
        if not traces:
            return np.zeros((0, len(skus)))
        return np.stack(
            [
                self.probabilities(trace, skus, dimensions, iops_overrides)
                for trace in traces
            ]
        )


@dataclass(frozen=True)
class EmpiricalThrottlingEstimator(ThrottlingEstimator):
    """The paper's production estimator: joint violation frequency.

    For each time point, check whether any dimension's demand exceeds
    the SKU capacity; the throttling probability is the fraction of
    violating time points.  Exact with respect to the empirical joint
    distribution, O(n_samples * n_dims) per SKU, no tuning knobs.

    Both the single-trace and the batch path run the chunked columnar
    kernel, so the ``(n_skus, n_samples, n_dims)`` boolean temp never
    exceeds ``memory_cap_mb`` -- long traces against large catalogs
    stay memory-bounded without changing a single probability bit.

    Attributes:
        memory_cap_mb: Bound on the kernel's transient boolean
            broadcast.
    """

    memory_cap_mb: float = DEFAULT_KERNEL_MEMORY_CAP_MB

    def probabilities_from_caps(
        self, demands: np.ndarray, caps: np.ndarray
    ) -> np.ndarray:
        """One trace against a precomputed capacity matrix."""
        counts = violation_counts(demands, caps, self.memory_cap_mb)
        return counts / demands.shape[0]

    def probabilities_batch(self, traces, skus, dimensions, iops_overrides=None):
        if not traces:
            return np.zeros((0, len(skus)))
        caps = capacity_matrix(list(skus), tuple(dimensions), iops_overrides)
        return self.probabilities_batch_from_caps(
            [demand_matrix(trace, dimensions) for trace in traces], caps
        )

    def probabilities_batch_from_caps(
        self, demand_blocks: Sequence[np.ndarray], caps: np.ndarray
    ) -> np.ndarray:
        """Many traces against one precomputed capacity matrix.

        The columnar fast path used by
        :meth:`~repro.core.ppm.PricePerformanceModeler.build_curves_batch`:
        the capacity matrix is built once per fleet pass and the
        demand rows of every customer flow through stacked chunked
        broadcasts.
        """
        counts = batch_violation_counts(demand_blocks, caps, self.memory_cap_mb)
        lengths = np.array([block.shape[0] for block in demand_blocks], dtype=np.int64)
        return counts / lengths[:, None]


@dataclass(frozen=True)
class CopulaThrottlingEstimator(ThrottlingEstimator):
    """Gaussian-copula alternative (the paper's vine-copula path).

    Separates marginals (smoothed ECDFs) from dependence (normal-score
    correlation) and evaluates box probabilities by seeded Monte
    Carlo.  The one-tree special case of the vine-copula estimator the
    paper evaluated and rejected for run time; retained for the
    estimator ablation.

    Attributes:
        n_draws: Monte-Carlo draws per SKU evaluation.
        seed: Seed for the (deterministic) Monte-Carlo stream.
    """

    n_draws: int = 4096
    seed: int = 0

    def probabilities_from_caps(self, demands, caps):
        from ..ml.copula import GaussianCopulaModel

        model = GaussianCopulaModel.fit(demands)
        return np.array(
            [
                model.exceedance_probability(row, n_draws=self.n_draws, rng=self.seed)
                for row in caps
            ]
        )


@dataclass(frozen=True)
class KdeThrottlingEstimator(ThrottlingEstimator):
    """Gaussian-smoothing alternative (paper's rejected parametric path).

    Fits a product-Gaussian KDE to the joint demand sample and
    evaluates ``1 - P(all demands <= caps)`` analytically under the
    mixture.  Smoother curves on short traces, but strictly slower --
    the trade-off the ablation benchmark quantifies.

    Attributes:
        bandwidth_scale: Multiplier on the Scott's-rule bandwidth.
    """

    bandwidth_scale: float = 1.0

    def probabilities_from_caps(self, demands, caps):
        kde = GaussianKde.fit(demands, bandwidth_scale=self.bandwidth_scale)
        return np.array([kde.exceedance_probability(row) for row in caps])
