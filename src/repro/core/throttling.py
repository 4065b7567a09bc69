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
    "violation_rows",
]

#: Upper bound on the violation kernel's transient working set (the
#: padded demand columns, the level comparisons, the packed level words
#: and the per-SKU bitsets of one chunk).  64 MB keeps it inside typical
#: working-set budgets while leaving chunks large enough that the
#: per-chunk Python overhead stays negligible.
DEFAULT_KERNEL_MEMORY_CAP_MB = 64.0

#: Samples per bitset word.  Every trace is padded to a multiple of it,
#: so no word ever holds samples of two traces.
_WORD_SAMPLES = 64


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


class _CapacityLevels:
    """A capacity matrix as distinct levels per dimension.

    A catalog has few distinct capacities per dimension (SQL DB: 97
    levels over 276 SKUs x 6 dimensions), so the kernel compares each
    demand column only against its dimension's sorted distinct levels
    and lets every SKU gather the level rows it sits on.

    A capacity that differs per trace gets one *threshold row* instead
    of a level: the SKUs under ``threshold_rows`` read it in
    ``threshold_column``, and each trace brings its own threshold to
    :meth:`violation_words`.  Traces never share a 64-sample word, so
    the threshold changes per word.  This is how the MI Step-2 limit
    (every General Purpose SKU inherits the customer's planned file
    layout IOPS, paper Section 3.2) runs a whole chunk of customers
    through one kernel pass: the row is the same strict
    ``demand > threshold`` a level row is, so the counts equal those
    over the matrix with each trace's threshold written into that
    column.  Levels hold no derived state of any trace, so one object
    serves every kernel call over the same matrix (the deployment's
    memo, :meth:`~repro.core.ppm._DeploymentCurveState.levels_for`).

    Attributes:
        levels: Sorted distinct capacities, one array per dimension
            (the threshold SKUs' own capacities in the threshold column
            left out).
        rows: ``(n_skus, n_dims)`` index of each SKU's packed row among
            all dimensions' levels stacked in order, then the threshold
            row.
        n_levels: Packed rows per word, the threshold row included.
        threshold_column: The column whose ``threshold_rows`` SKUs read
            the threshold row, or None when there is no threshold row.
    """

    def __init__(
        self,
        caps: np.ndarray,
        threshold_rows: np.ndarray | None = None,
        threshold_column: int | None = None,
    ) -> None:
        self.threshold_column = threshold_column
        self.levels: list[np.ndarray] = []
        self.rows = np.empty(caps.shape, dtype=np.intp)
        offset = 0
        for column in range(caps.shape[1]):
            if column == threshold_column:
                shared = ~threshold_rows
                levels, inverse = np.unique(caps[shared, column], return_inverse=True)
                self.rows[shared, column] = inverse + offset
            else:
                levels, inverse = np.unique(caps[:, column], return_inverse=True)
                self.rows[:, column] = inverse + offset
            self.levels.append(levels)
            offset += len(levels)
        if threshold_column is not None:
            self.rows[threshold_rows, threshold_column] = offset
            offset += 1
        self.n_levels = offset

    def words_per_chunk(self, memory_cap_mb: float) -> int:
        """Bitset words per kernel chunk so the transients fit the cap.

        Per 64-sample word a chunk holds the padded demand columns
        (8 bytes per dimension and sample), one dimension's level
        comparisons (one byte per level and sample), the packed level
        words, and per SKU its bitset, one gathered level row and a
        popcount byte.  A chunk is never smaller than one word.
        """
        if memory_cap_mb <= 0:
            raise ValueError(f"memory cap must be positive, got {memory_cap_mb!r}")
        n_skus, n_dims = self.rows.shape
        widest = max((len(levels) for levels in self.levels), default=0)
        per_word = (
            _WORD_SAMPLES * (8 * n_dims + widest) + 8 * self.n_levels + 17 * n_skus
        )
        return max(1, int(memory_cap_mb * 1024 * 1024) // per_word)

    def violation_words(
        self, blocks: Sequence[np.ndarray], thresholds: Sequence[float] | None = None
    ) -> np.ndarray:
        """``(n_skus, n_words)`` uint64 any-dimension violation bitsets.

        Each block of ``(n_i, n_dims)`` demands starts on a fresh word
        and is padded to a whole word with ``-inf``, which violates no
        capacity.  Bit ``t`` of a block's bits (``np.packbits`` order)
        is set iff some dimension's demand at sample ``t`` exceeds the
        SKU's capacity: exactly
        ``(demands[None] > caps[:, None]).any(axis=2)``, packed, with
        ``thresholds[i]`` as the threshold SKUs' capacity for block
        ``i`` (one per block when the levels have a threshold row,
        ignored otherwise).
        """
        n_words = [-(-block.shape[0] // _WORD_SAMPLES) for block in blocks]
        total_words = sum(n_words)
        columns = np.full(
            (self.rows.shape[1], total_words * _WORD_SAMPLES), -np.inf
        )
        start = 0
        for block, words in zip(blocks, n_words):
            columns[:, start : start + block.shape[0]] = block.T
            start += words * _WORD_SAMPLES
        packed = np.empty((self.n_levels, total_words * 8), dtype=np.uint8)
        row = 0
        for column, levels in zip(columns, self.levels):
            packed[row : row + len(levels)] = np.packbits(
                column > levels[:, None], axis=1
            )
            row += len(levels)
        if self.threshold_column is not None:
            word_thresholds = np.repeat(np.asarray(thresholds, dtype=float), n_words)
            words = columns[self.threshold_column].reshape(total_words, _WORD_SAMPLES)
            packed[row] = np.packbits(
                words > word_thresholds[:, None], axis=1
            ).reshape(-1)
        level_words = packed.view(np.uint64)
        violated = level_words[self.rows[:, 0]]
        for dim in range(1, self.rows.shape[1]):
            violated |= level_words[self.rows[:, dim]]
        return violated


def _bitset_counts(
    demand_blocks: Sequence[np.ndarray],
    levels: _CapacityLevels,
    memory_cap_mb: float,
    thresholds: Sequence[float] | None = None,
) -> np.ndarray:
    """``(n_traces, n_skus)`` violation counts: the one violation kernel.

    Traces are packed greedily into chunks of at most the cap's word
    budget; a trace longer than the budget is cut into word-aligned
    pieces that are counted separately and summed, each piece
    carrying its trace's threshold.  A chunk's counts are popcounts
    summed per piece over its word offsets.
    """
    if levels.threshold_column is not None and (
        thresholds is None or len(thresholds) != len(demand_blocks)
    ):
        raise ValueError("these capacity levels need one threshold per trace")
    budget = levels.words_per_chunk(memory_cap_mb)
    counts = np.zeros((len(demand_blocks), levels.rows.shape[0]), dtype=np.int64)
    owners: list[int] = []
    pieces: list[np.ndarray] = []
    offsets: list[int] = []
    n_words = 0

    def flush() -> None:
        nonlocal n_words
        if pieces:
            piece_thresholds = (
                None if thresholds is None else [thresholds[owner] for owner in owners]
            )
            popcounts = np.bitwise_count(levels.violation_words(pieces, piece_thresholds))
            sums = np.add.reduceat(popcounts, offsets, axis=1, dtype=np.int64)
            np.add.at(counts, owners, sums.T)
            owners.clear()
            pieces.clear()
            offsets.clear()
            n_words = 0

    step = budget * _WORD_SAMPLES
    for index, block in enumerate(demand_blocks):
        for start in range(0, block.shape[0], step):
            piece = block[start : start + step]
            words = -(-piece.shape[0] // _WORD_SAMPLES)
            if n_words + words > budget:
                flush()
            owners.append(index)
            pieces.append(piece)
            offsets.append(n_words)
            n_words += words
    flush()
    return counts


def violation_counts(
    demands: np.ndarray,
    caps: np.ndarray,
    memory_cap_mb: float = DEFAULT_KERNEL_MEMORY_CAP_MB,
) -> np.ndarray:
    """Per-SKU count of samples violating any dimension.

    The hot inner kernel of the empirical estimator: counts
    ``any_dim(demand > capacity)`` over an ``(n_samples, n_dims)``
    demand matrix and an ``(n_skus, n_dims)`` capacity matrix with the
    bitset kernel, never holding more than ``memory_cap_mb`` of
    transients (a longer trace is counted in word-aligned chunks).
    Counting integers and dividing once is bit-identical to
    ``violated.any(axis=2).mean(axis=1)`` (integer sums are exact in
    int64/float64 far beyond any realistic trace length), so chunking
    never changes a probability.
    """
    return _bitset_counts([demands], _CapacityLevels(caps), memory_cap_mb)[0]


def batch_violation_counts(
    demand_blocks: Sequence[np.ndarray],
    caps: np.ndarray | _CapacityLevels,
    memory_cap_mb: float = DEFAULT_KERNEL_MEMORY_CAP_MB,
    thresholds: Sequence[float] | None = None,
) -> np.ndarray:
    """Violation counts for many traces against one capacity matrix.

    The columnar fleet kernel: the traces share word-padded chunks
    (so the per-trace numpy dispatch overhead amortizes across the
    fleet) while the chunk transients stay under the memory cap.

    Args:
        demand_blocks: Per-trace ``(n_i, n_dims)`` demand matrices,
            all sharing one dimension order aligned with ``caps``.
        caps: ``(n_skus, n_dims)`` capacity matrix, or its prebuilt
            :class:`_CapacityLevels` (a memo reused across calls,
            possibly with a per-trace threshold row).
        memory_cap_mb: Bound on the kernel's transient bytes.
        thresholds: One threshold-row capacity per trace, when
            ``caps`` are levels with a threshold row.

    Returns:
        ``(n_traces, n_skus)`` int64 violation counts.
    """
    levels = caps if isinstance(caps, _CapacityLevels) else _CapacityLevels(caps)
    return _bitset_counts(demand_blocks, levels, memory_cap_mb, thresholds)


def violation_rows(demands: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """``(n_samples, n_skus)`` boolean any-dimension violation rows.

    The bitset kernel's words unpacked one row per sample, the layout
    of the incremental estimator's window ring.  The result itself is
    ``n_samples * n_skus`` bytes, so the kernel runs unchunked.
    """
    bits = _CapacityLevels(caps).violation_words([demands]).view(np.uint8)
    rows = np.unpackbits(bits, axis=1, count=demands.shape[0])
    return rows.view(bool).T


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
        overrides it with the batched bitset kernel.

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

    Both the single-trace and the batch path run the chunked bitset
    kernel, so its transients never exceed ``memory_cap_mb`` -- long
    traces against large catalogs stay memory-bounded without changing
    a single probability bit.

    Attributes:
        memory_cap_mb: Bound on the kernel's transient bytes.
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
        self,
        demand_blocks: Sequence[np.ndarray],
        caps: np.ndarray | _CapacityLevels,
        thresholds: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Many traces against one precomputed capacity matrix.

        The columnar fast path used by
        :meth:`~repro.core.ppm.PricePerformanceModeler.build_curves_batch`:
        the deployment's capacity levels are built once per modeler
        and the demand rows of every customer flow through shared
        kernel chunks (``caps`` and ``thresholds`` as in
        :func:`batch_violation_counts`).
        """
        counts = batch_violation_counts(
            demand_blocks, caps, self.memory_cap_mb, thresholds
        )
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
