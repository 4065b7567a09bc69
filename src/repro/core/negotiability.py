"""Negotiability summarizers (paper Section 3.3).

The Customer Profiler compresses each performance dimension's counter
series into one scalar describing how *negotiable* the dimension is:
"if the spikiness of customers' performance counters is rare and
short-lived, consider that performance dimension negotiable".  The
paper compares six summarization strategies (Section 5.2.1, Table 4):

1. **Thresholding algorithm** (deployed in production): find the max
   peak, form a window one standard deviation below it, and measure the
   fraction of the assessment period spent inside the window.  A long
   stay near the peak (> rho) means the demand is sustained and the
   dimension is *non-negotiable*.
2. **MinMax Scaler AUC**: AUC of the ECDF after min-max scaling; high
   AUC indicates transiently spiky usage (negotiable).
3. **Max Scaler AUC**: like (2) but only max-scaled, which better
   separates large spikes.
4. **Outlier percentage**: the fraction of samples at least three
   standard deviations from the mean; spiky series have a small but
   positive fraction, steady ones none.
5. **STL variance decomposition**: ``max(0, 1 - var(I)/var(R))``; a
   low score means the series is residual (spike) driven.
6. **MinMax AUC combined with thresholding**: the concatenated feature
   vector of (2) and (1).

Each summarizer exposes a continuous ``features`` vector (the
clustering input of equation (2)) and a binary ``is_negotiable``
decision (the enumeration grouping deployed in DMA).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..ml.auc import ecdf_auc
from ..ml.outliers import outlier_fraction
from ..ml.scaling import max_scale, minmax_scale
from ..ml.stl import stl_variance_score
from ..telemetry.timeseries import TimeSeries

__all__ = [
    "NegotiabilitySummarizer",
    "ThresholdingSummarizer",
    "MinMaxAucSummarizer",
    "MaxAucSummarizer",
    "OutlierSummarizer",
    "StlSummarizer",
    "CombinedSummarizer",
    "ALL_SUMMARIZERS",
]


class NegotiabilitySummarizer(abc.ABC):
    """Collapses one counter series into negotiability evidence."""

    #: Stable identifier used in reports and Table-4 rows.
    name: str = "abstract"

    @abc.abstractmethod
    def features(self, series: TimeSeries) -> np.ndarray:
        """Continuous feature vector for clustering (equation (2))."""

    @abc.abstractmethod
    def is_negotiable(self, series: TimeSeries) -> bool:
        """Binary negotiability decision for enumeration grouping."""

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        """``(features, is_negotiable)`` in one pass.

        The profiling hot path needs both outputs per dimension;
        summarizers whose decision derives from their feature scalar
        override this to compute the statistic once.  The default
        simply calls both methods.
        """
        return self.features(series), self.is_negotiable(series)

    #: Whether :meth:`summarize_batch` is implemented.  Batched
    #: profiling (the fleet fit path's columnar aggregation tail)
    #: stacks same-length windows into one matrix; it is only
    #: worthwhile for summarizers whose statistic vectorizes across
    #: rows with byte-identical results.
    supports_batch: ClassVar[bool] = False

    def summarize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise ``(features, is_negotiable)`` over stacked windows.

        ``values`` is an ``(n_series, n_samples)`` matrix of raw
        counter windows, one series per row.  Returns an
        ``(n_series, n_features)`` feature matrix and an
        ``(n_series,)`` boolean decision vector whose rows are
        byte-identical to per-series :meth:`summarize` calls.
        """
        raise NotImplementedError(
            f"summarizer {self.name!r} has no batched evaluation; "
            "profile traces one at a time"
        )


@dataclass(frozen=True)
class ThresholdingSummarizer(NegotiabilitySummarizer):
    """The production thresholding algorithm (paper Section 3.3).

    Attributes:
        rho: Fraction of the assessment period spent near the peak
            above which the dimension is non-negotiable.  The paper
            tuned rho with sensitivity analyses; 0.1 is the default
            here and ``bench_ablation_rho`` sweeps it.
        window_sigmas: Width of the near-peak window in standard
            deviations below the max (paper: one).
    """

    rho: float = 0.1
    window_sigmas: float = 1.0
    name: str = "thresholding"

    def near_peak_fraction(self, series: TimeSeries) -> float:
        """Fraction of samples within ``window_sigmas``*std of the max."""
        values = series.values
        peak = values.max()
        spread = values.std()
        if spread == 0:
            # A perfectly constant series is always at its peak:
            # sustained demand, nothing to negotiate.
            return 1.0
        window_floor = peak - self.window_sigmas * spread
        return float(np.mean(values >= window_floor))

    def features(self, series: TimeSeries) -> np.ndarray:
        return np.array([self.near_peak_fraction(series)])

    def is_negotiable(self, series: TimeSeries) -> bool:
        return self.near_peak_fraction(series) < self.rho

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        fraction = self.near_peak_fraction(series)
        return np.array([fraction]), fraction < self.rho

    supports_batch: ClassVar[bool] = True

    def near_peak_fraction_batch(self, values: np.ndarray) -> np.ndarray:
        """Row-wise near-peak fractions over stacked counter windows.

        One ``(n_series, n_samples)`` broadcast instead of one Python
        call per series.  Each row reduces along contiguous memory
        exactly as the 1-D path does (same pairwise summation), so
        fractions are byte-identical to :meth:`near_peak_fraction`.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError(
                f"expected a (n_series, n_samples) matrix, got shape {values.shape}"
            )
        peaks = values.max(axis=1)
        spreads = values.std(axis=1)
        floors = peaks - self.window_sigmas * spreads
        fractions = np.mean(values >= floors[:, None], axis=1)
        # A perfectly constant series is always at its peak: sustained
        # demand, nothing to negotiate (same branch as the 1-D path).
        return np.where(spreads == 0, 1.0, fractions)

    def summarize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fractions = self.near_peak_fraction_batch(values)
        return fractions[:, None], fractions < self.rho


@dataclass(frozen=True)
class MinMaxAucSummarizer(NegotiabilitySummarizer):
    """ECDF AUC after min-max scaling; high AUC = spiky = negotiable."""

    cutoff: float = 0.7
    name: str = "minmax_auc"

    def auc(self, series: TimeSeries) -> float:
        return ecdf_auc(minmax_scale(series.values))

    def features(self, series: TimeSeries) -> np.ndarray:
        return np.array([self.auc(series)])

    def is_negotiable(self, series: TimeSeries) -> bool:
        return self.auc(series) > self.cutoff

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        auc = self.auc(series)
        return np.array([auc]), auc > self.cutoff

    supports_batch: ClassVar[bool] = True

    def auc_batch(self, values: np.ndarray) -> np.ndarray:
        """Row-wise min-max ECDF AUCs over stacked counter windows.

        Replicates the serial ``ecdf_auc(minmax_scale(row))``
        elementwise -- scale, clip, then a row mean reducing along
        contiguous memory with the same pairwise summation as the 1-D
        path -- so values are byte-identical to :meth:`auc`, not just
        the closed form's algebraic equal.  Constant rows take the
        all-zeros branch of :func:`~repro.ml.scaling.minmax_scale`
        (AUC 1.0), exactly as in the serial path.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError(
                f"expected a (n_series, n_samples) matrix, got shape {values.shape}"
            )
        lows = values.min(axis=1)
        spreads = values.max(axis=1) - lows
        # Exactly the serial branch condition: a spread is never
        # negative, so only == 0 takes the all-zeros branch; a NaN
        # spread (NaN in the window) divides and propagates NaN,
        # keeping the not-negotiable decision serial profiling makes.
        constant = spreads == 0
        safe = np.where(constant, 1.0, spreads)
        scaled = (values - lows[:, None]) / safe[:, None]
        aucs = 1.0 - np.clip(scaled, 0.0, 1.0).mean(axis=1)
        return np.where(constant, 1.0, aucs)

    def summarize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        aucs = self.auc_batch(values)
        return aucs[:, None], aucs > self.cutoff


@dataclass(frozen=True)
class MaxAucSummarizer(NegotiabilitySummarizer):
    """ECDF AUC after max scaling; "better identifies large spikes"."""

    cutoff: float = 0.6
    name: str = "max_auc"

    def auc(self, series: TimeSeries) -> float:
        return ecdf_auc(max_scale(series.values))

    def features(self, series: TimeSeries) -> np.ndarray:
        return np.array([self.auc(series)])

    def is_negotiable(self, series: TimeSeries) -> bool:
        return self.auc(series) > self.cutoff

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        auc = self.auc(series)
        return np.array([auc]), auc > self.cutoff

    supports_batch: ClassVar[bool] = True

    def auc_batch(self, values: np.ndarray) -> np.ndarray:
        """Row-wise max-scale ECDF AUCs over stacked counter windows.

        Same elementwise replication as
        :meth:`MinMaxAucSummarizer.auc_batch`, so values are
        byte-identical to per-series :meth:`auc` calls.  Rows with a
        non-positive peak take :func:`~repro.ml.scaling.max_scale`'s
        all-zeros branch (AUC 1.0); a row mixing a positive peak with
        negative samples raises the same normalization error
        :func:`~repro.ml.auc.ecdf_auc` would, so batch and per-series
        profiling never silently diverge.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError(
                f"expected a (n_series, n_samples) matrix, got shape {values.shape}"
            )
        peaks = values.max(axis=1)
        # Serial branch parity, NaN included: ``peak <= 0`` is False
        # for NaN, so a NaN window divides and propagates NaN instead
        # of silently reading as idle (AUC 1.0 = negotiable).
        idle = peaks <= 0
        safe = np.where(idle, 1.0, peaks)
        scaled = values / safe[:, None]
        mins = scaled.min(axis=1)
        maxs = scaled.max(axis=1)
        bad = ~idle & ((mins < -1e-12) | (maxs > 1.0 + 1e-12))
        if np.any(bad):
            row = int(np.argmax(bad))
            raise ValueError(
                f"sample must be normalized into [0, 1]; got range "
                f"[{mins[row]:.4g}, {maxs[row]:.4g}]"
            )
        aucs = 1.0 - np.clip(scaled, 0.0, 1.0).mean(axis=1)
        return np.where(idle, 1.0, aucs)

    def summarize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        aucs = self.auc_batch(values)
        return aucs[:, None], aucs > self.cutoff


@dataclass(frozen=True)
class OutlierSummarizer(NegotiabilitySummarizer):
    """3-sigma outlier share; a positive share flags transient spikes."""

    n_sigma: float = 3.0
    cutoff: float = 0.002
    name: str = "outlier_pct"

    def features(self, series: TimeSeries) -> np.ndarray:
        return np.array([outlier_fraction(series.values, n_sigma=self.n_sigma)])

    def is_negotiable(self, series: TimeSeries) -> bool:
        return outlier_fraction(series.values, n_sigma=self.n_sigma) > self.cutoff

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        fraction = outlier_fraction(series.values, n_sigma=self.n_sigma)
        return np.array([fraction]), fraction > self.cutoff

    supports_batch: ClassVar[bool] = True

    def outlier_fraction_batch(self, values: np.ndarray) -> np.ndarray:
        """Row-wise 3-sigma upward-outlier shares over stacked windows.

        The statistic is a per-row rank query -- the fraction of
        samples at least ``mean + n_sigma * std`` -- and both moments
        reduce along contiguous rows exactly as the 1-D path does
        (same pairwise summation), so fractions are byte-identical to
        :func:`~repro.ml.outliers.outlier_fraction` per row.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError(
                f"expected a (n_series, n_samples) matrix, got shape {values.shape}"
            )
        spreads = values.std(axis=1)
        deviations = values - values.mean(axis=1)[:, None]
        fractions = np.mean(deviations >= self.n_sigma * spreads[:, None], axis=1)
        # A constant series has zero outliers (same branch as the 1-D
        # path; the comparison above would count every sample).
        return np.where(spreads == 0, 0.0, fractions)

    def summarize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fractions = self.outlier_fraction_batch(values)
        return fractions[:, None], fractions > self.cutoff


@dataclass(frozen=True)
class StlSummarizer(NegotiabilitySummarizer):
    """STL explained-variance score; residual-driven series negotiate.

    A low explained-variance score alone does not imply spikes: a
    plateau with small unstructured measurement noise is also
    residual-driven, yet its demand is sustained.  The binary decision
    therefore additionally requires the residual to be *large* relative
    to the demand level (coefficient of variation above
    ``min_variation``) before calling the dimension negotiable.

    Attributes:
        period_samples: Seasonal period in samples (one day at the
            10-minute DMA cadence = 144).
        cutoff: Explained-variance score below which the series is
            dominated by irregular variation.
        min_variation: Minimum coefficient of variation (std/mean) for
            the irregular variation to count as spikes worth
            negotiating over.
    """

    period_samples: int = 144
    cutoff: float = 0.6
    min_variation: float = 0.3
    name: str = "stl_variance"

    def score(self, series: TimeSeries) -> float:
        n = len(series)
        period = self.period_samples
        if n < 2 * period:
            # Short trace: fall back to the largest period that fits.
            period = max(2, n // 2)
        return stl_variance_score(series.values, period=period)

    def _coefficient_of_variation(self, series: TimeSeries) -> float:
        mean = series.mean()
        if mean <= 0:
            return 0.0
        return series.std() / mean

    def features(self, series: TimeSeries) -> np.ndarray:
        return np.array([self.score(series)])

    def is_negotiable(self, series: TimeSeries) -> bool:
        return (
            self.score(series) < self.cutoff
            and self._coefficient_of_variation(series) > self.min_variation
        )

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        score = self.score(series)  # one STL decomposition, not two
        negotiable = (
            score < self.cutoff
            and self._coefficient_of_variation(series) > self.min_variation
        )
        return np.array([score]), negotiable


@dataclass(frozen=True)
class CombinedSummarizer(NegotiabilitySummarizer):
    """MinMax AUC features concatenated with thresholding features.

    The paper's sixth strategy ("MinMax Scaler AUC result combined with
    thresholding").  The binary decision requires both components to
    agree the dimension is negotiable, which is the conservative
    composition: disagreement means the spike evidence is ambiguous
    and the engine should not negotiate the dimension away.
    """

    auc: MinMaxAucSummarizer = MinMaxAucSummarizer()
    thresholding: ThresholdingSummarizer = ThresholdingSummarizer()
    name: str = "minmax_auc_plus_thresholding"

    def features(self, series: TimeSeries) -> np.ndarray:
        return np.concatenate([self.auc.features(series), self.thresholding.features(series)])

    def is_negotiable(self, series: TimeSeries) -> bool:
        return self.auc.is_negotiable(series) and self.thresholding.is_negotiable(series)

    def summarize(self, series: TimeSeries) -> tuple[np.ndarray, bool]:
        auc_features, auc_negotiable = self.auc.summarize(series)
        threshold_features, threshold_negotiable = self.thresholding.summarize(series)
        return (
            np.concatenate([auc_features, threshold_features]),
            auc_negotiable and threshold_negotiable,
        )

    supports_batch: ClassVar[bool] = True

    def summarize_batch(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both components batched; decisions AND row-wise as in serial."""
        auc_features, auc_negotiable = self.auc.summarize_batch(values)
        threshold_features, threshold_negotiable = self.thresholding.summarize_batch(values)
        return (
            np.concatenate([auc_features, threshold_features], axis=1),
            auc_negotiable & threshold_negotiable,
        )


#: The six strategies compared in paper Table 4, in row order.
ALL_SUMMARIZERS: tuple[NegotiabilitySummarizer, ...] = (
    MinMaxAucSummarizer(),
    MaxAucSummarizer(),
    ThresholdingSummarizer(),
    OutlierSummarizer(),
    StlSummarizer(),
    CombinedSummarizer(),
)
