"""Drift detection between live estimates and the last-built curve.

A live assessment keeps two views of the same statistic: the
incremental per-SKU throttling estimates, updated on every sample, and
the price-performance curve, rebuilt only occasionally because curve
construction (and the profiling/selection that follows) costs a full
pass over the window.  The :class:`DriftDetector` decides when the two
have diverged enough that the curve is stale: it remembers the
estimates the last curve was built on (the *baseline*) and reports the
largest per-SKU divergence of the current estimates from it.

Probability drift is the right trigger -- not sample count, not wall
time -- because SKU selection is a function of the probabilities
alone: while every SKU's estimate is within ``threshold`` of the
baseline, the curve the customer sees is within ``threshold`` of the
truth, and re-ranking cannot move by more than neighbouring points.

The check runs on the per-sample hot path, so the baseline is stored
as an ndarray aligned with a fixed SKU-name tuple and the divergence
is one vectorized pass; the mapping-based methods exist for callers
whose SKU sets vary between checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = ["DriftDetector", "DriftReport", "DEFAULT_DRIFT_THRESHOLD"]

#: Default refresh trigger: a 2-percentage-point shift in any SKU's
#: throttling probability, half the paper's coarsest negotiability
#: band, so re-ranking stays ahead of customer-visible changes.
DEFAULT_DRIFT_THRESHOLD = 0.02


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check.

    Attributes:
        max_divergence: Largest per-SKU absolute probability shift
            since the baseline.
        worst_sku: SKU name realizing ``max_divergence`` (None when
            the baseline is empty).
        threshold: The trigger level the check compared against.
    """

    max_divergence: float
    worst_sku: str | None
    threshold: float

    @property
    def drifted(self) -> bool:
        """True when the divergence crosses the refresh threshold."""
        return self.max_divergence > self.threshold


class DriftDetector:
    """Tracks per-SKU probability divergence from a rebase point.

    Attributes:
        threshold: Divergence level at which :class:`DriftReport`
            reports drift.
    """

    def __init__(self, threshold: float = DEFAULT_DRIFT_THRESHOLD) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
        self.threshold = threshold
        self._names: tuple[str, ...] = ()
        self._baseline: np.ndarray | None = None

    @property
    def has_baseline(self) -> bool:
        return self._baseline is not None and self._baseline.size > 0

    # ------------------------------------------------------------------
    # Vectorized interface (the per-sample hot path)
    # ------------------------------------------------------------------
    def rebase_vector(self, names: Sequence[str], values: np.ndarray) -> None:
        """Adopt aligned estimates as the new comparison point.

        Called whenever a fresh curve is issued: from here on, drift
        means divergence from what that curve was built on.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(names),):
            raise ValueError(
                f"expected {len(names)} values, got shape {values.shape}"
            )
        self._names = tuple(names)
        self._baseline = values.copy()

    def check_vector(self, values: np.ndarray) -> DriftReport:
        """Compare estimates aligned with the rebased names (one pass).

        ``values`` must follow the same SKU order as the last
        :meth:`rebase_vector` call -- the live loop guarantees this by
        always reading the same estimator.
        """
        if self._baseline is None or self._baseline.size == 0:
            return DriftReport(
                max_divergence=0.0, worst_sku=None, threshold=self.threshold
            )
        values = np.asarray(values, dtype=float)
        if values.shape != self._baseline.shape:
            raise ValueError(
                f"expected {self._baseline.shape[0]} values, got shape {values.shape}"
            )
        divergence = np.abs(values - self._baseline)
        worst = int(np.argmax(divergence))
        return DriftReport(
            max_divergence=float(divergence[worst]),
            worst_sku=self._names[worst],
            threshold=self.threshold,
        )

    @staticmethod
    def check_rows(
        detectors: "Sequence[DriftDetector]", values: np.ndarray
    ) -> "list[DriftReport | Exception]":
        """Check row ``i`` of ``values`` against ``detectors[i]``, for every ``i``.

        The block form of :meth:`check_vector`, which the live loop
        runs once per wave of samples: the divergences of all rows
        whose detector holds a baseline of their width come from one
        subtraction against the stacked baselines, each row's maximum
        taken at its first argmax, so every report equals
        :meth:`check_vector`'s for that row.  A detector without a
        baseline reports no divergence.  Results align with
        ``detectors``: a report, or the ``ValueError`` a row whose
        width differs from its baseline's raises in
        :meth:`check_vector`.
        """
        n_rows, width = values.shape
        reports: list = [None] * n_rows
        checked: list[int] = []
        for index, detector in enumerate(detectors):
            baseline = detector._baseline
            if baseline is None or baseline.size == 0:
                reports[index] = DriftReport(
                    max_divergence=0.0, worst_sku=None, threshold=detector.threshold
                )
            elif baseline.shape != (width,):
                reports[index] = ValueError(
                    f"expected {baseline.shape[0]} values, got shape {(width,)}"
                )
            else:
                checked.append(index)
        if not checked:
            return reports
        if len(checked) < n_rows:
            values = values[checked]
        divergence = np.abs(values - np.array([detectors[i]._baseline for i in checked]))
        worst = divergence.argmax(axis=1)
        maxima = divergence[np.arange(len(checked)), worst].tolist()
        for index, column, maximum in zip(checked, worst.tolist(), maxima):
            detector = detectors[index]
            reports[index] = DriftReport(
                max_divergence=maximum,
                worst_sku=detector._names[column],
                threshold=detector.threshold,
            )
        return reports

    # ------------------------------------------------------------------
    # Snapshot / restore (worker handoff)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Picklable snapshot of the rebase point."""
        return {
            "names": self._names,
            "baseline": None if self._baseline is None else self._baseline.copy(),
        }

    def load_state(self, state: dict) -> None:
        """Adopt a :meth:`state_dict` snapshot; the inverse operation."""
        baseline = state["baseline"]
        names = tuple(state["names"])
        if baseline is not None:
            baseline = np.asarray(baseline, dtype=float).copy()
            if baseline.shape != (len(names),):
                raise ValueError(
                    f"snapshot baseline shape {baseline.shape} does not match "
                    f"its {len(names)} SKU names"
                )
        self._names = names
        self._baseline = baseline

    @staticmethod
    def state_from_arrays(skeleton: dict, arrays: list[np.ndarray]) -> dict:
        """Rebuild a :meth:`state_dict` from a ``DSF1`` blob's arrays.

        Reads the array-framed store blobs written before state blobs
        became plain pickles (see
        :func:`~repro.streaming.live.unflatten_state`): the baseline
        vector, if any, from the arrays and the SKU names from the
        skeleton.  Copies the array out.
        """
        return {
            "names": skeleton["names"],
            "baseline": np.array(arrays[skeleton["base"]], dtype=float)
            if skeleton["has_baseline"]
            else None,
        }

    # ------------------------------------------------------------------
    # Mapping interface (varying SKU sets)
    # ------------------------------------------------------------------
    def rebase(self, estimates: Mapping[str, float]) -> None:
        """Adopt the current estimates as the new comparison point."""
        self.rebase_vector(tuple(estimates), np.fromiter(estimates.values(), float))

    def check(self, estimates: Mapping[str, float]) -> DriftReport:
        """Compare current estimates against the baseline.

        SKUs absent from the baseline (or from ``estimates``) are
        ignored: drift is only meaningful for SKUs both views cover.
        """
        if self._baseline is None:
            return DriftReport(
                max_divergence=0.0, worst_sku=None, threshold=self.threshold
            )
        baseline = dict(zip(self._names, self._baseline))
        max_divergence = 0.0
        worst: str | None = None
        for name, probability in estimates.items():
            base = baseline.get(name)
            if base is None:
                continue
            divergence = abs(probability - base)
            if divergence > max_divergence or worst is None:
                max_divergence = divergence
                worst = name
        return DriftReport(
            max_divergence=max_divergence, worst_sku=worst, threshold=self.threshold
        )
