"""Incremental (online) throttling-probability estimation.

:class:`~repro.core.throttling.EmpiricalThrottlingEstimator` answers
"what fraction of time points violate each SKU's capacity" by
rescanning the whole trace on every call -- exact, but O(n_samples)
kernel work per evaluation.  Under continuous telemetry that cost is
paid per *sample* if recommendations must stay fresh, turning a
linear stream into a quadratic bill.

:class:`IncrementalThrottlingEstimator` maintains the same statistic
online: per-SKU running violation counts over a bounded sliding
window.  Each new sample costs O(n_skus * n_dims) -- evaluate the
violation predicate once against the capacity matrix, add the fresh
violation row, retire the aged-out one.  Because both estimators count
the same integer violations and divide by the same window length, the
incremental probabilities match the batch estimator *exactly* on
identical windows (integer counts are exact in float64 far beyond any
realistic window size), which the streaming test suite pins to 1e-12.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..catalog.models import SkuSpec
from ..telemetry.counters import PerfDimension
from ..telemetry.streaming import parse_sample
from ..telemetry.trace import PerformanceTrace
from .throttling import (
    apply_iops_overrides,
    capacity_matrix,
    demand_matrix,
    invert_latency,
    violation_counts,
    violation_rows,
)

__all__ = ["IncrementalThrottlingEstimator"]


class IncrementalThrottlingEstimator:
    """Per-SKU running violation counts over a sliding sample window.

    Unlike the stateless :class:`ThrottlingEstimator` family, this
    estimator is bound at construction to one candidate SKU set and
    one dimension tuple -- the configuration of a live assessment --
    and carries mutable window state between updates.

    Typical use::

        estimator = IncrementalThrottlingEstimator(skus, dimensions, window=1008)
        for sample in telemetry_feed:          # {dimension: value}
            estimator.update(sample)
            fresh = estimator.probabilities()  # O(n_skus), no re-scan

    Attributes:
        skus: Candidate SKUs, fixed for the estimator's lifetime.
        dimensions: Performance dimensions evaluated jointly.
        window: Sliding-window length in samples; ``None`` keeps the
            whole stream (running counts, no eviction).
    """

    def __init__(
        self,
        skus: list[SkuSpec],
        dimensions: tuple[PerfDimension, ...],
        window: int | None = None,
        iops_overrides: dict[str, float] | None = None,
        capacities: np.ndarray | None = None,
    ) -> None:
        """Bind the estimator to one candidate set and dimension tuple.

        Args:
            skus: Candidate SKUs.
            dimensions: Performance dimensions evaluated jointly.
            window: Sliding-window length in samples (None: unbounded).
            iops_overrides: Per-SKU-name IOPS capacities (the MI
                file-layout limit of paper Section 3.2 Step 2).
            capacities: The override-free ``(n_skus, n_dims)`` capacity
                matrix of ``skus`` over ``dimensions`` -- normally a
                modeler's memoized one
                (:meth:`~repro.core.ppm.PricePerformanceModeler.capacity_matrix_for`),
                shared and never written.  Built from ``skus`` when
                omitted.
        """
        if not dimensions:
            raise ValueError("the estimator needs at least one dimension")
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1 sample, got {window!r}")
        self.skus = tuple(skus)
        self.dimensions = tuple(dimensions)
        self.window = window
        # Same capacity construction as the batch estimators, so the
        # two agree bit-for-bit on the violation predicate.
        if capacities is None:
            capacities = capacity_matrix(list(self.skus), self.dimensions)
        elif capacities.shape != (len(self.skus), len(self.dimensions)):
            raise ValueError(
                f"capacities of shape {capacities.shape} do not cover "
                f"{len(self.skus)} SKUs x {len(self.dimensions)} dimensions"
            )
        self._base_caps = capacities
        self._set_overrides(iops_overrides)
        self._latency_columns = tuple(
            column for column, dim in enumerate(self.dimensions) if dim.lower_is_better
        )
        self._counts = np.zeros(len(self.skus), dtype=np.int64)
        self._ring = (
            np.zeros((window, len(self.skus)), dtype=bool) if window is not None else None
        )
        self._n_seen = 0

    @classmethod
    def from_trace(
        cls,
        trace: PerformanceTrace,
        skus: list[SkuSpec],
        dimensions: tuple[PerfDimension, ...] | None = None,
        window: int | None = None,
        iops_overrides: dict[str, float] | None = None,
    ) -> "IncrementalThrottlingEstimator":
        """Seed an estimator from an existing trace's samples.

        The batch-ingestion path for warm starts: the trace's samples
        enter the window in chronological order, so the resulting
        state equals feeding them through :meth:`update` one by one.
        """
        dims = dimensions if dimensions is not None else trace.dimensions
        estimator = cls(skus, dims, window=window, iops_overrides=iops_overrides)
        estimator.ingest_trace(trace)
        return estimator

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, sample: Mapping[PerfDimension, float]) -> None:
        """Fold one aligned counter sample into the window.

        O(n_skus * n_dims): one violation-predicate evaluation against
        the capacity matrix plus a count add/retire -- no traversal of
        the sample history.

        Raises:
            KeyError: If a declared dimension is missing.
            ValueError: If any declared value is non-finite.
        """
        self.update_vector(parse_sample(sample, self.dimensions))

    def update_vector(self, raw: np.ndarray) -> None:
        """Fold one already-validated raw counter row into the window.

        The fast path for callers that parsed the sample themselves
        (the live loop validates once in its ring buffer and hands the
        row straight through).  ``raw`` must align with
        :attr:`dimensions` and contain finite, *uninverted* values; it
        is not modified.

        One vector compare per sample: only the latency columns are
        inverted (into a copy), and the demand column is compared
        against the transposed ``(n_dims, n_skus)`` capacity matrix, so
        the any-dimension reduction runs along the long SKU axis.
        """
        raw = np.asarray(raw, dtype=float)
        if raw.shape != (len(self.dimensions),):
            raise ValueError(
                f"expected {len(self.dimensions)} values, got shape {raw.shape}"
            )
        demand = raw
        if self._latency_columns:
            demand = raw.copy()
            for column in self._latency_columns:
                demand[column] = invert_latency(raw[column])
        self._apply_row((demand[:, None] > self._caps_by_dimension).any(axis=0))

    def ingest_trace(self, trace: PerformanceTrace) -> None:
        """Fold a whole trace in chronological order (vectorized).

        Equivalent to feeding the samples through :meth:`update` one
        by one, but the dominant cases never drop to a Python loop:
        unbounded windows add the batch kernel's counts, and batches
        at least as long as the window replace the ring wholesale with
        the kernel's unpacked rows (everything older ages out anyway).
        """
        demands = demand_matrix(trace, self.dimensions)
        n_rows = demands.shape[0]
        if self._ring is None:
            self._counts += violation_counts(demands, self._caps)
            self._n_seen += n_rows
            return
        if n_rows >= self.window:
            tail = violation_rows(demands[-self.window :], self._caps)
            start = self._n_seen + n_rows - self.window
            slots = np.arange(start, start + self.window) % self.window
            self._ring[slots] = tail
            self._counts = tail.sum(axis=0, dtype=np.int64)
            self._n_seen += n_rows
            return
        violated = violation_rows(demands, self._caps)
        for row in violated:  # partial batch: merge with surviving state
            self._apply_row(row)

    @property
    def iops_overrides(self) -> dict[str, float] | None:
        """The per-SKU IOPS overrides folded into the capacity matrix."""
        return dict(self._iops_overrides) if self._iops_overrides else None

    def rebase_capacity(
        self,
        iops_overrides: dict[str, float] | None,
        trace: PerformanceTrace | None = None,
    ) -> None:
        """Replace the IOPS overrides and rebuild window state.

        The MI streaming-parity hook (paper Section 3.2 Step 2): the
        GP IOPS capacity is the planned file layout's summed disk
        limit, and the layout moves when the data footprint crosses a
        disk-size boundary.  Counted violations in the window were
        evaluated against the *old* capacities, so they cannot be
        patched in place; the caller supplies the current window
        (normally the live ring buffer's snapshot) and the estimator
        re-derives counts against the new capacity matrix in one
        vectorized pass -- an O(window) cost paid only when the layout
        actually changes.

        After the call the estimator matches a fresh
        ``from_trace(trace, ..., iops_overrides=...)`` construction
        exactly; ``n_seen`` restarts at the window length.

        Args:
            iops_overrides: The new per-SKU-name IOPS capacities
                (None clears every override).
            trace: The current assessment window to replay; omit only
                when no samples have been ingested yet.

        Raises:
            ValueError: If samples were ingested but no trace is
                given -- silently dropping the window would skew every
                subsequent estimate.
        """
        if trace is None and self._n_seen > 0:
            raise ValueError(
                "rebase_capacity needs the current window trace once samples "
                "have been ingested; the counted violations are stale under "
                "the new capacity matrix"
            )
        self._set_overrides(iops_overrides)
        self._counts[:] = 0
        if self._ring is not None:
            self._ring[:] = False
        self._n_seen = 0
        if trace is not None:
            self.ingest_trace(trace)

    def _set_overrides(self, iops_overrides: dict[str, float] | None) -> None:
        """Adopt IOPS overrides: a column write on a copy of the base caps.

        Also rebuilds the transposed, contiguous copy of the capacities
        that :meth:`update_vector` compares against, so every override
        change (:meth:`rebase_capacity`, :meth:`load_state`) keeps the
        per-sample predicate current.
        """
        self._iops_overrides = dict(iops_overrides) if iops_overrides else None
        self._caps = apply_iops_overrides(
            self._base_caps, self.skus, self.dimensions, self._iops_overrides
        )
        self._caps_by_dimension = np.ascontiguousarray(self._caps.T)

    def _apply_row(self, violated: np.ndarray) -> None:
        if self._ring is not None:
            slot = self._n_seen % self.window
            if self._n_seen >= self.window:
                self._counts -= self._ring[slot]
            self._ring[slot] = violated
        self._counts += violated
        self._n_seen += 1

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    @property
    def n_seen(self) -> int:
        """Samples ever ingested (including aged-out ones)."""
        return self._n_seen

    @property
    def n_window(self) -> int:
        """Samples currently inside the window."""
        if self.window is None:
            return self._n_seen
        return min(self._n_seen, self.window)

    def probabilities(self) -> np.ndarray:
        """Current per-SKU throttling probability, aligned with ``skus``.

        Exactly ``violations_in_window / n_window`` -- the statistic
        :class:`EmpiricalThrottlingEstimator` computes from scratch.

        Raises:
            ValueError: If no samples have been ingested yet.
        """
        if self.n_window == 0:
            raise ValueError("no samples ingested yet")
        return self._counts / self.n_window

    # ------------------------------------------------------------------
    # Snapshot / restore (worker handoff)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Picklable snapshot of the window counts and capacity overrides.

        The violation ring is not included: it is a pure function of
        the window's samples and the capacity matrix, so
        :meth:`load_state` rebuilds it from the window trace, and the
        per-SKU ``counts`` check the rebuild.  Configuration (SKU set,
        dimensions) is not included either: restore targets must be
        constructed with matching parameters.  The window length is,
        to check that; overrides are too, since they move at run time
        (:meth:`rebase_capacity`).
        """
        return {
            "n_seen": self._n_seen,
            "window": self.window,
            "counts": self._counts.copy(),
            "iops_overrides": dict(self._iops_overrides)
            if self._iops_overrides
            else None,
        }

    def load_state(
        self, state: dict, window_trace: PerformanceTrace | None = None
    ) -> None:
        """Adopt a :meth:`state_dict` snapshot; the inverse operation.

        Re-applies the snapshot's overrides to this estimator's base
        capacities, then rebuilds a bounded window's violation ring
        with one :func:`~repro.core.throttling.violation_rows` pass
        over ``window_trace`` -- the window's samples in chronological
        order, normally the live trace builder's snapshot -- in the
        slots this estimator's own ``n_seen`` assigns them (which
        differ from the builder's after a :meth:`rebase_capacity`).
        The restored estimator continues exactly where the source left
        off, mid-stream MI layout rebases included.  Snapshots that
        still carry a ``ring`` (written before rings were rebuilt)
        adopt it as stored.

        Args:
            state: A :meth:`state_dict` snapshot.
            window_trace: The samples inside the window; needed when a
                bounded window holds samples and the snapshot carries
                no ring.

        Raises:
            ValueError: If the snapshot's shapes or windowing disagree
                with this estimator, the window trace is missing or of
                the wrong length, or the rebuilt ring's per-SKU counts
                differ from the snapshot's.
        """
        counts = np.asarray(state["counts"], dtype=np.int64)
        if counts.shape != self._counts.shape:
            raise ValueError(
                f"snapshot tracks {counts.shape[0]} SKUs; this estimator "
                f"tracks {self._counts.shape[0]}"
            )
        if "ring" in state:
            ring = state["ring"]
            bounded = ring is not None
        else:
            ring = None
            bounded = state["window"] is not None
        if bounded != (self._ring is not None):
            raise ValueError(
                "snapshot and estimator disagree on windowing "
                "(bounded vs unbounded)"
            )
        if ring is not None:
            ring = np.array(ring, dtype=bool)
            if ring.shape != self._ring.shape:
                raise ValueError(
                    f"snapshot ring shape {ring.shape} does not match "
                    f"this estimator's {self._ring.shape}"
                )
        elif bounded and state["window"] != self.window:
            raise ValueError(
                f"snapshot window {state['window']} does not match "
                f"this estimator's {self.window}"
            )
        n_seen = int(state["n_seen"])
        self._set_overrides(state["iops_overrides"])
        if bounded and ring is None:
            ring = self._rebuild_ring(n_seen, window_trace)
            if not np.array_equal(ring.sum(axis=0, dtype=np.int64), counts):
                raise ValueError(
                    "snapshot counts disagree with the violation ring rebuilt "
                    "from the window samples; the snapshot or the window is "
                    "corrupt"
                )
        self._counts = counts.copy()
        self._ring = ring
        self._n_seen = n_seen

    def _rebuild_ring(
        self, n_seen: int, window_trace: PerformanceTrace | None
    ) -> np.ndarray:
        """The violation ring of a window whose samples are ``window_trace``."""
        ring = np.zeros((self.window, len(self.skus)), dtype=bool)
        n_window = min(n_seen, self.window)
        if n_window == 0:
            return ring
        if window_trace is None:
            raise ValueError(
                "restoring a windowed estimator needs the window's samples "
                "to rebuild its violation ring"
            )
        demands = demand_matrix(window_trace, self.dimensions)
        if demands.shape[0] != n_window:
            raise ValueError(
                f"window trace holds {demands.shape[0]} samples; the snapshot's "
                f"window holds {n_window}"
            )
        slots = np.arange(n_seen - n_window, n_seen) % self.window
        ring[slots] = violation_rows(demands, self._caps)
        return ring

    @staticmethod
    def state_from_arrays(skeleton: dict, arrays: list[np.ndarray]) -> dict:
        """Rebuild a :meth:`state_dict` from a ``DSF1`` blob's arrays.

        Reads the array-framed store blobs written before state blobs
        became plain pickles (see
        :func:`~repro.streaming.live.unflatten_state`), in both
        layouts: the older one that stored the violation ring
        (``has_ring`` in the skeleton) and the ring-free one, whose
        ring :meth:`load_state` rebuilds.  Copies every array out.
        """
        base = skeleton["base"]
        counts = np.array(arrays[base], dtype=np.int64)
        if "has_ring" in skeleton:  # framed before rings were rebuilt
            return {
                "n_seen": skeleton["n_seen"],
                "counts": counts,
                "ring": np.array(arrays[base + 1], dtype=bool)
                if skeleton["has_ring"]
                else None,
                "iops_overrides": skeleton["iops_overrides"],
            }
        return {
            "n_seen": skeleton["n_seen"],
            "window": skeleton["window"],
            "counts": counts,
            "iops_overrides": skeleton["iops_overrides"],
        }

    def estimates_by_name(self) -> dict[str, float]:
        """``{sku_name: probability}`` convenience view for drift checks."""
        return {
            sku.name: probability
            for sku, probability in zip(self.skus, self.probabilities())
        }
