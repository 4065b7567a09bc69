"""Customer Profiler: negotiability vectors and customer groups.

The second Doppler module (paper Figure 3 and Section 3.3).  Each
customer's counter matrix is summarized into a per-dimension
negotiability vector; customers sharing a vector form a group.  The
deployed engine groups by "straightforward enumeration" of the binary
vector -- 2^4 = 16 groups for SQL DB (CPU, memory, IOPS, log rate) and
2^3 = 8 for SQL MI (CPU, memory, IOPS).  Generic k-means and
hierarchical clustering over the continuous feature vectors are kept
as the "standard ML clustering" alternatives the paper tested.

Convention: following paper Table 3, a group key component of ``0``
denotes *negotiable* and ``1`` denotes *non-negotiable*.  (Section
5.2.1's prose uses the opposite encoding in one example; Table 3 is
the normative source because the group scores depend on it.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from ..ml.hierarchical import agglomerative
from ..ml.kmeans import kmeans
from ..telemetry.counters import PerfDimension
from ..telemetry.trace import PerformanceTrace
from .negotiability import NegotiabilitySummarizer, ThresholdingSummarizer

__all__ = ["CustomerProfile", "CustomerProfiler", "group_key_to_label"]

GroupKey = tuple[int, ...]


def group_key_to_label(key: GroupKey) -> str:
    """Readable group label, e.g. ``(0, 1, 0)`` -> ``"010"``."""
    return "".join(str(bit) for bit in key)


@dataclass(frozen=True)
class CustomerProfile:
    """One customer's profiling outcome.

    Attributes:
        entity_id: The profiled workload.
        dimensions: Profiled dimensions, in group-key order.
        negotiable: Per-dimension negotiability decision.
        features: Concatenated continuous summarizer features.
        group_key: Enumeration group key; 0 = negotiable (Table 3).
    """

    entity_id: str
    dimensions: tuple[PerfDimension, ...]
    negotiable: tuple[bool, ...]
    features: np.ndarray
    group_key: GroupKey

    @property
    def group_label(self) -> str:
        return group_key_to_label(self.group_key)

    def negotiable_dimensions(self) -> tuple[PerfDimension, ...]:
        return tuple(
            dim for dim, flag in zip(self.dimensions, self.negotiable) if flag
        )

    def describe(self) -> str:
        parts = [
            f"{dim.name}={'negotiable' if flag else 'non-negotiable'}"
            for dim, flag in zip(self.dimensions, self.negotiable)
        ]
        return f"group {self.group_label}: " + ", ".join(parts)


@dataclass(frozen=True)
class CustomerProfiler:
    """Profiles workloads into negotiability groups.

    Attributes:
        dimensions: Dimensions to summarize; use
            :data:`~repro.telemetry.counters.PROFILING_DB_DIMENSIONS`
            for DB and
            :data:`~repro.telemetry.counters.PROFILING_MI_DIMENSIONS`
            for MI.
        summarizer: Negotiability strategy; defaults to the deployed
            thresholding algorithm.
    """

    dimensions: tuple[PerfDimension, ...]
    summarizer: NegotiabilitySummarizer = field(default_factory=ThresholdingSummarizer)

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("profiler needs at least one dimension")

    @property
    def n_groups(self) -> int:
        """Number of enumeration groups (2^n_dimensions)."""
        return 2 ** len(self.dimensions)

    def profile(self, trace: PerformanceTrace) -> CustomerProfile:
        """Summarize one trace into its negotiability profile.

        ``profile_batch((trace,))[0]``: one trace is a batch of one, so
        single-trace and batch profiling share a single path -- one
        summarizer broadcast over the trace's profiled rows for the
        batched summarizers, the per-dimension ``summarize`` loop for
        the rest.

        Raises:
            KeyError: If the trace lacks one of the profiled
                dimensions.
        """
        return self.profile_batch((trace,))[0]

    def profile_batch(
        self, traces: Sequence[PerformanceTrace]
    ) -> list[CustomerProfile]:
        """Profile many traces in one summarizer broadcast per length.

        Every profiled row of every trace of one length stacks into one
        ``(n_traces * n_dims, n_samples)`` matrix, trace-major, and runs
        through the summarizer's batched evaluation (``summarize_batch``,
        advertised via ``supports_batch``) in a single call.  Each row
        reduces along contiguous memory exactly as the 1-D
        ``summarize`` path does, so features, decisions and group keys
        are byte-identical to the per-dimension loop.  Summarizers
        without a batched evaluation (STL today -- thresholding, the
        outlier share and all three AUC strategies batch) run that
        loop trace by trace.

        Returns:
            Profiles aligned with ``traces``.

        Raises:
            KeyError: If any trace lacks a profiled dimension.
        """
        traces = tuple(traces)
        dimensions = self.dimensions
        if not getattr(self.summarizer, "supports_batch", False):
            return [self._profile_per_dimension(trace) for trace in traces]
        rows = [[trace[dim].values for dim in dimensions] for trace in traces]
        groups: dict[int, list[int]] = {}
        for index, trace_rows in enumerate(rows):
            groups.setdefault(trace_rows[0].shape[0], []).append(index)
        profiles: list[CustomerProfile | None] = [None] * len(traces)
        for indices in groups.values():
            matrix = np.stack([row for index in indices for row in rows[index]])
            features, negotiable = self.summarizer.summarize_batch(matrix)
            features = features.reshape(len(indices), -1)
            flags = negotiable.reshape(len(indices), len(dimensions)).tolist()
            for position, index in enumerate(indices):
                decisions = tuple(flags[position])
                profiles[index] = CustomerProfile(
                    entity_id=traces[index].entity_id,
                    dimensions=dimensions,
                    negotiable=decisions,
                    features=features[position].copy(),
                    group_key=tuple(0 if flag else 1 for flag in decisions),
                )
        return profiles  # type: ignore[return-value]  # every slot filled above

    def _profile_per_dimension(self, trace: PerformanceTrace) -> CustomerProfile:
        """One ``summarize`` call per profiled dimension.

        The evaluation of summarizers without ``supports_batch``, and
        the reference the batched path must reproduce byte for byte.
        """
        negotiable = []
        features = []
        for dim in self.dimensions:
            dim_features, dim_negotiable = self.summarizer.summarize(trace[dim])
            negotiable.append(dim_negotiable)
            features.append(dim_features)
        key = tuple(0 if flag else 1 for flag in negotiable)
        return CustomerProfile(
            entity_id=trace.entity_id,
            dimensions=self.dimensions,
            negotiable=tuple(negotiable),
            features=np.concatenate(features),
            group_key=key,
        )

    def feature_matrix(self, traces: Iterable[PerformanceTrace]) -> np.ndarray:
        """Stack continuous profiles into an ``(n_customers, n_features)`` matrix."""
        rows = [self.profile(trace).features for trace in traces]
        if not rows:
            raise ValueError("feature matrix needs at least one trace")
        return np.vstack(rows)

    def cluster(
        self,
        traces: Sequence[PerformanceTrace],
        method: Literal["kmeans", "hierarchical", "enumeration"] = "enumeration",
        n_clusters: int | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Assign a cluster label to every trace.

        Args:
            traces: Workloads to cluster.
            method: ``enumeration`` (the deployed strategy), or the
                generic ``kmeans`` / ``hierarchical`` alternatives over
                the continuous features.
            n_clusters: Cluster count for the generic methods; defaults
                to the enumeration group count (capped at the number
                of traces).
            rng: Seed or generator for k-means.

        Returns:
            Integer labels, one per trace.  For ``enumeration`` the
            label is the group key read as a binary number, so labels
            are comparable across calls.
        """
        if not traces:
            raise ValueError("clustering needs at least one trace")
        if method == "enumeration":
            labels = []
            for trace in traces:
                key = self.profile(trace).group_key
                labels.append(int("".join(map(str, key)), 2))
            return np.asarray(labels, dtype=int)
        matrix = self.feature_matrix(traces)
        k = n_clusters if n_clusters is not None else min(self.n_groups, len(traces))
        if method == "kmeans":
            return kmeans(matrix, k=k, rng=rng).labels
        if method == "hierarchical":
            return agglomerative(matrix, n_clusters=k).labels
        raise ValueError(f"unknown clustering method {method!r}")
