"""Memoized price-performance-curve construction for fleet runs.

Curve building dominates the per-customer cost of both training and
recommendation (the joint throttling estimate touches every sample of
every dimension for every candidate SKU).  A fleet pass evaluates the
same trace more than once -- ``fit_fleet`` locates the chosen SKU on
the curve, a later ``recommend_fleet`` over the same population builds
it again, and right-sizing assessments build it a third time -- so the
fleet engine memoizes construction behind a bounded LRU cache keyed by
(trace fingerprint, deployment, SKU set, file layout).
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

import numpy as np

from ..catalog.catalog import catalog_signature  # re-exported: part of every cache key
from ..core.curve import PricePerformanceCurve
from ..telemetry.counters import PerfDimension
from ..telemetry.trace import PerformanceTrace

__all__ = [
    "CurveCache",
    "CurveCacheStats",
    "catalog_signature",
    "curve_cache_key",
    "trace_fingerprint",
]

#: One byte per dimension in a trace fingerprint's header.
_DIMENSION_CODES = {dimension: code for code, dimension in enumerate(PerfDimension)}

#: Default number of curves kept in memory.  Curves are small (tens of
#: points), so this is generous while still bounding fleet-scale runs.
DEFAULT_CACHE_SIZE = 4096


def trace_fingerprint(trace: PerformanceTrace) -> str:
    """Content hash of a trace, memoized on the trace.

    Two traces with identical entity ids, dimensions, cadence, start
    minutes and counter values fingerprint identically; any change to
    the samples changes the digest.  Used as the cache key component
    standing in for the trace object itself (traces are large; keys
    must be small and hashable).

    One SHA-256 pass: a fixed-layout header (the entity id's ``repr``
    length, the interval, the sample count, the dimension count, each
    dimension's code and start minute), then the entity id's ``repr``
    and each series' sample buffer, whose lengths the header fixes, so
    adjacent fields cannot blur into each other.  A strided series
    hashes like its contiguous copy.

    SHA-256 rather than BLAKE2b because OpenSSL runs it on the CPU's
    SHA extensions where they exist (x86 ``sha_ni``, ARMv8 crypto):
    there it hashes a 16 KB trace in about half BLAKE2b's time, and
    its collision resistance is no weaker.  On a CPU without them it
    is slower than BLAKE2b but yields the same digest.

    The digest is computed once per trace object and kept on it, as
    :meth:`~repro.telemetry.trace.PerformanceTrace.demand_matrix` is;
    a pickled trace is rebuilt through its constructor, so the memo
    never travels.  The key is process-local and never persisted: its
    digest may change between versions.
    """
    memo = trace.__dict__
    fingerprint = memo.get("_fingerprint")
    if fingerprint is not None:
        return fingerprint
    dimensions = trace.dimensions
    series = [trace.series[dimension] for dimension in dimensions]
    entity = repr(trace.entity_id).encode("utf-8")
    n_dims = len(series)
    digest = hashlib.sha256(
        struct.pack(
            f"<Qdqq{n_dims}B{n_dims}d",
            len(entity),
            series[0].interval_minutes,
            len(series[0].values),
            n_dims,
            *[_DIMENSION_CODES[dimension] for dimension in dimensions],
            *[ts.start_minute for ts in series],
        )
    )
    digest.update(entity)
    for ts in series:
        digest.update(np.ascontiguousarray(ts.values))
    fingerprint = memo["_fingerprint"] = digest.hexdigest()
    return fingerprint


def curve_cache_key(
    trace: PerformanceTrace,
    deployment_value: str,
    file_sizes_gib: tuple[float, ...] | None,
    catalog_sig: str,
) -> tuple:
    """The canonical cache key for one curve construction.

    Every consumer of a shared :class:`CurveCache` (the fleet runner's
    per-customer and columnar batch paths) must build keys through
    this single function, or identical curves silently stop pooling
    between them.
    """
    return (
        trace_fingerprint(trace),
        deployment_value,
        tuple(file_sizes_gib) if file_sizes_gib else None,
        catalog_sig,
    )


@dataclass(frozen=True)
class CurveCacheStats:
    """Counters describing cache effectiveness over a fleet pass.

    Attributes:
        hits: Lookups served from memory.
        misses: Lookups that had to build the curve.
        evictions: Entries dropped to respect ``maxsize``.
        size: Entries currently held.
    """

    hits: int
    misses: int
    evictions: int
    size: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CurveCache:
    """Bounded, lock-guarded LRU cache of price-performance curves.

    One instance serves every batch pass of a
    :class:`~repro.fleet.engine.FleetEngine`; the lock keeps it
    consistent when several threads share that engine.  Builders run
    outside the lock, so two threads missing one key both build it;
    curves are immutable, so the last install wins and nothing is
    lost but the duplicate work.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize!r}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, PricePerformanceCurve] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(
        self, key: Hashable, builder: Callable[[], PricePerformanceCurve]
    ) -> PricePerformanceCurve:
        """Return the cached curve for ``key``, building it on a miss.

        The builder runs outside the lock, so concurrent misses on
        different keys do not serialize; a failed build installs
        nothing and propagates.
        """
        with self._lock:
            curve = self._entries.get(key)
            if curve is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return curve
            self._misses += 1
        curve = builder()
        self.install_many({key: curve})
        return curve

    # ------------------------------------------------------------------
    # Batch protocol (columnar fleet path)
    # ------------------------------------------------------------------
    def get_many(self, keys: Iterable[Hashable]) -> dict[Hashable, PricePerformanceCurve]:
        """Probe a batch of keys in one locked pass.

        Each *distinct* key counts one hit or one miss; a duplicate
        occurrence of a *found* key counts a hit immediately, while
        duplicates of missed keys are left to the caller to settle
        via :meth:`adjust_counters` once the build outcome is known
        (a sequential :meth:`get_or_build` loop counts them hits
        after a successful install but fresh misses after a failed
        build, and hit-rate parity between the columnar and
        per-customer paths requires the same distinction).  The
        caller installs the curves it builds with :meth:`install_many`.

        Returns:
            The distinct ``keys`` found, mapped to their curves.
        """
        found: dict[Hashable, PricePerformanceCurve] = {}
        missed: set[Hashable] = set()
        with self._lock:
            for key in keys:
                if key in missed:
                    continue  # settled by the caller once built/failed
                curve = found.get(key)
                if curve is None:
                    curve = self._entries.get(key)
                if curve is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    found[key] = curve
                    continue
                self._misses += 1
                missed.add(key)
        return found

    def adjust_counters(self, hits: int = 0, misses: int = 0) -> None:
        """Fold the caller-settled duplicate outcomes into the stats.

        The batch protocol's companion to :meth:`get_many`: duplicate
        occurrences of batch-missed keys become hits when their one
        build succeeded (the batch served them from it) and misses
        when it failed (a sequential loop would have re-missed and
        re-failed), keeping :class:`CurveCacheStats` identical across
        the columnar and per-customer paths.
        """
        with self._lock:
            self._hits += hits
            self._misses += misses

    def install_many(
        self, curves: dict[Hashable, PricePerformanceCurve]
    ) -> None:
        """Insert built curves as the most recent, evicting the oldest."""
        with self._lock:
            for key, curve in curves.items():
                self._entries[key] = curve
                self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CurveCacheStats:
        with self._lock:
            return CurveCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Pickling (worker handoff)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Picklable view: entries and counters, never the lock.

        Lets cache-holding objects pickle wholesale for explicit
        handoff; process-pool workers never receive the parent's
        cache -- each builds its own.  A clone starts with the
        source's entries and counters.
        """
        with self._lock:
            state = self.__dict__.copy()
            state["_entries"] = OrderedDict(self._entries)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
