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
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from ..catalog.catalog import SkuCatalog
from ..core.curve import PricePerformanceCurve
from ..telemetry.trace import PerformanceTrace

__all__ = [
    "CurveCache",
    "CurveCacheStats",
    "catalog_signature",
    "curve_cache_key",
    "trace_fingerprint",
]

#: Default number of curves kept in memory.  Curves are small (tens of
#: points), so this is generous while still bounding fleet-scale runs.
DEFAULT_CACHE_SIZE = 4096


def trace_fingerprint(trace: PerformanceTrace) -> str:
    """Stable content hash of a trace.

    Two traces with identical entity ids, dimensions, cadence and
    counter values fingerprint identically; any change to the samples
    changes the digest.  Used as the cache key component standing in
    for the trace object itself (traces are large; keys must be small
    and hashable).
    """
    digest = hashlib.blake2b(digest_size=16)

    def feed(part: bytes) -> None:
        # Length-prefix every field so adjacent fields cannot blur into
        # each other (('a1', 0.5) must not collide with ('a', 10.5)).
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)

    feed(trace.entity_id.encode("utf-8"))
    feed(repr(float(trace.interval_minutes)).encode("ascii"))
    for dimension in trace.dimensions:
        series = trace[dimension]
        feed(dimension.name.encode("ascii"))
        feed(repr(float(series.start_minute)).encode("ascii"))
        feed(series.values.tobytes())
    return digest.hexdigest()


def catalog_signature(catalog: SkuCatalog) -> str:
    """Stable hash of a SKU set (names, prices and resource limits).

    A cache entry is only valid for the catalog its curve was built
    against, so the signature is part of every cache key.  It is
    computed once per fleet runner: the wrapped engine's catalog is
    treated as immutable for the runner's lifetime (swapping catalogs
    mid-campaign requires a fresh :class:`FleetEngine`); the signature
    exists to keep keys distinct should several engines ever share a
    cache.
    """
    digest = hashlib.blake2b(digest_size=8)
    for sku in sorted(catalog, key=lambda s: s.name):
        for part in (
            sku.name.encode("utf-8"),
            repr(float(sku.price_per_hour)).encode("ascii"),
            repr(sku.limits).encode("utf-8"),
        ):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


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
        duplicate_builds: Misses that rebuilt a key another thread was
            already building (the thread backend's accepted race).
            ``misses - duplicate_builds`` is the number of genuinely
            distinct curve constructions, so fleet hit-rate reports
            stay truthful under concurrency.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    duplicate_builds: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def unique_misses(self) -> int:
        """Misses that built a key no other thread was building."""
        return self.misses - self.duplicate_builds


class CurveCache:
    """Bounded, thread-safe LRU cache of price-performance curves.

    One instance is shared across a fleet pass (serial and thread
    backends share the parent's cache; each process-pool worker builds
    its own, since curves do not cross process boundaries cheaply).
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
        self._duplicate_builds = 0
        self._building: dict[Hashable, int] = {}

    def get_or_build(
        self, key: Hashable, builder: Callable[[], PricePerformanceCurve]
    ) -> PricePerformanceCurve:
        """Return the cached curve for ``key``, building it on a miss.

        The builder runs outside the lock so concurrent misses on
        different keys do not serialize; a rare duplicate build of the
        same key is accepted in exchange (curves are immutable, so
        last-write-wins is safe) and counted in ``duplicate_builds``.
        """
        with self._lock:
            curve = self._entries.get(key)
            if curve is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return curve
            self._misses += 1
            in_flight = self._building.get(key, 0)
            if in_flight:
                self._duplicate_builds += 1
            self._building[key] = in_flight + 1
        try:
            curve = builder()
        except BaseException:
            with self._lock:
                self._release_building(key)
            raise
        with self._lock:
            # Insert before dropping the in-flight marker (same locked
            # section): a lookup can never observe "no entry and no
            # build in flight" for a key that was being built.
            self._entries[key] = curve
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._release_building(key)
        return curve

    def _release_building(self, key: Hashable) -> None:
        """Drop one in-flight marker for ``key``; caller holds the lock."""
        remaining = self._building.get(key, 1) - 1
        if remaining:
            self._building[key] = remaining
        else:
            self._building.pop(key, None)

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
        per-customer paths requires the same distinction).  Each
        distinct missed key is marked in-flight and MUST be settled
        by exactly one subsequent :meth:`install_many` (curve built)
        or :meth:`release_many` (build failed/abandoned) call, or the
        in-flight accounting leaks.  Two threads batch-missing the
        same key both build it -- the same accepted race as
        :meth:`get_or_build`, counted in ``duplicate_builds``.

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
                in_flight = self._building.get(key, 0)
                if in_flight:
                    self._duplicate_builds += 1
                self._building[key] = in_flight + 1
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
        """Insert batch-built curves and settle their in-flight markers."""
        with self._lock:
            for key, curve in curves.items():
                self._entries[key] = curve
                self._entries.move_to_end(key)
                self._release_building(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def release_many(self, keys: Iterable[Hashable]) -> None:
        """Settle in-flight markers for keys whose builds failed."""
        with self._lock:
            for key in keys:
                self._release_building(key)

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
                duplicate_builds=self._duplicate_builds,
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
        source's entries and counters but no in-flight build markers:
        builds running in the source process's threads mean nothing to
        the clone.
        """
        with self._lock:
            state = self.__dict__.copy()
            state["_entries"] = OrderedDict(self._entries)
            state["_building"] = {}
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
