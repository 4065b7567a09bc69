"""Per-layer spans recorded from the benchmark's side of the API.

:class:`Tracer` wraps each layer's entry points in place (module
functions and class methods of :mod:`repro`) and records, per span
name, the number of calls and the *self* time: a
span's duration minus the time covered by spans nested inside it on
the same thread.  Spans stay in memory (per-thread tables, so the
serving tier's executor threads never contend on a lock) and are
folded together when the benchmark reads them.

Functions imported by name into other modules (``ppm`` does
``from .throttling import capacity_matrix``) are rebound in every
loaded ``repro`` module that holds them, so a wrapper sees every call
path rather than only the defining module's.  :meth:`Tracer.uninstall`
restores every original binding; an untraced run never installs
anything, so it executes the program unmodified.

Forked process-backend workers inherit the wrappers but their tables
die with them: for the process watch only parent-side spans reach the
report.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass

#: Span name -> (module, attribute path) of the wrapped entry point.
#: Names follow ``<package>.<module>.<function>`` under :mod:`repro`.
SPANS: dict[str, tuple[str, str]] = {
    # batch curve kernel and selection
    "core.throttling.batch_violation_counts": ("repro.core.throttling", "batch_violation_counts"),
    "core.throttling.violation_counts": ("repro.core.throttling", "violation_counts"),
    "core.throttling.capacity_matrix": ("repro.core.throttling", "capacity_matrix"),
    "core.ppm.build_curves_batch": ("repro.core.ppm", "PricePerformanceModeler.build_curves_batch"),
    "core.ppm.build_curve": ("repro.core.ppm", "PricePerformanceModeler.build_curve"),
    "core.curve.from_probabilities": ("repro.core.curve", "PricePerformanceCurve.from_probabilities"),
    "core.curve.from_price_ordered": ("repro.core.curve", "PricePerformanceCurve.from_price_ordered"),
    "core.profiler.profile": ("repro.core.profiler", "CustomerProfiler.profile"),
    "core.matching.recommend": ("repro.core.matching", "GroupScoreModel.recommend"),
    "core.engine.recommend": ("repro.core.engine", "DopplerEngine.recommend"),
    "catalog.catalog.for_deployment": ("repro.catalog.catalog", "SkuCatalog.for_deployment"),
    "fleet.cache.trace_fingerprint": ("repro.fleet.cache", "trace_fingerprint"),
    "fleet.engine.recommend_batch": ("repro.fleet.engine", "FleetEngine.recommend_batch"),
    # per-sample ingest and drift-gated refresh
    "telemetry.streaming.append": ("repro.telemetry.streaming", "StreamingTraceBuilder.append"),
    "core.incremental.update_vector": (
        "repro.core.incremental",
        "IncrementalThrottlingEstimator.update_vector",
    ),
    "core.incremental.probabilities": (
        "repro.core.incremental",
        "IncrementalThrottlingEstimator.probabilities",
    ),
    "streaming.drift.check_vector": ("repro.streaming.drift", "DriftDetector.check_vector"),
    "streaming.live.observe": ("repro.streaming.live", "LiveRecommender.observe"),
    "streaming.live.refresh": ("repro.streaming.live", "LiveRecommender.refresh"),
    # watch dispatch (parent side), data plane and checkpoints
    "fleet.backends.shard_process": ("repro.fleet.backends", "_WatchShard.process"),
    "fleet.backends.submit": ("repro.fleet.backends", "_WatchPool.submit"),
    "fleet.backends.receive": ("repro.fleet.backends", "_ProcessShardPool._receive"),
    "fleet.arena.pack_tick": ("repro.fleet.arena", "TickPlane.pack_tick"),
    "fleet.arena.read_results": ("repro.fleet.arena", "TickPlane.read_results"),
    "store.fleetstore.checkpoint": ("repro.store.fleetstore", "FleetStore.checkpoint"),
}

#: Extra counters the wrappers maintain beside calls and times.
SKU_CHANGES = "streaming.live.refresh.sku_changes"
STATE_BYTES = "store.fleetstore.n_state_bytes"


@dataclass
class SpanTotals:
    calls: int = 0
    self_ns: int = 0


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        self.spans: dict[str, SpanTotals] | None = None
        self.counts: dict[str, float] | None = None


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict[str, SpanTotals], dict[str, float]]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _tables_for_thread(self) -> tuple[dict[str, SpanTotals], dict[str, float]]:
        local = self._local
        if local.spans is None:
            local.spans, local.counts = {}, {}
            with self._lock:
                self._tables.append((local.spans, local.counts))
        return local.spans, local.counts

    def count(self, name: str, amount: float = 1.0) -> None:
        _, counts = self._tables_for_thread()
        counts[name] = counts.get(name, 0.0) + amount

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        local = self._local
        tables = self._tables_for_thread
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans, _ = tables()
            frame = [0]
            stack = local.stack
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals = spans.get(name)
                if totals is None:
                    totals = spans[name] = SpanTotals()
                totals.calls += 1
                totals.self_ns += elapsed - frame[0]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for name, (module_name, path) in SPANS.items():
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                self._patch_method(getattr(module, owner_name), attr, name)
            else:
                self._patch_function(getattr(module, path), name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_function(self, original, name: str) -> None:
        wrapper = self.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, owner: type, attr: str, name: str) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(name, raw.__func__))
        elif name == "streaming.live.refresh":
            patched = self._wrap_refresh(self.wrap(name, raw))
        elif name == "store.fleetstore.checkpoint":
            patched = self._wrap_checkpoint(self.wrap(name, raw))
        else:
            patched = self.wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, patched)

    def _wrap_refresh(self, traced):
        """Also count refreshes whose SKU differs from the one in force."""

        def refresh(live, *args, **kwargs):
            before = live.recommendation
            result = traced(live, *args, **kwargs)
            if before is None or before.sku.name != result.sku.name:
                self.count(SKU_CHANGES)
            return result

        return refresh

    def _wrap_checkpoint(self, traced):
        """Also sum the encoded state bytes each checkpoint wrote."""

        def checkpoint(store, *args, **kwargs):
            record = traced(store, *args, **kwargs)
            self.count(STATE_BYTES, float(record.n_state_bytes))
            return record

        return checkpoint

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[dict[str, SpanTotals], dict[str, float]]:
        """Totals over every thread so far (spans and extra counters)."""
        spans: dict[str, SpanTotals] = {name: SpanTotals() for name in SPANS}
        counts: dict[str, float] = {}
        with self._lock:
            tables = list(self._tables)
        for thread_spans, thread_counts in tables:
            for name, totals in list(thread_spans.items()):
                merged = spans[name]
                merged.calls += totals.calls
                merged.self_ns += totals.self_ns
            for name, value in list(thread_counts.items()):
                counts[name] = counts.get(name, 0.0) + value
        return spans, counts
