"""The four benchmark workloads, each run as repeated identical rounds.

A round is one set-up (engine build and fit on fresh trace objects,
plus pool spawn, service start and warm prefix where the workload has
them) followed by one timed phase over the same seeded inputs.  Every
round starts cold -- fresh engine, fresh caches, fresh trace memos --
so every round does the same work on the same units, emits
byte-identical output, and yields one set-up time, one latency per
unit and one CPU cost per throughput window.

* ``batch`` -- serial columnar ``recommend_fleet`` over a fleet (one
  SQL MI customer in five).  The pass works shard by shard and hands
  out a shard's results when the shard is done, so a customer's
  latency runs from the start of its shard to its own result.
* ``watch_onboard`` -- serial ``watch_fleet(refreshes_only=False)``
  over customers new to the watch.  Latency runs from the watch
  pulling a sample off the feed to that sample's update being yielded.
* ``watch_steady`` -- the process backend with two workers and the
  default tick plane, over customers warmed by an untimed prefix,
  checkpointing to a ``FleetStore``.  Same latency definition.
* ``serve`` -- an in-process ``RecommendationService`` driven open
  loop by a seeded arrival schedule at a fixed rate; latency runs
  from each request's scheduled send to its answer.

"Fresh" latencies (``recommend_*`` metrics) are those of units
answered with a recommendation computed for them: every batch
customer, every watch sample that refreshed, every serve recommend.

Throughput windows end at the timed phase's quiet points, where no
unit is in flight: a batch shard boundary, every second feed cycle of
the onboarding watch, the checkpoint that closes each checkpoint
period of the steady watch, the end of each one-second segment of the
serve schedule.  There the round samples the host's speed
(:class:`perfbench.calibrate.Speedometer`), so every window and every
unit in it carries the speed factor the host ran at around it.

Set-up time and throughput are read on CPU clocks: the process's own
(all its threads), plus the workers' for the process backend.
Latencies of the two serial workloads (``batch``, ``watch_onboard``)
are read on the process CPU clock too, since one thread does all
their work.  Latencies of ``watch_steady`` and ``serve`` span several
threads or processes and idle waits, so they are wall-clock.
"""

from __future__ import annotations

import asyncio
import gc
import math
import shutil
import tempfile
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import (
    AdmissionError,
    DopplerEngine,
    FleetEngine,
    RecommendationService,
    ServeConfig,
    SkuCatalog,
    WatchConfig,
)
from repro.catalog import DeploymentType
from repro.fleet.arena import leaked_segments
from repro.fleet.backends import WATCH_TICK_PER_WORKER
from repro.fleet.config import CheckpointConfig
from repro.fleet.sharding import auto_chunk_size
from repro.store import FleetStore
from repro.streaming.live import LiveRecommender

from . import host, inputs
from .calibrate import Speedometer
from .tracing import Tracer


@dataclass
class Round:
    """What one round measured and produced.

    Every time is kept as read, beside the speed factor the host's
    CPUs ran at around it (:mod:`perfbench.calibrate`).
    """

    setup: tuple[float, float] = (0.0, 1.0)  # (CPU seconds, speed factor)
    timed_s: float = 0.0  # wall seconds
    units: int = 0
    # (units completed, CPU seconds, speed factor) per throughput
    # window; the windows cover the same units in every round.
    windows: list[tuple[int, float, float]] = field(default_factory=list)
    latencies: dict = field(default_factory=dict)  # unit key -> (seconds, speed factor)
    fresh: dict = field(default_factory=dict)  # the same, fresh-recommendation units
    refreshed: int = 0
    failed: int = 0  # units whose operation failed or was rejected
    broken: str = ""  # reason the whole round counts as failed, if any
    lines: dict[str, list[str]] = field(default_factory=lambda: defaultdict(list))
    workers_mb: float = 0.0  # workers' private memory at the end of the timed phase
    layers: dict[str, float] = field(default_factory=dict)  # workload-specific counters


# ----------------------------------------------------------------------
# Canonical output encoding
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Exact order-statistic percentile: the smallest value with >= q% at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


@contextmanager
def timed_phase(tracer: Tracer | None):
    """Open a timed phase: a clean heap, and span wrappers when tracing."""
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        yield
    finally:
        if tracer is not None:
            tracer.uninstall()


def between(factors: list[float], index: int) -> float:
    """Speed factor of the window between samples ``index`` and ``index + 1``."""
    return (factors[index] + factors[index + 1]) / 2


def recommendation_line(rec) -> str:
    confidence = "-" if rec.confidence is None else repr(rec.confidence.score)
    return (
        f"{rec.sku.name}|{rec.strategy}|{rec.expected_throttling!r}"
        f"|{rec.target_probability!r}|{rec.profile.group_key}"
        f"|{len(rec.curve.points)}|{confidence}"
    )


def fleet_result_line(result) -> str:
    if result.recommendation is None:
        return f"ERROR|{result.error}"
    return f"{recommendation_line(result.recommendation)}|{result.over_provisioned}"


def live_update_line(update) -> str:
    """One sample's outcome (``LiveUpdate``), refresh flag included."""
    drift = "-" if update.drift is None else repr(update.drift.max_divergence)
    rec = "-" if update.recommendation is None else recommendation_line(update.recommendation)
    return f"{update.n_seen}|{update.n_window}|{update.refreshed}|{drift}|{rec}"


def watch_line(fleet_update) -> str:
    if fleet_update.update is None:
        return f"ERROR|{fleet_update.error}"
    return live_update_line(fleet_update.update)


def build_engine(records) -> FleetEngine:
    """The set-up every workload shares: catalog, engine, fleet fit."""
    fleet = FleetEngine(engine=DopplerEngine(catalog=SkuCatalog.default()), backend="serial")
    fleet.fit_fleet(records)
    return fleet


def reference_recommendation(engine: DopplerEngine, customer) -> str:
    """A customer's batch result via the single-workload engine path."""
    try:
        rec = engine.recommend(customer.trace, customer.deployment)
    except Exception as exc:  # noqa: BLE001 - encoded like the fleet's error results
        return f"ERROR|{type(exc).__name__}: {exc}"
    return f"{recommendation_line(rec)}|None"


def reference_stream(engine: DopplerEngine, customer_id: str, samples) -> list[str]:
    """A customer's watch stream replayed through a bare ``LiveRecommender``."""
    live = LiveRecommender(engine, DeploymentType.SQL_DB, entity_id=customer_id)
    lines = []
    for sample in samples:
        try:
            lines.append(live_update_line(live.observe(sample.values)))
        except Exception as exc:  # noqa: BLE001 - the watch quarantines likewise
            lines.append(f"ERROR|{type(exc).__name__}: {exc}")
            break
    return lines


class Workload:
    """Seeded inputs plus the round body of one workload."""

    unit = ""
    #: Per-unit latency the ``p50_ms``/``p95_ms`` metrics report.
    latency_of = ""
    #: True when one thread does all the work.  The run then pins the
    #: process to one CPU, so the speed samples read the CPU that does
    #: the work, and latencies are read on that thread's CPU clock.
    serial = False
    #: How a unit's latency is taken over the rounds (see run.py).
    latency_over_rounds = "best"

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        self.sizes = sizes
        self.records = inputs.training_records(seed, sizes)
        self.engine: FleetEngine | None = None  # the last round's fitted engine
        self.speed = Speedometer()

    def run_round(self, tracer: Tracer | None) -> Round:
        # The previous round's engine goes before this round builds its
        # own, so two engines never count towards the memory peak.
        self.engine = None
        gc.collect()
        return self._round(tracer)

    def _round(self, tracer: Tracer | None) -> Round:
        raise NotImplementedError

    def reference(self) -> dict[str, list[str]]:
        """Expected lines for a subset of keys, from an independent path."""
        raise NotImplementedError

    def cost(self, rounds: list[Round]) -> float:
        """CPU seconds per unit at reference speed, to express tracing overhead."""
        windows = [window for r in rounds for window in r.windows]
        return sum(s * f for _, s, f in windows) / max(1, sum(u for u, _, _ in windows))


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
class Batch(Workload):
    unit = "customers"
    latency_of = "time from the start of the customer's shard to its result"
    serial = True
    # A customer's latency is its shard's time, a whole throughput
    # window: like the windows, it is taken at its median round.
    latency_over_rounds = "median"

    def __init__(self, seed, sizes) -> None:
        super().__init__(seed, sizes)
        self.customers = inputs.batch_fleet(seed, sizes)

    def _round(self, tracer):
        result = Round()
        records = inputs.fresh_records(self.records)
        customers = inputs.fresh_customers(self.customers)
        clock = host.parent_cpu_s
        speed = self.speed
        before = speed.sample()
        start = clock()
        fitted = build_engine(records)
        setup = clock() - start
        self.engine = fitted
        # A fresh fleet engine around the fitted one: its curve cache is cold.
        fleet = FleetEngine(engine=fitted.engine, backend="serial")
        n = len(customers)
        # The serial pass computes one shard when asked for its first
        # result: between shards nothing is in flight.
        shard = auto_chunk_size(n, 1)
        outputs = []
        stamps = []
        factors = []
        starts = []
        with timed_phase(tracer):
            wall = time.perf_counter()
            factors.append(speed.sample())
            starts.append(clock())
            for item in fleet.recommend_fleet(customers):
                stamps.append(clock())
                outputs.append(item)
                if len(outputs) % shard == 0 or len(outputs) == n:
                    factors.append(speed.sample())
                    starts.append(clock())
            result.timed_s = time.perf_counter() - wall
        result.setup = (setup, (before + factors[0]) / 2)
        result.units = len(outputs)
        for index, stamp in enumerate(stamps):
            window = index // shard
            result.latencies[index] = (stamp - starts[window], between(factors, window))
            if (index + 1) % shard == 0 or index + 1 == len(stamps):
                units = index + 1 - window * shard
                result.windows.append((units, stamp - starts[window], between(factors, window)))
        result.fresh = result.latencies
        for item in outputs:
            result.lines[item.customer_id].append(fleet_result_line(item))
            result.failed += not item.ok
        stats = fleet.cache_stats()
        result.layers = {"fleet.cache.hits": stats.hits, "fleet.cache.misses": stats.misses}
        if stats.hits:
            result.broken = f"{stats.hits} curve-cache hits on a cold fleet engine"
        return result

    def reference(self):
        engine = self.engine.engine
        return {
            customer.customer_id: [reference_recommendation(engine, customer)]
            for customer in inputs.fresh_customers(self.customers[::23])
        }


# ----------------------------------------------------------------------
# The two watches
# ----------------------------------------------------------------------
class _Feed:
    """Feed iterator stamping when the watch pulls each sample.

    At each index in ``boundaries`` -- and once more when the watch
    asks past the last sample -- it calls ``at_boundary(k)`` before
    handing out the sample, then stamps the window start.  Callers put
    boundaries where the watch has nothing in flight.
    """

    def __init__(self, samples, clock=time.perf_counter, boundaries=(), at_boundary=None) -> None:
        self.samples = samples
        self.clock = clock
        self.boundaries = set(boundaries)
        self.at_boundary = at_boundary
        self.pulled: dict[str, deque] = defaultdict(deque)  # customer -> (index, time)
        self.starts: list[float] = []  # window start times, one per boundary

    def iterate(self):
        pulled = self.pulled
        clock = self.clock
        boundaries = self.boundaries
        for index, sample in enumerate(self.samples):
            if index in boundaries:
                self.at_boundary(len(self.starts))
                now = clock()
                self.starts.append(now)
            else:
                now = clock()
            pulled[sample.customer_id].append((index, now))
            yield sample
        if self.at_boundary is not None:
            self.at_boundary(len(self.starts))
            self.starts.append(clock())


class _Watch(Workload):
    unit = "observations"
    latency_of = "time from the watch pulling a sample to yielding its update"
    feed: list

    def reference(self):
        streams: dict[str, list] = defaultdict(list)
        for sample in self.feed:
            streams[sample.customer_id].append(sample)
        engine = self.engine.engine
        return {
            customer_id: reference_stream(engine, customer_id, streams[customer_id])
            for customer_id in sorted(streams)[:2]
        }


class WatchOnboard(_Watch):
    serial = True
    #: Feed cycles (one sample of every customer) per throughput window.
    cycles_per_window = 2

    def __init__(self, seed, sizes) -> None:
        super().__init__(seed, sizes)
        self.feed = inputs.onboard_feed(seed, sizes)

    def _round(self, tracer):
        result = Round()
        records = inputs.fresh_records(self.records)
        clock = host.parent_cpu_s
        speed = self.speed
        before = speed.sample()
        start = clock()
        fleet = build_engine(records)
        setup = clock() - start
        self.engine = fleet
        size = self.sizes.onboard_customers * self.cycles_per_window
        factors = []
        # The serial watch yields each sample's update before pulling
        # the next, so nothing is in flight between feed cycles.
        feed = _Feed(
            self.feed, clock, range(0, len(self.feed), size), lambda _: factors.append(speed.sample())
        )
        config = WatchConfig(refreshes_only=False, backend="serial")
        outputs = []
        stamps = []
        with timed_phase(tracer):
            wall = time.perf_counter()
            for item in fleet.watch_fleet(feed.iterate(), config):
                stamps.append(clock())
                outputs.append(item)
            result.timed_s = time.perf_counter() - wall
        result.setup = (setup, (before + factors[0]) / 2)
        windows = range(len(factors) - 1)
        latency_factors = [between(factors, window) for window in windows]
        _fold_watch(result, outputs, stamps, feed, 0, size, latency_factors)
        for window in windows:
            first = window * size
            last = min(first + size, len(stamps)) - 1
            result.windows.append(
                (last + 1 - first, stamps[last] - feed.starts[window], between(factors, window))
            )
        cache = fleet.watch_cache_stats()
        result.layers = {
            "fleet.watch_cache.hits": cache.hits,
            "fleet.watch_cache.misses": cache.misses,
        }
        return result


def _fold_watch(result: Round, outputs, stamps, feed: _Feed, first: int, size: int, factors) -> None:
    """Latency, refresh and failure accounting of the timed watch updates.

    A unit is a customer's n-th timed sample, whatever order the
    updates of different customers came out in.  Sample ``index``
    belongs to window ``(index - first) // size``, whose latency factor
    is ``factors[window]``.
    """
    seen: dict[str, int] = defaultdict(int)
    for item, stamp in zip(outputs, stamps):
        key = (item.customer_id, seen[item.customer_id])
        seen[item.customer_id] += 1
        index, pulled = feed.pulled[item.customer_id].popleft()
        latency = (stamp - pulled, factors[(index - first) // size])
        result.latencies[key] = latency
        result.lines[item.customer_id].append(watch_line(item))
        if item.update is None:
            result.failed += 1
        elif item.update.refreshed:
            result.refreshed += 1
            result.fresh[key] = latency
    result.units = len(outputs)


class WatchSteady(_Watch):
    workers = 2

    def __init__(self, seed, sizes, workdir: Path) -> None:
        super().__init__(seed, sizes)
        self.feed, self.n_prefix, self.n_timed = inputs.steady_feed(seed, sizes, self.period)
        self.workdir = workdir

    @property
    def period(self) -> int:
        """Samples per checkpoint period."""
        return self.sizes.steady_checkpoint_ticks * self.workers * WATCH_TICK_PER_WORKER

    def _round(self, tracer):
        result = Round()
        records = inputs.fresh_records(self.records)
        segments_before = set(leaked_segments())
        workdir = Path(tempfile.mkdtemp(prefix="steady-", dir=self.workdir))
        store = None
        speed = self.speed
        period = self.period
        first, n_windows = self.n_prefix, self.n_timed // period
        try:
            before = speed.sample()
            start = host.parent_cpu_s()
            fleet = build_engine(records)
            self.engine = fleet
            store = FleetStore(str(workdir / "fleet.db"))
            config = WatchConfig(
                refreshes_only=False,
                backend="process",
                max_workers=self.workers,
                checkpoint=CheckpointConfig(store, every_ticks=self.sizes.steady_checkpoint_ticks),
            )
            phase = timed_phase(tracer)
            factors = []
            ends = []  # (parent, workers) CPU seconds as each window closes
            starts = []  # ... and as the next one opens

            def at_boundary(k: int) -> None:
                # The prefix and every timed window end with a checkpoint,
                # which runs fully drained: nothing is in flight here.
                ends.append((host.parent_cpu_s(), host.workers_cpu_s()))
                if k == 0:
                    phase.__enter__()
                factors.append(speed.sample())
                if k == n_windows:
                    result.workers_mb = host.workers_private_mb()
                    phase.__exit__(None, None, None)
                starts.append((host.parent_cpu_s(), host.workers_cpu_s()))

            boundaries = range(first, first + n_windows * period, period)
            feed = _Feed(self.feed, time.perf_counter, boundaries, at_boundary)
            outputs = []
            stamps = []
            for item in fleet.watch_fleet(feed.iterate(), config):
                stamps.append(time.perf_counter())
                outputs.append(item)
            for item in outputs[:first]:
                feed.pulled[item.customer_id].popleft()
                result.lines[item.customer_id].append(watch_line(item))
                result.failed += item.update is None
            windows = range(n_windows)
            latency_factors = [between(factors, window) for window in windows]
            _fold_watch(result, outputs[first:], stamps[first:], feed, first, period, latency_factors)
            # Set-up: the parent's CPU up to the first timed pull and the
            # workers' CPU spawning and taking the warm prefix.
            parent, workers = ends[0]
            result.setup = (parent - start + workers, (before + factors[0]) / 2)
            result.timed_s = feed.starts[n_windows] - feed.starts[0]
            for window in windows:
                (p0, w0), (p1, w1) = starts[window], ends[window + 1]
                result.windows.append((period, (p1 - p0) + (w1 - w0), between(factors, window)))
            supervision = fleet.watch_supervision_stats()
            cache = fleet.watch_cache_stats()
            result.layers = {
                "fleet.watch_cache.hits": cache.hits,
                "fleet.watch_cache.misses": cache.misses,
                "bench.parent_cpu_s": ends[-1][0] - starts[0][0],
                "bench.worker_cpu_s": ends[-1][1] - starts[0][1],
            }
            if supervision.n_restarts:
                result.broken = f"{supervision.n_restarts} supervisor restarts"
        finally:
            if store is not None:
                store.close()
            shutil.rmtree(workdir, ignore_errors=True)
        leaked = set(leaked_segments()) - segments_before
        if leaked:
            result.broken = f"{len(leaked)} leaked shared-memory segments"
        return result


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serve(Workload):
    unit = "requests"
    latency_of = "time from an observe's scheduled send to its answer"
    shards = 2
    #: Admission budget.  Admission still runs on every request, but at
    #: a third of capacity only a host stall -- not load -- can push a
    #: lane's wait estimate past the default 250 ms, and a shed request
    #: changes the output.
    slo_ms = 2000.0

    def __init__(self, seed, sizes) -> None:
        super().__init__(seed, sizes)
        self.inputs = inputs.serve_inputs(seed, sizes)

    def _round(self, tracer):
        return asyncio.run(self._serve_round(tracer))

    async def _serve_round(self, tracer) -> Round:
        result = Round()
        data = self.inputs
        records = inputs.fresh_records(self.records)
        pool = inputs.fresh_customers(data.pool)
        before = self.speed.sample()
        start = host.parent_cpu_s()
        fleet = build_engine(records)
        self.engine = fleet
        service = RecommendationService(fleet, ServeConfig(n_shards=self.shards, slo_ms=self.slo_ms))
        async with service:
            await self._warm(service, result)
            setup = host.parent_cpu_s() - start
            before_stats = service.stats()
            cache_before = fleet.cache_stats()
            # The observe shards' watch caches are reachable only here.
            watch_before = [shard.cache.stats() for shard in service._shards]
            with timed_phase(tracer):
                outcomes, latencies, lateness, factors, result.timed_s = await self._open_loop(
                    service, pool, result.windows
                )
            after = service.stats()
            cache = fleet.cache_stats()
            watch_after = [shard.cache.stats() for shard in service._shards]
        result.setup = (setup, (before + factors[0]) / 2)
        for position, ((offset, kind, index), outcome, latency) in enumerate(
            zip(data.schedule, outcomes, latencies)
        ):
            if isinstance(outcome, AdmissionError):
                result.failed += 1
                key = data.observes[index].customer_id if kind == "observe" else data.pool[index].customer_id
                result.lines[key].append("REJECTED")
                continue
            timing = (latency, between(factors, int(offset)))
            if kind == "observe":
                result.latencies[position] = timing
                result.lines[outcome.customer_id].append(watch_line(outcome))
                if outcome.update is None:
                    result.failed += 1
                elif outcome.update.refreshed:
                    result.refreshed += 1
            else:
                result.fresh[position] = timing
                result.lines[outcome.customer_id].append(fleet_result_line(outcome))
                result.failed += not outcome.ok
        result.units = len(data.schedule)
        result.layers = _serve_layers(
            before_stats, after, cache_before, cache, watch_before, watch_after, lateness
        )
        return result

    async def _warm(self, service, result: Round) -> None:
        """Untimed warm prefix: one wave per sample index, retried on rejection."""
        for wave in self.inputs.prefix:
            pending = list(wave)
            while pending:
                outcomes = await asyncio.gather(
                    *(service.observe(sample) for sample in pending), return_exceptions=True
                )
                retry = []
                wait = 0.0
                for sample, outcome in zip(pending, outcomes):
                    if isinstance(outcome, AdmissionError):
                        retry.append(sample)
                        wait = max(wait, outcome.retry_after_s)
                    elif isinstance(outcome, BaseException):
                        raise outcome
                    else:
                        result.lines[sample.customer_id].append(watch_line(outcome))
                        result.failed += outcome.update is None
                if retry:
                    await asyncio.sleep(wait)
                pending = retry

    async def _open_loop(self, service, pool, windows: list):
        """Fire the schedule on time; time each request from its due time.

        The schedule runs as one-second segments.  After each segment
        the driver waits until every request of it is answered, samples
        the host's speed, and starts the next segment's clock: one
        throughput window per segment, with nothing in flight while
        the speed is sampled.
        """
        loop = asyncio.get_running_loop()
        schedule = self.inputs.schedule
        observes = self.inputs.observes
        outcomes: list = [None] * len(schedule)
        latencies = [0.0] * len(schedule)
        lateness = []
        factors = [self.speed.sample()]

        async def send(position: int, kind: str, payload, due: float) -> None:
            try:
                if kind == "observe":
                    outcome = await service.observe(payload)
                else:
                    outcome = await service.recommend(payload)
            except AdmissionError as exc:
                outcome = exc
            latencies[position] = loop.time() - due
            outcomes[position] = outcome

        segments: dict[int, list[int]] = defaultdict(list)
        for position, (offset, _, _) in enumerate(schedule):
            segments[int(offset)].append(position)
        started = loop.time()
        for second in range(max(segments) + 1):
            tasks = []
            cpu = host.parent_cpu_s()
            origin = loop.time() + 0.002 - second
            for position in segments.get(second, []):
                offset, kind, index = schedule[position]
                due = origin + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(loop.time() - due)
                payload = observes[index] if kind == "observe" else pool[index]
                tasks.append(loop.create_task(send(position, kind, payload, due)))
            await asyncio.gather(*tasks)
            cpu = host.parent_cpu_s() - cpu
            factors.append(self.speed.sample())
            windows.append((len(tasks), cpu, between(factors, second)))
        return outcomes, latencies, lateness, factors, loop.time() - started

    def reference(self):
        data = self.inputs
        engine = self.engine.engine
        expected: dict[str, list[str]] = {}
        streams: dict[str, list] = defaultdict(list)
        for wave in data.prefix:
            for sample in wave:
                streams[sample.customer_id].append(sample)
        for _, kind, index in data.schedule:
            if kind == "observe":
                sample = data.observes[index]
                streams[sample.customer_id].append(sample)
        for customer_id in sorted(streams)[:2]:
            expected[customer_id] = reference_stream(engine, customer_id, streams[customer_id])
        asked: dict[int, int] = defaultdict(int)
        for _, kind, index in data.schedule:
            if kind == "recommend" and index % 7 == 0:
                asked[index] += 1
        for index, times in asked.items():
            customer = inputs.fresh_customers([data.pool[index]])[0]
            expected[customer.customer_id] = [reference_recommendation(engine, customer)] * times
        return expected


def _serve_layers(before, after, cache_before, cache, watch_before, watch_after, lateness) -> dict:
    """Timed-phase deltas of the service's own stats surfaces."""
    layers: dict[str, float] = {}

    def batches(stats_lane):
        return stats_lane["batches"]

    observe_lanes = [
        (shard_before, shard_after)
        for shard_before, shard_after in zip(
            before["observe"]["shards"], after["observe"]["shards"]
        )
    ]
    recommend = [(before["recommend"]["lane"], after["recommend"]["lane"])]
    for label, lanes in (("observe", observe_lanes), ("recommend", recommend)):
        flushes = sum(batches(b2)["n_flushes"] - batches(b1)["n_flushes"] for b1, b2 in lanes)
        items = sum(batches(b2)["n_items"] - batches(b1)["n_items"] for b1, b2 in lanes)
        layers[f"serve.{label}.admitted"] = items
        layers[f"serve.{label}.rejected"] = sum(
            b2["n_rejected"] - b1["n_rejected"] for b1, b2 in lanes
        )
        layers[f"serve.{label}.flushes"] = flushes
        layers[f"serve.{label}.mean_batch"] = items / flushes if flushes else 0.0
        layers[f"serve.{label}.size_flushes"] = sum(
            batches(b2)["n_size_flushes"] - batches(b1)["n_size_flushes"] for b1, b2 in lanes
        )
        layers[f"serve.{label}.deadline_flushes"] = sum(
            batches(b2)["n_deadline_flushes"] - batches(b1)["n_deadline_flushes"]
            for b1, b2 in lanes
        )
    hits = cache.hits - cache_before.hits
    misses = cache.misses - cache_before.misses
    layers["fleet.cache.hits"] = hits
    layers["fleet.cache.misses"] = misses
    layers["serve.recommend.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layers["fleet.watch_cache.hits"] = sum(b.hits - a.hits for a, b in zip(watch_before, watch_after))
    layers["fleet.watch_cache.misses"] = sum(
        b.misses - a.misses for a, b in zip(watch_before, watch_after)
    )
    layers["serve.lateness_p99_ms"] = percentile(lateness, 99) * 1000.0
    return layers


WORKLOADS = {
    "batch": Batch,
    "watch_onboard": WatchOnboard,
    "watch_steady": WatchSteady,
    "serve": Serve,
}
