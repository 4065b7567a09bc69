"""Tick-batched live refresh: a shard folds its tick as arrays.

Every watch path -- the serial watch at any tick size, the process
watch and the serving tier's observe shards -- runs one
``_WatchShard.process``: it splits the tick into waves (the k-th
sample of every customer), ingests each wave as one block, and runs
the refreshes that come due in a wave together before those
customers' next sample, profiled with one ``profile_batch`` call per
deployment.  The emitted stream must equal a bare
``LiveRecommender.observe`` loop's on every ``LiveUpdate`` field,
failures and their error texts included (``tests/test_columnar_tick.py``
checks both against an oracle that shares none of their code).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.catalog import DeploymentType
from repro.core import DopplerEngine
from repro.core.matching import GroupObservation, GroupScoreModel
from repro.core.profiler import CustomerProfiler
from repro.fleet import FleetEngine, FleetSample, WatchConfig
from repro.fleet.backends import (
    WATCH_TICK_PER_WORKER,
    ShardAssessmentConfig,
    _InlinePool,
    _WatchShard,
)
from repro.serve import RecommendationService, ServeConfig
from repro.store import CustomerStateRecord, FleetStore
from repro.streaming import LiveRecommender
from repro.streaming.drift import DEFAULT_DRIFT_THRESHOLD
from repro.telemetry import PerfDimension
from repro.telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS

DB = DeploymentType.SQL_DB
MI = DeploymentType.SQL_MI

WINDOW = 16
MIN_REFRESH = 8
N_CYCLES = 40

#: A DB window without the log rate the DB profiler summarizes: its
#: curve builds, its profile raises ``KeyError``.
NO_LOG_RATE = tuple(dim for dim in DB_DIMENSIONS if dim is not PerfDimension.LOG_RATE)
#: An MI window that tracks its data size, so the planned file layout
#: (and with it the GP IOPS cap) moves as the data grows.
MI_WITH_STORAGE = MI_DIMENSIONS + (PerfDimension.STORAGE,)

#: Customers that join the watch from restored state, because the
#: watch builds every new customer over its deployment's curve
#: dimensions: (deployment, tracked dimensions).
RESTORED = {
    "mi-layout": (MI, MI_WITH_STORAGE),
    "db-nolog": (DB, NO_LOG_RATE),
    "db-nolog-nofit": (DB, NO_LOG_RATE),
}


def db_sample(rng, scale: float, storage: float) -> dict:
    return {
        PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.5))),
        PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 2.0))),
        PerfDimension.IOPS: float(scale * abs(rng.normal(500.0, 150.0))),
        PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.5),
        PerfDimension.LOG_RATE: float(scale * abs(rng.normal(3.0, 1.0))),
        PerfDimension.STORAGE: storage,
    }


def mi_sample(rng, iops: float, storage: float) -> dict:
    return {
        PerfDimension.CPU: float(abs(rng.normal(3.0, 1.0))),
        PerfDimension.MEMORY: float(abs(rng.normal(12.0, 3.0))),
        PerfDimension.IOPS: float(iops * abs(rng.normal(1.0, 0.05))),
        PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.5),
        PerfDimension.STORAGE: storage,
    }


def identity_feed(seed: int = 70) -> list[FleetSample]:
    """Eleven streams, interleaved in a fresh random order every cycle.

    * ``db-0`` .. ``db-3``: regimes shift every 12 samples, so
      refreshes recur, and with eleven customers to a cycle a 64-sample
      tick holds each customer five or six times -- a customer often
      appears again after its refresh came due;
    * ``mi-plain`` and ``mi-layout`` (data growing 2 GiB a sample:
      the single-file layout moves P10 -> P15 -> P20 mid-stream);
    * ``db-nofit``: a data size no SKU holds (its first refresh fails
      on storage, a curve error);
    * ``db-nolog``: a window without the profiled log rate (its first
      refresh fails profiling); ``db-nolog-nofit`` fails both ways and
      must report the curve error;
    * ``db-nan``: a non-finite sample mid-stream (fails on ingest).
    """
    rng = np.random.default_rng(seed)
    streams: dict[str, list[tuple[DeploymentType, dict]]] = {}
    for index in range(4):
        streams[f"db-{index}"] = [
            (DB, db_sample(rng, (1.0, 3.0, 0.5, 6.0)[(k // 12) % 4] * (1 + 0.3 * index), 120.0))
            for k in range(N_CYCLES)
        ]
    streams["mi-plain"] = [
        (MI, mi_sample(rng, (300.0, 3000.0)[(k // 16) % 2], 120.0)) for k in range(N_CYCLES)
    ]
    streams["mi-layout"] = [
        (MI, mi_sample(rng, (300.0, 600.0)[(k // 16) % 2], 100.0 + 2.0 * k))
        for k in range(N_CYCLES)
    ]
    streams["db-nofit"] = [(DB, db_sample(rng, 1.0, 1e9)) for _ in range(N_CYCLES)]
    streams["db-nolog"] = [(DB, db_sample(rng, 1.0, 120.0)) for _ in range(N_CYCLES)]
    streams["db-nolog-nofit"] = [(DB, db_sample(rng, 1.0, 1e9)) for _ in range(N_CYCLES)]
    nan = [(DB, db_sample(rng, 2.0, 120.0)) for _ in range(N_CYCLES)]
    nan[20][1][PerfDimension.CPU] = float("nan")
    streams["db-nan"] = nan
    names = sorted(streams)
    feed = []
    for cycle in range(N_CYCLES):
        for customer_id in rng.permutation(names):
            deployment, values = streams[str(customer_id)][cycle]
            feed.append(FleetSample(str(customer_id), values, deployment))
    return feed


def fitted_engine(catalog) -> DopplerEngine:
    """An engine whose group models make selection read the profile."""
    engine = DopplerEngine(catalog=catalog)
    for deployment, n_dims in ((DB, 4), (MI, 3)):
        observations = [
            GroupObservation(
                group_key=tuple((code >> bit) & 1 for bit in range(n_dims)),
                throttling_probability=0.01 * (1 + code % 7),
            )
            for code in range(2**n_dims)
        ]
        engine.install_group_model(deployment, GroupScoreModel.fit(observations))
    return engine


def new_live(engine, customer_id: str) -> LiveRecommender:
    deployment, dimensions = RESTORED[customer_id]
    return LiveRecommender(
        engine,
        deployment,
        window=WINDOW,
        dimensions=dimensions,
        min_refresh_samples=MIN_REFRESH,
        entity_id=customer_id,
    )


def seeded_store(path, engine, n_shards: int) -> FleetStore:
    """A store whose checkpoint (nothing consumed yet) holds the
    restored customers' fresh state."""
    store = FleetStore(str(path))
    store.checkpoint(
        tick_id=0,
        n_consumed=0,
        n_emitted=0,
        n_shards=n_shards,
        overrides={},
        records=[
            CustomerStateRecord(
                customer_id, new_live(engine, customer_id).snapshot_state()
            )
            for customer_id in sorted(RESTORED)
        ],
    )
    return store


def update_line(customer_id: str, update) -> str:
    """Every ``LiveUpdate`` field, the recommendation spelled out."""
    drift = update.drift
    drift_text = (
        "-"
        if drift is None
        else f"{drift.max_divergence!r}:{drift.worst_sku}:{drift.threshold!r}:{drift.drifted}"
    )
    rec = update.recommendation
    rec_text = "-"
    if rec is not None:
        curve = "/".join(
            f"{point.sku.name}:{point.throttling_probability!r}:{point.score!r}"
            for point in rec.curve.points
        )
        rec_text = (
            f"{rec.sku.name}|{rec.strategy}|{rec.expected_throttling!r}"
            f"|{rec.target_probability!r}|{rec.profile.group_key}"
            f"|{rec.profile.features.tobytes().hex()}|{curve}"
        )
    return (
        f"{customer_id}|{update.n_seen}|{update.n_window}|{update.refreshed}"
        f"|{drift_text}|{rec_text}"
    )


def fleet_lines(updates) -> list[str]:
    return [
        f"{item.customer_id}|ERROR|{item.error}"
        if item.update is None
        else update_line(item.customer_id, item.update)
        for item in updates
    ]


def bare_lines(engine, feed, refreshes_only: bool) -> list[str]:
    """The reference: one ``LiveRecommender.observe`` per sample."""
    lives: dict[str, LiveRecommender] = {}
    quarantined: set[str] = set()
    lines = []
    for sample in feed:
        customer_id = sample.customer_id
        if customer_id in quarantined:
            continue
        live = lives.get(customer_id)
        if live is None:
            if customer_id in RESTORED:
                live = new_live(engine, customer_id)
            else:
                live = LiveRecommender(
                    engine,
                    sample.deployment,
                    window=WINDOW,
                    min_refresh_samples=MIN_REFRESH,
                    entity_id=customer_id,
                )
            lives[customer_id] = live
        try:
            update = live.observe(sample.values)
        except Exception as exc:  # noqa: BLE001 - the watch's containment
            quarantined.add(customer_id)
            lines.append(f"{customer_id}|ERROR|{type(exc).__name__}: {exc}")
            continue
        if update.refreshed or not refreshes_only:
            lines.append(update_line(customer_id, update))
    return lines


class TestTickIdentity:
    @pytest.mark.parametrize("refreshes_only", [True, False])
    def test_every_watch_path_equals_the_bare_loop(self, default_catalog, tmp_path, refreshes_only):
        engine = fitted_engine(default_catalog)
        fleet = FleetEngine(engine=engine, backend="serial")
        feed = identity_feed()
        expected = bare_lines(engine, feed, refreshes_only)
        config = WatchConfig(
            window=WINDOW,
            min_refresh_samples=MIN_REFRESH,
            refreshes_only=refreshes_only,
        )
        variants = {
            "serial": (config, 1),
            "serial-tick-1": (config.replace(tick_samples=1), 1),
            "serial-tick-7": (config.replace(tick_samples=7), 1),
            "process-2": (config.replace(backend="process", max_workers=2), 2),
        }
        for name, (variant, n_shards) in variants.items():
            store = seeded_store(tmp_path / f"{name}.db", engine, n_shards)
            try:
                got = fleet_lines(fleet.watch_fleet(feed, config=variant, resume_from=store))
            finally:
                store.close()
            assert got == expected, name

    def test_the_feed_covers_every_case(self, default_catalog, monkeypatch):
        engine = fitted_engine(default_catalog)
        feed = identity_feed()
        errors = {
            line.split("|")[0]: line.split("|", 2)[2]
            for line in bare_lines(engine, feed, True)
            if "|ERROR|" in line
        }
        assert set(errors) == {"db-nofit", "db-nolog", "db-nolog-nofit", "db-nan"}
        assert errors["db-nolog"].startswith("KeyError") and "LOG_RATE" in errors["db-nolog"]
        assert errors["db-nofit"].startswith("ValueError")
        # A curve error wins over a profile error.
        assert errors["db-nolog-nofit"] == errors["db-nofit"]
        assert errors["db-nan"] == "ValueError: non-finite CPU sample: nan"

        # Refreshes come due before their customer recurs in the tick.
        lives: dict[str, LiveRecommender] = {}
        recurring = 0
        for seq, sample in enumerate(feed):
            if sample.customer_id in RESTORED or sample.customer_id.startswith("db-n"):
                continue
            live = lives.setdefault(
                sample.customer_id,
                LiveRecommender(
                    engine, sample.deployment, window=WINDOW, min_refresh_samples=MIN_REFRESH
                ),
            )
            if live.observe(sample.values).refreshed:
                tick_end = (seq // WATCH_TICK_PER_WORKER + 1) * WATCH_TICK_PER_WORKER
                recurring += any(
                    later.customer_id == sample.customer_id for later in feed[seq + 1 : tick_end]
                )
        assert recurring >= 10

        # The MI layout moves mid-stream: the estimator is rebased onto
        # at least two different GP IOPS caps between refreshes.
        live = new_live(engine, "mi-layout")
        caps = []
        original = live.estimator.rebase_capacity

        def spy(overrides, trace=None):
            caps.append(next(iter(overrides.values())) if overrides else None)
            return original(overrides, trace)

        monkeypatch.setattr(live.estimator, "rebase_capacity", spy)
        for sample in feed:
            if sample.customer_id == "mi-layout":
                live.observe(sample.values)
        assert len({cap for cap in caps if cap is not None}) >= 2


class TestBatchedProfiles:
    def test_one_profile_batch_per_tick_and_deployment(self, default_catalog, monkeypatch):
        """Eight DB customers come due on the tick's last eight samples:
        one ``profile_batch`` over their eight windows, no ``profile``."""
        batches: list[int] = []
        singles: list[int] = []
        profile_batch = CustomerProfiler.profile_batch
        profile = CustomerProfiler.profile

        def counting_batch(self, traces):
            traces = tuple(traces)
            batches.append(len(traces))
            return profile_batch(self, traces)

        def counting_profile(self, trace):
            singles.append(1)
            return profile(self, trace)

        monkeypatch.setattr(CustomerProfiler, "profile_batch", counting_batch)
        monkeypatch.setattr(CustomerProfiler, "profile", counting_profile)
        engine = fitted_engine(default_catalog)
        shard = _WatchShard(
            ShardAssessmentConfig(
                engine=engine,
                window=WINDOW,
                interval_minutes=10.0,
                drift_threshold=DEFAULT_DRIFT_THRESHOLD,
                min_refresh_samples=MIN_REFRESH,
                refreshes_only=True,
            )
        )
        rng = np.random.default_rng(3)
        tick = [
            (8 * k + index, FleetSample(f"db-{index}", db_sample(rng, 1.0 + index, 120.0)))
            for k in range(8)
            for index in range(8)
        ]
        assert len(tick) == WATCH_TICK_PER_WORKER
        emissions, _ = shard.process(tick)
        assert [seq for seq, _ in emissions] == list(range(56, 64))
        assert all(update.update.refreshed for _, update in emissions)
        assert batches == [8]
        assert singles == []

    def test_serial_pool_ticks_like_the_process_pool(self):
        assert _InlinePool.tick_per_shard == WATCH_TICK_PER_WORKER == 64


class TestServeFlushIdentity:
    def test_a_flush_holding_one_customer_many_times_answers_as_single_flushes(
        self, default_catalog
    ):
        feed = [sample for sample in identity_feed(seed=71) if sample.customer_id not in RESTORED]
        config = ServeConfig(
            n_shards=1,
            max_batch=32,
            queue_limit=4096,
            slo_ms=60_000.0,
            watch=WatchConfig(window=WINDOW, min_refresh_samples=MIN_REFRESH),
        )

        async def one_at_a_time():
            fleet = FleetEngine(engine=fitted_engine(default_catalog), backend="serial")
            async with RecommendationService(fleet, config) as service:
                return [await service.observe(sample) for sample in feed], service.stats()

        async def all_at_once():
            fleet = FleetEngine(engine=fitted_engine(default_catalog), backend="serial")
            async with RecommendationService(fleet, config) as service:
                answers = await asyncio.gather(*(service.observe(sample) for sample in feed))
                return answers, service.stats()

        single, single_stats = asyncio.run(one_at_a_time())
        batched, batched_stats = asyncio.run(all_at_once())
        assert single_stats["observe"]["shards"][0]["batches"]["mean_batch"] == 1.0
        assert batched_stats["observe"]["shards"][0]["batches"]["mean_batch"] > 8
        assert any("|ERROR|" in line for line in fleet_lines(single))
        assert fleet_lines(batched) == fleet_lines(single)
