"""Live refreshes build their curves from the incremental window counts.

Every refreshed curve must equal a fresh
``engine.ppm.build_curve(live.builder.snapshot(), deployment)`` point
for point -- on SQL DB and SQL MI feeds, across MI file-layout changes
and Business-Critical restrictions, and on the re-scan fallback (non
empirical estimators, tracked dimensions outside the curve) -- while
capacity matrices are built once per engine, deployment and dimension
tuple rather than per customer and per refresh.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.catalog import DeploymentType, ServiceTier
from repro.core import DopplerEngine, KdeThrottlingEstimator
from repro.core import throttling
from repro.fleet import FleetEngine, FleetSample, WatchConfig
from repro.fleet.backends import ShardAssessmentConfig, _WatchShard
from repro.fleet.cache import CurveCacheStats
from repro.streaming import LiveRecommender
from repro.telemetry import PerfDimension
from repro.telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS

from .test_streaming import live_samples

DB = DeploymentType.SQL_DB
MI = DeploymentType.SQL_MI


def db_feed(n: int, seed: int) -> list[dict]:
    """Six-dimension DB samples whose regime shifts every 12 samples."""
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(n):
        scale = (1.0, 3.0, 0.5, 6.0)[(index // 12) % 4]
        samples.append(
            {
                PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.5))),
                PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 2.0))),
                PerfDimension.IOPS: float(scale * abs(rng.normal(500.0, 150.0))),
                PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.5),
                PerfDimension.LOG_RATE: float(scale * abs(rng.normal(3.0, 1.0))),
                PerfDimension.STORAGE: 100.0 + 4.0 * index,
            }
        )
    return samples


def mi_feed(n: int, seed: int, iops_levels=(300.0,), storage=None) -> list[dict]:
    """MI samples cycling IOPS levels every 16 samples.

    ``storage`` (start, step) adds a growing data-size column.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(n):
        level = iops_levels[(index // 16) % len(iops_levels)]
        sample = {
            PerfDimension.CPU: float(abs(rng.normal(3.0, 1.0))),
            PerfDimension.MEMORY: float(abs(rng.normal(12.0, 3.0))),
            PerfDimension.IOPS: float(level * abs(rng.normal(1.0, 0.05))),
            PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.5),
            PerfDimension.LOG_RATE: float(abs(rng.normal(40.0, 20.0))),
        }
        if storage is not None:
            start, step = storage
            sample[PerfDimension.STORAGE] = start + step * index
        samples.append(sample)
    return samples


def assert_refreshes_match_build_curve(live: LiveRecommender, feed) -> list:
    """Observe ``feed``; every refreshed curve must equal a fresh build."""
    curves = []
    for sample in feed:
        update = live.observe(sample)
        if not update.refreshed:
            continue
        curve = update.recommendation.curve
        expected = live.engine.ppm.build_curve(live.builder.snapshot(), live.deployment)
        assert curve.points == expected.points
        assert curve.entity_id == expected.entity_id
        curves.append(curve)
    return curves


def count_rebases(monkeypatch, live: LiveRecommender) -> list:
    """Record the overrides of every ``rebase_capacity`` on ``live``."""
    calls = []
    original = live.estimator.rebase_capacity

    def spy(iops_overrides, trace=None):
        calls.append(iops_overrides)
        return original(iops_overrides, trace)

    monkeypatch.setattr(live.estimator, "rebase_capacity", spy)
    return calls


class TestRefreshParity:
    def test_db_refreshes_equal_build_curve(self, default_catalog):
        engine = DopplerEngine(catalog=default_catalog)
        live = LiveRecommender(engine, DB, window=24, min_refresh_samples=8)
        curves = assert_refreshes_match_build_curve(live, db_feed(96, seed=1))
        assert len(curves) >= 5

    def test_mi_layout_change_rebases_and_matches(self, default_catalog, monkeypatch):
        # Data grows from 100 to ~290 GiB: the single-file layout moves
        # P10 -> P15 -> P20, so the GP IOPS cap changes mid-stream.
        engine = DopplerEngine(catalog=default_catalog)
        live = LiveRecommender(
            engine,
            MI,
            window=16,
            min_refresh_samples=8,
            dimensions=MI_DIMENSIONS + (PerfDimension.STORAGE,),
        )
        rebases = count_rebases(monkeypatch, live)
        feed = mi_feed(96, seed=2, iops_levels=(300.0, 600.0), storage=(100.0, 2.0))
        curves = assert_refreshes_match_build_curve(live, feed)
        assert curves
        layout_iops = {next(iter(overrides.values())) for overrides in rebases if overrides}
        assert len(layout_iops) >= 2  # at least one layout change after the first sync

    def test_mi_business_critical_restriction_matches(self, default_catalog, monkeypatch):
        # IOPS far beyond the P10 layout's 500 forces Business Critical;
        # the low phases let GP back in.
        engine = DopplerEngine(catalog=default_catalog)
        live = LiveRecommender(engine, MI, window=16, min_refresh_samples=8)
        rebases = count_rebases(monkeypatch, live)
        curves = assert_refreshes_match_build_curve(
            live, mi_feed(96, seed=3, iops_levels=(300.0, 3000.0))
        )
        tiers = [{point.sku.tier for point in curve} for curve in curves]
        assert {ServiceTier.BUSINESS_CRITICAL} in tiers
        assert any(ServiceTier.GENERAL_PURPOSE in found for found in tiers)
        assert rebases  # the first refresh folds the layout's GP IOPS in

    def test_window_no_sku_holds_raises_the_build_curve_message(self, default_catalog):
        engine = DopplerEngine(catalog=default_catalog)
        live = LiveRecommender(engine, DB, window=16, min_refresh_samples=8)
        feed = db_feed(8, seed=4)
        for sample in feed[:-1]:
            live.observe(sample)
        huge = {**feed[-1], PerfDimension.STORAGE: 1e9}
        with pytest.raises(ValueError) as live_error:
            live.observe(huge)
        with pytest.raises(ValueError) as batch_error:
            engine.ppm.build_curve(live.builder.snapshot(), DB)
        assert str(live_error.value) == str(batch_error.value)
        assert "no candidate SKU can hold" in str(live_error.value)


class TestRefreshFallback:
    def test_kde_engine_matches_build_curve(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog, estimator=KdeThrottlingEstimator())
        live = LiveRecommender(
            engine, DB, window=16, min_refresh_samples=8, drift_threshold=0.01
        )
        rng = np.random.default_rng(5)
        feed = live_samples(24, rng) + live_samples(24, rng, scale=2.5)
        assert assert_refreshes_match_build_curve(live, feed)

    def test_non_curve_dimension_matches_build_curve(self, default_catalog):
        # LOG_RATE is not an MI curve dimension: the window counts
        # include its violations, so only a re-scan yields the curve.
        engine = DopplerEngine(catalog=default_catalog)
        live = LiveRecommender(
            engine,
            MI,
            window=16,
            min_refresh_samples=8,
            dimensions=MI_DIMENSIONS + (PerfDimension.LOG_RATE,),
        )
        curves = assert_refreshes_match_build_curve(
            live, mi_feed(64, seed=6, iops_levels=(300.0, 450.0))
        )
        assert curves
        trace = live.builder.snapshot()
        from_counts = engine.ppm.build_curve_from_probabilities(
            trace, MI, live.estimator.probabilities()
        )
        assert from_counts.points != engine.ppm.build_curve(trace, MI).points


class TestCapacityBuilds:
    def test_onboard_and_restore_build_each_matrix_once(self, default_catalog, monkeypatch):
        builds = []
        original = throttling.capacity_matrix

        def counting(skus, dimensions, iops_overrides=None):
            builds.append((len(skus), tuple(dimensions)))
            return original(skus, dimensions, iops_overrides)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "capacity_matrix", None) is original:
                monkeypatch.setattr(module, "capacity_matrix", counting)

        engine = DopplerEngine(catalog=default_catalog)
        config = ShardAssessmentConfig(
            engine=engine,
            window=16,
            interval_minutes=10.0,
            drift_threshold=0.02,
            min_refresh_samples=8,
            refreshes_only=False,
            profile_mode="exact",
        )
        streams = {}
        for index in range(16):
            if index % 2:
                feed = mi_feed(32, seed=10 + index, iops_levels=(300.0, 3000.0))
                streams[f"mi-{index}"] = (MI, feed)
            else:
                streams[f"db-{index}"] = (DB, db_feed(32, seed=10 + index))
        feed = [
            (position * len(streams) + offset, FleetSample(customer_id, samples[position], deployment))
            for position in range(32)
            for offset, (customer_id, (deployment, samples)) in enumerate(streams.items())
        ]
        onboard, rest = feed[: 24 * len(streams)], feed[24 * len(streams) :]
        shard = _WatchShard(config)
        emissions, _ = shard.process(onboard)
        assert sum(update.update.refreshed for _, update in emissions) >= 32
        restored = _WatchShard(config)
        restored.restore_records(shard.snapshot_records())
        assert sorted(restored.recommenders) == sorted(streams)
        # The restored shard continues exactly where the source would
        # have, MI layout overrides included.
        continued, _ = shard.process(rest)
        resumed, _ = restored.process(rest)

        def outcomes(pairs):
            return [
                (seq, item.customer_id, item.update.refreshed, item.update.recommendation.curve.points)
                for seq, item in pairs
            ]

        assert outcomes(resumed) == outcomes(continued)
        assert any(item.update.refreshed for _, item in resumed)

        per_key = Counter(builds)
        assert per_key == {
            (len(engine.ppm.candidates(DB)), DB_DIMENSIONS): 1,
            (len(engine.ppm.candidates(MI)), MI_DIMENSIONS): 1,
        }


class TestDeprecations:
    def test_watch_cache_stats_warns_and_reports_zero(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        with pytest.warns(DeprecationWarning, match="watch_cache_stats"):
            assert fleet.watch_cache_stats() is None  # no watch yet
        feed = [
            FleetSample(f"cust-{index % 3}", sample)
            for index, sample in enumerate(live_samples(24, np.random.default_rng(7)))
        ]
        assert list(fleet.watch_fleet(feed, config=WatchConfig(window=8, min_refresh_samples=4)))
        with pytest.warns(DeprecationWarning, match="watch_cache_stats"):
            stats = fleet.watch_cache_stats()
        assert stats == CurveCacheStats(hits=0, misses=0, evictions=0, size=0)
        assert (stats.hits, stats.misses) == (0, 0)
        # Watches never touch the batch pass's curve cache either.
        assert fleet.cache_stats().misses == 0

    def test_live_recommender_cache_argument_warns_and_is_ignored(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        with pytest.warns(DeprecationWarning, match="cache"):
            live = LiveRecommender(
                engine, DB, window=16, min_refresh_samples=8, cache=object()
            )
        assert not hasattr(live, "cache")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plain = LiveRecommender(engine, DB, window=16, min_refresh_samples=8)
        for sample in live_samples(16, np.random.default_rng(8)):
            ours, theirs = live.observe(sample), plain.observe(sample)
            assert (ours.n_seen, ours.refreshed) == (theirs.n_seen, theirs.refreshed)
        assert live.recommendation.curve.points == plain.recommendation.curve.points
