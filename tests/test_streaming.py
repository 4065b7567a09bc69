"""Streaming assessment subsystem: ingestion, estimation, live loop."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.catalog import DeploymentType, ServiceTier, SkuCatalog
from repro.core import DopplerEngine, EmpiricalThrottlingEstimator
from repro.core.incremental import IncrementalThrottlingEstimator
from repro.core.throttling import (
    LATENCY_FLOOR,
    capacity_matrix,
    demand_matrix,
    violation_rows,
)
from repro.dma import AssessmentPipeline
from repro.fleet import FleetEngine, FleetSample, WatchConfig
from repro.streaming import DriftDetector, LiveRecommender
from repro.telemetry import (
    PerfDimension,
    PerformanceTrace,
    StreamingTraceBuilder,
    TimeSeries,
)
from repro.telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS
from repro.telemetry.streaming import parse_sample

from .conftest import make_sku, make_trace

CPU = PerfDimension.CPU
MEMORY = PerfDimension.MEMORY
LATENCY = PerfDimension.IO_LATENCY

DIMS = (CPU, MEMORY, LATENCY)

#: Live-loop traces need every DB curve/profiling dimension.
LIVE_DIMS = (
    PerfDimension.CPU,
    PerfDimension.MEMORY,
    PerfDimension.IOPS,
    PerfDimension.IO_LATENCY,
    PerfDimension.LOG_RATE,
    PerfDimension.STORAGE,
)


def random_samples(n, rng, scale=1.0):
    """Aligned counter samples over the three-dimension test shape."""
    return [
        {
            CPU: float(scale * abs(rng.normal(3.0, 1.5))),
            MEMORY: float(scale * abs(rng.normal(12.0, 4.0))),
            LATENCY: float(abs(rng.normal(5.0, 1.0)) + 0.2),
        }
        for _ in range(n)
    ]


def live_samples(n, rng, scale=1.0):
    """Six-dimension samples sized for the small catalog's SKU ladder."""
    return [
        {
            PerfDimension.CPU: float(scale * abs(rng.normal(1.5, 0.4))),
            PerfDimension.MEMORY: float(scale * abs(rng.normal(6.0, 1.0))),
            PerfDimension.IOPS: float(scale * abs(rng.normal(200.0, 50.0))),
            PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 0.5)) + 0.5),
            PerfDimension.LOG_RATE: float(scale * abs(rng.normal(2.0, 0.5))),
            PerfDimension.STORAGE: 120.0,
        }
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# StreamingTraceBuilder window semantics
# ----------------------------------------------------------------------
class TestStreamingTraceBuilder:
    def test_partial_window_keeps_everything(self):
        builder = StreamingTraceBuilder(DIMS, window=8, interval_minutes=10.0)
        rng = np.random.default_rng(0)
        samples = random_samples(5, rng)
        builder.extend(samples)
        assert builder.n_seen == 5
        assert builder.n_window == 5
        assert not builder.is_full
        assert builder.start_minute == 0.0
        np.testing.assert_array_equal(
            builder.values(CPU), [sample[CPU] for sample in samples]
        )

    def test_window_evicts_oldest_first(self):
        builder = StreamingTraceBuilder(DIMS, window=8, interval_minutes=10.0)
        rng = np.random.default_rng(1)
        samples = random_samples(12, rng)
        builder.extend(samples)
        assert builder.n_seen == 12
        assert builder.n_window == 8
        assert builder.is_full
        # Oldest 4 samples aged out; window start advanced with them.
        assert builder.start_minute == 4 * 10.0
        np.testing.assert_array_equal(
            builder.values(MEMORY), [sample[MEMORY] for sample in samples[-8:]]
        )

    def test_wrap_at_exact_multiple(self):
        builder = StreamingTraceBuilder(DIMS, window=4)
        samples = random_samples(8, np.random.default_rng(2))
        builder.extend(samples)
        np.testing.assert_array_equal(
            builder.values(CPU), [sample[CPU] for sample in samples[-4:]]
        )

    def test_snapshot_is_the_window_tail(self):
        builder = StreamingTraceBuilder(
            DIMS, window=16, interval_minutes=30.0, entity_id="db-42"
        )
        samples = random_samples(40, np.random.default_rng(3))
        builder.extend(samples)
        trace = builder.snapshot()
        assert trace.entity_id == "db-42"
        assert trace.n_samples == 16
        assert trace.interval_minutes == 30.0
        assert trace[CPU].start_minute == (40 - 16) * 30.0
        for dim in DIMS:
            np.testing.assert_array_equal(
                trace[dim].values, [sample[dim] for sample in samples[-16:]]
            )

    def test_snapshot_is_immutable_copy(self):
        builder = StreamingTraceBuilder(DIMS, window=4)
        builder.extend(random_samples(4, np.random.default_rng(4)))
        trace = builder.snapshot()
        before = trace[CPU].values.copy()
        builder.extend(random_samples(4, np.random.default_rng(5)))
        np.testing.assert_array_equal(trace[CPU].values, before)

    def test_extra_sample_keys_ignored(self):
        builder = StreamingTraceBuilder((CPU,), window=4)
        builder.append({CPU: 1.0, MEMORY: 99.0})
        assert builder.n_seen == 1

    def test_missing_dimension_raises(self):
        builder = StreamingTraceBuilder(DIMS, window=4)
        with pytest.raises(KeyError, match="MEMORY"):
            builder.append({CPU: 1.0, LATENCY: 5.0})

    def test_nonfinite_sample_raises(self):
        builder = StreamingTraceBuilder((CPU,), window=4)
        with pytest.raises(ValueError, match="non-finite"):
            builder.append({CPU: float("nan")})

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="window"):
            StreamingTraceBuilder(DIMS, window=0)
        with pytest.raises(ValueError, match="dimension"):
            StreamingTraceBuilder((), window=4)
        with pytest.raises(ValueError, match="duplicate"):
            StreamingTraceBuilder((CPU, CPU), window=4)
        with pytest.raises(ValueError, match="interval"):
            StreamingTraceBuilder(DIMS, window=4, interval_minutes=0.0)

    def test_empty_snapshot_raises(self):
        with pytest.raises(ValueError, match="empty"):
            StreamingTraceBuilder(DIMS, window=4).snapshot()

    def test_undeclared_dimension_lookup_raises(self):
        builder = StreamingTraceBuilder((CPU,), window=4)
        with pytest.raises(KeyError, match="MEMORY"):
            builder.values(MEMORY)


# ----------------------------------------------------------------------
# Incremental estimator: exact agreement with the batch estimator
# ----------------------------------------------------------------------
class TestIncrementalEstimator:
    SKUS = [make_sku(v, name=f"sku-{v}") for v in (2, 4, 8, 16)]

    def checkpoints(self, window, n_total, shift_at, seed):
        """Feed a shifting stream; yield (incremental, batch) pairs."""
        rng = np.random.default_rng(seed)
        samples = random_samples(shift_at, rng) + random_samples(
            n_total - shift_at, rng, scale=4.0
        )
        builder = StreamingTraceBuilder(DIMS, window=window)
        estimator = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=window)
        batch = EmpiricalThrottlingEstimator()
        for index, sample in enumerate(samples):
            builder.append(sample)
            estimator.update(sample)
            if (index + 1) % 25 == 0:
                yield (
                    estimator.probabilities(),
                    batch.probabilities(builder.snapshot(), self.SKUS, DIMS),
                )

    def test_matches_batch_before_window_fills(self):
        for incremental, batch in self.checkpoints(
            window=500, n_total=100, shift_at=50, seed=10
        ):
            np.testing.assert_allclose(incremental, batch, rtol=0.0, atol=1e-12)

    def test_matches_batch_on_sliding_window(self):
        """The acceptance bound: 1e-12 agreement on identical windows."""
        any_nonzero = False
        for incremental, batch in self.checkpoints(
            window=64, n_total=300, shift_at=120, seed=11
        ):
            np.testing.assert_allclose(incremental, batch, rtol=0.0, atol=1e-12)
            any_nonzero = any_nonzero or incremental.any()
        assert any_nonzero, "stream never throttled anything; test is vacuous"

    def test_from_trace_equals_per_sample_updates(self):
        rng = np.random.default_rng(12)
        samples = random_samples(90, rng, scale=3.0)
        builder = StreamingTraceBuilder(DIMS, window=32)
        builder.extend(samples)
        seeded = IncrementalThrottlingEstimator.from_trace(
            builder.snapshot(), self.SKUS, DIMS, window=32
        )
        stepped = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=32)
        for sample in samples:
            stepped.update(sample)
        np.testing.assert_array_equal(seeded.probabilities(), stepped.probabilities())

    def test_ingest_trace_equals_update_loop_and_keeps_ring_aligned(self):
        rng = np.random.default_rng(14)
        # Longer than two 64-sample kernel words, so the unpacked ring
        # rows cross word boundaries.
        samples = random_samples(150, rng, scale=3.0)
        collector = StreamingTraceBuilder(DIMS, window=150)
        collector.extend(samples)
        trace = collector.snapshot()
        follow_up = random_samples(10, rng, scale=1.5)
        for window in (None, 8, 64, 100, 200):  # fast paths and the merge loop
            fast = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=window)
            fast.ingest_trace(trace)
            slow = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=window)
            for sample in samples:
                slow.update(sample)
            np.testing.assert_array_equal(fast.probabilities(), slow.probabilities())
            assert fast.n_seen == slow.n_seen
            # Post-ingest updates must evict identically (ring slots align).
            for sample in follow_up:
                fast.update(sample)
                slow.update(sample)
            np.testing.assert_array_equal(fast.probabilities(), slow.probabilities())

    def test_window_none_keeps_whole_stream(self):
        estimator = IncrementalThrottlingEstimator(self.SKUS, (CPU,), window=None)
        for value in (1.0, 100.0, 100.0, 1.0):
            estimator.update({CPU: value})
        assert estimator.n_window == 4
        np.testing.assert_allclose(estimator.probabilities(), [0.5, 0.5, 0.5, 0.5])

    def test_iops_overrides_match_batch(self):
        skus = [make_sku(v, name=f"mi-{v}") for v in (2, 4)]
        overrides = {"mi-2": 5000.0}
        dims = (CPU, PerfDimension.IOPS)
        rng = np.random.default_rng(13)
        samples = [
            {CPU: 1.0, PerfDimension.IOPS: float(abs(rng.normal(900.0, 400.0)))}
            for _ in range(60)
        ]
        builder = StreamingTraceBuilder(dims, window=60)
        estimator = IncrementalThrottlingEstimator(
            skus, dims, window=60, iops_overrides=overrides
        )
        for sample in samples:
            builder.append(sample)
            estimator.update(sample)
        batch = EmpiricalThrottlingEstimator().probabilities(
            builder.snapshot(), skus, dims, iops_overrides=overrides
        )
        np.testing.assert_allclose(estimator.probabilities(), batch, atol=1e-12)
        # The override must actually bite: mi-2 never IOPS-throttles.
        assert estimator.probabilities()[0] == 0.0

    def test_estimates_by_name(self):
        estimator = IncrementalThrottlingEstimator(self.SKUS, (CPU,), window=4)
        estimator.update({CPU: 1000.0})
        estimates = estimator.estimates_by_name()
        assert set(estimates) == {sku.name for sku in self.SKUS}
        assert all(value == 1.0 for value in estimates.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            IncrementalThrottlingEstimator(self.SKUS, DIMS, window=0)
        with pytest.raises(ValueError, match="dimension"):
            IncrementalThrottlingEstimator(self.SKUS, ())
        estimator = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=4)
        with pytest.raises(ValueError, match="no samples"):
            estimator.probabilities()
        with pytest.raises(KeyError, match="MEMORY"):
            estimator.update({CPU: 1.0, LATENCY: 1.0})
        with pytest.raises(ValueError, match="non-finite"):
            estimator.update({CPU: float("inf"), MEMORY: 1.0, LATENCY: 1.0})


# ----------------------------------------------------------------------
# Snapshot / restore: the violation ring is rebuilt, not stored
# ----------------------------------------------------------------------
class TestEstimatorRingRebuild:
    """``state_dict`` drops the ring; ``load_state`` rebuilds it bit for bit.

    The ring is a pure function of the window's samples and the
    capacity matrix, so a restore replays the window through the
    violation kernel into the slots the estimator's own ``n_seen``
    assigns, and the stored per-SKU counts check the rebuild.
    """

    SKUS = [make_sku(v, name=f"sku-{v}") for v in (2, 4, 8, 16)]
    WINDOW = 16

    def stream(self, n, seed, window=WINDOW):
        rng = np.random.default_rng(seed)
        samples = random_samples(n, rng, scale=2.5)
        builder = StreamingTraceBuilder(DIMS, window=window or 1)
        estimator = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=window)
        for sample in samples:
            builder.append(sample)
            estimator.update(sample)
        return builder, estimator, random_samples(40, rng, scale=2.5)

    def restored(self, estimator, builder, window=WINDOW):
        state = pickle.loads(pickle.dumps(estimator.state_dict()))
        assert "ring" not in state
        target = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=window)
        target.load_state(state, builder.snapshot() if builder.n_seen else None)
        return target

    def assert_continues_identically(self, source, target, follow_up):
        np.testing.assert_array_equal(target._ring, source._ring)
        np.testing.assert_array_equal(target._counts, source._counts)
        assert target.n_seen == source.n_seen
        for sample in follow_up:
            source.update(sample)
            target.update(sample)
            np.testing.assert_array_equal(target.probabilities(), source.probabilities())
        np.testing.assert_array_equal(target._ring, source._ring)

    @pytest.mark.parametrize("n_seen", [0, 5, WINDOW, 2 * WINDOW + 5])
    def test_restore_rebuilds_ring_at_every_fill_level(self, n_seen):
        """Empty, below the window, exactly full, and wrapped past it."""
        builder, source, follow_up = self.stream(n_seen, seed=30 + n_seen)
        target = self.restored(source, builder)
        if n_seen > self.WINDOW:
            # Wrapped: the newest sample does not sit in the last slot,
            # so a slot-order rebuild is distinguishable from a
            # chronological one.
            assert (n_seen - 1) % self.WINDOW != self.WINDOW - 1
        self.assert_continues_identically(source, target, follow_up)

    def test_restore_after_rebase_aligns_on_the_estimator_n_seen(self):
        """After an MI rebase estimator and builder positions differ."""
        builder, source, follow_up = self.stream(2 * self.WINDOW + 3, seed=40)
        # A layout change replays the window: n_seen restarts at the
        # window length while the builder keeps counting.
        source.rebase_capacity({"sku-2": 1e9}, builder.snapshot())
        for sample in follow_up[:5]:
            builder.append(sample)
            source.update(sample)
        assert source.n_seen % self.WINDOW != builder.n_seen % self.WINDOW
        target = self.restored(source, builder)
        assert target.iops_overrides == {"sku-2": 1e9}
        self.assert_continues_identically(source, target, follow_up[5:])

    def test_unbounded_estimator_restores_counts(self):
        builder, source, follow_up = self.stream(30, seed=41, window=None)
        state = pickle.loads(pickle.dumps(source.state_dict()))
        assert state["window"] is None and "ring" not in state
        target = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=None)
        target.load_state(state)
        assert target._ring is None
        for sample in follow_up:
            source.update(sample)
            target.update(sample)
        np.testing.assert_array_equal(target.probabilities(), source.probabilities())
        bounded = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=self.WINDOW)
        with pytest.raises(ValueError, match="bounded vs unbounded"):
            bounded.load_state(state)

    def test_tampered_counts_are_rejected(self):
        builder, source, _ = self.stream(2 * self.WINDOW + 3, seed=42)
        state = source.state_dict()
        state["counts"][0] += 1
        target = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=self.WINDOW)
        with pytest.raises(ValueError, match="counts disagree"):
            target.load_state(state, builder.snapshot())

    def test_window_samples_are_required_and_checked(self):
        builder, source, _ = self.stream(7, seed=43)
        state = source.state_dict()
        target = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=self.WINDOW)
        with pytest.raises(ValueError, match="window's samples"):
            target.load_state(state)
        builder.append(random_samples(1, np.random.default_rng(0))[0])
        with pytest.raises(ValueError, match="8 samples"):
            target.load_state(state, builder.snapshot())
        wider = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=2 * self.WINDOW)
        with pytest.raises(ValueError, match="window"):
            wider.load_state(state, builder.snapshot())

    def test_stored_ring_of_earlier_snapshots_still_loads(self):
        """Snapshots written before the rebuild carry the ring itself."""
        builder, source, follow_up = self.stream(2 * self.WINDOW + 3, seed=44)
        state = source.state_dict()
        del state["window"]
        state["ring"] = source._ring.copy()
        target = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=self.WINDOW)
        target.load_state(state)
        self.assert_continues_identically(source, target, follow_up)


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
class TestDriftDetector:
    def test_no_baseline_never_drifts(self):
        report = DriftDetector(threshold=0.01).check({"a": 0.9})
        assert report.max_divergence == 0.0
        assert report.worst_sku is None
        assert not report.drifted

    def test_detects_shift_beyond_threshold(self):
        detector = DriftDetector(threshold=0.05)
        detector.rebase({"a": 0.10, "b": 0.40})
        calm = detector.check({"a": 0.12, "b": 0.41})
        assert not calm.drifted
        stormy = detector.check({"a": 0.12, "b": 0.50})
        assert stormy.drifted
        assert stormy.worst_sku == "b"
        assert stormy.max_divergence == pytest.approx(0.10)

    def test_unknown_skus_ignored(self):
        detector = DriftDetector(threshold=0.05)
        detector.rebase({"a": 0.1})
        report = detector.check({"zzz": 0.99})
        assert not report.drifted

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            DriftDetector(threshold=1.5)


# ----------------------------------------------------------------------
# The live recommendation loop
# ----------------------------------------------------------------------
class TestLiveRecommender:
    def test_warm_up_then_first_recommendation(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=64, min_refresh_samples=10
        )
        rng = np.random.default_rng(20)
        for sample in live_samples(9, rng):
            update = live.observe(sample)
            assert not update.refreshed
            assert update.recommendation is None
        update = live.observe(live_samples(1, rng)[0])
        assert update.refreshed
        assert update.recommendation is not None
        assert update.n_seen == 10
        assert live.n_refreshes == 1

    def test_stationary_stream_never_re_assesses(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine,
            DeploymentType.SQL_DB,
            window=64,
            min_refresh_samples=8,
            drift_threshold=0.05,
        )
        constant = live_samples(1, np.random.default_rng(21))[0]
        refreshes = sum(live.observe(constant).refreshed for _ in range(100))
        assert refreshes == 1  # the initial assessment only

    def test_workload_shift_triggers_drift_refresh(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine,
            DeploymentType.SQL_DB,
            window=48,
            min_refresh_samples=8,
            drift_threshold=0.05,
        )
        rng = np.random.default_rng(22)
        for sample in live_samples(48, rng):
            live.observe(sample)
        small_sku = live.recommendation.sku
        drift_seen = False
        for sample in live_samples(48, rng, scale=12.0):
            update = live.observe(sample)
            if update.refreshed and update.drift is not None:
                assert update.drift.drifted
                drift_seen = True
        assert drift_seen
        assert live.n_refreshes >= 2
        # The shifted regime demands a bigger SKU.
        assert live.recommendation.sku.vcores > small_sku.vcores

    def test_reported_throttling_is_on_curve(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=32, min_refresh_samples=8
        )
        for sample in live_samples(32, np.random.default_rng(24)):
            update = live.observe(sample)
        recommendation = update.recommendation
        point = recommendation.curve.point_for(recommendation.sku.name)
        assert recommendation.expected_throttling == point.throttling_probability

    def test_min_refresh_samples_validation(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        with pytest.raises(ValueError, match="min_refresh_samples"):
            LiveRecommender(engine, DeploymentType.SQL_DB, min_refresh_samples=0)

    def test_window_smaller_than_warm_up_rejected(self, small_catalog):
        # A window below the warm-up gate would never recommend at all.
        engine = DopplerEngine(catalog=small_catalog)
        with pytest.raises(ValueError, match="min_refresh_samples"):
            LiveRecommender(
                engine, DeploymentType.SQL_DB, window=4, min_refresh_samples=12
            )


# ----------------------------------------------------------------------
# Fleet and DMA wiring
# ----------------------------------------------------------------------
class TestWatchFleet:
    def interleaved_feed(self, n_each, seed):
        rng = np.random.default_rng(seed)
        streams = {
            "cust-a": live_samples(n_each, rng),
            "cust-b": live_samples(n_each, rng, scale=3.0),
        }
        for index in range(n_each):
            for customer_id, samples in streams.items():
                yield FleetSample(customer_id=customer_id, values=samples[index])

    def test_streaming_pass_covers_every_customer(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        updates = list(
            fleet.watch_fleet(
                self.interleaved_feed(24, seed=30),
                config=WatchConfig(window=16, min_refresh_samples=8),
            )
        )
        assert {update.customer_id for update in updates} == {"cust-a", "cust-b"}
        for update in updates:
            assert update.update.refreshed
            assert update.recommendation is not None

    def test_refreshes_only_false_yields_every_sample(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        updates = list(
            fleet.watch_fleet(
                self.interleaved_feed(10, seed=31),
                config=WatchConfig(window=16, min_refresh_samples=8, refreshes_only=False),
            )
        )
        assert len(updates) == 20  # one per observed sample

    def test_failing_customer_is_quarantined_not_fatal(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")

        def feed():
            healthy = live_samples(24, np.random.default_rng(33))
            for index in range(24):
                poisoned = dict(healthy[index])
                poisoned[PerfDimension.STORAGE] = 1e9  # no SKU holds this
                yield FleetSample(customer_id="bad", values=poisoned)
                yield FleetSample(customer_id="good", values=healthy[index])

        updates = list(
            fleet.watch_fleet(feed(), config=WatchConfig(window=16, min_refresh_samples=8))
        )
        failures = [update for update in updates if not update.ok]
        assert len(failures) == 1  # surfaced once, then quarantined
        assert failures[0].customer_id == "bad"
        assert "no candidate SKU" in failures[0].error
        assert failures[0].recommendation is None
        good = [update for update in updates if update.customer_id == "good"]
        assert good and all(update.ok for update in good)

    def test_watch_does_not_pollute_the_batch_cache(self, small_catalog):
        # Refreshes build curves from the live window counts, so a
        # watch never reads, fills or evicts the batch curve cache.
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        list(
            fleet.watch_fleet(
                self.interleaved_feed(16, seed=32),
                config=WatchConfig(window=16, min_refresh_samples=8),
            )
        )
        stats = fleet.cache_stats()
        assert stats.misses == 0 and stats.size == 0  # batch cache untouched


class TestPipelineWatch:
    def test_watch_yields_refreshed_verdicts(self, small_catalog):
        pipeline = AssessmentPipeline(engine=DopplerEngine(catalog=small_catalog))
        samples = live_samples(32, np.random.default_rng(40))
        updates = list(
            pipeline.watch(
                samples,
                DeploymentType.SQL_DB,
                entity_id="db-live",
                window=16,
                min_refresh_samples=8,
            )
        )
        assert updates, "expected at least the initial assessment"
        assert all(update.refreshed for update in updates)
        assert updates[0].recommendation.curve.entity_id == "db-live"

    def test_live_recommender_factory_binds_engine(self, small_catalog):
        pipeline = AssessmentPipeline(engine=DopplerEngine(catalog=small_catalog))
        live = pipeline.live_recommender(DeploymentType.SQL_DB, window=16)
        assert live.engine is pipeline.engine


class TestValidatedRowFastPath:
    """The builder validates once; the estimator takes the row as-is."""

    SKUS = [make_sku(v, name=f"fast-{v}") for v in (2, 8)]

    def test_append_returns_the_validated_row(self):
        builder = StreamingTraceBuilder(DIMS, window=4)
        sample = random_samples(1, np.random.default_rng(50))[0]
        row = builder.append(sample)
        np.testing.assert_array_equal(row, [sample[dim] for dim in DIMS])

    def test_update_vector_equals_update(self):
        rng = np.random.default_rng(51)
        samples = random_samples(30, rng, scale=3.0)
        by_mapping = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=8)
        by_vector = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=8)
        for sample in samples:
            by_mapping.update(sample)
            by_vector.update_vector(np.array([sample[dim] for dim in DIMS]))
        np.testing.assert_array_equal(
            by_mapping.probabilities(), by_vector.probabilities()
        )

    def test_update_vector_shape_validation(self):
        estimator = IncrementalThrottlingEstimator(self.SKUS, DIMS, window=8)
        with pytest.raises(ValueError, match="expected 3 values"):
            estimator.update_vector(np.array([1.0, 2.0]))


# ----------------------------------------------------------------------
# One window matrix per snapshot, one vector compare per sample
# ----------------------------------------------------------------------
def per_dimension_snapshot(samples, dims, window, interval, entity_id):
    """The window trace built the per-dimension way, one checked series each."""
    tail = samples[-window:]
    start = (len(samples) - len(tail)) * interval
    return PerformanceTrace(
        series={
            dim: TimeSeries(
                values=np.array([sample[dim] for sample in tail]),
                interval_minutes=interval,
                start_minute=start,
            )
            for dim in dims
        },
        entity_id=entity_id,
    )


def per_dimension_state(samples, dims, window):
    """``state_dict`` in the per-dimension ring layout, built by hand."""
    buffers = {dim: np.zeros(window) for dim in dims}
    for index, sample in enumerate(samples):
        for dim in dims:
            buffers[dim][index % window] = sample[dim]
    return {"n_seen": len(samples), "buffers": buffers}


def nonfinite_series_error() -> str:
    with pytest.raises(ValueError) as info:
        TimeSeries(values=np.array([1.0, float("nan")]))
    return str(info.value)


class TestWindowMatrixIdentity:
    @pytest.mark.parametrize(
        ("window", "n_samples"),
        [(8, 5), (8, 8), (8, 16), (8, 11), (1, 1), (1, 5)],
        ids=["before-fill", "exact-wrap", "second-wrap", "after-wrap", "w1-first", "w1-wrapped"],
    )
    def test_snapshot_equals_per_dimension_construction(self, window, n_samples):
        samples = random_samples(n_samples, np.random.default_rng(60 + n_samples))
        builder = StreamingTraceBuilder(DIMS, window=window, interval_minutes=15.0, entity_id="e")
        builder.extend(samples)
        trace = builder.snapshot()
        expected = per_dimension_snapshot(samples, DIMS, window, 15.0, "e")
        assert trace.entity_id == expected.entity_id
        assert tuple(trace.series) == tuple(expected.series) == DIMS
        for dim in DIMS:
            series, reference = trace[dim], expected[dim]
            assert series.values.tobytes() == reference.values.tobytes()
            assert series.values.dtype == np.float64 and series.values.ndim == 1
            assert not series.values.flags.writeable
            assert (series.interval_minutes, series.start_minute) == (
                reference.interval_minutes,
                reference.start_minute,
            )
            np.testing.assert_array_equal(builder.values(dim), reference.values)

    @pytest.mark.parametrize("n_samples", [5, 8, 11, 16])
    def test_state_dict_pickles_like_the_per_dimension_layout(self, n_samples):
        samples = random_samples(n_samples, np.random.default_rng(70 + n_samples))
        builder = StreamingTraceBuilder(DIMS, window=8)
        builder.extend(samples)
        by_hand = per_dimension_state(samples, DIMS, 8)
        assert pickle.dumps(builder.state_dict()) == pickle.dumps(by_hand)
        restored = StreamingTraceBuilder(DIMS, window=8)
        restored.load_state(by_hand)
        assert pickle.dumps(restored.state_dict()) == pickle.dumps(by_hand)
        for dim in DIMS:
            assert restored.snapshot()[dim].values.tobytes() == (
                builder.snapshot()[dim].values.tobytes()
            )

    def test_nan_in_a_loaded_window_raises_the_series_error(self):
        samples = random_samples(6, np.random.default_rng(80))
        state = per_dimension_state(samples, DIMS, 8)
        state["buffers"][MEMORY][2] = float("nan")
        builder = StreamingTraceBuilder(DIMS, window=8)
        builder.load_state(state)
        with pytest.raises(ValueError) as info:
            builder.snapshot()
        assert str(info.value) == nonfinite_series_error()

    def test_nan_outside_the_retained_window_is_never_read(self):
        samples = random_samples(6, np.random.default_rng(81))
        state = per_dimension_state(samples, DIMS, 8)
        state["buffers"][CPU][7] = float("nan")  # slot 7 holds no sample yet
        builder = StreamingTraceBuilder(DIMS, window=8)
        builder.load_state(state)
        np.testing.assert_array_equal(
            builder.snapshot()[CPU].values, [sample[CPU] for sample in samples]
        )


class TestParseSampleContract:
    def test_nonfinite_ahead_of_a_missing_dimension_raises_value_error(self):
        with pytest.raises(ValueError) as info:
            parse_sample({CPU: float("nan"), LATENCY: 1.0}, DIMS)
        assert str(info.value) == "non-finite CPU sample: nan"

    def test_missing_dimension_ahead_of_a_nonfinite_raises_key_error(self):
        with pytest.raises(KeyError) as info:
            parse_sample({CPU: 1.0, LATENCY: float("inf")}, DIMS)
        assert info.value.args[0] == (
            "sample is missing dimension MEMORY; declared: ['CPU', 'MEMORY', 'IO_LATENCY']"
        )

    def test_row_is_float64_in_dimension_order(self):
        row = parse_sample({LATENCY: 3, CPU: np.float32(1.5), MEMORY: 2.0, "x": 9}, DIMS)
        assert row.dtype == np.float64
        assert row.tolist() == [1.5, 2.0, 3.0]


class TestUpdateVectorMatchesViolationRows:
    """Per-sample rows equal the batch kernel's on the same demand."""

    @staticmethod
    def candidates(catalog, deployment):
        return list(DopplerEngine(catalog=catalog).ppm.candidates(deployment))

    @staticmethod
    def mi_samples(n, seed):
        rng = np.random.default_rng(seed)
        return [
            {
                CPU: float(abs(rng.normal(3.0, 1.0))),
                MEMORY: float(abs(rng.normal(12.0, 3.0))),
                PerfDimension.IOPS: float(abs(rng.normal(1500.0, 900.0))),
                LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.5),
            }
            for _ in range(n)
        ]

    @staticmethod
    def window(samples, dims):
        return per_dimension_snapshot(samples, dims, len(samples), 10.0, "k")

    @staticmethod
    def feed(estimator, samples):
        for sample in samples:
            estimator.update_vector(parse_sample(sample, estimator.dimensions))

    def kernel_rows(self, samples, dims, caps):
        return violation_rows(demand_matrix(self.window(samples, dims), dims), caps)

    def test_db_rows_with_a_zero_latency_sample(self, default_catalog):
        skus = self.candidates(default_catalog, DeploymentType.SQL_DB)
        samples = live_samples(40, np.random.default_rng(90), scale=4.0)
        samples[7] = {**samples[7], LATENCY: 0.0}
        estimator = IncrementalThrottlingEstimator(skus, DB_DIMENSIONS, window=64)
        self.feed(estimator, samples)
        expected = self.kernel_rows(samples, DB_DIMENSIONS, capacity_matrix(skus, DB_DIMENSIONS))
        np.testing.assert_array_equal(estimator._ring[: len(samples)], expected)
        demands = demand_matrix(self.window(samples, DB_DIMENSIONS), DB_DIMENSIONS)
        assert demands[7, DB_DIMENSIONS.index(LATENCY)] == 1.0 / LATENCY_FLOOR
        assert expected[7].all() and not expected[6].all()

    def test_mi_rows_after_rebase_capacity_moves_the_overrides(self, default_catalog):
        skus = self.candidates(default_catalog, DeploymentType.SQL_MI)
        samples = self.mi_samples(48, seed=91)
        gp = [sku.name for sku in skus if sku.tier is ServiceTier.GENERAL_PURPOSE]
        first = {name: 500.0 for name in gp}
        second = {name: 2300.0 for name in gp}
        estimator = IncrementalThrottlingEstimator(
            skus, MI_DIMENSIONS, window=64, iops_overrides=first
        )
        self.feed(estimator, samples[:24])
        estimator.rebase_capacity(second, self.window(samples[:24], MI_DIMENSIONS))
        self.feed(estimator, samples[24:])
        expected = self.kernel_rows(
            samples, MI_DIMENSIONS, capacity_matrix(skus, MI_DIMENSIONS, iops_overrides=second)
        )
        np.testing.assert_array_equal(estimator._ring[: len(samples)], expected)
        stale = self.kernel_rows(
            samples, MI_DIMENSIONS, capacity_matrix(skus, MI_DIMENSIONS, iops_overrides=first)
        )
        assert not np.array_equal(stale[24:], expected[24:])  # the move bites

    def test_mi_rows_after_load_state_adopts_the_overrides(self, default_catalog):
        skus = self.candidates(default_catalog, DeploymentType.SQL_MI)
        samples = self.mi_samples(40, seed=92)
        overrides = {
            sku.name: 700.0 for sku in skus if sku.tier is ServiceTier.GENERAL_PURPOSE
        }
        source = IncrementalThrottlingEstimator(
            skus, MI_DIMENSIONS, window=64, iops_overrides=overrides
        )
        self.feed(source, samples[:20])
        target = IncrementalThrottlingEstimator(skus, MI_DIMENSIONS, window=64)
        target.load_state(
            pickle.loads(pickle.dumps(source.state_dict())),
            self.window(samples[:20], MI_DIMENSIONS),
        )
        self.feed(target, samples[20:])
        expected = self.kernel_rows(
            samples, MI_DIMENSIONS, capacity_matrix(skus, MI_DIMENSIONS, iops_overrides=overrides)
        )
        np.testing.assert_array_equal(target._ring[: len(samples)], expected)


def db_sample(rng, index: int, scale: float = 1.0):
    return {
        PerfDimension.CPU: float(scale * abs(rng.normal(2.0, 0.8))),
        PerfDimension.MEMORY: float(scale * abs(rng.normal(8.0, 2.0))),
        PerfDimension.IOPS: float(scale * abs(rng.normal(300.0, 120.0))),
        PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 1.0)) + 0.3),
        PerfDimension.LOG_RATE: float(scale * abs(rng.normal(2.5, 0.8))),
        PerfDimension.STORAGE: 120.0 + index * 0.1,
    }


class TestMiStreamingParity:
    def test_refresh_folds_layout_override_into_estimator(self, small_catalog=None):
        catalog = SkuCatalog.default()
        engine = DopplerEngine(catalog=catalog)
        rng = np.random.default_rng(2)
        live = LiveRecommender(
            engine, DeploymentType.SQL_MI, window=128, min_refresh_samples=12
        )
        for index in range(48):
            live.observe(db_sample(rng, index))
        assert live.n_refreshes >= 1
        overrides = live.estimator.iops_overrides
        assert overrides, "MI refresh must install the layout's GP IOPS override"
        candidates = list(catalog.for_deployment(DeploymentType.SQL_MI))
        gp_names = {
            sku.name for sku in candidates if sku.tier is ServiceTier.GENERAL_PURPOSE
        }
        assert set(overrides) == gp_names

    def test_incremental_matches_batch_estimator_with_overrides(self):
        """The ROADMAP regression test: parity against the batch path."""
        catalog = SkuCatalog.default()
        engine = DopplerEngine(catalog=catalog)
        rng = np.random.default_rng(4)
        live = LiveRecommender(
            engine, DeploymentType.SQL_MI, window=96, min_refresh_samples=12
        )
        for index in range(72):
            live.observe(db_sample(rng, index, scale=1.0 + index / 24.0))
        trace = live.builder.snapshot()
        candidates = list(catalog.for_deployment(DeploymentType.SQL_MI))
        batch = EmpiricalThrottlingEstimator().probabilities(
            trace,
            candidates,
            MI_DIMENSIONS,
            iops_overrides=live.estimator.iops_overrides,
        )
        np.testing.assert_allclose(
            live.estimator.probabilities(), batch, rtol=0, atol=1e-12
        )

    def test_rebase_capacity_equals_fresh_construction(self):
        skus = [make_sku(2, name="a"), make_sku(8, name="b")]
        dims = (PerfDimension.CPU, PerfDimension.MEMORY, PerfDimension.IOPS)
        rng = np.random.default_rng(6)
        n = 40
        trace = make_trace(
            np.abs(rng.normal(2.0, 1.0, n)),
            memory_gb=np.abs(rng.normal(8.0, 3.0, n)),
            data_iops=np.abs(rng.normal(500.0, 200.0, n)),
            entity_id="rebase",
        )
        estimator = IncrementalThrottlingEstimator.from_trace(
            trace, skus, dims, window=32
        )
        overrides = {"a": 120.0, "b": 5000.0}
        estimator.rebase_capacity(overrides, trace)
        fresh = IncrementalThrottlingEstimator.from_trace(
            trace, skus, dims, window=32, iops_overrides=overrides
        )
        np.testing.assert_array_equal(
            estimator.probabilities(), fresh.probabilities()
        )
        assert estimator.iops_overrides == overrides

    def test_rebase_without_trace_rejected_once_ingested(self):
        skus = [make_sku(2, name="a")]
        dims = (PerfDimension.CPU,)
        estimator = IncrementalThrottlingEstimator(skus, dims, window=8)
        estimator.update({PerfDimension.CPU: 1.0})
        with pytest.raises(ValueError, match="rebase_capacity"):
            estimator.rebase_capacity({"a": 10.0})
        # Before any ingestion a trace-less rebase is fine.
        fresh = IncrementalThrottlingEstimator(skus, dims, window=8)
        fresh.rebase_capacity({"a": 10.0})
        assert fresh.iops_overrides == {"a": 10.0}
