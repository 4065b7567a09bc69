"""Unified execution-backend layer: routing, parity, state handoff.

The contract under test is *serial identity*: every backend -- batch
or streaming -- must produce result sequences byte-identical to the
serial backend's, including per-customer failure containment and
quarantine ordering, because customers' state is confined to exactly
one shard and emissions are reassembled into feed order.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.catalog import DeploymentType
from repro.core import DopplerEngine
from repro.core.negotiability import (
    CombinedSummarizer,
    MaxAucSummarizer,
    MinMaxAucSummarizer,
    OutlierSummarizer,
    StlSummarizer,
    ThresholdingSummarizer,
)
from repro.core.profiler import CustomerProfiler
from repro.dma import AssessmentPipeline
from repro.fleet import (
    BACKEND_NAMES,
    FleetEngine,
    FleetSample,
    WatchConfig,
    make_backend,
)
from repro.simulation import FleetConfig, simulate_fleet
from repro.streaming import LiveRecommender
from repro.telemetry import PerfDimension, TimeSeries
from repro.telemetry.counters import PROFILING_DB_DIMENSIONS
from repro.telemetry.streaming import StreamingSeriesStats

from .conftest import full_trace

WATCH_CONFIG = WatchConfig(window=16, min_refresh_samples=8)


def live_samples(n, rng, scale=1.0, storage=120.0):
    """Six-dimension samples sized for the small catalog's SKU ladder."""
    return [
        {
            PerfDimension.CPU: float(scale * abs(rng.normal(1.5, 0.4))),
            PerfDimension.MEMORY: float(scale * abs(rng.normal(6.0, 1.0))),
            PerfDimension.IOPS: float(scale * abs(rng.normal(200.0, 50.0))),
            PerfDimension.IO_LATENCY: float(abs(rng.normal(6.0, 0.5)) + 0.5),
            PerfDimension.LOG_RATE: float(scale * abs(rng.normal(2.0, 0.5))),
            PerfDimension.STORAGE: storage,
        }
        for _ in range(n)
    ]


def interleaved_feed(n_customers, n_each, seed, poison=()):
    """A fleet feed interleaving ``n_customers`` streams round-robin.

    Customers named in ``poison`` get a storage footprint no SKU
    holds, so their first assessment fails and quarantines them.
    """
    rng = np.random.default_rng(seed)
    streams = {}
    for index in range(n_customers):
        customer_id = f"cust-{index}"
        storage = 1e9 if customer_id in poison else 120.0
        streams[customer_id] = live_samples(
            n_each, rng, scale=1.0 + 0.4 * index, storage=storage
        )
    feed = []
    for position in range(n_each):
        for customer_id, samples in streams.items():
            feed.append(FleetSample(customer_id=customer_id, values=samples[position]))
    return feed


def canonical_updates(updates):
    """Byte-comparable projection of a fleet watch's update stream."""
    lines = []
    for update in updates:
        if update.update is None:
            lines.append(f"{update.customer_id}|ERROR|{update.error}")
            continue
        live = update.update
        rec = live.recommendation
        drift = (
            "-"
            if live.drift is None
            else f"{live.drift.max_divergence!r}:{live.drift.worst_sku}"
        )
        throttling = repr(rec.expected_throttling) if rec else None
        lines.append(
            f"{update.customer_id}|{live.n_seen}|{live.n_window}|{live.refreshed}"
            f"|{drift}|{rec.sku.name if rec else None}|{throttling}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_factory_builds_every_advertised_backend(self):
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name

    def test_unknown_backend_message_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            make_backend("mpi")
        message = str(excinfo.value)
        assert "unknown fleet backend 'mpi'" in message
        for name in BACKEND_NAMES:
            assert repr(name) in message

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            make_backend("thread", max_workers=0)

    def test_fleet_engine_validates_backend_eagerly(self, small_catalog):
        with pytest.raises(ValueError, match="unknown fleet backend"):
            FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="mpi")
        with pytest.raises(ValueError, match="max_workers"):
            FleetEngine(
                engine=DopplerEngine(catalog=small_catalog),
                backend="thread",
                max_workers=-1,
            )

    def test_watch_fleet_validates_backend_at_call_time(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        # A plain function returning a generator: the error must fire
        # here, not at first iteration.
        with pytest.raises(ValueError, match="unknown fleet backend"):
            fleet.watch_fleet([], config=WatchConfig(backend="gpu"))
        with pytest.raises(ValueError, match="min_refresh_samples"):
            fleet.watch_fleet([], config=WatchConfig(window=4, min_refresh_samples=12))
        with pytest.raises(ValueError, match="profile mode"):
            fleet.watch_fleet([], config=WatchConfig(profile_mode="psychic"))

    def test_streaming_profile_mode_checked_against_summarizer(self, small_catalog):
        class OpaqueSummarizer(StlSummarizer):
            name = "opaque"
            supports_streaming = False

        engine = DopplerEngine(catalog=small_catalog, summarizer=OpaqueSummarizer())
        fleet = FleetEngine(engine=engine, backend="serial")
        with pytest.raises(ValueError, match="no streaming"):
            fleet.watch_fleet([], config=WatchConfig(profile_mode="streaming"))

    def test_stl_summarizer_accepted_in_streaming_mode(self, small_catalog):
        # Incremental STL landed: all six paper summarizers stream.
        engine = DopplerEngine(catalog=small_catalog, summarizer=StlSummarizer())
        fleet = FleetEngine(engine=engine, backend="serial")
        assert (
            list(fleet.watch_fleet([], config=WatchConfig(profile_mode="streaming")))
            == []
        )


# ----------------------------------------------------------------------
# Streaming parity across backends
# ----------------------------------------------------------------------
class TestWatchParity:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_sharded_watch_equals_serial(self, backend, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(7, 24, seed=60)
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        sharded = canonical_updates(
            fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(backend=backend, max_workers=3))
        )
        assert sharded == serial

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_quarantine_ordering_survives_sharding(self, backend, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(6, 20, seed=61, poison=("cust-1", "cust-4"))
        serial = list(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        sharded = list(
            fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(backend=backend, max_workers=3))
        )
        assert canonical_updates(sharded) == canonical_updates(serial)
        failures = [update for update in sharded if not update.ok]
        assert {update.customer_id for update in failures} == {"cust-1", "cust-4"}
        # Quarantined exactly once each, then silence.
        assert len(failures) == 2

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_every_sample_mode_equals_serial(self, backend, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(5, 12, seed=62)
        serial = list(fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(refreshes_only=False)))
        assert len(serial) == len(feed)  # one emission per sample
        sharded = list(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend=backend, max_workers=2, refreshes_only=False
                ),
            )
        )
        assert canonical_updates(sharded) == canonical_updates(serial)

    def test_process_single_worker_equals_serial(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 16, seed=63)
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        one = canonical_updates(
            fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(backend="process", max_workers=1))
        )
        assert one == serial

    def test_abandoned_process_watch_tears_down(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 16, seed=65)
        stream = fleet.watch_fleet(
            feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2)
        )
        next(stream)
        stream.close()  # must not hang or leak worker processes

    def test_pipeline_watch_fleet_passes_backend_through(self, small_catalog):
        pipeline = AssessmentPipeline(engine=DopplerEngine(catalog=small_catalog))
        feed = interleaved_feed(4, 16, seed=66)
        serial = canonical_updates(pipeline.watch_fleet(feed, config=WATCH_CONFIG))
        threaded = canonical_updates(
            pipeline.watch_fleet(feed, config=WATCH_CONFIG.replace(backend="thread", max_workers=2))
        )
        assert threaded == serial
        with pytest.raises(ValueError, match="unknown fleet backend"):
            pipeline.watch_fleet(feed, config=WatchConfig(backend="quantum"))


# ----------------------------------------------------------------------
# Batch passes through the backend layer
# ----------------------------------------------------------------------
class TestBatchThroughBackends:
    @pytest.fixture(scope="class")
    def trained(self, default_catalog):
        config = FleetConfig.paper_db(10, duration_days=3.0, interval_minutes=60.0)
        return [
            customer.record for customer in simulate_fleet(config, default_catalog, rng=19)
        ]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fit_fleet_parity_across_backends(self, backend, default_catalog, trained):
        serial_engine = DopplerEngine(catalog=default_catalog)
        FleetEngine(engine=serial_engine, backend="serial").fit_fleet(trained)
        parallel_engine = DopplerEngine(catalog=default_catalog)
        FleetEngine(
            engine=parallel_engine, backend=backend, max_workers=2, chunk_size=3
        ).fit_fleet(trained)
        deployment = DeploymentType.SQL_DB
        serial_model = serial_engine.group_model(deployment)
        parallel_model = parallel_engine.group_model(deployment)
        assert serial_model is not None and parallel_model is not None
        assert set(parallel_model.groups) == set(serial_model.groups)
        for key, stats in serial_model.groups.items():
            other = parallel_model.groups[key]
            assert other.count == stats.count
            assert other.p_mean == stats.p_mean
        assert parallel_model.fallback.p_mean == serial_model.fallback.p_mean


# ----------------------------------------------------------------------
# Live-state snapshot / restore (worker handoff)
# ----------------------------------------------------------------------
class TestLiveStateHandoff:
    def drive(self, live, samples):
        return [live.observe(sample) for sample in samples]

    def outcome(self, updates):
        return [
            (
                update.n_seen,
                update.refreshed,
                update.recommendation.sku.name if update.recommendation else None,
                repr(update.recommendation.expected_throttling)
                if update.recommendation
                else None,
            )
            for update in updates
        ]

    @pytest.mark.parametrize("profile_mode", ["exact", "streaming"])
    def test_restored_assessment_continues_identically(
        self, profile_mode, small_catalog
    ):
        engine = DopplerEngine(catalog=small_catalog)
        rng = np.random.default_rng(70)
        feed = live_samples(16, rng) + live_samples(16, rng, scale=4.0)

        def fresh():
            return LiveRecommender(
                engine,
                DeploymentType.SQL_DB,
                window=16,
                min_refresh_samples=8,
                profile_mode=profile_mode,
            )

        reference = fresh()
        expected = self.outcome(self.drive(reference, feed))

        source = fresh()
        head = self.drive(source, feed[:16])
        state = pickle.loads(pickle.dumps(source.snapshot_state()))
        target = fresh()
        target.restore_state(state)
        resumed = head + self.drive(target, feed[16:])
        assert self.outcome(resumed) == expected
        assert target.n_refreshes == reference.n_refreshes
        assert target.builder.entity_id == source.builder.entity_id

    def test_snapshot_is_frozen_against_further_updates(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
        )
        rng = np.random.default_rng(71)
        self.drive(live, live_samples(12, rng))
        state = live.snapshot_state()
        n_seen = state.builder["n_seen"]
        self.drive(live, live_samples(6, rng))
        assert state.builder["n_seen"] == n_seen  # deep copy, not a view

    def test_mismatched_restore_is_rejected(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
        )
        self.drive(live, live_samples(8, np.random.default_rng(72)))
        state = live.snapshot_state()
        other_window = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=24, min_refresh_samples=8
        )
        with pytest.raises(ValueError, match="window"):
            other_window.restore_state(state)
        other_mode = LiveRecommender(
            engine,
            DeploymentType.SQL_DB,
            window=16,
            min_refresh_samples=8,
            profile_mode="streaming",
        )
        with pytest.raises(ValueError, match="profile_mode"):
            other_mode.restore_state(state)

    def test_whole_recommender_pickles(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
        )
        rng = np.random.default_rng(73)
        feed = live_samples(24, rng)
        self.drive(live, feed[:12])
        clone = pickle.loads(pickle.dumps(live))
        tail = self.outcome(self.drive(live, feed[12:]))
        assert self.outcome(self.drive(clone, feed[12:])) == tail


# ----------------------------------------------------------------------
# Columnar fit-aggregation tail
# ----------------------------------------------------------------------
class TestProfileBatch:
    def traces(self, lengths, seed=5):
        return [
            full_trace(n=length, cpu_level=1.0 + 0.3 * index, entity_id=f"t{index}", rng=seed + index)
            for index, length in enumerate(lengths)
        ]

    def test_batch_profiles_are_byte_identical(self):
        profiler = CustomerProfiler(
            dimensions=PROFILING_DB_DIMENSIONS, summarizer=ThresholdingSummarizer()
        )
        traces = self.traces([96, 96, 96, 96])
        batch = profiler.profile_batch(traces)
        for trace, profile in zip(traces, batch):
            reference = profiler.profile(trace)
            assert profile.group_key == reference.group_key
            assert profile.negotiable == reference.negotiable
            assert profile.entity_id == reference.entity_id
            assert profile.features.tobytes() == reference.features.tobytes()

    def test_mixed_window_lengths_split_into_shape_groups(self):
        profiler = CustomerProfiler(
            dimensions=PROFILING_DB_DIMENSIONS, summarizer=ThresholdingSummarizer()
        )
        traces = self.traces([64, 96, 64, 128, 96])
        batch = profiler.profile_batch(traces)
        assert [profile.entity_id for profile in batch] == [
            trace.entity_id for trace in traces
        ]
        for trace, profile in zip(traces, batch):
            reference = profiler.profile(trace)
            assert profile.group_key == reference.group_key
            assert profile.features.tobytes() == reference.features.tobytes()

    def test_unbatchable_summarizer_falls_back_to_per_trace(self):
        profiler = CustomerProfiler(
            dimensions=PROFILING_DB_DIMENSIONS, summarizer=StlSummarizer()
        )
        traces = self.traces([64, 64])
        assert not getattr(profiler.summarizer, "supports_batch", False)
        batch = profiler.profile_batch(traces)
        for trace, profile in zip(traces, batch):
            reference = profiler.profile(trace)
            assert profile.group_key == reference.group_key
            assert profile.features.tobytes() == reference.features.tobytes()

    def test_thresholding_batch_matches_scalar_path(self):
        summarizer = ThresholdingSummarizer()
        rng = np.random.default_rng(9)
        matrix = np.abs(rng.normal(5.0, 2.0, size=(12, 200)))
        matrix[3] = 7.25  # constant row: the spread == 0 branch
        features, negotiable = summarizer.summarize_batch(matrix)
        for row in range(matrix.shape[0]):
            series = TimeSeries(values=matrix[row], interval_minutes=10.0)
            ref_features, ref_negotiable = summarizer.summarize(series)
            assert features[row].tobytes() == ref_features.tobytes()
            assert bool(negotiable[row]) == ref_negotiable

    @pytest.mark.parametrize(
        "summarizer",
        [MinMaxAucSummarizer(), MaxAucSummarizer(), CombinedSummarizer()],
        ids=lambda s: s.name,
    )
    def test_auc_batch_matches_scalar_path_bytewise(self, summarizer):
        """AUC batch rows replicate ``ecdf_auc`` bit-for-bit.

        The matrix exercises every scaling branch: noisy rows, a
        constant row (minmax's zero-spread branch), and an all-zero
        row (max's non-positive-peak branch).
        """
        assert summarizer.supports_batch
        rng = np.random.default_rng(10)
        matrix = np.abs(rng.normal(5.0, 2.0, size=(10, 160)))
        matrix[2] = 4.5  # constant
        matrix[6] = 0.0  # all idle
        features, negotiable = summarizer.summarize_batch(matrix)
        for row in range(matrix.shape[0]):
            series = TimeSeries(values=matrix[row], interval_minutes=10.0)
            ref_features, ref_negotiable = summarizer.summarize(series)
            assert features[row].tobytes() == ref_features.tobytes()
            assert bool(negotiable[row]) == ref_negotiable

    @pytest.mark.parametrize(
        "summarizer",
        [MinMaxAucSummarizer(), MaxAucSummarizer(), CombinedSummarizer()],
        ids=lambda s: s.name,
    )
    def test_auc_summarizers_ride_profile_batch(self, summarizer):
        profiler = CustomerProfiler(
            dimensions=PROFILING_DB_DIMENSIONS, summarizer=summarizer
        )
        traces = self.traces([64, 96, 64, 128])
        batch = profiler.profile_batch(traces)
        for trace, profile in zip(traces, batch):
            reference = profiler.profile(trace)
            assert profile.group_key == reference.group_key
            assert profile.features.tobytes() == reference.features.tobytes()

    def test_max_auc_batch_rejects_negatives_like_serial(self):
        summarizer = MaxAucSummarizer()
        matrix = np.abs(np.random.default_rng(11).normal(5.0, 2.0, size=(4, 50)))
        matrix[1, 7] = -3.0
        series = TimeSeries(values=matrix[1], interval_minutes=10.0)
        with pytest.raises(ValueError, match="normalized into"):
            summarizer.summarize(series)
        with pytest.raises(ValueError, match="normalized into"):
            summarizer.summarize_batch(matrix)

    @pytest.mark.parametrize(
        "summarizer",
        [MinMaxAucSummarizer(), MaxAucSummarizer()],
        ids=lambda s: s.name,
    )
    def test_auc_batch_propagates_nan_instead_of_reading_idle(self, summarizer):
        """A NaN row must not silently read as negotiable in batch.

        Traces cannot carry NaN (`TimeSeries` rejects non-finite
        samples at construction), but ``summarize_batch`` accepts raw
        matrices; a NaN row must propagate NaN through the scaling
        branches -- exactly what the elementwise scale/clip/mean
        pipeline does on a 1-D array -- rather than match the
        constant/idle branch and come out as AUC 1.0 (negotiable).
        """
        from repro.ml.auc import ecdf_auc
        from repro.ml.scaling import max_scale, minmax_scale

        rng = np.random.default_rng(12)
        matrix = np.abs(rng.normal(5.0, 2.0, size=(3, 40)))
        matrix[1, 3] = np.nan
        features, negotiable = summarizer.summarize_batch(matrix)
        scale = minmax_scale if isinstance(summarizer, MinMaxAucSummarizer) else max_scale
        assert np.isnan(ecdf_auc(scale(matrix[1])))  # the 1-D pipeline's call
        assert np.isnan(features[1, 0])
        assert not negotiable[1]
        # Finite rows are untouched by the NaN neighbour.
        for row in (0, 2):
            assert features[row, 0] == ecdf_auc(scale(matrix[row]))

    def test_fit_fleet_columnar_tail_matches_per_record(self, default_catalog):
        config = FleetConfig.paper_db(12, duration_days=3.0, interval_minutes=60.0)
        records = [
            customer.record
            for customer in simulate_fleet(config, default_catalog, rng=23)
        ]
        columnar_engine = DopplerEngine(catalog=default_catalog)
        FleetEngine(engine=columnar_engine, backend="serial", columnar=True).fit_fleet(
            records
        )
        reference_engine = DopplerEngine(catalog=default_catalog)
        FleetEngine(
            engine=reference_engine, backend="serial", columnar=False
        ).fit_fleet(records)
        deployment = DeploymentType.SQL_DB
        columnar_model = columnar_engine.group_model(deployment)
        reference_model = reference_engine.group_model(deployment)
        assert columnar_model is not None and reference_model is not None
        assert set(columnar_model.groups) == set(reference_model.groups)
        for key, stats in reference_model.groups.items():
            other = columnar_model.groups[key]
            assert other.count == stats.count
            assert other.p_mean == stats.p_mean
        assert columnar_model.fallback.p_mean == reference_model.fallback.p_mean


# ----------------------------------------------------------------------
# Streaming outlier summarizer
# ----------------------------------------------------------------------
class TestOutlierStreaming:
    def test_supports_streaming_flag(self):
        # Since the incremental STL evaluation landed, every built-in
        # summarizer streams.
        for summarizer in (
            OutlierSummarizer,
            StlSummarizer,
            ThresholdingSummarizer,
            MaxAucSummarizer,
            MinMaxAucSummarizer,
            CombinedSummarizer,
        ):
            assert summarizer.supports_streaming, summarizer.name

    def test_matches_batch_within_sketch_tolerance(self):
        rng = np.random.default_rng(80)
        window = 512
        values = np.abs(rng.normal(10.0, 2.0, size=window))
        values[rng.choice(window, size=6, replace=False)] *= 5.0  # spikes
        summarizer = OutlierSummarizer()
        stats = StreamingSeriesStats(window=window)
        stats.extend(values)
        series = TimeSeries(values=values, interval_minutes=10.0)
        batch_features, batch_negotiable = summarizer.summarize(series)
        stream_features, stream_negotiable = summarizer.summarize_streaming(stats)
        # Documented sketch rank error (1/63) plus block overhang slack.
        assert abs(stream_features[0] - batch_features[0]) < 0.05
        assert stream_negotiable == batch_negotiable

    def test_constant_window_has_zero_outliers(self):
        stats = StreamingSeriesStats(window=64)
        stats.extend(np.full(64, 3.5))
        summarizer = OutlierSummarizer()
        features, negotiable = summarizer.summarize_streaming(stats)
        assert features[0] == 0.0
        assert not negotiable

    def test_drives_live_streaming_profile_mode(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog, summarizer=OutlierSummarizer())
        live = LiveRecommender(
            engine,
            DeploymentType.SQL_DB,
            window=16,
            min_refresh_samples=8,
            profile_mode="streaming",
        )
        rng = np.random.default_rng(81)
        updates = [live.observe(sample) for sample in live_samples(16, rng)]
        assert updates[-1].recommendation is not None


# ----------------------------------------------------------------------
# Zero-copy streaming tick plane
# ----------------------------------------------------------------------
class TestZeroCopyTickPlane:
    """The arena-backed watch data plane: identity, handoff, hygiene."""

    def test_zero_copy_watch_matches_serial(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(7, 24, seed=70, poison=("cust-3",))
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        zero_copy = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="process", max_workers=3, zero_copy=True
                ),
            )
        )
        assert zero_copy == serial

    def test_every_sample_mode_matches_serial_under_zero_copy(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(5, 16, seed=71)
        serial = canonical_updates(
            fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(refreshes_only=False))
        )
        zero_copy = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="process",
                    max_workers=3,
                    refreshes_only=False,
                    zero_copy=True,
                ),
            )
        )
        assert zero_copy == serial

    def test_zero_copy_defaults_on_for_process_backend(self, small_catalog, monkeypatch):
        from repro.fleet import backends as backends_module

        created = []
        original = backends_module.TickPlane

        class CountingPlane(original):
            def __init__(self, window):
                created.append(window)
                super().__init__(window)

        monkeypatch.setattr(backends_module, "TickPlane", CountingPlane)
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(3, 8, seed=72)
        list(
            fleet.watch_fleet(
                feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2)
            )
        )
        assert len(created) == 1  # auto-enabled, allocated once per watch
        list(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="process", max_workers=2, zero_copy=False
                ),
            )
        )
        assert len(created) == 1  # opt-out respected
        list(
            fleet.watch_fleet(
                feed, config=WATCH_CONFIG.replace(backend="thread", max_workers=2)
            )
        )
        assert len(created) == 1  # same-address-space backends never pay

    def test_migration_during_watch_rides_state_frames(self, small_catalog):
        from repro.fleet.rebalance import Migration, RebalanceDecision, ScheduledRebalancePolicy

        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(8, 24, seed=73, poison=("cust-2",))
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        schedule = {
            1: RebalanceDecision(
                migrations=(Migration("cust-0", 2), Migration("cust-5", 1))
            ),
            3: RebalanceDecision(migrations=(Migration("cust-1", 0),), resize_to=2),
            5: RebalanceDecision(resize_to=4),
        }
        migrated = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="process",
                    max_workers=3,
                    zero_copy=True,
                    tick_samples=4,
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                ),
            )
        )
        assert migrated == serial
        stats = fleet.watch_rebalance_stats()
        assert stats.n_migrations >= 3  # the handoff actually ran

    def test_drained_watch_leaves_shm_clean(self, small_catalog):
        from repro.fleet.arena import leaked_segments

        baseline = leaked_segments()
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 12, seed=74)
        list(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="process", max_workers=2, zero_copy=True
                ),
            )
        )
        assert leaked_segments() == baseline

    def test_abandoned_watch_leaves_shm_clean(self, small_catalog):
        from repro.fleet.arena import leaked_segments

        baseline = leaked_segments()
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 20, seed=75)
        stream = fleet.watch_fleet(
            feed,
            config=WATCH_CONFIG.replace(
                backend="process", max_workers=2, zero_copy=True, refreshes_only=False
            ),
        )
        next(stream)
        stream.close()  # abandon mid-watch: teardown must clean up
        assert leaked_segments() == baseline
