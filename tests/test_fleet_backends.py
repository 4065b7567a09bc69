"""Execution-backend layer: routing, parity, state handoff.

The contract under test is *serial identity*: every watch backend must
produce update sequences byte-identical to the serial backend's,
including per-customer failure containment and quarantine ordering,
because customers' state is confined to exactly one shard and
emissions are reassembled into feed order.  Batch passes run in the
parent whatever the backend, so they match serial byte for byte by
construction; the tests below pin that they start no worker at all.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from multiprocessing import shared_memory
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.catalog import DeploymentType
from repro.core import DopplerEngine
from repro.core.negotiability import (
    CombinedSummarizer,
    MaxAucSummarizer,
    MinMaxAucSummarizer,
    StlSummarizer,
    ThresholdingSummarizer,
)
from repro.core.profiler import CustomerProfiler
from repro.dma import AssessmentPipeline
from repro.fleet import (
    BACKEND_NAMES,
    ExecutionBackend,
    FleetCustomer,
    FleetEngine,
    FleetSample,
    WatchConfig,
    make_backend,
)
from repro.simulation import FleetConfig, simulate_fleet
from repro.streaming import LiveRecommender
from repro.telemetry import PerfDimension, TimeSeries
from repro.telemetry.counters import PROFILING_DB_DIMENSIONS

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

    def test_unknown_backend_message_lists_only_serial_and_process(self):
        assert BACKEND_NAMES == ("serial", "process")
        with pytest.raises(ValueError) as excinfo:
            make_backend("mpi")
        assert str(excinfo.value) == (
            "unknown fleet backend 'mpi'; choose one of 'serial', 'process'"
        )

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            make_backend("process", max_workers=0)

    def test_fleet_engine_validates_backend_eagerly(self, small_catalog):
        with pytest.raises(ValueError, match="unknown fleet backend"):
            FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="mpi")
        with pytest.raises(ValueError, match="max_workers"):
            FleetEngine(
                engine=DopplerEngine(catalog=small_catalog),
                backend="process",
                max_workers=-1,
            )

    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_fleet_engine_validates_chunk_size_eagerly(self, small_catalog, chunk_size):
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            FleetEngine(
                engine=DopplerEngine(catalog=small_catalog),
                backend="serial",
                chunk_size=chunk_size,
            )

    @pytest.mark.parametrize("cache_size", [0, -1])
    def test_fleet_engine_names_cache_size_when_invalid(self, small_catalog, cache_size):
        with pytest.raises(ValueError, match="cache_size must be positive") as excinfo:
            FleetEngine(
                engine=DopplerEngine(catalog=small_catalog),
                backend="serial",
                cache_size=cache_size,
            )
        assert "maxsize" not in str(excinfo.value)

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


# ----------------------------------------------------------------------
# Streaming parity across backends
# ----------------------------------------------------------------------
class TestWatchParity:
    @pytest.mark.parametrize("backend", ["process"])
    def test_sharded_watch_equals_serial(self, backend, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(7, 24, seed=60)
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        sharded = canonical_updates(
            fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(backend=backend, max_workers=3))
        )
        assert sharded == serial

    @pytest.mark.parametrize("backend", ["process"])
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

    @pytest.mark.parametrize("backend", ["process"])
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
        sharded = canonical_updates(
            pipeline.watch_fleet(feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2))
        )
        assert sharded == serial
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

    @pytest.mark.parametrize("backend", ["process"])
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

    def test_process_backend_batch_runs_in_the_parent(
        self, default_catalog, trained, monkeypatch
    ):
        """Batch passes ignore the backend: no child process, no
        shared-memory segment, and every result pickles to the serial
        pass's bytes."""
        customers = [
            FleetCustomer.from_record(record, customer_id=f"c{index:02d}")
            for index, record in enumerate(trained)
        ]
        serial = FleetEngine(engine=DopplerEngine(catalog=default_catalog), backend="serial")
        serial.fit_fleet(trained)
        expected = [pickle.dumps(result) for result in serial.recommend_fleet(customers)]

        started: list = []
        created: list = []
        start_process = BaseProcess.start
        create_segment = shared_memory.SharedMemory

        def record_start(process):
            started.append(process.name)
            return start_process(process)

        def record_create(*args, **kwargs):
            created.append((args, kwargs))
            return create_segment(*args, **kwargs)

        monkeypatch.setattr(BaseProcess, "start", record_start)
        monkeypatch.setattr(shared_memory, "SharedMemory", record_create)
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=default_catalog), backend="process", max_workers=2
        )
        fleet.fit_fleet(trained)
        results = [pickle.dumps(result) for result in fleet.recommend_fleet(customers)]
        assert started == []
        assert created == []
        assert results == expected
        assert [pickle.dumps(r) for r in fleet.recommend_batch(customers)] == expected


class TestRetiredThreadSpellings:
    """The ``"thread"`` spellings served their deprecation and are rejected."""

    def test_make_backend_thread_is_an_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown fleet backend 'thread'"):
            make_backend("thread", max_workers=2)

    def test_only_serial_and_process_backend_classes_remain(self):
        import repro.fleet

        exported = {
            name
            for name in repro.fleet.__all__
            if isinstance(getattr(repro.fleet, name), type)
            and issubclass(getattr(repro.fleet, name), ExecutionBackend)
        }
        assert exported == {"ExecutionBackend", "SerialBackend", "ProcessBackend"}
        assert BACKEND_NAMES == ("serial", "process")

    def test_fleet_engine_thread_is_rejected(self, default_catalog):
        with pytest.raises(ValueError, match="unknown fleet backend 'thread'"):
            FleetEngine(
                engine=DopplerEngine(catalog=default_catalog), backend="thread", max_workers=2
            )

    def test_fleet_engine_thread_never_reaches_the_default_watch(self, small_catalog):
        # The default watch runs on the engine's backend, so "thread" has
        # to fail where the engine is built, with or without max_workers.
        with pytest.raises(ValueError, match="unknown fleet backend 'thread'"):
            FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="thread")
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 12, seed=67)
        assert canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        assert fleet.watch_rebalance_stats().final_n_shards == 1

    def test_watch_config_thread_is_rejected_by_the_watch(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        config = WATCH_CONFIG.replace(backend="thread", max_workers=3)
        with pytest.raises(ValueError, match="unknown fleet backend 'thread'"):
            fleet.watch_fleet(interleaved_feed(2, 4, seed=68), config=config)

    def test_assess_fleet_backend_arguments_are_rejected(self, default_catalog):
        pipeline = AssessmentPipeline(engine=DopplerEngine(catalog=default_catalog))
        for arguments in ({"backend": "process"}, {"max_workers": 2}, {"backend": "thread"}):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                pipeline.assess_fleet([], **arguments)


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

    def test_restored_assessment_continues_identically(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        rng = np.random.default_rng(70)
        feed = live_samples(16, rng) + live_samples(16, rng, scale=4.0)

        def fresh():
            return LiveRecommender(
                engine,
                DeploymentType.SQL_DB,
                window=16,
                min_refresh_samples=8,
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

    @pytest.mark.parametrize("n_head", [0, 5, 16, 37])
    def test_restore_rebuilds_the_violation_ring(self, n_head, small_catalog):
        """Empty, partial, exactly full and wrapped windows (window 16)."""
        engine = DopplerEngine(catalog=small_catalog)
        rng = np.random.default_rng(74)
        feed = live_samples(37, rng) + live_samples(20, rng, scale=4.0)

        def fresh():
            return LiveRecommender(
                engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
            )

        expected = self.outcome(self.drive(fresh(), feed))
        source = fresh()
        head = self.drive(source, feed[:n_head])
        state = pickle.loads(pickle.dumps(source.snapshot_state()))
        assert "ring" not in state.estimator
        target = fresh()
        target.restore_state(state)
        np.testing.assert_array_equal(target.estimator._ring, source.estimator._ring)
        np.testing.assert_array_equal(target.estimator._counts, source.estimator._counts)
        resumed = head + self.drive(target, feed[n_head:])
        assert self.outcome(resumed) == expected

    def test_tampered_counts_fail_the_restore(self, small_catalog):
        engine = DopplerEngine(catalog=small_catalog)
        live = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
        )
        self.drive(live, live_samples(20, np.random.default_rng(75)))
        state = live.snapshot_state()
        state.estimator["counts"][-1] += 1
        target = LiveRecommender(
            engine, DeploymentType.SQL_DB, window=16, min_refresh_samples=8
        )
        with pytest.raises(ValueError, match="counts disagree"):
            target.restore_state(state)

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
# Process watch tick plane
# ----------------------------------------------------------------------
class TestProcessTickPlane:
    """Ticks and replies over the worker queues: identity, handoff, hygiene."""

    def test_process_watch_matches_serial(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(7, 24, seed=70, poison=("cust-3",))
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        zero_copy = canonical_updates(
            fleet.watch_fleet(
                feed, config=WATCH_CONFIG.replace(backend="process", max_workers=3)
            )
        )
        assert zero_copy == serial

    def test_every_sample_mode_matches_serial(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(5, 16, seed=71)
        serial = canonical_updates(
            fleet.watch_fleet(feed, config=WATCH_CONFIG.replace(refreshes_only=False))
        )
        zero_copy = canonical_updates(
            fleet.watch_fleet(
                feed,
                config=WATCH_CONFIG.replace(
                    backend="process", max_workers=3, refreshes_only=False
                ),
            )
        )
        assert zero_copy == serial

    def test_one_tick_plane_per_process_watch(self, small_catalog, monkeypatch):
        from repro.fleet import backends as backends_module

        created = []
        original = backends_module.TickPlane

        class CountingPlane(original):
            def __init__(self):
                created.append(self)
                super().__init__()

        monkeypatch.setattr(backends_module, "TickPlane", CountingPlane)
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(3, 8, seed=72)
        default = canonical_updates(
            fleet.watch_fleet(
                feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2)
            )
        )
        assert len(created) == 1  # allocated once per watch
        assert default == canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        # The retired opt-out is gone: there is no second path to select.
        with pytest.raises(TypeError, match="zero_copy"):
            WATCH_CONFIG.replace(backend="process", max_workers=2, zero_copy=False)
        assert len(created) == 1  # the serial watch shares an address space

    def test_migrating_resizing_watch_matches_serial(self, small_catalog):
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
                    tick_samples=4,
                    rebalance=ScheduledRebalancePolicy(schedule=schedule),
                ),
            )
        )
        assert migrated == serial
        stats = fleet.watch_rebalance_stats()
        assert stats.n_migrations >= 3  # the handoff actually ran

    def test_drained_watch_leaves_no_worker(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 12, seed=74)
        config = WATCH_CONFIG.replace(backend="process", max_workers=2)
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        assert canonical_updates(fleet.watch_fleet(feed, config=config)) == serial
        assert multiprocessing.active_children() == []

    def test_abandoned_watch_leaves_no_worker(self, small_catalog):
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(4, 20, seed=75)
        stream = fleet.watch_fleet(
            feed,
            config=WATCH_CONFIG.replace(
                backend="process", max_workers=2, refreshes_only=False
            ),
        )
        next(stream)
        stream.close()  # abandon mid-watch: teardown must reap the pool
        assert multiprocessing.active_children() == []

    def test_watch_runs_without_shared_memory(self, small_catalog, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the process watch created a shared-memory segment")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        feed = interleaved_feed(5, 16, seed=76, poison=("cust-1",))
        serial = canonical_updates(fleet.watch_fleet(feed, config=WATCH_CONFIG))
        process = canonical_updates(
            fleet.watch_fleet(
                feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2)
            )
        )
        assert process == serial
        assert fleet.watch_supervision_stats().n_restarts == 0

    def test_malformed_samples_match_serial(self, small_catalog):
        """Samples cross the tick queue exactly as fed: a non-float
        value and non-``PerfDimension`` keys reach the worker's
        validation unchanged, so the process watch emits serial's error
        updates and quarantines the same customers."""
        rng = np.random.default_rng(77)
        feed = interleaved_feed(4, 16, seed=77)
        bad_value = feed[9].customer_id
        feed[9] = FleetSample(
            customer_id=bad_value,
            values={**feed[9].values, PerfDimension.CPU: "not-a-number"},
        )
        for position, values in zip(range(2, 60, 4), live_samples(16, rng)):
            # An extra string key is ignored; string keys in place of
            # the dimensions leave the sample without its counters.
            feed.insert(position, FleetSample("cust-extra-key", {**values, "cpu": 1.5}))
        odd = {dim.name.lower(): value for dim, value in live_samples(1, rng)[0].items()}
        feed.insert(30, FleetSample("cust-string-keys", odd))
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        config = WATCH_CONFIG.replace(refreshes_only=False)
        serial = canonical_updates(fleet.watch_fleet(feed, config=config))
        process = canonical_updates(
            fleet.watch_fleet(
                feed, config=config.replace(backend="process", max_workers=3)
            )
        )
        assert process == serial
        lines = serial.splitlines()
        errors = {line.split("|")[0] for line in lines if "|ERROR|" in line}
        assert errors == {bad_value, "cust-string-keys"}
        assert sum(line.startswith("cust-extra-key|") for line in lines) > 0

    def test_unpicklable_sample_raises_from_pack_tick(self, small_catalog):
        """A sample the tick pickle cannot carry fails the watch in the
        parent, at ``pack_tick``, before its tick is dispatched."""
        feed = interleaved_feed(3, 8, seed=78)
        feed[5] = FleetSample(
            customer_id=feed[5].customer_id,
            values={**feed[5].values, PerfDimension.CPU: lambda: 1.0},
        )
        fleet = FleetEngine(engine=DopplerEngine(catalog=small_catalog), backend="serial")
        stream = fleet.watch_fleet(
            feed, config=WATCH_CONFIG.replace(backend="process", max_workers=2)
        )
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)) as raised:
            list(stream)
        frames = [frame.name for frame in traceback.extract_tb(raised.tb)]
        assert "pack_tick" in frames
        assert fleet.watch_supervision_stats().n_restarts == 0
        assert multiprocessing.active_children() == []

    def test_stale_reply_leaves_the_memo_alone(self, small_catalog):
        """A reply the reorder buffer no longer owes -- a replaced
        worker's duplicate -- is never decoded, so its older
        recommendation cannot displace the memo's newer one."""
        from repro.fleet import FleetLiveUpdate
        from repro.fleet.arena import write_result_columns
        from repro.fleet.backends import _PendingTick, _ProcessShardPool
        from repro.streaming.live import LiveUpdate

        def reply(recommendation, shipped):
            update = LiveUpdate(
                n_seen=8, n_window=8, refreshed=True, drift=None,
                recommendation=recommendation,
            )
            return write_result_columns(
                [(0, FleetLiveUpdate(customer_id="cust-a", update=update))], shipped
            )

        newer, older = {"sku": "newer"}, {"sku": "older"}
        config = FleetEngine(
            engine=DopplerEngine(catalog=small_catalog), backend="serial"
        )._shard_config(WATCH_CONFIG)
        pool = _ProcessShardPool(config, n_shards=0)
        try:
            pool._pending.append(_PendingTick(0, [0]))
            pool._out_queue.put(("tick", 0, 0, reply(newer, {}), 0.0))
            ((_, update),), _ = pool.drain_next()
            assert update.update.recommendation == newer
            # Tick 0 has drained: a second reply to it is stale.  The
            # next owed reply's token means "unchanged": still ``newer``.
            pool._pending.append(_PendingTick(1, [0]))
            pool._out_queue.put(("tick", 0, 0, reply(older, {}), 0.0))
            pool._out_queue.put(
                ("tick", 0, 1, reply(newer, {"cust-a": newer}), 0.0)
            )
            ((_, update),), _ = pool.drain_next()
            assert update.update.recommendation == newer
        finally:
            pool.close()
