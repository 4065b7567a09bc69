"""Fleet-scale batch engine: sharding, parallelism, caching, reports."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.catalog import DeploymentType, SkuCatalog
from repro.core import DopplerEngine
from repro.dma import AssessmentPipeline
from repro.fleet import (
    CurveCache,
    FleetCustomer,
    FleetEngine,
    auto_chunk_size,
    shard,
    summarize_fleet,
    trace_fingerprint,
)
from repro.simulation import FleetConfig, simulate_fleet
from repro.telemetry import (
    PerfDimension,
    PerformanceTrace,
    dump_trace_batch,
    iter_trace_paths,
    load_trace_batch,
)

from .conftest import full_trace, make_trace

FLEET_SIZE = 18


@pytest.fixture(scope="module")
def module_catalog() -> SkuCatalog:
    return SkuCatalog.default()


@pytest.fixture(scope="module")
def sim_fleet(module_catalog):
    config = FleetConfig.paper_db(FLEET_SIZE, duration_days=3.0, interval_minutes=60.0)
    return simulate_fleet(config, module_catalog, rng=11)


@pytest.fixture(scope="module")
def records(sim_fleet):
    return [customer.record for customer in sim_fleet]


@pytest.fixture(scope="module")
def customers(records):
    return [
        FleetCustomer.from_record(record, customer_id=f"c{index:03d}")
        for index, record in enumerate(records)
    ]


@pytest.fixture(scope="module")
def fitted_fleet_engine(module_catalog, records):
    fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
    fleet.fit_fleet(records)
    return fleet


def result_key(result):
    """Comparable projection of one fleet recommendation."""
    recommendation = result.recommendation
    return (
        result.customer_id,
        recommendation.sku.name if recommendation else None,
        recommendation.strategy if recommendation else None,
        recommendation.expected_throttling if recommendation else None,
        recommendation.target_probability if recommendation else None,
        result.over_provisioned,
        result.error,
    )


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
class TestSharding:
    def test_shard_preserves_order_and_partitions(self):
        items = list(range(23))
        chunks = list(shard(items, 5))
        assert [len(chunk) for chunk in chunks] == [5, 5, 5, 5, 3]
        assert [x for chunk in chunks for x in chunk] == items

    def test_shard_accepts_lazy_iterables(self):
        chunks = list(shard((i * i for i in range(7)), 3))
        assert chunks == [[0, 1, 4], [9, 16, 25], [36]]

    def test_shard_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            list(shard([1, 2], 0))

    def test_auto_chunk_size_bounds(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(10, 4) == 1
        assert auto_chunk_size(10_000, 4) == 64  # capped
        assert 1 <= auto_chunk_size(500, 8) <= 64

    def test_auto_chunk_size_gives_every_worker_several_shards(self):
        size = auto_chunk_size(1000, 4)
        n_shards = -(-1000 // size)
        assert n_shards >= 4 * 4


# ----------------------------------------------------------------------
# Curve cache
# ----------------------------------------------------------------------
class TestCurveCache:
    def test_hits_misses_and_evictions(self):
        cache = CurveCache(maxsize=2)
        built = []

        def builder(tag):
            def build():
                built.append(tag)
                return tag  # cache is value-agnostic

            return build

        assert cache.get_or_build("a", builder("a")) == "a"
        assert cache.get_or_build("a", builder("a")) == "a"  # hit
        assert cache.get_or_build("b", builder("b")) == "b"
        assert cache.get_or_build("c", builder("c")) == "c"  # evicts "a"
        assert cache.get_or_build("a", builder("a2")) == "a2"  # rebuilt
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 4
        assert stats.evictions == 2
        assert stats.size == 2
        assert built == ["a", "b", "c", "a2"]

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            CurveCache(maxsize=0)

    def test_trace_fingerprint_is_stable_and_content_sensitive(self):
        trace_a = full_trace(n=48, rng=3, entity_id="fp")
        trace_b = full_trace(n=48, rng=3, entity_id="fp")
        trace_c = full_trace(n=48, rng=4, entity_id="fp")
        assert trace_fingerprint(trace_a) == trace_fingerprint(trace_b)
        assert trace_fingerprint(trace_a) != trace_fingerprint(trace_c)
        renamed = full_trace(n=48, rng=3, entity_id="other")
        assert trace_fingerprint(trace_a) != trace_fingerprint(renamed)

    def test_trace_fingerprint_fields_cannot_blur_together(self):
        # ('a1', interval 0.5) vs ('a', interval 10.5): naive
        # concatenation of the fields would collide.
        cpu = np.ones(16)
        blur_a = make_trace(cpu=cpu, interval_minutes=10.5, entity_id="a")
        blur_b = make_trace(cpu=cpu, interval_minutes=0.5, entity_id="a1")
        assert trace_fingerprint(blur_a) != trace_fingerprint(blur_b)

    def test_trace_fingerprint_tells_sample_counts_and_dimension_sets_apart(self):
        assert trace_fingerprint(make_trace(cpu=np.ones(16))) != trace_fingerprint(
            make_trace(cpu=np.ones(17))
        )
        # The same sample bytes, split over different dimensions.
        cpu_memory = make_trace(cpu=np.ones(8), memory_gb=np.ones(8))
        cpu_iops = make_trace(cpu=np.ones(8), data_iops=np.ones(8))
        cpu_only = make_trace(cpu=np.ones(16))
        keys = {trace_fingerprint(t) for t in (cpu_memory, cpu_iops, cpu_only)}
        assert len(keys) == 3

    def test_trace_fingerprint_of_a_strided_series_matches_its_copy(self):
        samples = np.arange(64.0)
        strided = make_trace(cpu=samples[::2], memory_gb=samples[1::2])
        assert not strided[PerfDimension.CPU].values.flags.c_contiguous
        contiguous = make_trace(
            cpu=samples[::2].copy(), memory_gb=samples[1::2].copy()
        )
        assert trace_fingerprint(strided) == trace_fingerprint(contiguous)

    def test_trace_fingerprint_of_a_fresh_trace_over_the_same_series(self):
        trace = full_trace(n=48, rng=5, entity_id="fresh")
        key = trace_fingerprint(trace)
        assert trace_fingerprint(trace) == key  # memoized
        fresh = PerformanceTrace(series=dict(trace.series), entity_id=trace.entity_id)
        assert trace_fingerprint(fresh) == key

    def test_trace_fingerprint_ignores_series_insertion_order(self):
        trace = full_trace(n=48, rng=7, entity_id="order")
        reversed_series = dict(reversed(list(trace.series.items())))
        assert list(reversed_series) != list(trace.series)
        shuffled = PerformanceTrace(series=reversed_series, entity_id=trace.entity_id)
        assert trace_fingerprint(shuffled) == trace_fingerprint(trace)

    def test_trace_fingerprint_sees_a_one_ulp_change_to_one_sample(self):
        trace = full_trace(n=48, rng=8, entity_id="ulp")
        values = trace[PerfDimension.IOPS].values.copy()
        values[17] = np.nextafter(values[17], np.inf)
        series = dict(trace.series)
        series[PerfDimension.IOPS] = trace[PerfDimension.IOPS].with_values(values)
        nudged = PerformanceTrace(series=series, entity_id=trace.entity_id)
        assert trace_fingerprint(nudged) != trace_fingerprint(trace)

    def test_trace_fingerprint_sees_a_shifted_start_minute(self):
        trace = full_trace(n=48, rng=9, entity_id="shift")
        shifted = PerformanceTrace(
            series={
                dim: dataclasses.replace(ts, start_minute=ts.start_minute + 10.0)
                for dim, ts in trace.series.items()
            },
            entity_id=trace.entity_id,
        )
        assert trace_fingerprint(shifted) != trace_fingerprint(trace)

    def test_pickled_trace_does_not_carry_the_fingerprint_memo(self):
        trace = full_trace(n=48, rng=6, entity_id="pickled")
        key = trace_fingerprint(trace)
        blob = pickle.dumps(trace)
        assert key.encode() not in blob
        clone = pickle.loads(blob)
        assert "_fingerprint" not in vars(clone)
        assert trace_fingerprint(clone) == key


# ----------------------------------------------------------------------
# Fleet engine
# ----------------------------------------------------------------------
class TestFleetEngine:
    def test_fit_fleet_matches_single_engine_fit(
        self, module_catalog, records, customers, fitted_fleet_engine
    ):
        reference = DopplerEngine(catalog=module_catalog).fit(records)
        results = list(fitted_fleet_engine.recommend_fleet(customers))
        assert len(results) == len(customers)
        for customer, result in zip(customers, results):
            expected = reference.recommend(customer.trace, customer.deployment)
            assert result.recommendation.sku.name == expected.sku.name
            assert result.recommendation.strategy == expected.strategy

    def test_fit_report_counts(self, fitted_fleet_engine, records):
        report = fitted_fleet_engine.fit_fleet(records)
        assert report.n_records == FLEET_SIZE
        assert "DB" in report.fitted_deployments
        assert 0 < report.n_observations["DB"] <= FLEET_SIZE
        assert report.n_unbuildable == 0

    def test_fit_counts_unbuildable_records(self, module_catalog, records):
        from repro.core import CloudCustomerRecord

        oversized = make_trace(
            cpu=np.full(48, 2.0), entity_id="xxl", data_size_gb=np.full(48, 1e9)
        )
        bad = CloudCustomerRecord(
            trace=oversized,
            deployment=DeploymentType.SQL_DB,
            chosen_sku_name=records[0].chosen_sku_name,
        )
        fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
        report = fleet.fit_fleet([*records, bad])
        assert report.n_unbuildable == 1
        assert "DB" in report.fitted_deployments

    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_results_equal_serial(
        self, backend, module_catalog, records, customers, fitted_fleet_engine
    ):
        serial = list(fitted_fleet_engine.recommend_fleet(customers))
        parallel_engine = FleetEngine(
            engine=fitted_fleet_engine.engine,
            backend=backend,
            max_workers=3,
            chunk_size=4,
        )
        parallel = list(parallel_engine.recommend_fleet(customers))
        assert [result_key(r) for r in parallel] == [result_key(r) for r in serial]

    def test_fit_then_recommend_hits_curve_cache(self, module_catalog, records, customers):
        fleet = FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="serial")
        fleet.fit_fleet(records)
        after_fit = fleet.cache_stats()
        assert after_fit.hits == 0
        assert after_fit.misses > 0
        list(fleet.recommend_fleet(customers))
        after_recommend = fleet.cache_stats()
        # Every curve built during fit is reused during recommend.
        assert after_recommend.hits >= after_fit.misses
        assert after_recommend.hit_rate > 0.4

    def test_cache_eviction_respects_capacity(self, module_catalog, customers):
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=module_catalog),
            backend="serial",
            cache_size=4,
        )
        list(fleet.recommend_fleet(customers))
        stats = fleet.cache_stats()
        assert stats.size <= 4
        assert stats.evictions > 0

    def test_streaming_is_lazy(self, fitted_fleet_engine, customers):
        iterator = fitted_fleet_engine.recommend_fleet(iter(customers))
        first = next(iterator)
        assert first.customer_id == customers[0].customer_id
        iterator.close()  # abandoning the stream must not raise

    def test_per_customer_failure_is_isolated(self, fitted_fleet_engine, customers):
        oversized = make_trace(
            cpu=np.full(48, 2.0),
            entity_id="too-big",
            data_size_gb=np.full(48, 1e9),  # no SKU holds an exabyte
        )
        bad = FleetCustomer(
            customer_id="bad", trace=oversized, deployment=DeploymentType.SQL_DB
        )
        results = list(
            fitted_fleet_engine.recommend_fleet([customers[0], bad, customers[1]])
        )
        assert [r.customer_id for r in results] == [
            customers[0].customer_id,
            "bad",
            customers[1].customer_id,
        ]
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "ValueError" in results[1].error

    def test_rejects_unknown_backend(self, module_catalog):
        with pytest.raises(ValueError):
            FleetEngine(engine=DopplerEngine(catalog=module_catalog), backend="mpi")

    def test_from_record_carries_current_sku(self, records):
        customer = FleetCustomer.from_record(records[0])
        assert customer.current_sku_name == records[0].chosen_sku_name
        assert customer.customer_id == records[0].trace.entity_id

    def test_list_file_sizes_are_coerced_hashable(self, fitted_fleet_engine, customers):
        # Engine-level APIs take list[float]; a list must not poison
        # the curve-cache key (it is stored as a tuple).
        customer = FleetCustomer(
            customer_id="mi-files",
            trace=customers[0].trace,
            deployment=DeploymentType.SQL_MI,
            file_sizes_gib=[64.0, 128.0],
        )
        assert customer.file_sizes_gib == (64.0, 128.0)
        (result,) = list(fitted_fleet_engine.recommend_fleet([customer]))
        assert result.ok, result.error


# ----------------------------------------------------------------------
# Summary report
# ----------------------------------------------------------------------
class TestFleetSummary:
    def test_summary_aggregates(self, fitted_fleet_engine, customers):
        summary = fitted_fleet_engine.summary_report(customers)
        assert summary.n_customers == len(customers)
        assert summary.n_recommended + summary.n_failed == summary.n_customers
        assert sum(summary.tier_counts.values()) == summary.n_recommended
        assert sum(summary.strategy_counts.values()) == summary.n_recommended
        assert summary.total_monthly_cost > 0
        assert summary.annual_cost == pytest.approx(summary.total_monthly_cost * 12.0)
        # Every training record carries its chosen SKU, so every
        # customer gets a right-sizing verdict.
        assert summary.n_assessed_provisioning == summary.n_recommended
        assert 0.0 <= summary.over_provisioning_rate <= 1.0

    def test_summary_counts_failures(self, fitted_fleet_engine, customers):
        oversized = make_trace(
            cpu=np.full(48, 2.0), entity_id="bad", data_size_gb=np.full(48, 1e9)
        )
        bad = FleetCustomer(
            customer_id="bad", trace=oversized, deployment=DeploymentType.SQL_DB
        )
        summary = summarize_fleet(
            fitted_fleet_engine.recommend_fleet([customers[0], bad])
        )
        assert summary.n_failed == 1
        assert summary.errors[0][0] == "bad"

    def test_render_mentions_key_figures(self, fitted_fleet_engine, customers):
        text = fitted_fleet_engine.summary_report(customers).render()
        assert "Fleet recommendation summary" in text
        assert "Projected monthly cost" in text
        assert "By service tier" in text


# ----------------------------------------------------------------------
# DMA fleet stage
# ----------------------------------------------------------------------
class TestDmaFleetStage:
    def test_assess_fleet(self, module_catalog, records, customers):
        pipeline = AssessmentPipeline(engine=DopplerEngine(catalog=module_catalog))
        pipeline.engine.fit(records)
        result = pipeline.assess_fleet(customers[:6])
        assert result.summary.n_customers == 6
        assert len(result.results) == 6
        # 3-day simulated windows are under the 7-day guideline; each
        # affected recommendation carries the reliability warning the
        # single-customer path attaches.
        assert result.n_window_insufficient == 6
        assert set(result.short_window_ids) == {c.customer_id for c in customers[:6]}
        for item in result.results:
            assert any("WARNING" in note for note in item.recommendation.notes)
        assert "Short assessment windows" in result.render()


# ----------------------------------------------------------------------
# Batch trace ingestion
# ----------------------------------------------------------------------
class TestBatchIngestion:
    def test_round_trip_directory(self, tmp_path):
        traces = [full_trace(n=24, rng=i, entity_id=f"db-{i}") for i in range(4)]
        written = dump_trace_batch(traces, tmp_path)
        assert len(written) == 4
        paths = iter_trace_paths(tmp_path)
        assert paths == sorted(written)
        loaded = [trace for _, trace in load_trace_batch(paths)]
        assert [t.entity_id for t in loaded] == sorted(t.entity_id for t in traces)
        original = {t.entity_id: t for t in traces}
        for trace in loaded:
            source = original[trace.entity_id]
            assert trace.dimensions == source.dimensions
            for dim in trace.dimensions:
                np.testing.assert_allclose(trace[dim].values, source[dim].values)

    def test_skip_policy_tolerates_corrupt_files(self, tmp_path):
        dump_trace_batch([full_trace(n=24, entity_id="good")], tmp_path)
        (tmp_path / "corrupt.json").write_text("{not json", encoding="utf-8")
        outcomes = dict(load_trace_batch(iter_trace_paths(tmp_path), on_error="skip"))
        loaded = {path.stem: trace for path, trace in outcomes.items()}
        assert loaded["corrupt"] is None
        assert loaded["good"] is not None
        with pytest.raises(ValueError):
            list(load_trace_batch(iter_trace_paths(tmp_path), on_error="raise"))

    def test_duplicate_entity_ids_rejected(self, tmp_path):
        traces = [full_trace(n=24, entity_id="same"), full_trace(n=24, entity_id="same")]
        with pytest.raises(ValueError):
            dump_trace_batch(traces, tmp_path)

    def test_iter_trace_paths_requires_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            iter_trace_paths(tmp_path / "missing")

    def test_bad_error_policy_raises_at_call_site(self, tmp_path):
        with pytest.raises(ValueError):
            load_trace_batch([], on_error="skpi")  # no iteration needed
