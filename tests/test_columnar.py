"""Columnar fleet-assessment kernel: equality with the serial path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import DeploymentType, ServiceTier, SkuCatalog
from repro.core import DopplerEngine, EmpiricalThrottlingEstimator
from repro.core.throttling import (
    batch_violation_counts,
    capacity_matrix,
    demand_matrix,
    violation_counts,
    violation_rows,
)
from repro.fleet import FleetCustomer, FleetEngine
from repro.simulation import FleetConfig, simulate_fleet
from repro.telemetry import PerfDimension, PerformanceTrace
from repro.telemetry.counters import DB_DIMENSIONS, MI_DIMENSIONS

from .conftest import full_trace, make_sku, make_trace

# ----------------------------------------------------------------------
# Hypothesis strategies: random traces / catalogs / overrides
# ----------------------------------------------------------------------
DIMS3 = (PerfDimension.CPU, PerfDimension.MEMORY, PerfDimension.IOPS)

positive = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False)


@st.composite
def random_trace(draw, index: int = 0):
    # Up to 200 samples: traces cross the kernel's 64-sample words.
    n = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return make_trace(
        np.abs(rng.normal(4.0, 3.0, n)) + 1e-3,
        memory_gb=np.abs(rng.normal(20.0, 10.0, n)) + 1e-3,
        data_iops=np.abs(rng.normal(800.0, 600.0, n)) + 1e-3,
        entity_id=f"prop-{index}",
    )


@st.composite
def random_skus(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    skus = []
    for index in range(n):
        vcores = draw(st.floats(min_value=0.5, max_value=64.0, allow_nan=False))
        skus.append(
            make_sku(
                vcores,
                iops_per_vcore=draw(st.floats(min_value=10.0, max_value=500.0)),
                name=f"prop-sku-{index}",
            )
        )
    return skus


def reference_counts(demands: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The violation predicate itself, with no kernel in between."""
    return (demands[None] > caps[:, None]).any(axis=2).sum(axis=1)


#: Trace lengths around the kernel's 64-sample word boundaries.
WORD_EDGES = (1, 63, 64, 65, 128, 129)

#: Caps small enough that a 0.01 MB cap chunks every few words and a
#: 0.001 MB cap chunks every word (one 64-sample word per chunk).
CAPS = (64.0, 0.01, 0.001)

#: Three dimensions whose SKUs share levels: rows 0/1 share column 0,
#: rows 1/2 column 1, rows 0/2/3 column 2.  The -1.0 level makes the
#: padding value matter: a trace padded with zeros would count there.
SHARED_LEVEL_CAPS = np.array(
    [
        [1.0, 10.0, -1.0],
        [1.0, 20.0, 5.0],
        [2.0, 20.0, -1.0],
        [3.0, 30.0, -1.0],
        [2.0, 10.0, 5.0],
    ]
)


def tied_demands(n: int, seed: int) -> np.ndarray:
    """``(n, 3)`` demands mostly sitting exactly on a capacity level."""
    rng = np.random.default_rng(seed)
    levels = [np.unique(SHARED_LEVEL_CAPS[:, dim]) for dim in range(3)]
    columns = []
    for dim, column_levels in enumerate(levels):
        on_level = rng.choice(column_levels, size=n)
        jitter = rng.choice([-0.5, 0.0, 0.0, 0.5], size=n)
        columns.append(on_level + jitter)
    return np.column_stack(columns)


class TestBitsetKernel:
    """The bitset kernel against the plain predicate at word edges."""

    @pytest.mark.parametrize("memory_cap_mb", CAPS)
    @pytest.mark.parametrize("n", WORD_EDGES)
    def test_single_trace_matches_reference(self, n, memory_cap_mb):
        demands = tied_demands(n, seed=n)
        np.testing.assert_array_equal(
            violation_counts(demands, SHARED_LEVEL_CAPS, memory_cap_mb),
            reference_counts(demands, SHARED_LEVEL_CAPS),
        )

    @pytest.mark.parametrize("memory_cap_mb", CAPS)
    def test_mixed_lengths_never_share_a_word(self, memory_cap_mb):
        """Adjacent traces alternate all-violating and never-violating.

        A trace not padded to a whole word, or a count summed over the
        wrong word offsets, would leak one trace's bits into the next.
        """
        blocks = []
        for index, n in enumerate(WORD_EDGES * 2):
            level = 100.0 if index % 2 == 0 else -5.0
            blocks.append(np.full((n, 3), level))
            blocks.append(tied_demands(n, seed=index))
        counts = batch_violation_counts(blocks, SHARED_LEVEL_CAPS, memory_cap_mb)
        expected = np.stack([reference_counts(b, SHARED_LEVEL_CAPS) for b in blocks])
        np.testing.assert_array_equal(counts, expected)

    def test_demand_equal_to_capacity_is_not_a_violation(self):
        caps = SHARED_LEVEL_CAPS
        for n in WORD_EDGES:
            at_level = np.tile(caps[1], (n, 1))
            counts = violation_counts(at_level, caps)
            assert counts[1] == 0
            np.testing.assert_array_equal(counts, reference_counts(at_level, caps))
            just_above = np.nextafter(at_level, np.inf)
            assert violation_counts(just_above, caps)[1] == n

    def test_empty_trace_counts_zero(self):
        blocks = [tied_demands(65, seed=1), np.empty((0, 3)), tied_demands(3, seed=2)]
        counts = batch_violation_counts(blocks, SHARED_LEVEL_CAPS)
        assert not counts[1].any()
        np.testing.assert_array_equal(
            counts[[0, 2]],
            np.stack([reference_counts(blocks[i], SHARED_LEVEL_CAPS) for i in (0, 2)]),
        )

    @pytest.mark.parametrize("n", (0, *WORD_EDGES))
    def test_violation_rows_unpack_reference_rows(self, n):
        demands = tied_demands(n, seed=n)
        rows = violation_rows(demands, SHARED_LEVEL_CAPS)
        expected = (demands[None] > SHARED_LEVEL_CAPS[:, None]).any(axis=2).T
        assert rows.dtype == bool
        np.testing.assert_array_equal(rows, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        traces=st.lists(random_trace(), min_size=1, max_size=5),
        skus=random_skus(),
        memory_cap_mb=st.sampled_from(CAPS),
    )
    def test_random_traces_match_reference(self, traces, skus, memory_cap_mb):
        caps = capacity_matrix(skus, DIMS3)
        blocks = [demand_matrix(t, DIMS3) for t in traces]
        counts = batch_violation_counts(blocks, caps, memory_cap_mb)
        for block, row in zip(blocks, counts):
            np.testing.assert_array_equal(row, reference_counts(block, caps))


class TestColumnarKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        traces=st.lists(random_trace(), min_size=1, max_size=5),
        skus=random_skus(),
        override_scale=st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
        ),
    )
    def test_batch_matches_per_trace_estimates(self, traces, skus, override_scale):
        """probabilities_batch == stacked per-trace probabilities, exactly."""
        estimator = EmpiricalThrottlingEstimator()
        overrides = None
        if override_scale is not None:
            overrides = {
                sku.name: sku.limits.max_data_iops * override_scale
                for sku in skus[::2]
            }
        batch = estimator.probabilities_batch(traces, skus, DIMS3, overrides)
        serial = np.stack(
            [estimator.probabilities(t, skus, DIMS3, overrides) for t in traces]
        )
        assert batch.shape == (len(traces), len(skus))
        np.testing.assert_array_equal(batch, serial)

    @settings(max_examples=40, deadline=None)
    @given(traces=st.lists(random_trace(), min_size=1, max_size=4), skus=random_skus())
    def test_memory_cap_never_changes_counts(self, traces, skus):
        """Chunked kernels agree bit-for-bit at any memory cap."""
        caps = capacity_matrix(skus, DIMS3)
        blocks = [demand_matrix(t, DIMS3) for t in traces]
        generous = batch_violation_counts(blocks, caps, memory_cap_mb=64.0)
        # ~1 KB cap: every trace splits into many chunks/groups.
        tiny = batch_violation_counts(blocks, caps, memory_cap_mb=0.001)
        np.testing.assert_array_equal(generous, tiny)
        for block, expected in zip(blocks, generous):
            np.testing.assert_array_equal(
                violation_counts(block, caps, memory_cap_mb=0.001), expected
            )

    def test_single_customer_estimator_respects_memory_cap(self):
        """The satellite memory fix: capped estimator equals the default."""
        trace = full_trace(n=512, cpu_level=3.0)
        skus = [make_sku(v) for v in (1, 2, 4, 8, 16)]
        default = EmpiricalThrottlingEstimator().probabilities(
            trace, skus, DB_DIMENSIONS
        )
        capped = EmpiricalThrottlingEstimator(memory_cap_mb=0.001).probabilities(
            trace, skus, DB_DIMENSIONS
        )
        np.testing.assert_array_equal(default, capped)

    def test_memory_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="memory cap"):
            violation_counts(np.ones((3, 2)), np.ones((2, 2)), memory_cap_mb=0.0)


class TestDemandMatrixCache:
    def test_demand_matrix_memoized_per_dimension_tuple(self):
        trace = full_trace(n=32)
        first = trace.demand_matrix(DB_DIMENSIONS)
        assert trace.demand_matrix(DB_DIMENSIONS) is first
        assert trace.demand_matrix(MI_DIMENSIONS) is not first

    def test_demand_matrix_is_read_only_and_inverted(self):
        trace = full_trace(n=16)
        matrix = trace.demand_matrix(DB_DIMENSIONS)
        assert not matrix.flags.writeable
        latency_col = DB_DIMENSIONS.index(PerfDimension.IO_LATENCY)
        expected = 1.0 / np.maximum(
            trace[PerfDimension.IO_LATENCY].values, 1e-9
        )
        np.testing.assert_array_equal(matrix[:, latency_col], expected)

    def test_module_level_demand_matrix_delegates_to_cache(self):
        trace = full_trace(n=16)
        assert demand_matrix(trace, DB_DIMENSIONS) is trace.demand_matrix(DB_DIMENSIONS)


@pytest.fixture(scope="module")
def module_catalog() -> SkuCatalog:
    return SkuCatalog.default()


@pytest.fixture(scope="module")
def db_traces():
    rng = np.random.default_rng(42)
    traces = []
    for index in range(12):
        n = 48
        traces.append(
            make_trace(
                np.abs(rng.normal(3.0, 2.0, n)) + 0.1,
                memory_gb=np.abs(rng.normal(12.0, 6.0, n)) + 0.1,
                data_iops=np.abs(rng.normal(700.0, 400.0, n)) + 1.0,
                io_latency_ms=np.abs(rng.normal(6.0, 2.0, n)) + 0.2,
                log_rate_mbps=np.abs(rng.normal(4.0, 2.0, n)) + 0.1,
                data_size_gb=np.full(n, float(rng.uniform(20.0, 800.0))),
                entity_id=f"db-{index}",
            )
        )
    return traces


class TestBuildCurvesBatch:
    def test_db_curves_match_serial_construction(self, module_catalog, db_traces):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        batch = ppm.build_curves_batch(db_traces, DeploymentType.SQL_DB)
        for trace, outcome in zip(db_traces, batch):
            serial = ppm.build_curve(trace, DeploymentType.SQL_DB)
            assert not isinstance(outcome, Exception)
            assert outcome.entity_id == serial.entity_id
            assert len(outcome.points) == len(serial.points)
            for got, expected in zip(outcome.points, serial.points):
                assert got == expected  # exact float + SKU equality

    def test_mi_curves_match_serial_including_overrides(self, module_catalog, db_traces):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        sizes = [None if index % 2 else (40.0, 25.0) for index in range(len(db_traces))]
        batch = ppm.build_curves_batch(db_traces, DeploymentType.SQL_MI, sizes)
        for trace, trace_sizes, outcome in zip(db_traces, sizes, batch):
            serial = ppm.build_curve(
                trace,
                DeploymentType.SQL_MI,
                file_sizes_gib=list(trace_sizes) if trace_sizes else None,
            )
            assert not isinstance(outcome, Exception)
            assert tuple(outcome.points) == tuple(serial.points)

    def test_storage_misfit_reproduces_serial_error(self, module_catalog):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        monster = make_trace(
            np.full(8, 2.0), data_size_gb=np.full(8, 1e9), entity_id="monster"
        )
        fine = full_trace(n=8)
        with pytest.raises(ValueError) as excinfo:
            ppm.build_curve(monster, DeploymentType.SQL_DB)
        outcomes = ppm.build_curves_batch([monster, fine], DeploymentType.SQL_DB)
        assert isinstance(outcomes[0], ValueError)
        assert str(outcomes[0]) == str(excinfo.value)
        assert not isinstance(outcomes[1], Exception)

    def test_non_empirical_estimator_falls_back(self, module_catalog, db_traces):
        from repro.core import KdeThrottlingEstimator

        engine = DopplerEngine(
            catalog=module_catalog, estimator=KdeThrottlingEstimator()
        )
        trace = db_traces[0]
        outcome = engine.ppm.build_curves_batch([trace], DeploymentType.SQL_DB)[0]
        serial = engine.ppm.build_curve(trace, DeploymentType.SQL_DB)
        assert tuple(outcome.points) == tuple(serial.points)


def result_projection(result):
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


def result_bytes(result) -> bytes:
    """A fleet result as bytes: every field a caller reads, floats bit-exact."""
    recommendation = result.recommendation
    if recommendation is None:
        return f"{result.customer_id}|ERROR|{result.error}".encode()
    profile = recommendation.profile
    return b"|".join(
        [
            repr(
                (
                    result.customer_id,
                    recommendation.sku.name,
                    recommendation.strategy,
                    recommendation.expected_throttling,
                    recommendation.target_probability,
                    recommendation.notes,
                    profile.entity_id,
                    profile.dimensions,
                    profile.negotiable,
                    profile.group_key,
                    recommendation.curve.points,
                    result.over_provisioned,
                )
            ).encode(),
            profile.features.tobytes(),
        ]
    )


class TestFleetColumnarPath:
    @pytest.fixture(scope="class")
    def records(self, module_catalog):
        config = FleetConfig.paper_db(16, duration_days=3.0, interval_minutes=60.0)
        return [c.record for c in simulate_fleet(config, module_catalog, rng=3)]

    @pytest.fixture(scope="class")
    def module_catalog(self):
        return SkuCatalog.default()

    def test_fit_and_recommend_identical_to_per_customer(self, module_catalog, records):
        customers = [
            FleetCustomer.from_record(record, customer_id=f"c{index:03d}")
            for index, record in enumerate(records)
        ]
        outcomes = {}
        for columnar in (False, True):
            fleet = FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="serial",
                columnar=columnar,
            )
            report = fleet.fit_fleet(records)
            results = [result_projection(r) for r in fleet.recommend_fleet(customers)]
            outcomes[columnar] = (report, results)
        assert outcomes[False] == outcomes[True]

    def test_columnar_failure_containment_matches(self, module_catalog):
        bad = FleetCustomer(
            customer_id="bad",
            trace=make_trace(np.full(8, 1.0), data_size_gb=np.full(8, 1e9)),
            deployment=DeploymentType.SQL_DB,
        )
        good = FleetCustomer(
            customer_id="good", trace=full_trace(n=16), deployment=DeploymentType.SQL_DB
        )
        per_path = {}
        for columnar in (False, True):
            fleet = FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="serial",
                columnar=columnar,
            )
            per_path[columnar] = [
                result_projection(r) for r in fleet.recommend_fleet([bad, good])
            ]
        assert per_path[False] == per_path[True]
        assert per_path[True][0][0] == "bad"
        assert per_path[True][0][-1] is not None  # contained error string
        assert per_path[True][1][-1] is None

    def test_profiling_failure_stays_with_its_customer(self, module_catalog, records):
        """A trace whose curve builds but whose profiling raises.

        Its KeyError makes the chunk's batched profiling call fail; the
        error must come back as that customer's result only, with the
        per-customer path's text, and a storage misfit in the same
        chunk keeps its curve error.
        """
        full = full_trace(n=16, entity_id="no-memory")
        no_memory = FleetCustomer(
            customer_id="no-memory",
            trace=PerformanceTrace(
                {dim: ts for dim, ts in full.series.items() if dim is not PerfDimension.MEMORY},
                entity_id="no-memory",
            ),
            deployment=DeploymentType.SQL_DB,
        )
        misfit = FleetCustomer(
            customer_id="misfit",
            trace=make_trace(np.full(8, 1.0), data_size_gb=np.full(8, 1e9)),
            deployment=DeploymentType.SQL_DB,
        )
        good = [
            FleetCustomer(
                customer_id=f"{deployment.short_name}{index}",
                trace=record.trace,
                deployment=deployment,
                current_sku_name=record.chosen_sku_name if index % 2 else None,
            )
            for index, record in enumerate(records[:6])
            for deployment in (DeploymentType.SQL_DB, DeploymentType.SQL_MI)
        ]
        chunk = good[:5] + [no_memory] + good[5:9] + [misfit] + good[9:]

        def fleet(columnar=True):
            engine = FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="serial",
                columnar=columnar,
                chunk_size=len(chunk),  # one chunk: one batched profiling call
            )
            engine.fit_fleet(records)
            return engine

        columnar = [result_bytes(r) for r in fleet().recommend_fleet(chunk)]
        per_customer = [result_bytes(r) for r in fleet(False).recommend_fleet(chunk)]
        batch = [result_bytes(r) for r in fleet().recommend_batch(chunk)]
        assert columnar == per_customer == batch
        by_id = dict(zip([customer.customer_id for customer in chunk], columnar))
        assert by_id["no-memory"].startswith(b"no-memory|ERROR|KeyError: ")
        assert b"has no MEMORY counter" in by_id["no-memory"]
        assert by_id["misfit"].startswith(b"misfit|ERROR|ValueError: ")
        alone = [result_bytes(r) for r in fleet().recommend_batch(good)]
        assert [by_id[customer.customer_id] for customer in good] == alone
        assert all(b"|ERROR|" not in line for line in alone)

    def test_mi_customers_take_columnar_path(self, module_catalog, records):
        customers = [
            FleetCustomer(
                customer_id=f"mi{index}",
                trace=record.trace,
                deployment=DeploymentType.SQL_MI,
                file_sizes_gib=(64.0, 32.0) if index % 2 else None,
            )
            for index, record in enumerate(records[:6])
        ]
        per_path = {}
        for columnar in (False, True):
            fleet = FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="serial",
                columnar=columnar,
            )
            per_path[columnar] = [
                result_projection(r) for r in fleet.recommend_fleet(customers)
            ]
        assert per_path[False] == per_path[True]

    def test_columnar_chunk_probes_cache_in_batches(self, module_catalog, records):
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=module_catalog), backend="serial"
        )
        fleet.fit_fleet(records)
        after_fit = fleet.cache_stats()
        assert after_fit.misses > 0 and after_fit.hits == 0
        customers = [
            FleetCustomer.from_record(record, customer_id=f"c{index:03d}")
            for index, record in enumerate(records)
        ]
        list(fleet.recommend_fleet(customers))
        after_recommend = fleet.cache_stats()
        assert after_recommend.hits >= after_fit.misses

    def test_duplicate_customers_share_one_build(self, module_catalog):
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=module_catalog), backend="serial"
        )
        customer = FleetCustomer(
            customer_id="dup", trace=full_trace(n=16), deployment=DeploymentType.SQL_DB
        )
        results = list(fleet.recommend_fleet([customer, customer, customer]))
        assert all(r.ok for r in results)
        stats = fleet.cache_stats()
        # Same counters a sequential get_or_build loop would produce:
        # one build, the duplicates served as hits.
        assert stats.misses == 1
        assert stats.hits == 2
        assert len({result_projection(r)[1:] for r in results}) == 1

    def test_duplicate_failing_customers_count_misses_like_serial(self, module_catalog):
        """Counter parity on the failure path: duplicates re-miss."""
        bad = FleetCustomer(
            customer_id="bad",
            trace=make_trace(np.full(8, 1.0), data_size_gb=np.full(8, 1e9)),
            deployment=DeploymentType.SQL_DB,
        )
        per_path = {}
        for columnar in (False, True):
            fleet = FleetEngine(
                engine=DopplerEngine(catalog=module_catalog),
                backend="serial",
                columnar=columnar,
            )
            results = list(fleet.recommend_fleet([bad, bad]))
            stats = fleet.cache_stats()
            per_path[columnar] = (stats.hits, stats.misses)
            assert not any(r.ok for r in results)
        assert per_path[False] == per_path[True] == (0, 2)


class TestMiOverrideGrouping:
    def test_gp_override_applied_to_capacity_matrix(self, module_catalog=None):
        """Columnar override grouping equals per-trace with_iops overrides."""
        skus = [
            make_sku(2, ServiceTier.GENERAL_PURPOSE, deployment=DeploymentType.SQL_MI, name="gp"),
            make_sku(
                4,
                ServiceTier.BUSINESS_CRITICAL,
                deployment=DeploymentType.SQL_MI,
                iops_per_vcore=4000.0,
                name="bc",
            ),
        ]
        catalog = SkuCatalog.from_skus(skus)
        ppm = DopplerEngine(catalog=catalog).ppm
        rng = np.random.default_rng(0)
        n = 32
        trace = make_trace(
            np.abs(rng.normal(1.0, 0.5, n)) + 0.05,
            memory_gb=np.abs(rng.normal(6.0, 2.0, n)) + 0.1,
            # Modest IOPS demand: the planned layout covers >= 95 %,
            # so GP SKUs stay candidates and inherit the override.
            data_iops=np.abs(rng.normal(100.0, 40.0, n)) + 1.0,
            io_latency_ms=np.abs(rng.normal(5.0, 1.0, n)) + 0.2,
            data_size_gb=np.full(n, 100.0),
            entity_id="mi-override",
        )
        assert ppm.plan_mi_storage(trace).gp_allowed
        outcome = ppm.build_curves_batch([trace], DeploymentType.SQL_MI)[0]
        serial = ppm.build_curve(trace, DeploymentType.SQL_MI)
        assert tuple(outcome.points) == tuple(serial.points)
        # The GP point's probability must reflect the layout override,
        # not the SKU's nominal IOPS limit.
        plan = ppm.plan_mi_storage(trace)
        estimator = EmpiricalThrottlingEstimator()
        expected = estimator.probabilities(
            trace,
            skus,
            MI_DIMENSIONS,
            iops_overrides={"gp": plan.layout.total_iops},
        )
        got = {p.sku.name: p.throttling_probability for p in outcome.points}
        np.testing.assert_allclose(
            [got["gp"], got["bc"]], expected, rtol=0, atol=0
        )


# ----------------------------------------------------------------------
# MI Step-2 threshold row: one kernel pass per deployment and chunk
# ----------------------------------------------------------------------
def mi_state_and_levels(ppm):
    """The MI candidate state and its memoized levels over MI_DIMENSIONS."""
    state = ppm._deployment_state(DeploymentType.SQL_MI)
    return state, state.levels_for(MI_DIMENSIONS)


def per_layout_counts(state, blocks, thresholds, memory_cap_mb):
    """The one-call-per-layout counts: each block over its own override caps."""
    return np.stack(
        [
            batch_violation_counts(
                [block], state.caps_with_gp_iops(MI_DIMENSIONS, threshold), memory_cap_mb
            )[0]
            for block, threshold in zip(blocks, thresholds)
        ]
    )


def mi_demand_blocks(n_blocks: int, seed: int) -> list[np.ndarray]:
    """MI demand matrices whose IOPS straddle the premium-disk tiers' limits."""
    rng = np.random.default_rng(seed)
    blocks = []
    for index in range(n_blocks):
        n = int(rng.choice(WORD_EDGES + (200, 257)))
        trace = make_trace(
            np.abs(rng.normal(4.0, 3.0, n)) + 0.05,
            memory_gb=np.abs(rng.normal(30.0, 15.0, n)) + 0.1,
            data_iops=np.abs(rng.normal(2500.0, 2000.0, n)) + 1.0,
            io_latency_ms=np.abs(rng.normal(5.0, 2.0, n)) + 0.2,
            entity_id=f"mi-block-{index}",
        )
        blocks.append(trace.demand_matrix(MI_DIMENSIONS))
    return blocks


class TestThresholdRow:
    """Threshold-row counts equal the per-layout override counts, bit for bit."""

    @pytest.fixture(scope="class")
    def ppm(self):
        return DopplerEngine(catalog=SkuCatalog.default()).ppm

    @pytest.mark.parametrize("memory_cap_mb", CAPS)
    def test_mixed_layouts_in_one_chunk_match_per_layout_calls(self, ppm, memory_cap_mb):
        state, levels = mi_state_and_levels(ppm)
        assert levels.threshold_column == MI_DIMENSIONS.index(PerfDimension.IOPS)
        blocks = mi_demand_blocks(12, seed=int(memory_cap_mb * 1000))
        layouts = [(32.0,), (100.0,), (600.0,), (40.0, 25.0), (3000.0,), (64.0, 32.0)]
        thresholds = [
            ppm.plan_mi_storage(
                make_trace(np.ones(4), data_iops=np.ones(4)), list(layouts[index % 6])
            ).layout.total_iops
            for index in range(len(blocks))
        ]
        assert len(set(thresholds)) >= 4  # several layouts share one call
        counts = batch_violation_counts(blocks, levels, memory_cap_mb, thresholds)
        np.testing.assert_array_equal(
            counts, per_layout_counts(state, blocks, thresholds, memory_cap_mb)
        )

    def test_pieces_straddling_chunks_carry_their_threshold(self, ppm):
        state, levels = mi_state_and_levels(ppm)
        # Two words per chunk: every trace longer than 128 samples is
        # cut into pieces that land in different chunks, beside pieces
        # of neighbours with other thresholds.
        word_mb = 1.0 / levels.words_per_chunk(1.0)
        memory_cap_mb = 2.5 * word_mb
        assert levels.words_per_chunk(memory_cap_mb) == 2
        blocks = mi_demand_blocks(16, seed=7)
        blocks.append(np.tile(blocks[0], (3, 1)))  # 3x a long trace
        thresholds = [400.0 * (1 + index % 5) for index in range(len(blocks))]
        assert any(block.shape[0] > 128 for block in blocks)
        counts = batch_violation_counts(blocks, levels, memory_cap_mb, thresholds)
        np.testing.assert_array_equal(
            counts, per_layout_counts(state, blocks, thresholds, memory_cap_mb)
        )
        generous = batch_violation_counts(blocks, levels, 64.0, thresholds)
        np.testing.assert_array_equal(counts, generous)

    def test_threshold_equal_to_demand_is_not_a_violation(self, ppm):
        state, levels = mi_state_and_levels(ppm)
        threshold = 1100.0
        iops = np.array([threshold, threshold, np.nextafter(threshold, np.inf), 1.0])
        # Every other dimension sits far below every capacity, so a GP
        # SKU counts exactly the samples whose IOPS exceed the threshold.
        block = np.column_stack(
            [np.full(4, 0.01), np.full(4, 0.01), iops, np.full(4, 1e-3)]
        )
        for n_copies in (1, 16, 17):  # one word, whole words, a word and a bit
            tiled = np.tile(block, (n_copies, 1))
            counts = batch_violation_counts([tiled], levels, thresholds=[threshold])[0]
            assert (counts[state.gp_mask] == n_copies).all()
            np.testing.assert_array_equal(
                counts, per_layout_counts(state, [tiled], [threshold], 64.0)[0]
            )

    def test_threshold_row_needs_one_threshold_per_block(self, ppm):
        _, levels = mi_state_and_levels(ppm)
        blocks = mi_demand_blocks(2, seed=3)
        with pytest.raises(ValueError, match="threshold"):
            batch_violation_counts(blocks, levels)
        with pytest.raises(ValueError, match="threshold"):
            batch_violation_counts(blocks, levels, thresholds=[1.0])

    def test_db_levels_keep_catalog_iops(self, ppm):
        state = ppm._deployment_state(DeploymentType.SQL_DB)
        levels = state.levels_for(DB_DIMENSIONS)
        assert levels.threshold_column is None
        assert state.levels_for(DB_DIMENSIONS) is levels  # memoized
        blocks = [full_trace(n=n, rng=n).demand_matrix(DB_DIMENSIONS) for n in WORD_EDGES]
        np.testing.assert_array_equal(
            batch_violation_counts(blocks, levels),
            batch_violation_counts(blocks, state.caps_for(DB_DIMENSIONS)),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        traces=st.lists(random_trace(), min_size=1, max_size=6),
        skus=random_skus(),
        gp_rows=st.lists(st.booleans(), min_size=8, max_size=8),
        threshold_scales=st.lists(
            st.floats(min_value=0.01, max_value=3.0, allow_nan=False), min_size=6, max_size=6
        ),
        memory_cap_mb=st.sampled_from(CAPS),
    )
    def test_random_thresholds_match_override_caps(
        self, traces, skus, gp_rows, threshold_scales, memory_cap_mb
    ):
        from repro.core.throttling import _CapacityLevels

        caps = capacity_matrix(skus, DIMS3)
        mask = np.array(gp_rows[: len(skus)])
        column = DIMS3.index(PerfDimension.IOPS)
        levels = _CapacityLevels(caps, mask, column)
        blocks = [demand_matrix(t, DIMS3) for t in traces]
        # Thresholds drawn around the demand itself, some exactly on a sample.
        thresholds = [
            float(block[0, column]) if index % 3 == 0 else 800.0 * scale
            for index, (block, scale) in enumerate(zip(blocks, threshold_scales))
        ]
        counts = batch_violation_counts(blocks, levels, memory_cap_mb, thresholds)
        for block, threshold, row in zip(blocks, thresholds, counts):
            overridden = caps.copy()
            overridden[mask, column] = threshold
            np.testing.assert_array_equal(row, reference_counts(block, overridden))


class TestMiBatchGrouping:
    def test_gp_disallowed_and_mixed_layouts_match_serial(self, module_catalog):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        rng = np.random.default_rng(5)
        traces, sizes = [], []
        for index in range(10):
            n = 48
            heavy = index % 3 == 0  # IOPS no premium-disk layout covers
            traces.append(
                make_trace(
                    np.abs(rng.normal(3.0, 1.0, n)) + 0.1,
                    memory_gb=np.abs(rng.normal(14.0, 5.0, n)) + 0.1,
                    data_iops=np.abs(rng.normal(60_000.0 if heavy else 300.0, 100.0, n)) + 1.0,
                    io_latency_ms=np.abs(rng.normal(5.0, 1.0, n)) + 0.2,
                    data_size_gb=np.full(n, float(rng.uniform(20.0, 900.0))),
                    entity_id=f"mi-{index}",
                )
            )
            sizes.append(None if index % 2 else (40.0, 25.0 * (1 + index)))
        plans = [
            ppm.plan_mi_storage(trace, list(size) if size else None)
            for trace, size in zip(traces, sizes)
        ]
        assert not all(plan.gp_allowed for plan in plans)
        assert any(plan.gp_allowed for plan in plans)
        assert len({plan.layout.total_iops for plan in plans}) >= 3
        batch = ppm.build_curves_batch(traces, DeploymentType.SQL_MI, sizes)
        for trace, size, plan, outcome in zip(traces, sizes, plans, batch):
            serial = ppm.build_curve(
                trace, DeploymentType.SQL_MI, file_sizes_gib=list(size) if size else None
            )
            assert tuple(outcome.points) == tuple(serial.points)
            if not plan.gp_allowed:
                assert {p.sku.tier for p in outcome.points} == {
                    ServiceTier.BUSINESS_CRITICAL
                }

    def test_stacked_step1_quantiles_equal_per_trace_quantiles(self, module_catalog):
        ppm = DopplerEngine(catalog=module_catalog).ppm
        rng = np.random.default_rng(11)
        traces = [
            make_trace(np.ones(n), data_iops=rng.lognormal(6.0, 1.5, n), entity_id=f"q{n}")
            for n in (1, 2, 5, 48, 48, 48, 337, 337)
        ]
        traces.insert(3, make_trace(np.ones(48)))  # no IOPS: demands nothing
        for trace, (iops, mibps) in zip(traces, ppm._io_demands(traces)):
            if PerfDimension.IOPS in trace:
                expected = float(np.quantile(trace[PerfDimension.IOPS].values, 0.99))
            else:
                expected = 0.0
            assert iops == expected
            assert mibps == expected * 8.0 / 1024.0

    def test_multi_chunk_recommend_builds_each_deployments_levels_once(
        self, module_catalog, monkeypatch
    ):
        from repro.core import throttling

        config = FleetConfig.paper_db(16, duration_days=3.0, interval_minutes=60.0)
        records = [c.record for c in simulate_fleet(config, module_catalog, rng=4)]
        customers = [
            FleetCustomer(
                customer_id=f"c{index}",
                trace=record.trace,
                deployment=DeploymentType.SQL_MI if index % 3 == 0 else DeploymentType.SQL_DB,
                file_sizes_gib=(64.0, 32.0) if index % 2 else None,
            )
            for index, record in enumerate(records)
        ]
        built = []
        original = throttling._CapacityLevels.__init__

        def counting_init(self, caps, *args, **kwargs):
            built.append(caps.shape)
            original(self, caps, *args, **kwargs)

        monkeypatch.setattr(throttling._CapacityLevels, "__init__", counting_init)
        fleet = FleetEngine(
            engine=DopplerEngine(catalog=module_catalog), backend="serial", chunk_size=3
        )
        results = list(fleet.recommend_fleet(customers))
        assert all(result.ok for result in results)
        # Six chunks, most holding both deployments, one dimension
        # tuple per deployment: one levels build per deployment.
        ppm = fleet.engine.ppm
        assert sorted(built) == sorted(
            [
                (len(ppm.candidates(DeploymentType.SQL_DB)), len(DB_DIMENSIONS)),
                (len(ppm.candidates(DeploymentType.SQL_MI)), len(MI_DIMENSIONS)),
            ]
        )
        # A second pass over fresh traces misses the curve cache and
        # builds nothing: the levels live on the modeler.
        built.clear()
        fresh = [
            FleetCustomer(
                customer_id=customer.customer_id,
                trace=PerformanceTrace(dict(customer.trace.series), entity_id="again"),
                deployment=customer.deployment,
                file_sizes_gib=customer.file_sizes_gib,
            )
            for customer in customers
        ]
        assert all(result.ok for result in fleet.recommend_fleet(fresh))
        assert fleet.cache_stats().misses == 2 * len(customers)
        assert built == []
