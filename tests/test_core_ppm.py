"""Unit tests for the Price-Performance Modeler (incl. MI two-step)."""

import numpy as np
import pytest

from repro.catalog import DeploymentType, ServiceTier, SkuCatalog
from repro.core import PricePerformanceModeler, throttling
from repro.core.throttling import demand_matrix
from repro.telemetry import PerfDimension, PerformanceTrace, TimeSeries

from .conftest import full_trace, make_sku


def mi_catalog():
    skus = []
    for vcores in (4, 8, 16, 32):
        skus.append(
            make_sku(vcores, ServiceTier.GENERAL_PURPOSE, DeploymentType.SQL_MI,
                     iops_per_vcore=400.0, storage_gb=2048.0,
                     price_per_vcore_hour=0.274)
        )
        skus.append(
            make_sku(vcores, ServiceTier.BUSINESS_CRITICAL, DeploymentType.SQL_MI,
                     iops_per_vcore=2750.0, storage_gb=2048.0,
                     price_per_vcore_hour=0.735)
        )
    return SkuCatalog.from_skus(skus)


def mi_trace(cpu_level=2.0, iops_level=300.0, latency=6.0, storage=100.0, n=288):
    rng = np.random.default_rng(0)

    def jitter(level):
        return np.abs(rng.normal(1.0, 0.02, n)) * level

    return PerformanceTrace(
        series={
            PerfDimension.CPU: TimeSeries(jitter(cpu_level)),
            PerfDimension.MEMORY: TimeSeries(jitter(cpu_level * 4)),
            PerfDimension.IOPS: TimeSeries(jitter(iops_level)),
            PerfDimension.IO_LATENCY: TimeSeries(jitter(latency)),
            PerfDimension.STORAGE: TimeSeries(jitter(storage)),
        },
        entity_id="mi-test",
    )


class TestDbCurve:
    def test_curve_covers_fitting_skus(self, small_catalog, steady_trace):
        ppm = PricePerformanceModeler(catalog=small_catalog)
        curve = ppm.build_curve(steady_trace, DeploymentType.SQL_DB)
        assert len(curve) == len(small_catalog)

    def test_small_steady_workload_gets_flat_curve(self, small_catalog, steady_trace):
        ppm = PricePerformanceModeler(catalog=small_catalog)
        curve = ppm.build_curve(steady_trace, DeploymentType.SQL_DB)
        assert curve.shape().value == "flat"

    def test_storage_misfit_skus_dropped(self, small_catalog):
        trace = full_trace(cpu_level=1.0)
        big_storage = PerformanceTrace(
            series={
                **{dim: trace[dim] for dim in trace.dimensions if dim is not PerfDimension.STORAGE},
                PerfDimension.STORAGE: trace[PerfDimension.STORAGE].with_values(
                    np.full(trace.n_samples, 4000.0)
                ),
            },
            entity_id="big",
        )
        ppm = PricePerformanceModeler(catalog=small_catalog)
        with pytest.raises(ValueError, match="hold"):
            ppm.build_curve(big_storage, DeploymentType.SQL_DB)

    def test_missing_all_dimensions_rejected(self, small_catalog):
        trace = PerformanceTrace(
            series={PerfDimension.STORAGE: TimeSeries(np.full(10, 10.0))}
        )
        ppm = PricePerformanceModeler(catalog=small_catalog)
        with pytest.raises(ValueError, match="MI performance dimensions"):
            ppm.build_curve(trace, DeploymentType.SQL_MI)

    def test_big_workload_throttles_small_skus(self, small_catalog):
        trace = full_trace(cpu_level=10.0)
        ppm = PricePerformanceModeler(catalog=small_catalog)
        curve = ppm.build_curve(trace, DeploymentType.SQL_DB)
        assert curve.points[0].throttling_probability > 0.9
        assert curve.points[-1].score == pytest.approx(1.0)


class TestMiStorageStep:
    def test_plan_defaults_to_single_file(self):
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        plan = ppm.plan_mi_storage(mi_trace(storage=100.0))
        assert len(plan.layout.tiers) == 1
        assert plan.layout.tiers[0].name == "P10"

    def test_explicit_file_layout(self):
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        plan = ppm.plan_mi_storage(mi_trace(), file_sizes_gib=[100.0, 100.0, 100.0])
        assert plan.layout.total_iops == 1500.0

    def test_gp_allowed_when_layout_covers_demand(self):
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        plan = ppm.plan_mi_storage(mi_trace(iops_level=300.0, storage=100.0))
        assert plan.gp_allowed  # P10 = 500 IOPS >= 0.95 * ~310

    def test_gp_excluded_when_layout_cannot_cover(self):
        """Step 1: IOPS demand beyond the layout -> BC-only candidates."""
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        trace = mi_trace(iops_level=3000.0, storage=100.0)  # P10 = 500 IOPS
        plan = ppm.plan_mi_storage(trace)
        assert not plan.gp_allowed
        curve = ppm.build_curve(trace, DeploymentType.SQL_MI)
        tiers = {point.sku.tier for point in curve}
        assert tiers == {ServiceTier.BUSINESS_CRITICAL}

    def test_gp_iops_limit_from_layout_not_nominal(self):
        """Step 2: the GP IOPS cap is the summed file-disk limit."""
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        # 450 IOPS demand: below P10's 500 (layout) but above nothing
        # nominal -- GP 4 cores nominal would be 1600.  Use a demand
        # *between* layout (500) and nominal (1600) to expose the
        # difference: 1000 IOPS.
        trace = mi_trace(iops_level=1000.0, storage=100.0)
        plan = ppm.plan_mi_storage(trace)
        # Layout covers 95%? 500 < 0.95*~1010 -> GP excluded entirely.
        assert not plan.gp_allowed

    def test_gp_throttles_on_layout_limit(self):
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        # Demand ~480 IOPS: layout P10=500 covers >=95 % (Step 1 passes),
        # but spikes above 500 throttle under the layout limit even
        # though every GP SKU's nominal limit (>=1600) would not.
        rng = np.random.default_rng(1)
        n = 288
        iops = np.full(n, 400.0)
        iops[::20] = 520.0  # 5% of samples above the 500 layout cap
        trace = PerformanceTrace(
            series={
                PerfDimension.CPU: TimeSeries(np.full(n, 1.0)),
                PerfDimension.MEMORY: TimeSeries(np.full(n, 4.0)),
                PerfDimension.IOPS: TimeSeries(iops),
                PerfDimension.IO_LATENCY: TimeSeries(np.full(n, 6.0)),
                PerfDimension.STORAGE: TimeSeries(np.full(n, 100.0)),
            },
            entity_id="gp-layout",
        )
        curve = ppm.build_curve(trace, DeploymentType.SQL_MI)
        cheapest_gp = next(
            point for point in curve if point.sku.tier is ServiceTier.GENERAL_PURPOSE
        )
        assert cheapest_gp.throttling_probability > 0.0


class TestMiCurve:
    def test_instance_curve_built(self):
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        curve = ppm.build_curve(mi_trace(), DeploymentType.SQL_MI)
        assert len(curve) > 0
        assert all(p.sku.deployment is DeploymentType.SQL_MI for p in curve)


class TestBuildCurveKernelLevels:
    """``build_curve`` counts every candidate over the deployment's
    memoized kernel levels (the MI Step-2 limit as the threshold row)
    and indexes the fitted ones; the curve equals the one the kernel
    gives over ``caps_with_gp_iops(...)[fitted]``, bit for bit."""

    @staticmethod
    def reference(ppm, trace, deployment):
        state = ppm._deployment_state(deployment)
        dims = ppm._curve_dimensions(trace, deployment)
        plan = (
            ppm.plan_mi_storage(trace) if deployment is DeploymentType.SQL_MI else None
        )
        caps = state.caps_with_gp_iops(dims, plan.layout.total_iops if plan else None)
        return ppm._fitted_curve(
            state,
            trace,
            plan,
            lambda fitted: ppm.estimator.probabilities_from_caps(
                demand_matrix(trace, dims), caps[fitted]
            ),
        )

    def assert_matches_reference(self, ppm, trace, deployment):
        curve = ppm.build_curve(trace, deployment)
        expected = self.reference(ppm, trace, deployment)
        assert [p.sku.name for p in curve] == [p.sku.name for p in expected]
        assert curve.scores().tobytes() == expected.scores().tobytes()
        assert [p.throttling_probability for p in curve] == [
            p.throttling_probability for p in expected
        ]
        return curve

    def test_db_curve_matches_reference(self, small_catalog):
        ppm = PricePerformanceModeler(catalog=small_catalog)
        for cpu_level in (0.8, 3.0, 9.0):
            trace = full_trace(cpu_level=cpu_level, entity_id=f"db-{cpu_level}", rng=7)
            self.assert_matches_reference(ppm, trace, DeploymentType.SQL_DB)

    @pytest.mark.parametrize("iops_level", [300.0, 480.0, 3000.0])
    def test_mi_curve_matches_reference(self, iops_level):
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        trace = mi_trace(iops_level=iops_level, storage=100.0)
        curve = self.assert_matches_reference(ppm, trace, DeploymentType.SQL_MI)
        tiers = {point.sku.tier for point in curve}
        assert (ServiceTier.GENERAL_PURPOSE in tiers) is (
            ppm.plan_mi_storage(trace).gp_allowed
        )

    def test_mi_threshold_equal_to_a_demand_does_not_throttle(self):
        """The Step-2 row is strict ``demand > limit`` like every level."""
        ppm = PricePerformanceModeler(catalog=mi_catalog())
        base = mi_trace(iops_level=400.0, storage=100.0)
        limit = ppm.plan_mi_storage(base).layout.total_iops
        n = base.n_samples
        series = {dim: base[dim] for dim in base.dimensions}
        for peak, expected in ((limit, 0.0), (np.nextafter(limit, np.inf), 29 / n)):
            iops = np.full(n, 400.0)
            iops[::10] = peak  # 29 of 288 samples
            series[PerfDimension.IOPS] = TimeSeries(iops)
            trace = PerformanceTrace(series=series, entity_id="at-limit")
            assert ppm.plan_mi_storage(trace).gp_allowed
            curve = self.assert_matches_reference(ppm, trace, DeploymentType.SQL_MI)
            gp = [p for p in curve if p.sku.tier is ServiceTier.GENERAL_PURPOSE]
            assert gp and all(p.throttling_probability == expected for p in gp)

    def test_second_call_builds_no_levels(self, small_catalog, monkeypatch):
        built = []
        original = throttling._CapacityLevels.__init__

        def counting_init(self, caps, *args, **kwargs):
            built.append(caps.shape)
            original(self, caps, *args, **kwargs)

        monkeypatch.setattr(throttling._CapacityLevels, "__init__", counting_init)
        for catalog, deployment, make in (
            (small_catalog, DeploymentType.SQL_DB, lambda i: full_trace(rng=i)),
            (mi_catalog(), DeploymentType.SQL_MI, lambda i: mi_trace(iops_level=300.0 + i)),
        ):
            ppm = PricePerformanceModeler(catalog=catalog)
            ppm.build_curve(make(1), deployment)
            assert len(built) == 1
            ppm.build_curve(make(2), deployment)
            assert len(built) == 1
            built.clear()
