"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    EmpiricalThrottlingEstimator,
    GroupObservation,
    GroupScoreModel,
    PricePerformanceCurve,
)
from repro.core.curve import CurvePoint
from repro.core.matching import GroupStatistics
from repro.ml import (
    agglomerative,
    ecdf,
    ecdf_auc,
    ecdf_auc_by_integration,
    kmeans,
    loess_smooth,
    max_scale,
    minmax_scale,
    outlier_fraction,
)
from repro.telemetry import PerfDimension, TimeSeries

from .conftest import make_sku, make_trace

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)

samples = arrays(np.float64, st.integers(2, 80), elements=finite_floats)
positive_samples = arrays(np.float64, st.integers(2, 80), elements=positive_floats)
unit_samples = arrays(
    np.float64,
    st.integers(1, 80),
    elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestEcdfProperties:
    @given(samples)
    def test_ecdf_is_a_cdf(self, values):
        distribution = ecdf(values)
        probs = distribution.probabilities
        assert np.all(probs > 0)
        assert probs[-1] == pytest.approx(1.0)
        assert np.all(np.diff(probs) >= 0)

    @given(samples, finite_floats)
    def test_ecdf_evaluation_in_unit_interval(self, values, x):
        assert 0.0 <= ecdf(values)(x) <= 1.0

    @given(unit_samples)
    def test_auc_identities(self, values):
        auc = ecdf_auc(values)
        assert 0.0 <= auc <= 1.0
        assert auc == pytest.approx(ecdf_auc_by_integration(values), abs=1e-9)
        assert auc == pytest.approx(1.0 - values.mean(), abs=1e-9)


class TestScalingProperties:
    @given(samples)
    def test_minmax_bounds(self, values):
        scaled = minmax_scale(values)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    @given(positive_samples)
    def test_max_scale_preserves_ratios(self, values):
        scaled = max_scale(values)
        assert scaled.max() == pytest.approx(1.0)
        ratio = values / values.max()
        np.testing.assert_allclose(scaled, ratio, atol=1e-12)

    @given(samples)
    def test_outlier_fraction_bounded(self, values):
        assert 0.0 <= outlier_fraction(values) <= 0.5


class TestCurveProperties:
    @given(
        arrays(
            np.float64,
            st.integers(1, 12),
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    def test_curve_always_monotone(self, probabilities):
        skus = [make_sku(2 * (i + 1)) for i in range(probabilities.size)]
        curve = PricePerformanceCurve.from_probabilities(skus, probabilities)
        scores = curve.scores()
        assert np.all(np.diff(scores) >= -1e-12)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        # Monotone adjustment never lowers a score below 1 - raw P.
        for point in curve:
            assert point.score >= 1.0 - point.throttling_probability - 1e-12

    @given(
        arrays(
            np.float64,
            st.integers(1, 12),
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_group_matching_satisfies_constraint_when_feasible(
        self, probabilities, target
    ):
        skus = [make_sku(2 * (i + 1)) for i in range(probabilities.size)]
        curve = PricePerformanceCurve.from_probabilities(skus, probabilities)
        model = GroupScoreModel.fit([GroupObservation((0,), target)])
        point = model.recommend(curve, (0,))
        feasible = [p for p in curve if 1.0 - p.score <= target + 1e-12]
        if feasible:
            assert 1.0 - point.score <= target + 1e-12
            best_gap = min(abs(1.0 - p.score - target) for p in feasible)
            assert abs(1.0 - point.score - target) == pytest.approx(best_gap, abs=1e-9)


def scan_selection(scores: list[float], target: float) -> int:
    """The selector as a plain scalar scan: the oracle of the fast path.

    A verbatim copy of the scan ``GroupScoreModel.recommend`` ran
    before it was vectorised: a pick changes only on a gap improvement
    of more than 1e-12; the feasible pick wins, else the overall one.
    """
    feasible_rank = None
    feasible_gap = float("inf")
    overall_rank = 0
    overall_gap = float("inf")
    for rank, score in enumerate(scores):
        probability = 1.0 - score
        gap = abs(probability - target)
        if gap < overall_gap - 1e-12:
            overall_gap = gap
            overall_rank = rank
        if probability <= target + 1e-12 and gap < feasible_gap - 1e-12:
            feasible_gap = gap
            feasible_rank = rank
    return overall_rank if feasible_rank is None else feasible_rank


@st.composite
def selection_targets(draw, scores: np.ndarray) -> float:
    """A target on, within 1e-12 of, or beyond the curve's probabilities."""
    probabilities = 1.0 - scores
    kind = draw(st.sampled_from(["on", "near", "above", "below", "anywhere"]))
    if kind == "anywhere":
        return draw(st.floats(min_value=0.0, max_value=1.0))
    if kind == "above":
        return float(probabilities.max()) + draw(st.sampled_from([1e-13, 1e-12, 2e-12, 0.1]))
    if kind == "below":
        return float(probabilities.min()) - draw(st.sampled_from([1e-13, 1e-12, 2e-12, 0.1]))
    on = float(probabilities[draw(st.integers(0, probabilities.size - 1))])
    if kind == "on":
        return on
    return on + draw(st.floats(min_value=-1e-12, max_value=1e-12))


class TestSelectorExactness:
    """The vectorised selector returns the scalar scan's point on every curve."""

    @staticmethod
    def model_targeting(target: float) -> GroupScoreModel:
        stats = GroupStatistics(p_mean=target, p_std=0.0, count=1)
        return GroupScoreModel(groups={(0,): stats}, fallback=stats)

    def assert_matches_scan(self, curve: PricePerformanceCurve, target: float) -> None:
        expected = curve.point_at(scan_selection(curve.scores().tolist(), target))
        assert self.model_targeting(target).recommend(curve, (0,)) == expected

    @given(
        arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.one_of(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                st.sampled_from([0.0, 0.1, 0.1 + 1e-12, 0.1 - 1e-12, 0.5, 1.0]),
            ),
        ),
        st.data(),
    )
    def test_running_max_curves(self, probabilities, data):
        skus = [make_sku(2 * (i + 1)) for i in range(probabilities.size)]
        curve = PricePerformanceCurve.from_probabilities(skus, probabilities)
        self.assert_matches_scan(curve, data.draw(selection_targets(curve.scores())))

    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.lists(
            st.one_of(
                st.floats(min_value=-1e-12, max_value=0.0),
                st.sampled_from([-1e-12, -5e-13, 0.0]),
                st.floats(min_value=0.0, max_value=0.1),
            ),
            max_size=24,
        ),
        st.data(),
    )
    def test_explicit_curves_with_dips(self, start, steps, data):
        """Scores may fall by up to 1e-12 per point, so dips can chain."""
        scores = np.cumsum([start, *steps])
        points = [
            CurvePoint(make_sku(2 * (i + 1)), 10.0 * (i + 1), 1.0 - score, float(score))
            for i, score in enumerate(scores.tolist())
        ]
        try:
            curve = PricePerformanceCurve(points)
        except ValueError:
            assume(False)  # a rounded step fell just past the 1e-12 bound
        self.assert_matches_scan(curve, data.draw(selection_targets(curve.scores())))

    def test_a_dipping_chain_takes_the_scan(self):
        """Later feasible gaps shrinking past 1e-12: the scan decides."""
        scores = [0.5]
        for _ in range(3):
            scores.append(scores[-1] - 1e-12)  # the largest dip the curve allows
        points = [
            CurvePoint(make_sku(2 * (i + 1)), 10.0 * (i + 1), 1.0 - score, score)
            for i, score in enumerate(scores)
        ]
        curve = PricePerformanceCurve(points)
        target = 1.0 - scores[-1]
        chosen = scan_selection(scores, target)
        assert chosen != 0  # the cheapest feasible rank is not the answer
        self.assert_matches_scan(curve, target)

    def test_an_infinite_gap_takes_the_scan(self):
        """The only feasible point has an infinite gap: the scan skips it."""
        points = [
            CurvePoint(make_sku(2), 10.0, 0.8, 0.2),
            CurvePoint(make_sku(4), 20.0, 0.0, float("inf")),
        ]
        curve = PricePerformanceCurve(points)
        assert scan_selection([0.2, float("inf")], 0.5) == 0
        self.assert_matches_scan(curve, 0.5)


class TestThrottlingProperties:
    @settings(max_examples=25)
    @given(
        arrays(np.float64, 30, elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
        arrays(np.float64, 30, elements=st.floats(min_value=0.0, max_value=200.0, allow_nan=False)),
    )
    def test_probability_bounds_and_monotonicity(self, cpu, memory):
        trace = make_trace(cpu, memory_gb=memory)
        estimator = EmpiricalThrottlingEstimator()
        dims = (PerfDimension.CPU, PerfDimension.MEMORY)
        skus = [make_sku(v) for v in (2, 4, 8, 16, 32, 64)]
        probs = estimator.probabilities(trace, skus, dims)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.all(np.diff(probs) <= 1e-12)  # bigger SKU never worse

    @settings(max_examples=25)
    @given(
        arrays(np.float64, 20, elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    )
    def test_union_at_least_each_marginal(self, cpu):
        """P(union) >= max of per-dimension violation rates."""
        memory = np.roll(cpu, 7) * 4.0
        trace = make_trace(cpu, memory_gb=memory)
        sku = make_sku(8)
        estimator = EmpiricalThrottlingEstimator()
        joint = estimator.probability(
            trace, sku, (PerfDimension.CPU, PerfDimension.MEMORY)
        )
        cpu_only = estimator.probability(trace, sku, (PerfDimension.CPU,))
        memory_only = estimator.probability(trace, sku, (PerfDimension.MEMORY,))
        assert joint >= max(cpu_only, memory_only) - 1e-12
        assert joint <= cpu_only + memory_only + 1e-12


class TestClusteringProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(4, 25), st.integers(1, 4)),
            elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        ),
        st.integers(1, 4),
    )
    def test_kmeans_partitions_all_points(self, points, k):
        k = min(k, points.shape[0])
        result = kmeans(points, k=k, rng=0)
        assert result.labels.shape == (points.shape[0],)
        assert set(result.labels.tolist()) <= set(range(k))
        assert result.inertia >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 20), st.integers(1, 3)),
            elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        ),
        st.integers(1, 5),
    )
    def test_agglomerative_cluster_count(self, points, k):
        k = min(k, points.shape[0])
        result = agglomerative(points, n_clusters=k)
        assert len(set(result.labels.tolist())) == k


class TestTimeSeriesProperties:
    @given(positive_samples)
    def test_resample_preserves_mean_of_full_buckets(self, values):
        if values.size < 4:
            return
        ts = TimeSeries(values=values, interval_minutes=10.0)
        coarse = ts.resample(20.0)
        n_full = (len(ts) // 2) * 2
        assert coarse.mean() == pytest.approx(values[:n_full].mean(), rel=1e-9)

    @given(positive_samples)
    def test_degree0_loess_stays_within_data_range(self, values):
        """Degree-0 loess is a weighted average: range-bounded exactly.

        (Degree-1 loess may legitimately overshoot at the boundaries,
        like any local linear extrapolation.)
        """
        smoothed = loess_smooth(values, span=0.5, degree=0)
        assert smoothed.min() >= values.min() - 1e-9
        assert smoothed.max() <= values.max() + 1e-9


class TestStoragePlanProperties:
    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=30000.0, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_layout_invariants(self, sizes):
        from repro.catalog import plan_file_layout

        layout = plan_file_layout(sizes)
        # One disk per file, each disk fits its file.
        assert len(layout.tiers) == len(sizes)
        for tier, size in zip(layout.tiers, sizes):
            assert tier.max_file_size_gib >= size
        # Provisioned capacity covers the data; limits are sums.
        assert layout.total_capacity_gib >= sum(sizes)
        assert layout.total_iops == pytest.approx(sum(t.iops for t in layout.tiers))

    @given(st.floats(min_value=0.5, max_value=30000.0, allow_nan=False))
    def test_tier_selection_is_minimal(self, size):
        from repro.catalog import PREMIUM_DISK_TIERS, tier_for_file_size

        tier = tier_for_file_size(size)
        smaller = [t for t in PREMIUM_DISK_TIERS if t.max_file_size_gib < tier.max_file_size_gib]
        assert all(t.max_file_size_gib < size for t in smaller)


class TestServerlessProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=10, max_size=200),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_cost_scales_linearly_with_rate(self, cpu, rate):
        import numpy as np

        from repro.extensions import ServerlessOffer, evaluate_serverless
        from repro.telemetry import PerfDimension, PerformanceTrace, TimeSeries

        trace = PerformanceTrace(
            series={PerfDimension.CPU: TimeSeries(np.asarray(cpu))}
        )
        base_offer = ServerlessOffer(max_vcores=16.0, min_vcores=0.5, price_per_vcore_hour=rate)
        double_offer = ServerlessOffer(
            max_vcores=16.0, min_vcores=0.5, price_per_vcore_hour=2 * rate
        )
        base = evaluate_serverless(trace, base_offer)
        double = evaluate_serverless(trace, double_offer)
        assert double.monthly_cost == pytest.approx(2 * base.monthly_cost, rel=1e-9)
        assert double.throttling_probability == base.throttling_probability

    @given(
        st.lists(st.floats(min_value=0.0, max_value=30.0, allow_nan=False), min_size=10, max_size=200)
    )
    def test_bigger_ceiling_never_throttles_more(self, cpu):
        import numpy as np

        from repro.extensions import ServerlessOffer, evaluate_serverless
        from repro.telemetry import PerfDimension, PerformanceTrace, TimeSeries

        trace = PerformanceTrace(
            series={PerfDimension.CPU: TimeSeries(np.asarray(cpu))}
        )
        small = evaluate_serverless(trace, ServerlessOffer(max_vcores=4.0, min_vcores=0.5))
        big = evaluate_serverless(trace, ServerlessOffer(max_vcores=32.0, min_vcores=0.5))
        assert big.throttling_probability <= small.throttling_probability + 1e-12
