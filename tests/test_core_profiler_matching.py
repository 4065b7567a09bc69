"""Unit tests for the Customer Profiler and group-score matching."""

import numpy as np
import pytest

from repro.core import (
    ALL_SUMMARIZERS,
    CombinedSummarizer,
    CustomerProfiler,
    GroupObservation,
    GroupScoreModel,
    GroupStatistics,
    MaxAucSummarizer,
    PricePerformanceCurve,
    group_key_to_label,
)
from repro.telemetry import (
    PROFILING_DB_DIMENSIONS,
    PROFILING_MI_DIMENSIONS,
    PerfDimension,
    PerformanceTrace,
    TimeSeries,
)
from repro.workloads import PlateauPattern, SpikyPattern

from .conftest import make_sku

N = 1008


def mixed_trace(negotiable_flags, dims=PROFILING_MI_DIMENSIONS, seed=0):
    """Trace whose dimensions are spiky (negotiable) or plateau."""
    rng = np.random.default_rng(seed)
    series = {}
    for dim, negotiable in zip(dims, negotiable_flags):
        if negotiable:
            pattern = SpikyPattern(base=1.0, peak=6.0, spike_probability=0.006)
        else:
            pattern = PlateauPattern(level=3.0)
        series[dim] = TimeSeries(values=pattern.generate(N, 10.0, rng=rng))
    return PerformanceTrace(series=series, entity_id="mixed")


class TestProfiler:
    def test_group_key_encoding_follows_table3(self):
        """0 = negotiable, 1 = non-negotiable (paper Table 3)."""
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        profile = profiler.profile(mixed_trace((True, False, True)))
        assert profile.group_key == (0, 1, 0)
        assert profile.negotiable == (True, False, True)

    def test_group_count(self):
        assert CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS).n_groups == 8
        assert CustomerProfiler(dimensions=PROFILING_DB_DIMENSIONS).n_groups == 16

    def test_group_label(self):
        assert group_key_to_label((0, 1, 1)) == "011"

    def test_negotiable_dimensions_listed(self):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        profile = profiler.profile(mixed_trace((True, False, False)))
        assert profile.negotiable_dimensions() == (PerfDimension.CPU,)

    def test_describe_readable(self):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        text = profiler.profile(mixed_trace((True, False, False))).describe()
        assert "CPU=negotiable" in text
        assert "MEMORY=non-negotiable" in text

    def test_missing_dimension_raises(self):
        profiler = CustomerProfiler(dimensions=PROFILING_DB_DIMENSIONS)
        with pytest.raises(KeyError):
            profiler.profile(mixed_trace((True, False, True)))  # no LOG_RATE

    def test_feature_matrix_shape(self):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        traces = [mixed_trace((True, False, True), seed=s) for s in range(4)]
        assert profiler.feature_matrix(traces).shape == (4, 3)

    def test_enumeration_clustering_labels(self):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        traces = [
            mixed_trace((True, True, True)),
            mixed_trace((False, False, False)),
        ]
        labels = profiler.cluster(traces, method="enumeration")
        assert labels.tolist() == [0, 7]  # 000 -> 0, 111 -> 7

    @pytest.mark.parametrize("method", ["kmeans", "hierarchical"])
    def test_generic_clustering_separates_extremes(self, method):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        spiky = [mixed_trace((True, True, True), seed=s) for s in range(3)]
        steady = [mixed_trace((False, False, False), seed=s) for s in range(3)]
        labels = profiler.cluster(spiky + steady, method=method, n_clusters=2, rng=0)
        assert len(set(labels[:3].tolist())) == 1
        assert len(set(labels[3:].tolist())) == 1
        assert labels[0] != labels[3]

    def test_unknown_method_rejected(self):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        with pytest.raises(ValueError, match="unknown clustering"):
            profiler.cluster([mixed_trace((True, True, True))], method="dbscan")

    def test_empty_inputs_rejected(self):
        profiler = CustomerProfiler(dimensions=PROFILING_MI_DIMENSIONS)
        with pytest.raises(ValueError):
            profiler.cluster([], method="enumeration")
        with pytest.raises(ValueError):
            CustomerProfiler(dimensions=())


def loop_outcome(profiler, trace):
    """The per-dimension ``summarize`` loop ``profile`` must reproduce.

    Returns ``(features bytes, negotiable, group key)``, or the type and
    text of the exception the loop raises.
    """
    try:
        features, negotiable = [], []
        for dim in profiler.dimensions:
            dim_features, dim_negotiable = profiler.summarizer.summarize(trace[dim])
            features.append(dim_features)
            negotiable.append(dim_negotiable)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    key = tuple(0 if flag else 1 for flag in negotiable)
    return np.concatenate(features).tobytes(), tuple(negotiable), key


def profile_outcome(profiler, trace):
    try:
        profile = profiler.profile(trace)
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return profile.features.tobytes(), profile.negotiable, profile.group_key


def counter_trace(n_samples, seed, dims=PROFILING_DB_DIMENSIONS, entity_id="c"):
    """Non-negative counters: a noisy level, with spikes on some dimensions."""
    rng = np.random.default_rng(seed)
    series = {}
    for column, dim in enumerate(dims):
        values = np.abs(rng.normal(3.0 + column, 0.5 + column, size=n_samples))
        if column % 2 == 0 and n_samples > 2:
            values[rng.choice(n_samples, size=max(1, n_samples // 20), replace=False)] *= 6.0
        series[dim] = TimeSeries(values=values)
    return PerformanceTrace(series=series, entity_id=entity_id)


def constant_trace(n_samples, levels, dims=PROFILING_DB_DIMENSIONS):
    return PerformanceTrace(
        series={
            dim: TimeSeries(values=np.full(n_samples, level))
            for dim, level in zip(dims, levels)
        },
        entity_id="flat",
    )


SUMMARIZER_IDS = [summarizer.name for summarizer in ALL_SUMMARIZERS]


class TestProfileMatchesPerDimensionLoop:
    """``profile`` (one broadcast per trace) against the per-dimension loop."""

    @pytest.mark.parametrize("summarizer", ALL_SUMMARIZERS, ids=SUMMARIZER_IDS)
    @pytest.mark.parametrize("n_samples", [1, 2, 12, 336])
    def test_random_windows(self, summarizer, n_samples):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=summarizer)
        for seed in range(3):
            trace = counter_trace(n_samples, seed)
            assert profile_outcome(profiler, trace) == loop_outcome(profiler, trace)

    @pytest.mark.parametrize("summarizer", ALL_SUMMARIZERS, ids=SUMMARIZER_IDS)
    @pytest.mark.parametrize("n_samples", [1, 12, 336])
    def test_constant_windows(self, summarizer, n_samples):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=summarizer)
        trace = constant_trace(n_samples, (2.0, 0.5, 7.0, 1.0))
        assert profile_outcome(profiler, trace) == loop_outcome(profiler, trace)

    @pytest.mark.parametrize("n_samples", [1, 12, 336])
    def test_max_auc_all_idle_window(self, n_samples):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=MaxAucSummarizer())
        trace = constant_trace(n_samples, (0.0, 0.0, 0.0, 0.0))
        outcome = profile_outcome(profiler, trace)
        assert outcome == loop_outcome(profiler, trace)
        assert outcome[1] == (True,) * 4  # idle windows read AUC 1.0

    def test_combined_two_features_per_dimension(self):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=CombinedSummarizer())
        trace = counter_trace(48, seed=5)
        profile = profiler.profile(trace)
        assert profile.features.shape == (2 * len(PROFILING_DB_DIMENSIONS),)
        assert profile_outcome(profiler, trace) == loop_outcome(profiler, trace)

    def test_max_auc_negative_samples_raise_the_loop_error(self):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=MaxAucSummarizer())
        series = dict(counter_trace(40, seed=6).series)
        values = series[PerfDimension.IOPS].values.copy()
        values[3] = -2.0
        series[PerfDimension.IOPS] = TimeSeries(values=values)
        trace = PerformanceTrace(series=series, entity_id="negative")
        outcome = profile_outcome(profiler, trace)
        assert outcome[0] is ValueError
        assert "normalized into" in outcome[1]
        assert outcome == loop_outcome(profiler, trace)

    @pytest.mark.parametrize("summarizer", ALL_SUMMARIZERS, ids=SUMMARIZER_IDS)
    def test_missing_dimension_raises_the_same_key_error(self, summarizer):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=summarizer)
        trace = counter_trace(24, seed=7, dims=PROFILING_MI_DIMENSIONS)  # no LOG_RATE
        outcome = profile_outcome(profiler, trace)
        assert outcome[0] is KeyError
        assert outcome == loop_outcome(profiler, trace)

    @pytest.mark.parametrize("summarizer", ALL_SUMMARIZERS, ids=SUMMARIZER_IDS)
    def test_batch_of_mixed_lengths_in_shuffled_order(self, summarizer):
        profiler = CustomerProfiler(PROFILING_DB_DIMENSIONS, summarizer=summarizer)
        traces = [
            counter_trace(n_samples, seed=seed, entity_id=f"c{seed}")
            for seed, n_samples in enumerate([12, 336, 48, 336, 12, 48, 12, 336, 48])
        ]
        order = np.random.default_rng(8).permutation(len(traces))
        traces = [traces[index] for index in order]
        batch = profiler.profile_batch(traces)
        assert [profile.entity_id for profile in batch] == [t.entity_id for t in traces]
        for trace, profile in zip(traces, batch):
            expected = loop_outcome(profiler, trace)
            assert (profile.features.tobytes(), profile.negotiable, profile.group_key) == (
                expected
            )
            assert profile_outcome(profiler, trace) == expected


def curve_from(probs, vcores=(2, 4, 8, 16, 32)):
    skus = [make_sku(v) for v in vcores]
    return PricePerformanceCurve.from_probabilities(skus, np.asarray(probs, dtype=float))


class TestGroupScoreModel:
    def fit_model(self):
        observations = [
            GroupObservation((0, 0, 0), 0.15),
            GroupObservation((0, 0, 0), 0.17),
            GroupObservation((1, 1, 1), 0.0),
            GroupObservation((1, 1, 1), 0.004),
        ]
        return GroupScoreModel.fit(observations)

    def test_group_means(self):
        model = self.fit_model()
        assert model.target_probability((0, 0, 0)) == pytest.approx(0.16)
        assert model.target_probability((1, 1, 1)) == pytest.approx(0.002)

    def test_table3_score_columns(self):
        model = self.fit_model()
        stats = model.statistics_for((0, 0, 0))
        assert stats.score_mean == pytest.approx(0.84)
        assert stats.count == 2

    def test_unseen_group_uses_fallback(self):
        model = self.fit_model()
        pooled = np.mean([0.15, 0.17, 0.0, 0.004])
        assert model.target_probability((0, 1, 0)) == pytest.approx(pooled)

    def test_recommend_respects_constraint(self):
        """Equation (6): P(SKU) <= P_g."""
        model = self.fit_model()
        curve = curve_from([0.4, 0.2, 0.1, 0.05, 0.0])
        point = model.recommend(curve, (0, 0, 0))  # target 0.16
        assert 1.0 - point.score <= 0.16 + 1e-9
        # Closest-below-target is the 0.1 point (8 vCores).
        assert point.sku.vcores == 8

    def test_recommend_strict_group_goes_full_performance(self):
        model = self.fit_model()
        curve = curve_from([0.4, 0.2, 0.1, 0.05, 0.0])
        point = model.recommend(curve, (1, 1, 1))  # target 0.002
        assert point.sku.vcores == 32

    def test_recommend_flat_curve_picks_cheapest(self):
        model = self.fit_model()
        curve = curve_from([0.0, 0.0, 0.0, 0.0, 0.0])
        assert model.recommend(curve, (0, 0, 0)).sku.vcores == 2

    def test_recommend_infeasible_falls_back_to_closest(self):
        model = self.fit_model()
        curve = curve_from([0.9, 0.8, 0.7, 0.6, 0.5])
        point = model.recommend(curve, (1, 1, 1))  # nothing <= 0.002
        assert point.sku.vcores == 32  # closest overall

    @staticmethod
    def model_targeting(p_mean):
        stats = GroupStatistics(p_mean=p_mean, p_std=0.0, count=1)
        return GroupScoreModel(groups={(0, 0, 0): stats}, fallback=stats)

    def test_recommend_near_ties_resolve_to_the_cheapest(self):
        """Gaps within 1e-12 of the best so far never displace it.

        The 0.1 point (rank 3) is exactly on target, but ranks 1 and 2
        are within 1e-12 of it and cheaper: the scan keeps rank 1.  An
        argmin over the gaps would pick rank 3.
        """
        model = self.model_targeting(0.1)
        curve = curve_from([0.5, 0.1 + 4e-13, 0.1 + 2e-13, 0.1, 0.0])
        assert model.recommend(curve, (0, 0, 0)).sku.vcores == 4

    def test_recommend_tie_rule_compares_with_the_best_so_far(self):
        """Consecutive gaps 0.8e-12 apart: only a 1e-12 gain moves the pick.

        Nothing is feasible (every point throttles > 1e-12 above the
        target), so the overall rule decides.  Against the best so far
        rank 2 (3.4e-12 vs 5.0e-12) wins and rank 3 (2.6e-12 vs
        3.4e-12) does not; comparing with the previous point instead
        would keep rank 0, and an argmin would take rank 3.
        """
        model = self.model_targeting(0.1)
        gaps = np.array([5.0, 4.2, 3.4, 2.6]) * 1e-12
        curve = curve_from(0.1 + gaps, vcores=(2, 4, 8, 16))
        point = model.recommend(curve, (0, 0, 0))
        assert point.sku.vcores == 8
        assert point == curve.points[2]

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            GroupScoreModel.fit([])

    def test_observation_validation(self):
        with pytest.raises(ValueError):
            GroupObservation((0,), 1.5)

    def test_describe_contains_groups(self):
        text = self.fit_model().describe()
        assert "000" in text and "111" in text
