"""Unit tests for the six negotiability summarizers."""

import numpy as np
import pytest

from repro.core import (
    ALL_SUMMARIZERS,
    CombinedSummarizer,
    MaxAucSummarizer,
    MinMaxAucSummarizer,
    OutlierSummarizer,
    StlSummarizer,
    ThresholdingSummarizer,
)
from repro.telemetry import TimeSeries
from repro.workloads import DiurnalPattern, PlateauPattern, SpikyPattern

N = 1008  # one week at 10-minute cadence


def series(pattern, seed=0):
    return TimeSeries(values=pattern.generate(N, 10.0, rng=seed))


SPIKY = series(SpikyPattern(base=1.0, peak=6.0, spike_probability=0.006))
PLATEAU = series(PlateauPattern(level=3.0))
DIURNAL = series(DiurnalPattern(trough=1.5, peak=3.0, noise=0.04))


class TestThresholding:
    def test_spiky_is_negotiable(self):
        assert ThresholdingSummarizer().is_negotiable(SPIKY)

    def test_plateau_is_not_negotiable(self):
        assert not ThresholdingSummarizer().is_negotiable(PLATEAU)

    def test_diurnal_is_not_negotiable(self):
        """Daily sustained peaks are demand, not transient spikes."""
        assert not ThresholdingSummarizer().is_negotiable(DIURNAL)

    def test_constant_series_not_negotiable(self):
        constant = TimeSeries(values=np.full(100, 2.0))
        summarizer = ThresholdingSummarizer()
        assert summarizer.near_peak_fraction(constant) == 1.0
        assert not summarizer.is_negotiable(constant)

    def test_rho_sensitivity(self):
        """Larger rho admits more dimensions as negotiable."""
        fraction = ThresholdingSummarizer().near_peak_fraction(DIURNAL)
        assert not ThresholdingSummarizer(rho=fraction / 2).is_negotiable(DIURNAL)
        assert ThresholdingSummarizer(rho=fraction * 2).is_negotiable(DIURNAL)

    def test_features_are_near_peak_fraction(self):
        summarizer = ThresholdingSummarizer()
        assert summarizer.features(SPIKY)[0] == pytest.approx(
            summarizer.near_peak_fraction(SPIKY)
        )


class TestAucSummarizers:
    def test_minmax_spiky_negotiable(self):
        assert MinMaxAucSummarizer().is_negotiable(SPIKY)

    def test_minmax_plateau_not_negotiable(self):
        assert not MinMaxAucSummarizer().is_negotiable(PLATEAU)

    def test_max_scaler_separates_spikes(self):
        summarizer = MaxAucSummarizer()
        assert summarizer.auc(SPIKY) > summarizer.auc(PLATEAU)

    def test_max_plateau_not_negotiable(self):
        assert not MaxAucSummarizer().is_negotiable(PLATEAU)


class TestOutlierSummarizer:
    def test_spiky_negotiable(self):
        assert OutlierSummarizer().is_negotiable(SPIKY)

    def test_plateau_not_negotiable(self):
        assert not OutlierSummarizer().is_negotiable(PLATEAU)


class TestStlSummarizer:
    def test_diurnal_not_negotiable(self):
        """Seasonal demand is explained variance, not negotiable spikes."""
        assert not StlSummarizer().is_negotiable(DIURNAL)

    def test_spiky_negotiable(self):
        assert StlSummarizer().is_negotiable(SPIKY)

    def test_short_series_falls_back(self):
        short = TimeSeries(values=np.sin(np.linspace(0, 12, 60)) + 2.0)
        # Must not raise despite being shorter than 2x the daily period.
        StlSummarizer().is_negotiable(short)


class TestCombined:
    def test_features_concatenated(self):
        combined = CombinedSummarizer()
        assert combined.features(SPIKY).shape == (2,)

    def test_requires_agreement(self):
        combined = CombinedSummarizer()
        assert combined.is_negotiable(SPIKY)
        assert not combined.is_negotiable(PLATEAU)


class TestRegistry:
    def test_six_strategies(self):
        """Table 4 compares six summarization strategies."""
        assert len(ALL_SUMMARIZERS) == 6
        assert len({s.name for s in ALL_SUMMARIZERS}) == 6

    @pytest.mark.parametrize("summarizer", ALL_SUMMARIZERS, ids=lambda s: s.name)
    def test_all_agree_on_canonical_cases(self, summarizer):
        """Every strategy labels the canonical spiky series negotiable
        and the canonical plateau non-negotiable."""
        assert summarizer.is_negotiable(SPIKY)
        assert not summarizer.is_negotiable(PLATEAU)

    @pytest.mark.parametrize("summarizer", ALL_SUMMARIZERS, ids=lambda s: s.name)
    def test_features_finite(self, summarizer):
        for ts in (SPIKY, PLATEAU, DIURNAL):
            features = summarizer.features(ts)
            assert np.all(np.isfinite(features))

    def test_summarize_one_pass_matches_two_pass_for_all_summarizers(self):
        from repro.core.negotiability import ALL_SUMMARIZERS

        rng = np.random.default_rng(13)
        series = TimeSeries(values=np.abs(rng.normal(5.0, 3.0, 300)))
        for summarizer in ALL_SUMMARIZERS:
            features, negotiable = summarizer.summarize(series)
            np.testing.assert_array_equal(features, summarizer.features(series))
            assert negotiable == summarizer.is_negotiable(series)
