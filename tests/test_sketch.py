"""The merging quantile sketch: documented error bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.sketch import MergingQuantileSketch


def rank_tolerance(sketch: MergingQuantileSketch) -> float:
    """The documented CDF rank-error bound of a sketch."""
    return 1.0 / (sketch.compression - 1)


class TestMergingQuantileSketch:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3000),
        scale=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    )
    def test_cdf_within_documented_bound(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        stream = rng.lognormal(0.0, 1.0, n) * scale
        sketch = MergingQuantileSketch()
        sketch.extend(stream)
        assert sketch.n == n
        bound = rank_tolerance(sketch) + 1e-12
        for threshold in np.quantile(stream, [0.0, 0.1, 0.5, 0.9, 0.99, 1.0]):
            exact = float(np.mean(stream <= threshold))
            assert abs(sketch.cdf(threshold) - exact) <= bound

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3000),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_rank_error_within_bound(self, seed, n, q):
        rng = np.random.default_rng(seed)
        stream = rng.normal(50.0, 20.0, n)
        sketch = MergingQuantileSketch()
        sketch.extend(stream)
        value = sketch.quantile(q)
        rank_below = float(np.mean(stream < value))
        rank_at_or_below = float(np.mean(stream <= value))
        bound = rank_tolerance(sketch) + 1.0 / n + 1e-12
        # q must sit within the value's true rank interval, widened by
        # the sketch tolerance.
        assert rank_below - bound <= q <= rank_at_or_below + bound

    def test_fraction_at_least_is_conservative(self):
        rng = np.random.default_rng(7)
        stream = rng.normal(0.0, 1.0, 2000)
        sketch = MergingQuantileSketch()
        sketch.extend(stream)
        for threshold in (-1.0, 0.0, 0.5, 2.0):
            exact = float(np.mean(stream >= threshold))
            estimate = sketch.fraction_at_least(threshold)
            assert estimate >= exact - 1e-12  # compression only raises it
            assert estimate <= exact + rank_tolerance(sketch) + 1e-12

    def test_rejects_non_finite_samples(self):
        sketch = MergingQuantileSketch()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                sketch.update(bad)
        assert sketch.n == 0  # nothing was absorbed

    def test_validation(self):
        with pytest.raises(ValueError, match="block_size"):
            MergingQuantileSketch(block_size=1)
        with pytest.raises(ValueError, match="compression"):
            MergingQuantileSketch(compression=1)
        sketch = MergingQuantileSketch()
        with pytest.raises(ValueError, match="no samples"):
            sketch.cdf(0.0)
        with pytest.raises(ValueError, match="no samples"):
            sketch.quantile(0.5)
        sketch.update(1.0)
        with pytest.raises(ValueError, match="quantile"):
            sketch.quantile(1.5)
