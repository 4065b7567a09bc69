"""Curve-shape heuristics for picking one SKU (paper Section 3.2).

Before the profiling module, the paper explored three heuristics that
read the recommendation straight off the price-performance curve:

* *Largest Performance Increase* -- the SKU after which further spend
  buys no meaningful score gain (gain <= epsilon);
* *Largest Slope* -- the SKU at the steepest score-per-dollar step;
* *Performance Threshold* -- the first SKU whose score reaches gamma.

The paper demonstrates on Figure 5 that the three disagree on complex
curves and none reliably matches the expert-vetted choice; they are
retained here both as selectable strategies and as the foil for the
profiling-based selection in the Figure-5 benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import CurvePoint, PricePerformanceCurve

__all__ = [
    "largest_performance_increase",
    "largest_slope",
    "performance_threshold",
    "HeuristicChoice",
]

#: Default epsilon of the largest-performance-increase rule (paper: .001).
DEFAULT_EPSILON = 0.001

#: Default gamma of the performance-threshold rule (paper example: 95 %).
DEFAULT_GAMMA = 0.95


@dataclass(frozen=True)
class HeuristicChoice:
    """A heuristic's pick with its provenance for explanations."""

    point: CurvePoint
    heuristic: str
    detail: str

    @property
    def sku_name(self) -> str:
        return self.point.sku.name


def largest_performance_increase(
    curve: PricePerformanceCurve, epsilon: float = DEFAULT_EPSILON
) -> HeuristicChoice:
    """Pick the SKU after which score gains become insignificant.

    Walks the curve in price order and selects the point following the
    last consecutive pair whose score difference exceeds ``epsilon``
    (the paper's ``P(SKU_i) - P(SKU_{i-1}) <= eps`` stopping rule).
    On a flat curve this is the cheapest SKU.
    """
    points = curve.points
    chosen = points[0]
    for previous, current in zip(points, points[1:]):
        if current.score - previous.score > epsilon:
            chosen = current
    return HeuristicChoice(
        point=chosen,
        heuristic="largest_performance_increase",
        detail=f"last point with score gain > {epsilon:g}",
    )


def largest_slope(curve: PricePerformanceCurve) -> HeuristicChoice:
    """Pick the SKU at the steepest score-per-dollar increase.

    Maximizes ``(score_i - score_{i-1}) / (price_i - price_{i-1})``
    over consecutive curve points.  Degenerate single-point curves
    return that point.
    """
    points = curve.points
    chosen = points[0]
    best_slope = -1.0
    for previous, current in zip(points, points[1:]):
        price_step = current.monthly_price - previous.monthly_price
        if price_step <= 0:
            continue
        slope = (current.score - previous.score) / price_step
        if slope > best_slope:
            best_slope = slope
            chosen = current
    return HeuristicChoice(
        point=chosen,
        heuristic="largest_slope",
        detail=f"max score/price slope = {max(best_slope, 0.0):.3g} per $",
    )


def performance_threshold(
    curve: PricePerformanceCurve, gamma: float = DEFAULT_GAMMA
) -> HeuristicChoice:
    """Pick the first (cheapest) SKU whose score reaches ``gamma``.

    Falls back to the best-scoring point when nothing reaches the
    threshold (so that a recommendation is always produced).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma!r}")
    point = curve.cheapest_at_least(gamma)
    if point is None:
        point = curve.point_at(-1)
        detail = f"no SKU reaches score {gamma:g}; best available"
    else:
        detail = f"first SKU with score >= {gamma:g}"
    return HeuristicChoice(point=point, heuristic="performance_threshold", detail=detail)
