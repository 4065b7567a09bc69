"""Expert SKU-choice model for simulated migrated customers.

The paper's ground truth is behavioural: migrated customers settled on
SKUs "vetted by migration experts", and where those choices land on
the price-performance curve encodes their negotiability (Section 3.3,
Table 3).  To back-test Doppler without the proprietary fleet we need
a generative model of that behaviour.  The model here encodes exactly
what the paper reports experts doing:

* each *negotiable* dimension lets the customer tolerate a few percent
  of throttling in exchange for savings; each *non-negotiable*
  dimension contributes essentially zero tolerance;
* the customer settles on the cheapest SKU whose throttling stays
  within their tolerance and is closest to it (cost-conscious but not
  reckless);
* a small fraction of choices are noisy -- the customer buys one step
  more headroom than the tolerance rule implies;
* a separate ~10 % segment is *over-provisioned*: they park far past
  the cheapest full-performance point (the paper saw customers paying
  for 4x their max needs).

Because the tolerance mechanism matches the semantics Doppler's group
matching assumes -- not its code path; the customer model works from
ground-truth negotiability flags and per-customer noise, while the
engine must *infer* the group from counters and use group-average
targets -- back-testing measures something real: how well profiling
plus group averaging recovers individually-noisy expert choices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.curve import CurvePoint, PricePerformanceCurve
from ..ml.bootstrap import resolve_rng

__all__ = ["ExpertChoiceModel"]


@dataclass(frozen=True)
class ExpertChoiceModel:
    """Generative model of migrated customers' SKU choices.

    Attributes:
        negotiable_tolerance: (low, high) throttling tolerance added
            per negotiable dimension, drawn uniformly per customer.
        strict_tolerance: (low, high) tolerance per non-negotiable
            dimension.
        upgrade_noise: Probability the customer buys one curve step
            beyond the tolerance-optimal SKU.
        over_provision_rank_range: (min, max) extra price ranks an
            over-provisioned customer parks beyond the cheapest
            full-performance point.
    """

    negotiable_tolerance: tuple[float, float] = (0.03, 0.08)
    strict_tolerance: tuple[float, float] = (0.0005, 0.002)
    upgrade_noise: float = 0.03
    over_provision_rank_range: tuple[int, int] = (3, 12)

    def throttling_tolerance(
        self,
        negotiable_flags: tuple[bool, ...],
        rng: int | np.random.Generator | None = None,
    ) -> float:
        """Draw one customer's total throttling tolerance."""
        generator = resolve_rng(rng)
        tolerance = 0.0
        for negotiable in negotiable_flags:
            low, high = (
                self.negotiable_tolerance if negotiable else self.strict_tolerance
            )
            tolerance += float(generator.uniform(low, high))
        return tolerance

    def choose(
        self,
        curve: PricePerformanceCurve,
        negotiable_flags: tuple[bool, ...],
        over_provisioned: bool = False,
        rng: int | np.random.Generator | None = None,
    ) -> CurvePoint:
        """Pick the SKU this simulated customer settles on.

        Args:
            curve: The customer's price-performance curve.
            negotiable_flags: Ground-truth negotiability per profiled
                dimension.
            over_provisioned: Whether this customer belongs to the
                over-provisioned segment.
            rng: Seed or generator.
        """
        generator = resolve_rng(rng)
        if over_provisioned:
            return self._over_provisioned_choice(curve, generator)
        points = curve.points

        tolerance = self.throttling_tolerance(negotiable_flags, generator)
        chosen_index = self._tolerance_optimal_index(points, tolerance)
        if generator.random() < self.upgrade_noise:
            chosen_index = min(chosen_index + 1, len(points) - 1)
        return points[chosen_index]

    @staticmethod
    def _tolerance_optimal_index(
        points: tuple[CurvePoint, ...], tolerance: float
    ) -> int:
        """Cheapest point throttling within tolerance and closest to it."""
        best_index: int | None = None
        best_gap = float("inf")
        for index, point in enumerate(points):
            probability = 1.0 - point.score
            if probability <= tolerance + 1e-12:
                gap = abs(probability - tolerance)
                if gap < best_gap - 1e-12:
                    best_gap = gap
                    best_index = index
        if best_index is not None:
            return best_index
        # Nothing within tolerance: take the best-performing point.
        scores = [point.score for point in points]
        return int(np.argmax(scores))

    def _over_provisioned_choice(
        self, curve: PricePerformanceCurve, generator: np.random.Generator
    ) -> CurvePoint:
        full = curve.cheapest_full_performance()
        base_rank = curve.position_of(full.sku.name) if full is not None else 0
        low, high = self.over_provision_rank_range
        extra = int(generator.integers(low, high + 1))
        rank = min(base_rank + extra, len(curve) - 1)
        return curve.point_at(rank)
