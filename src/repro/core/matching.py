"""Profile matching: from group membership to one optimal SKU.

Implements equations (3)-(6) of the paper.  For each customer group
``g`` the model learns the expected throttling probability at the
group's chosen SKUs,

    P_g = E_{n : g_n = g} [ P_n(SKU*_n) ]            (3)

and recommends, for a new customer ``n'`` in group ``g``, the SKU

    argmin_i | P_n'(SKU_i) - P_g |                   (4)
    subject to  P_n'(SKU_i) <= P_g                   (6)

i.e. the SKU whose throttling probability is closest to -- but not
worse than -- what similar migrated customers settled on.  When no
curve point satisfies the constraint (the whole curve throttles more
than the group target), the closest point overall is returned,
mirroring the deployed engine's always-recommend contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .curve import CurvePoint, PricePerformanceCurve
from .profiler import GroupKey, group_key_to_label

__all__ = ["GroupObservation", "GroupStatistics", "GroupScoreModel"]


@dataclass(frozen=True)
class GroupObservation:
    """One migrated customer's contribution to the group statistics.

    Attributes:
        group_key: The customer's negotiability group.
        throttling_probability: ``P_n(SKU*_n)`` -- the throttling
            probability of the SKU the customer fixed, read off their
            own price-performance curve.
    """

    group_key: GroupKey
    throttling_probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.throttling_probability <= 1.0:
            raise ValueError(
                f"throttling probability must be in [0, 1], "
                f"got {self.throttling_probability!r}"
            )


@dataclass(frozen=True)
class GroupStatistics:
    """Per-group summary of chosen-SKU throttling (paper Table 3).

    Attributes:
        p_mean: ``P_g`` -- mean throttling probability (equation (3)).
        p_std: Standard deviation of the members' probabilities.
        count: Number of customers in the group.
    """

    p_mean: float
    p_std: float
    count: int

    @property
    def score_mean(self) -> float:
        """Mean score ``1 - P`` (the "Average Score" column of Table 3)."""
        return 1.0 - self.p_mean

    @property
    def score_std(self) -> float:
        return self.p_std


@dataclass(frozen=True)
class GroupScoreModel:
    """Learned group targets plus the equation-(4)-(6) selector.

    Attributes:
        groups: Statistics per group key.
        fallback: Statistics pooled across all observations, used for
            groups never seen in training.
    """

    groups: Mapping[GroupKey, GroupStatistics]
    fallback: GroupStatistics

    @classmethod
    def fit(cls, observations: Iterable[GroupObservation]) -> "GroupScoreModel":
        """Estimate ``P_g`` per group from migrated-customer data.

        Raises:
            ValueError: If no observations are supplied.
        """
        by_group: dict[GroupKey, list[float]] = {}
        everything: list[float] = []
        for observation in observations:
            by_group.setdefault(observation.group_key, []).append(
                observation.throttling_probability
            )
            everything.append(observation.throttling_probability)
        if not everything:
            raise ValueError("cannot fit a group model from zero observations")
        groups = {
            key: GroupStatistics(
                p_mean=float(np.mean(values)),
                p_std=float(np.std(values)),
                count=len(values),
            )
            for key, values in by_group.items()
        }
        fallback = GroupStatistics(
            p_mean=float(np.mean(everything)),
            p_std=float(np.std(everything)),
            count=len(everything),
        )
        return cls(groups=groups, fallback=fallback)

    def statistics_for(self, group_key: GroupKey) -> GroupStatistics:
        """Group statistics, falling back to the pooled estimate."""
        return self.groups.get(group_key, self.fallback)

    def target_probability(self, group_key: GroupKey) -> float:
        """``P_g`` for the group (equation (3))."""
        return self.statistics_for(group_key).p_mean

    def recommend(
        self, curve: PricePerformanceCurve, group_key: GroupKey
    ) -> CurvePoint:
        """Pick the optimal SKU for a profiled customer (eqs. (4)-(6)).

        The point whose throttling probability is closest to the group
        target without exceeding it; ties (gaps within 1e-12) resolve
        to the cheapest SKU.  If nothing satisfies the constraint, the
        overall closest point is returned.  Only the chosen point is
        built.

        Vectorised over the curve: the gaps and the feasibility mask
        are arrays, and the answer is the first (cheapest) feasible
        rank -- the only possible outcome of the scalar scan
        (:meth:`_scan`) unless a later feasible rank's gap beats it by
        more than 1e-12.  The scan runs only then, or when no rank is
        feasible, so the result is the scan's for every curve,
        including explicit-point curves whose scores dip by up to
        1e-12.  On a running-max curve the feasible ranks' gaps never
        shrink by more than that, so there the scan runs only when the
        whole curve throttles more than the target.
        """
        target = self.target_probability(group_key)
        # Selection deliberately runs in monotone score space, NOT raw
        # throttling_probability (which training and reporting use): a
        # lifted point's 1 - score is an exact float copy of its
        # cheaper dominator's, so it ties and loses to the cheaper SKU
        # -- the paper's guarantee that customers cannot be steered to
        # a more expensive, less performant target.  Raw-probability
        # selection would let a dominated point win on gap alone.
        probabilities = 1.0 - curve.scores()
        feasible = (probabilities <= target + 1e-12).nonzero()[0]
        if feasible.size:
            gaps = np.abs(probabilities[feasible] - target)
            bar = gaps[0] - 1e-12
            # An infinite gap never wins the scan's strict comparison
            # against its infinite starting gap: leave that to the scan.
            if bar < math.inf and not (gaps[1:] < bar).any():
                return curve.point_at(int(feasible[0]))
        return curve.point_at(self._scan(curve.scores().tolist(), target))

    @staticmethod
    def _scan(scores: list[float], target: float) -> int:
        """The scalar selection scan: the chosen rank of ``scores``.

        A pick changes only on a gap improvement of more than 1e-12,
        so the cheapest of near-tied points wins.
        """
        feasible_rank: int | None = None
        feasible_gap = math.inf
        overall_rank = 0
        overall_gap = math.inf
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

    def describe(self) -> str:
        """Table-3-style rendering of the learned group scores."""
        lines = ["group  count  avg_score  (std)"]
        for key in sorted(self.groups):
            stats = self.groups[key]
            lines.append(
                f"{group_key_to_label(key):>5}  {stats.count:>5}  "
                f"{stats.score_mean:>9.4f}  ({stats.score_std:.3f})"
            )
        return "\n".join(lines)
