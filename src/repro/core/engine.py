"""The Doppler engine facade (paper Figure 3).

Wires the two modules together: the Price-Performance Modeler builds
the personalized curve, the Customer Profiler assigns the workload to
a negotiability group, and the learned group-score model picks the one
optimal SKU off the curve (equations (3)-(6)).  The facade also
exposes the confidence score and the right-sizing (over-provisioning)
assessment that Section 5.1 describes for existing cloud customers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..catalog.catalog import SkuCatalog
from ..catalog.models import DeploymentType
from ..telemetry.counters import (
    PROFILING_DB_DIMENSIONS,
    PROFILING_MI_DIMENSIONS,
    PerfDimension,
)
from ..telemetry.trace import PerformanceTrace
from .confidence import ConfidenceResult, confidence_score
from .curve import PricePerformanceCurve
from .heuristics import performance_threshold
from .matching import GroupObservation, GroupScoreModel
from .negotiability import NegotiabilitySummarizer, ThresholdingSummarizer
from .ppm import PricePerformanceModeler
from .profiler import CustomerProfile, CustomerProfiler
from .throttling import EmpiricalThrottlingEstimator, ThrottlingEstimator
from .types import CloudCustomerRecord, DopplerRecommendation, OverProvisionReport

__all__ = ["DopplerEngine"]

#: Price-rank slack past the cheapest full-performance point beyond
#: which a customer counts as over-provisioned (DESIGN.md section 5).
_OVERPROVISION_RANK_SLACK = 2


def _profile_or_error(profiler: CustomerProfiler, trace: PerformanceTrace):
    """One trace's profile, or the exception profiling it raised."""
    try:
        return profiler.profile(trace)
    except Exception as exc:  # noqa: BLE001 - raised later, for its own trace
        return exc


@dataclass
class DopplerEngine:
    """End-to-end SKU recommendation engine.

    Typical use::

        engine = DopplerEngine(catalog=SkuCatalog.default())
        engine.fit(migrated_customers)          # learn group targets
        result = engine.recommend(trace, DeploymentType.SQL_DB)
        print(result.explain())

    Attributes:
        catalog: Candidate SKUs.
        summarizer: Negotiability strategy for profiling; defaults to
            the deployed thresholding algorithm.
        estimator: Joint throttling estimator; defaults to the
            production non-parametric estimator.
    """

    catalog: SkuCatalog
    summarizer: NegotiabilitySummarizer = field(default_factory=ThresholdingSummarizer)
    estimator: ThrottlingEstimator = field(default_factory=EmpiricalThrottlingEstimator)
    _group_models: dict[DeploymentType, GroupScoreModel] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self.ppm = PricePerformanceModeler(catalog=self.catalog, estimator=self.estimator)
        self._profilers = {
            DeploymentType.SQL_DB: CustomerProfiler(
                dimensions=PROFILING_DB_DIMENSIONS, summarizer=self.summarizer
            ),
            DeploymentType.SQL_MI: CustomerProfiler(
                dimensions=PROFILING_MI_DIMENSIONS, summarizer=self.summarizer
            ),
        }

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def profiler_for(self, deployment: DeploymentType) -> CustomerProfiler:
        return self._profilers[deployment]

    def profile_many(
        self, items: Sequence[tuple[DeploymentType, PerformanceTrace]]
    ) -> list:
        """Batched negotiability profiles of ``(deployment, trace)`` items.

        The one batched-profile path of the fleet's columnar batch and
        the live watch's tick-batched refreshes.  Groups the items by
        deployment (each deployment has its own profiler) and runs each
        group through one
        :meth:`~repro.core.profiler.CustomerProfiler.profile_batch`
        call, which stacks same-length windows into one summarizer
        broadcast.  If that call raises (a trace lacks a profiled
        dimension, say), the group is profiled trace by trace instead,
        so each failure stays with its own trace.  Results come back
        aligned with ``items``: a profile, or the exception profiling
        that trace raised.
        """
        by_deployment: dict[DeploymentType, list[int]] = {}
        for index, (deployment, _) in enumerate(items):
            by_deployment.setdefault(deployment, []).append(index)
        profiles: list = [None] * len(items)
        for deployment, indices in by_deployment.items():
            profiler = self.profiler_for(deployment)
            traces = [items[index][1] for index in indices]
            try:
                batch = profiler.profile_batch(traces)
            except Exception:  # noqa: BLE001 - re-raised per trace below
                batch = [_profile_or_error(profiler, trace) for trace in traces]
            for index, profile in zip(indices, batch):
                profiles[index] = profile
        return profiles

    def fit(
        self,
        records: Iterable[CloudCustomerRecord],
        exclude_over_provisioned: bool = True,
    ) -> "DopplerEngine":
        """Learn per-group throttling targets from migrated customers.

        Mirrors the paper's training protocol (Section 5.2): keep
        customers settled on a SKU for >= 40 days, optionally drop the
        over-provisioned ones, build each customer's curve, locate
        their chosen SKU on it, and average the observed throttling
        probabilities per negotiability group.

        Args:
            records: Migrated-customer histories with chosen SKUs.
            exclude_over_provisioned: Drop customers whose chosen SKU
                sits far past the cheapest full-performance point
                (Table 5 excludes them; Table 4 keeps them).

        Returns:
            ``self``, with group models fitted per deployment type.
        """
        observations: dict[DeploymentType, list[GroupObservation]] = {
            deployment: [] for deployment in DeploymentType
        }
        for record in records:
            observation = self.training_observation(
                record, exclude_over_provisioned=exclude_over_provisioned
            )
            if observation is not None:
                observations[record.deployment].append(observation)
        for deployment, group_observations in observations.items():
            if group_observations:
                self._group_models[deployment] = GroupScoreModel.fit(group_observations)
        return self

    def training_observation(
        self,
        record: CloudCustomerRecord,
        exclude_over_provisioned: bool = True,
        curve: PricePerformanceCurve | None = None,
    ) -> GroupObservation | None:
        """One record's contribution to the group statistics, or None.

        The per-record body of :meth:`fit`, shared with distributed
        trainers (the fleet engine calls it per record with memoized
        curves).  Returns None when the record is filtered out: not
        settled >= 40 days, chosen SKU not on the curve, or (when
        excluding) over-provisioned.

        Args:
            record: A migrated-customer history.
            exclude_over_provisioned: The Section 5.2 exclusion.
            curve: Optional pre-built curve for the record's trace.
        """
        if not record.is_settled:
            return None
        if curve is None:
            curve = self.ppm.build_curve(record.trace, record.deployment)
        try:
            point = curve.point_for(record.chosen_sku_name)
        except KeyError:
            return None  # chosen SKU not a candidate (e.g. storage misfit)
        if exclude_over_provisioned and self.is_over_provisioned_on(curve, point.sku.name):
            return None
        profile = self.profiler_for(record.deployment).profile(record.trace)
        # Customer-chosen SKUs can sit on monotonicity-lifted points
        # (unlike engine selections, which always land on raw ones),
        # so record the point's real risk, not the lifted score.
        return GroupObservation(
            group_key=profile.group_key,
            throttling_probability=point.throttling_probability,
        )

    def group_model(self, deployment: DeploymentType) -> GroupScoreModel | None:
        """The fitted group-score model for a deployment, if any."""
        return self._group_models.get(deployment)

    def install_group_model(
        self, deployment: DeploymentType, model: GroupScoreModel
    ) -> None:
        """Install an externally fitted group-score model.

        Used by distributed trainers (e.g. the fleet engine, which
        builds observations in worker pools and aggregates them in the
        parent) and by offline-profile loaders.
        """
        self._group_models[deployment] = model

    def save_profiles(self, path, deployment: DeploymentType) -> None:
        """Persist the fitted group profiles as DMA static input.

        Paper Section 4: profiles are "calculated offline and saved in
        the application as static input".

        Raises:
            ValueError: If no model has been fitted for the deployment.
        """
        from .persistence import dump_group_model_json

        model = self._group_models.get(deployment)
        if model is None:
            raise ValueError(f"no fitted group model for {deployment.short_name}")
        dump_group_model_json(model, path)

    def load_profiles(self, path, deployment: DeploymentType) -> "DopplerEngine":
        """Load offline-trained group profiles (the deployment path)."""
        from .persistence import load_group_model_json

        self._group_models[deployment] = load_group_model_json(path)
        return self

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def recommend(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        file_sizes_gib: list[float] | None = None,
        with_confidence: bool = False,
        confidence_rounds: int = 12,
        rng: int | np.random.Generator | None = None,
        curve: PricePerformanceCurve | None = None,
        profile: "CustomerProfile | None" = None,
    ) -> DopplerRecommendation:
        """Produce the full Doppler recommendation for one workload.

        Args:
            trace: Customer performance history (>= 1 week advised).
            deployment: Target deployment type.
            file_sizes_gib: Optional MI data-file layout.
            with_confidence: Also compute the bootstrap confidence
                score (adds ``confidence_rounds`` full re-evaluations).
            confidence_rounds: Bootstrap rounds when enabled.
            rng: Seed or generator for the bootstrap.
            curve: Optional pre-built price-performance curve for this
                trace/deployment (the fleet engine passes memoized
                curves here); built fresh when omitted.
            profile: Optional pre-computed customer profile (the live
                recommender passes streaming-maintained profiles
                here); profiled from the trace when omitted.

        Returns:
            A :class:`DopplerRecommendation`.
        """
        if curve is None:
            curve = self.ppm.build_curve(trace, deployment, file_sizes_gib=file_sizes_gib)
        if profile is None:
            profile = self.profiler_for(deployment).profile(trace)
        model = self._group_models.get(deployment)
        notes: list[str] = []
        if model is not None:
            point = model.recommend(curve, profile.group_key)
            target = model.target_probability(profile.group_key)
            strategy = "profile_match"
            stats = model.statistics_for(profile.group_key)
            notes.append(
                f"Matched against {stats.count} migrated customers in group "
                f"{profile.group_label} (avg score {stats.score_mean:.3f})"
            )
        else:
            # Cold start: no migrated-customer data yet.  Fall back to
            # the cheapest full-performance point (flat/simple curves)
            # or the 95 % performance threshold heuristic.
            full = curve.cheapest_full_performance()
            if full is not None:
                point = full
                strategy = "cheapest_full_performance"
            else:
                choice = performance_threshold(curve)
                point = choice.point
                strategy = choice.heuristic
            # Report the point's raw probability: the monotonicity
            # adjustment can lift `score` above `1 - P`, and `score`
            # is only meaningful for ranking.
            target = point.throttling_probability
            notes.append("No migrated-customer profiles available; heuristic fallback")

        confidence: ConfidenceResult | None = None
        if with_confidence:
            confidence = confidence_score(
                trace,
                recommender=lambda t: self._recommend_sku_name(t, deployment, file_sizes_gib),
                n_rounds=confidence_rounds,
                rng=rng,
            )

        return DopplerRecommendation(
            sku=point.sku,
            curve=curve,
            profile=profile,
            target_probability=target,
            expected_throttling=point.throttling_probability,
            confidence=confidence,
            strategy=strategy,
            notes=tuple(notes),
        )

    def _recommend_sku_name(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        file_sizes_gib: list[float] | None,
    ) -> str:
        """Cheap inner recommendation used by the bootstrap."""
        curve = self.ppm.build_curve(trace, deployment, file_sizes_gib=file_sizes_gib)
        profile = self.profiler_for(deployment).profile(trace)
        model = self._group_models.get(deployment)
        if model is not None:
            return model.recommend(curve, profile.group_key).sku.name
        full = curve.cheapest_full_performance()
        if full is not None:
            return full.sku.name
        return performance_threshold(curve).point.sku.name

    # ------------------------------------------------------------------
    # Right-sizing existing cloud customers
    # ------------------------------------------------------------------
    def assess_over_provisioning(
        self,
        trace: PerformanceTrace,
        deployment: DeploymentType,
        current_sku_name: str,
    ) -> OverProvisionReport:
        """Right-sizing check for an existing cloud customer.

        Section 5.1 of the paper: ~10 % of cloud customers sit far
        beyond the cheapest point of their price-performance curve
        that already meets 100 % of their needs; some pay for 4x their
        max resource use.

        Raises:
            KeyError: If ``current_sku_name`` is not in the catalog.
        """
        current = self.catalog.by_name(current_sku_name)
        curve = self.ppm.build_curve(trace, deployment)
        full = curve.cheapest_full_performance()
        recommended = full.sku if full is not None else None
        over = self.is_over_provisioned_on(curve, current_sku_name)
        cpu_peak = (
            trace[PerfDimension.CPU].max() if PerfDimension.CPU in trace else 0.0
        )
        utilization = cpu_peak / current.limits.vcores
        savings = current.monthly_price - (recommended.monthly_price if recommended else 0.0)
        return OverProvisionReport(
            current_sku=current,
            recommended_sku=recommended,
            is_over_provisioned=over,
            utilization_ratio=utilization,
            monthly_savings=max(0.0, savings) if recommended else 0.0,
        )

    @staticmethod
    def is_over_provisioned_on(curve: PricePerformanceCurve, sku_name: str) -> bool:
        """Chosen SKU sits >= 2 price ranks past the cheapest 100 % point.

        Public so fleet-scale right-sizing can reuse the verdict on a
        memoized curve without rebuilding it.
        """
        full = curve.cheapest_full_performance()
        if full is None:
            return False
        try:
            chosen_rank = curve.position_of(sku_name)
        except KeyError:
            return False
        full_rank = curve.position_of(full.sku.name)
        return chosen_rank >= full_rank + _OVERPROVISION_RANK_SLACK
