"""Serverless-vs-provisioned advisory (paper Section 7).

Ranks serverless offers and provisioned SKUs on one combined
price-performance view and reports the crossover: spiky or mostly-idle
workloads pay less on serverless (you only pay while running), steady
workloads pay less provisioned (the serverless per-vCore premium
dominates once utilization is sustained).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog.catalog import SkuCatalog
from ..catalog.models import DeploymentType, SkuSpec
from ..core.ppm import PricePerformanceModeler
from ..telemetry.trace import PerformanceTrace
from .serverless import (
    ServerlessEvaluation,
    ServerlessOffer,
    default_serverless_offers,
    evaluate_serverless,
)

__all__ = ["ComputeTierAdvice", "ServerlessAdvisor"]

#: Throttling tolerance when picking "adequate" candidates on either side.
_ADEQUATE_THROTTLING = 0.01


@dataclass(frozen=True)
class ComputeTierAdvice:
    """Outcome of a serverless-vs-provisioned comparison.

    Attributes:
        provisioned_sku: Cheapest adequate provisioned SKU (or None).
        provisioned_monthly: Its monthly price.
        serverless: Cheapest adequate serverless evaluation (or None).
        recommended_tier: ``"serverless"`` or ``"provisioned"``.
        monthly_saving: Cost advantage of the recommended tier.
        busy_fraction: Share of the window with non-idle demand (the
            crossover driver).
    """

    provisioned_sku: SkuSpec | None
    provisioned_monthly: float
    serverless: ServerlessEvaluation | None
    recommended_tier: str
    monthly_saving: float
    busy_fraction: float


@dataclass(frozen=True)
class ServerlessAdvisor:
    """Compares the two compute models for one workload.

    Attributes:
        catalog: Provisioned SKU catalog.
        offers: Serverless ladder; defaults to the standard one.
    """

    catalog: SkuCatalog
    offers: tuple[ServerlessOffer, ...] = tuple(default_serverless_offers())

    def advise(self, trace: PerformanceTrace) -> ComputeTierAdvice:
        """Pick the cheaper adequate compute model for ``trace``.

        "Adequate" means throttling probability at or under 1 %; when
        no candidate on a side is adequate, the best-scoring one is
        used so a comparison is always produced.
        """
        ppm = PricePerformanceModeler(catalog=self.catalog)
        curve = ppm.build_curve(trace, DeploymentType.SQL_DB)
        provisioned_point = curve.cheapest_at_least(1.0 - _ADEQUATE_THROTTLING)
        if provisioned_point is None:
            provisioned_point = curve.point_at(-1)

        evaluations = [evaluate_serverless(trace, offer) for offer in self.offers]
        adequate = [
            ev for ev in evaluations if ev.throttling_probability <= _ADEQUATE_THROTTLING
        ]
        if adequate:
            best_serverless = min(adequate, key=lambda ev: ev.monthly_cost)
        elif evaluations:
            best_serverless = min(
                evaluations, key=lambda ev: ev.throttling_probability
            )
        else:
            best_serverless = None

        provisioned_monthly = provisioned_point.monthly_price
        serverless_monthly = (
            best_serverless.monthly_cost if best_serverless else float("inf")
        )
        if serverless_monthly < provisioned_monthly:
            tier = "serverless"
            saving = provisioned_monthly - serverless_monthly
        else:
            tier = "provisioned"
            saving = serverless_monthly - provisioned_monthly

        from ..telemetry.counters import PerfDimension

        cpu = trace[PerfDimension.CPU].values
        busy = float((cpu > 0.05).mean())
        return ComputeTierAdvice(
            provisioned_sku=provisioned_point.sku,
            provisioned_monthly=provisioned_monthly,
            serverless=best_serverless,
            recommended_tier=tier,
            monthly_saving=float(saving),
            busy_fraction=busy,
        )
