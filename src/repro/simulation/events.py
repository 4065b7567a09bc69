"""SKU-change customers (paper Section 5.2.3, Figure 11).

The paper studies 77 SQL DB customers that changed their SKU once
between June 2020 and March 2021 and shows that the price-performance
curves generated *before* and *after* the change shift with the
workload: the curve detects the need to upgrade (or downgrade) before
the customer acts.

This module simulates such customers: a workload whose demand level
shifts at a change point, the traces on both sides, and the SKUs a
cost-conscious customer would hold before and after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..catalog.catalog import SkuCatalog
from ..catalog.models import DeploymentType
from ..core.curve import PricePerformanceCurve
from ..core.ppm import PricePerformanceModeler
from ..ml.bootstrap import resolve_rng
from ..telemetry.counters import PerfDimension
from ..telemetry.trace import PerformanceTrace
from ..workloads.generator import WorkloadSpec, generate_trace
from ..workloads.patterns import DiurnalPattern, PlateauPattern

__all__ = ["SkuChangeCustomer", "simulate_sku_change_customers"]


@dataclass(frozen=True)
class SkuChangeCustomer:
    """One customer that changed SKU once.

    Attributes:
        before_trace: Counter history on the original workload level.
        after_trace: Counter history after the demand shift.
        before_curve: Curve generated from the before-history.
        after_curve: Curve generated from the after-history.
        before_sku_name: SKU held before the change (cheapest
            100 %-point of the before-curve).
        after_sku_name: SKU adopted after the change.
        direction: ``"upgrade"`` or ``"downgrade"``.
    """

    before_trace: PerformanceTrace
    after_trace: PerformanceTrace
    before_curve: PricePerformanceCurve
    after_curve: PricePerformanceCurve
    before_sku_name: str
    after_sku_name: str
    direction: Literal["upgrade", "downgrade"]

    @property
    def changed(self) -> bool:
        return self.before_sku_name != self.after_sku_name

    def stale_sku_throttling(self) -> float:
        """Throttling the customer would suffer keeping the old SKU on
        the new workload -- the ">40 % throttling" observation under
        Figure 11."""
        point = self.after_curve.point_for(self.before_sku_name)
        # Raw probability: the held SKU can sit on a monotonicity-lifted
        # point of the new curve, and the lifted score hides its real risk.
        return point.throttling_probability


def _level_spec(cpu_level: float, storage_gb: float, entity_id: str) -> WorkloadSpec:
    """Workload spec at a given CPU demand level with coupled dims."""
    return WorkloadSpec(
        patterns={
            PerfDimension.CPU: DiurnalPattern(
                trough=cpu_level * 0.5, peak=cpu_level, noise=0.04
            ),
            PerfDimension.MEMORY: PlateauPattern(level=cpu_level * 4.0, dip_scale=0.05),
            PerfDimension.IOPS: DiurnalPattern(
                trough=cpu_level * 150.0, peak=cpu_level * 320.0, noise=0.05
            ),
            PerfDimension.LOG_RATE: DiurnalPattern(
                trough=cpu_level * 0.8, peak=cpu_level * 1.8, noise=0.05
            ),
        },
        storage_gb=storage_gb,
        base_latency_ms=6.0,
        saturation_iops=cpu_level * 500.0,
        entity_id=entity_id,
    )


def simulate_sku_change_customers(
    n_customers: int,
    catalog: SkuCatalog,
    duration_days: float = 10.0,
    interval_minutes: float = 10.0,
    upgrade_fraction: float = 0.8,
    rng: int | np.random.Generator | None = None,
) -> list[SkuChangeCustomer]:
    """Simulate SQL DB customers that changed SKU once.

    Args:
        n_customers: Number of changers (the paper found 77).
        catalog: Candidate SKUs.
        duration_days: History length on each side of the change.
        interval_minutes: Counter cadence.
        upgrade_fraction: Share of changers whose demand grew.
        rng: Seed or generator.
    """
    generator = resolve_rng(rng)
    ppm = PricePerformanceModeler(catalog=catalog)
    customers = []
    for index in range(n_customers):
        grew = generator.random() < upgrade_fraction
        base_level = float(np.exp(generator.uniform(np.log(1.5), np.log(8.0))))
        factor = float(generator.uniform(2.2, 4.0))
        before_level = base_level
        after_level = base_level * factor if grew else base_level / factor
        storage = float(generator.uniform(80.0, 800.0))

        before_trace = generate_trace(
            _level_spec(before_level, storage, f"changer-{index:03d}-before"),
            duration_days=duration_days,
            interval_minutes=interval_minutes,
            rng=generator,
        )
        after_trace = generate_trace(
            _level_spec(after_level, storage, f"changer-{index:03d}-after"),
            duration_days=duration_days,
            interval_minutes=interval_minutes,
            rng=generator,
        )
        before_curve = ppm.build_curve(before_trace, DeploymentType.SQL_DB)
        after_curve = ppm.build_curve(after_trace, DeploymentType.SQL_DB)

        before_point = before_curve.cheapest_full_performance() or before_curve.point_at(-1)
        after_point = after_curve.cheapest_full_performance() or after_curve.point_at(-1)
        customers.append(
            SkuChangeCustomer(
                before_trace=before_trace,
                after_trace=after_trace,
                before_curve=before_curve,
                after_curve=after_curve,
                before_sku_name=before_point.sku.name,
                after_sku_name=after_point.sku.name,
                direction="upgrade" if grew else "downgrade",
            )
        )
    return customers
