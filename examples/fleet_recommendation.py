"""Fleet recommendation: assess a whole customer population in one pass.

Simulates a migrated-customer fleet, trains the Doppler engine on it,
then runs the fleet engine over the same population as an assessment
campaign: batched, curve-memoized, streaming, with a right-sizing
verdict per customer (each simulated customer carries the SKU they
run on today) and a campaign-level summary report.

Run with::

    python examples/fleet_recommendation.py
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # running as a script without installation
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro import DopplerEngine, FleetCustomer, FleetEngine, SkuCatalog
from repro.simulation import FleetConfig, simulate_fleet


def main() -> None:
    # 1. A simulated population of migrated customers (stands in for
    #    the paper's back-testing fleet of thousands).
    catalog = SkuCatalog.default()
    config = FleetConfig.paper_db(120, duration_days=5.0, interval_minutes=30.0)
    population = simulate_fleet(config, catalog, rng=2022)
    records = [customer.record for customer in population]

    # 2. One batched training pass: curves are built chunk by chunk
    #    through the columnar kernel, then observations are averaged
    #    per negotiability group.  Batch passes always run in this
    #    process; ``backend`` only picks the default for watches.
    fleet = FleetEngine(engine=DopplerEngine(catalog=catalog), backend="serial")
    fit_report = fleet.fit_fleet(records)
    print(
        f"Fitted group models for {', '.join(fit_report.fitted_deployments)} from "
        f"{fit_report.n_records} records "
        f"({sum(fit_report.n_observations.values())} usable observations)"
    )

    # 3. The assessment campaign: recommend over every customer,
    #    streaming results.  Traces already seen during training hit
    #    the curve cache instead of rebuilding.
    customers = [
        FleetCustomer.from_record(record, customer_id=f"customer-{index:04d}")
        for index, record in enumerate(records)
    ]
    n_over = 0
    for result in fleet.recommend_fleet(customers):
        if result.over_provisioned:
            n_over += 1
    stats = fleet.cache_stats()
    print(
        f"Curve cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate) -- training curves reused"
    )
    print(f"Right-sizing: {n_over} customers flagged over-provisioned\n")

    # 4. The campaign report consumed by the DMA fleet stage.
    print(fleet.summary_report(customers).render())


if __name__ == "__main__":
    main()
