"""Section 5.3: Doppler versus the baseline strategy on on-prem data.

The paper's findings on new-migration (on-prem) workloads:

* the estates are mostly idle;
* on the active instances, 80 % of the time Doppler recommends a SKU
  that actually meets the workload's latency requirement while the
  95th-percentile baseline under-specifies it;
* for the remaining cases the baseline *fails to recommend anything*
  because no SKU meets every scalar at 100 % -- Doppler still
  recommends, by negotiating.
"""

from repro.catalog import DeploymentType
from repro.core import BaselineStrategy
from repro.simulation import simulate_onprem_estate
from repro.telemetry import PerfDimension

from .conftest import report, run_once


def test_sec53_baseline_comparison(benchmark, catalog, db_engine, record_paper_metrics):
    servers = simulate_onprem_estate(
        n_servers=10,
        duration_days=4,
        interval_minutes=30,
        idle_fraction=0.55,
        latency_sensitive_fraction=0.25,
        rng=53,
    )
    baseline = BaselineStrategy(quantile=0.95)

    def compare():
        rows = []
        for server in servers:
            for database in server.databases:
                trace = database.trace
                doppler = db_engine.recommend(trace, DeploymentType.SQL_DB)
                base = baseline.recommend(trace, DeploymentType.SQL_DB, catalog)
                required_latency = trace[PerfDimension.IO_LATENCY].quantile(0.05)
                doppler_meets = (
                    doppler.sku.limits.min_io_latency_ms <= required_latency + 1e-9
                )
                baseline_meets = (
                    base is not None
                    and base.limits.min_io_latency_ms <= required_latency + 1e-9
                )
                rows.append(
                    (database.activity, doppler_meets, base is not None, baseline_meets)
                )
        return rows

    rows = run_once(benchmark, compare)

    active = [row for row in rows if row[0] != "idle"]
    idle_share = 1.0 - len(active) / len(rows)
    doppler_latency_met = sum(1 for row in active if row[1]) / len(active)
    baseline_failed = sum(1 for row in rows if not row[2])
    baseline_latency_met = sum(1 for row in active if row[3]) / len(active)
    record_paper_metrics(
        "sec53",
        {
            "doppler_latency_met_accuracy": doppler_latency_met,
            "baseline_latency_met_accuracy": baseline_latency_met,
        },
    )

    lines = [
        f"on-prem estate: {len(rows)} databases on {len(servers)} servers "
        f"({idle_share:.0%} idle -- the paper's 'majority ... relatively idle')",
        "",
        f"{'metric':>52} {'paper':>8} {'ours':>7}",
        f"{'Doppler recommends a latency-meeting SKU (active DBs)':>52} "
        f"{'80%':>8} {doppler_latency_met:>7.0%}",
        f"{'baseline latency-meeting rate (active DBs)':>52} {'low':>8} "
        f"{baseline_latency_met:>7.0%}",
        f"{'assessments where the baseline returns NO SKU':>52} {'rest':>8} "
        f"{baseline_failed:>7}",
        f"{'assessments where Doppler returns a SKU':>52} {'all':>8} "
        f"{len(rows):>7}",
    ]
    lines.append("")
    lines.append(
        "shape check: Doppler meets latency needs far more often than the "
        "baseline and always produces a recommendation"
    )
    assert doppler_latency_met >= 0.7
    assert doppler_latency_met > baseline_latency_met
    report("sec53_baseline_comparison", "\n".join(lines))
