"""Table 5: elastic-strategy accuracy excluding over-provisioned customers.

The headline result: Doppler matches the expert-vetted SKU of 89.4 %
of SQL DB and 96.7 % of SQL MI migrated customers once the
over-provisioned segment is removed, with the GP/BC micro accuracies
of the paper's second column.  ``BENCH_paper.json`` records both the
per-deployment accuracies (floored at this bench's assertions) and the
per-tier micro accuracies (``<db|mi>_<tier>_accuracy``, unfloored:
the bench asserts nothing per tier, so only the relative paper trend
compares them).
"""

from repro.catalog import DeploymentType

from .conftest import backtest_accuracy, report, run_once

PAPER = {
    DeploymentType.SQL_DB: {"accuracy": 0.894, "micro": {"GP": 0.890, "BC": 0.956}},
    DeploymentType.SQL_MI: {"accuracy": 0.967, "micro": {"GP": 0.976, "BC": 0.869}},
}


def test_table5_elastic_accuracy(
    benchmark, catalog, db_fleet, mi_fleet, db_engine, mi_engine, record_paper_metrics
):
    fleets = {
        DeploymentType.SQL_DB: (db_engine, db_fleet),
        DeploymentType.SQL_MI: (mi_engine, mi_fleet),
    }

    def evaluate():
        rows = {}
        for deployment, (engine, fleet) in fleets.items():
            accuracy, micro, n = backtest_accuracy(
                engine, fleet, deployment, exclude_over_provisioned=True
            )
            rows[deployment] = (accuracy, micro, n)
        return rows

    rows = run_once(benchmark, evaluate)

    lines = [
        "(over-provisioned customers EXCLUDED, >= 40-day retention filter applied)",
        "",
        f"{'type':>4} {'paper acc':>10} {'ours acc':>9} {'n':>5}   micro (paper / ours)",
    ]
    for deployment, (accuracy, micro, n) in rows.items():
        short = deployment.short_name
        micro_text = "  ".join(
            f"{tier}: {PAPER[deployment]['micro'].get(tier, float('nan')):.1%} / "
            f"{value:.1%}"
            for tier, value in micro.items()
        )
        lines.append(
            f"{short:>4} {PAPER[deployment]['accuracy']:>10.1%} {accuracy:>9.1%} "
            f"{n:>5}   {micro_text}"
        )

    db_accuracy = rows[DeploymentType.SQL_DB][0]
    mi_accuracy = rows[DeploymentType.SQL_MI][0]
    metrics = {"db_accuracy": db_accuracy, "mi_accuracy": mi_accuracy}
    for deployment, (_, micro, _) in rows.items():
        for tier, value in micro.items():
            metrics[f"{deployment.short_name.lower()}_{tier.lower()}_accuracy"] = value
    record_paper_metrics("table5", metrics)
    lines.append("")
    lines.append(
        "shape check: both deployments in the high-accuracy regime; MI >= DB "
        "(instance-level choices are less noisy)"
    )
    assert db_accuracy > 0.8
    assert mi_accuracy > 0.8
    assert mi_accuracy >= db_accuracy - 0.03
    report("table5_elastic_accuracy", "\n".join(lines))
