"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it
prints the paper-reported values next to the values measured on the
simulated substrate, and times the core computation with
pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only

Reports are echoed to stdout (visible with ``-s``) and always written
to ``benchmarks/results/<experiment>.txt``.  The Table 4, Table 5 and
Section 5.3 benches also record their measured accuracies in
``benchmarks/results/BENCH_paper.json`` (the ``record_paper_metrics``
fixture), so ``perf_trend.py`` can flag drift and ``perf_floors.json``
can hold floors on them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.catalog import SkuCatalog
from repro.core import DopplerEngine
from repro.simulation import FleetConfig, simulate_fleet

RESULTS_DIR = Path(__file__).parent / "results"

#: Fleet sizing used across benches: large enough for stable rates,
#: small enough to keep the whole harness in a few minutes.
FLEET_SIZE = 220
FLEET_DAYS = 5.0
FLEET_INTERVAL_MIN = 30.0


def report(name: str, text: str) -> None:
    """Echo a benchmark report and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def run_once(benchmark, func):
    """Time ``func`` with a single benchmark round (heavy experiments)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def record_paper_metrics():
    """Writer of the paper benches' measured accuracies.

    ``record_paper_metrics(section, metrics)`` rewrites
    ``BENCH_paper.json`` with every section recorded in this pytest run,
    so a bench that stops running drops its leaves instead of leaving
    stale numbers behind.
    """
    sections: dict[str, dict] = {}

    def record(section: str, metrics: dict) -> None:
        sections[section] = metrics
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_paper.json").write_text(
            json.dumps({"benchmark": "paper", **sections}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    return record


@pytest.fixture(scope="session")
def catalog() -> SkuCatalog:
    return SkuCatalog.default()


@pytest.fixture(scope="session")
def db_fleet(catalog):
    config = FleetConfig.paper_db(
        FLEET_SIZE, duration_days=FLEET_DAYS, interval_minutes=FLEET_INTERVAL_MIN
    )
    return simulate_fleet(config, catalog, rng=2022)


@pytest.fixture(scope="session")
def mi_fleet(catalog):
    config = FleetConfig.paper_mi(
        FLEET_SIZE, duration_days=FLEET_DAYS, interval_minutes=FLEET_INTERVAL_MIN
    )
    return simulate_fleet(config, catalog, rng=2023)


@pytest.fixture(scope="session")
def db_engine(catalog, db_fleet):
    engine = DopplerEngine(catalog=catalog)
    engine.fit([customer.record for customer in db_fleet])
    return engine


@pytest.fixture(scope="session")
def mi_engine(catalog, mi_fleet):
    engine = DopplerEngine(catalog=catalog)
    engine.fit([customer.record for customer in mi_fleet])
    return engine


def backtest_accuracy(engine, fleet, deployment, exclude_over_provisioned):
    """Shared Table-4/Table-5 evaluation loop."""
    hits = total = 0
    per_tier: dict[str, list[int]] = {}
    for customer in fleet:
        if not customer.record.is_settled:
            continue
        if exclude_over_provisioned and customer.is_over_provisioned:
            continue
        result = engine.recommend(customer.record.trace, deployment)
        hit = int(result.sku.name == customer.chosen_sku_name)
        hits += hit
        total += 1
        tier = engine.catalog.by_name(customer.chosen_sku_name).tier.short_name
        per_tier.setdefault(tier, []).append(hit)
    micro = {
        tier: sum(values) / len(values) for tier, values in sorted(per_tier.items())
    }
    return hits / max(total, 1), micro, total
