"""Seeded input generation for the benchmark workloads.

Everything here runs before any timer starts and depends only on the
seed and the size preset, so the same seed always yields the same
inputs.  Telemetry comes from the :mod:`repro.workloads` demand
patterns (spiky, diurnal, plateau and bursty CPU with memory, IOPS
and log-rate companions), never from uniform noise: drift and refresh
behaviour then follow realistic workload shapes.

The program under test receives only the objects built here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import FleetCustomer, FleetSample
from repro.catalog import DeploymentType, SkuCatalog
from repro.simulation import FleetConfig, simulate_fleet
from repro.telemetry import PerfDimension, PerformanceTrace
from repro.workloads import (
    BurstyPattern,
    DiurnalPattern,
    PlateauPattern,
    SpikyPattern,
    WorkloadSpec,
    generate_trace,
)

#: Cadence of the watch and serve feeds; the library's default
#: sampling interval, so ``WatchConfig()`` defaults apply unchanged.
FEED_INTERVAL_MINUTES = 10.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one preset (``full`` for measurement, ``tiny`` for the self-test)."""

    train_db: int  # simulated migrated SQL DB customers used to fit the engine
    train_mi: int  # ... and SQL MI customers
    train_days: float
    batch_customers: int  # customers per batch pass; every fifth is SQL MI
    batch_days: float
    batch_interval: float
    onboard_customers: int  # customers new to the onboarding watch
    onboard_samples: int  # samples each of them contributes per round
    steady_customers: int
    steady_prefix: int  # untimed warm-up samples per customer, at least
    steady_periods: int  # checkpoint periods timed per round
    steady_checkpoint_ticks: int
    serve_customers: int  # observe-path customers
    serve_prefix: int  # untimed warm-up observes per customer
    serve_rate: float  # open-loop arrivals per second, fixed across versions
    serve_round_s: float  # length of one round's arrival schedule
    serve_recommend_share: float
    serve_repeat_share: float  # recommends that ask again for an earlier customer
    serve_pool_days: float


SIZES = {
    "full": Sizes(
        train_db=160,
        train_mi=40,
        train_days=7.0,
        batch_customers=1000,
        batch_days=7.0,
        batch_interval=30.0,
        onboard_customers=64,
        onboard_samples=32,
        steady_customers=24,
        steady_prefix=144,
        steady_periods=4,
        steady_checkpoint_ticks=16,
        serve_customers=32,
        serve_prefix=24,
        serve_rate=100.0,
        serve_round_s=6.0,
        serve_recommend_share=0.25,
        serve_repeat_share=0.75,
        serve_pool_days=7.0,
    ),
    "tiny": Sizes(
        train_db=24,
        train_mi=8,
        train_days=2.0,
        batch_customers=20,
        batch_days=2.0,
        batch_interval=60.0,
        onboard_customers=3,
        onboard_samples=24,
        steady_customers=4,
        steady_prefix=32,
        steady_periods=2,
        steady_checkpoint_ticks=1,
        serve_customers=4,
        serve_prefix=16,
        serve_rate=40.0,
        serve_round_s=0.5,
        serve_recommend_share=0.5,
        serve_repeat_share=0.5,
        serve_pool_days=2.0,
    ),
}


def _streams(seed: int, tag: int) -> np.random.Generator:
    """An independent generator per input kind, all derived from ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _stratified(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws in [0, 1), one per equal-width stratum, in random order.

    Latin-hypercube style: every seed spreads its draws over the whole
    range, so fleets differ in detail but not in their mix of cheap and
    expensive customers -- which keeps seed-to-seed cost variation out
    of the measurement.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def shaped_traces(
    n: int, duration_days: float, interval_minutes: float, rng: np.random.Generator, prefix: str
) -> list[PerformanceTrace]:
    """``n`` DB-shaped traces cycling through four CPU demand shapes.

    Sizes (CPU peak, memory and IOPS ratios, storage, base latency) are
    stratified within each shape.
    """
    draws = np.empty((n, 5))
    for style in range(4):
        members = np.arange(style, n, 4)
        for column in range(draws.shape[1]):
            draws[members, column] = _stratified(len(members), rng)
    traces = []
    for index in range(n):
        peak_u, memory_u, iops_u, storage_u, latency_u = draws[index]
        cpu_peak = float(np.exp(np.log(1.5) + peak_u * (np.log(32.0) - np.log(1.5))))
        style = index % 4
        if style == 0:
            cpu = SpikyPattern(base=cpu_peak * 0.25, peak=cpu_peak, spike_probability=0.008)
        elif style == 1:
            cpu = DiurnalPattern(trough=cpu_peak * 0.3, peak=cpu_peak)
        elif style == 2:
            cpu = PlateauPattern(level=cpu_peak)
        else:
            cpu = BurstyPattern(low=cpu_peak * 0.4, high=cpu_peak)
        spec = WorkloadSpec(
            patterns={
                PerfDimension.CPU: cpu,
                PerfDimension.MEMORY: PlateauPattern(level=cpu_peak * (2.5 + 3.0 * memory_u)),
                PerfDimension.IOPS: SpikyPattern(
                    base=cpu_peak * 60.0,
                    peak=cpu_peak * (200.0 + 500.0 * iops_u),
                    spike_probability=0.01,
                ),
                PerfDimension.LOG_RATE: DiurnalPattern(
                    trough=cpu_peak * 0.4, peak=cpu_peak * 2.0
                ),
            },
            storage_gb=30.0 + 870.0 * storage_u,
            base_latency_ms=4.0 + 4.0 * latency_u,
            entity_id=f"{prefix}-{index:05d}",
        )
        traces.append(
            generate_trace(
                spec, duration_days=duration_days, interval_minutes=interval_minutes, rng=rng
            )
        )
    return traces


def fresh_trace(trace: PerformanceTrace) -> PerformanceTrace:
    """A new trace object over the same series: its memos start empty."""
    return PerformanceTrace(series=dict(trace.series), entity_id=trace.entity_id)


def training_records(seed: int, sizes: Sizes) -> list:
    """Migrated-customer records the engine is fitted on (DB and MI)."""
    catalog = SkuCatalog.default()
    records = []
    for tag, config in (
        (1, FleetConfig.paper_db(sizes.train_db, duration_days=sizes.train_days, interval_minutes=30.0)),
        (2, FleetConfig.paper_mi(sizes.train_mi, duration_days=sizes.train_days, interval_minutes=30.0)),
    ):
        fleet = simulate_fleet(config, catalog, rng=_streams(seed, tag))
        records.extend(customer.record for customer in fleet)
    return records


def fresh_records(records: list) -> list:
    """The training records over fresh trace objects (cold demand memos)."""
    return [dataclasses.replace(record, trace=fresh_trace(record.trace)) for record in records]


def batch_fleet(seed: int, sizes: Sizes) -> list[FleetCustomer]:
    """The batch pass: DB-shaped traces, every fifth customer sized for SQL MI."""
    traces = shaped_traces(
        sizes.batch_customers, sizes.batch_days, sizes.batch_interval, _streams(seed, 3), "batch"
    )
    return [
        FleetCustomer(
            customer_id=trace.entity_id,
            trace=trace,
            deployment=DeploymentType.SQL_MI if index % 5 == 4 else DeploymentType.SQL_DB,
        )
        for index, trace in enumerate(traces)
    ]


def fresh_customers(customers: list[FleetCustomer]) -> list[FleetCustomer]:
    """The customers over fresh trace objects (cold demand memos and fingerprints)."""
    return [dataclasses.replace(customer, trace=fresh_trace(customer.trace)) for customer in customers]


def _per_customer_samples(traces: list[PerformanceTrace]) -> list[list[FleetSample]]:
    samples = []
    for trace in traces:
        columns = {dim: trace.series[dim].values for dim in trace.dimensions}
        n = len(next(iter(columns.values())))
        samples.append(
            [
                FleetSample(
                    customer_id=trace.entity_id,
                    values={dim: float(values[index]) for dim, values in columns.items()},
                )
                for index in range(n)
            ]
        )
    return samples


def interleave(streams: list[list[FleetSample]], n_samples: int) -> list[FleetSample]:
    """The first ``n_samples`` of every stream, round-robin across customers."""
    return [stream[index] for index in range(n_samples) for stream in streams]


def customer_streams(
    seed: int, tag: int, n_customers: int, n_samples: int, prefix: str
) -> list[list[FleetSample]]:
    """Per-customer telemetry streams of ``n_samples`` samples at the feed cadence."""
    days = n_samples * FEED_INTERVAL_MINUTES / (24 * 60)
    traces = shaped_traces(n_customers, days, FEED_INTERVAL_MINUTES, _streams(seed, tag), prefix)
    return _per_customer_samples(traces)


def onboard_feed(seed: int, sizes: Sizes) -> list[FleetSample]:
    """Customers new to the watch: each one's first ``onboard_samples`` samples."""
    streams = customer_streams(
        seed, 4, sizes.onboard_customers, sizes.onboard_samples, "onboard"
    )
    return interleave(streams, sizes.onboard_samples)


def steady_feed(seed: int, sizes: Sizes, period: int) -> tuple[list[FleetSample], int, int]:
    """The steady watch's feed; returns (feed, prefix length, timed length).

    The warm prefix holds at least ``steady_prefix`` samples per
    customer, rounded up to whole checkpoint periods of ``period``
    samples, so it ends with a checkpoint and nothing in flight.  The
    timed phase after it covers ``steady_periods`` whole periods.
    """
    n_prefix = -(-sizes.steady_customers * sizes.steady_prefix // period) * period
    n_timed = sizes.steady_periods * period
    per_customer = -(-(n_prefix + n_timed) // sizes.steady_customers)
    streams = customer_streams(seed, 5, sizes.steady_customers, per_customer, "steady")
    return interleave(streams, per_customer)[: n_prefix + n_timed], n_prefix, n_timed


@dataclass(frozen=True)
class ServeInputs:
    """Open-loop serve schedule plus the warm-up prefix it continues from.

    ``schedule`` holds ``(offset_s, kind, index)`` with ``kind`` either
    ``"observe"`` (``index`` into ``observes``) or ``"recommend"``
    (``index`` into ``pool``).
    """

    prefix: list[list[FleetSample]]  # warm-up waves: one sample per customer each
    observes: list[FleetSample]
    pool: list[FleetCustomer]
    schedule: list[tuple[float, str, int]]


def serve_inputs(seed: int, sizes: Sizes) -> ServeInputs:
    """A seeded open-loop schedule of observes and recommends at a fixed rate."""
    rng = _streams(seed, 6)
    # A Poisson process conditioned on its count: uniform arrival times,
    # so every seed offers exactly ``serve_rate`` requests per second.
    n_arrivals = round(sizes.serve_rate * sizes.serve_round_s)
    offsets = np.sort(rng.uniform(0.0, sizes.serve_round_s, size=n_arrivals))
    is_recommend = np.zeros(n_arrivals, dtype=bool)
    is_recommend[: round(sizes.serve_recommend_share * n_arrivals)] = True
    rng.shuffle(is_recommend)
    n_observes = int(n_arrivals - is_recommend.sum())
    observe_customer = rng.integers(0, sizes.serve_customers, size=n_observes)
    counts = np.bincount(observe_customer, minlength=sizes.serve_customers)
    per_customer = sizes.serve_prefix + int(counts.max(initial=0))
    streams = customer_streams(seed, 7, sizes.serve_customers, per_customer, "serve")
    prefix = [
        [stream[index] for stream in streams] for index in range(sizes.serve_prefix)
    ]
    cursor = [sizes.serve_prefix] * sizes.serve_customers
    observes = []
    for customer in observe_customer:
        observes.append(streams[customer][cursor[customer]])
        cursor[customer] += 1
    # Recommends: a repeat asks again for a customer already asked
    # about (a batch curve-cache hit); otherwise the next new customer.
    n_recommends = int(is_recommend.sum())
    repeats = rng.random(n_recommends) < sizes.serve_repeat_share
    choices = rng.random(n_recommends)
    picks: list[int] = []
    n_new = 0
    for repeat, choice in zip(repeats, choices):
        if repeat and n_new:
            picks.append(int(choice * n_new))
        else:
            picks.append(n_new)
            n_new += 1
    pool_traces = shaped_traces(n_new, sizes.serve_pool_days, 30.0, _streams(seed, 8), "pool")
    pool = [
        FleetCustomer(customer_id=trace.entity_id, trace=trace, deployment=DeploymentType.SQL_DB)
        for trace in pool_traces
    ]
    schedule: list[tuple[float, str, int]] = []
    observe_index = recommend_index = 0
    for offset, recommend in zip(offsets, is_recommend):
        if recommend:
            schedule.append((float(offset), "recommend", picks[recommend_index]))
            recommend_index += 1
        else:
            schedule.append((float(offset), "observe", observe_index))
            observe_index += 1
    return ServeInputs(prefix=prefix, observes=observes, pool=pool, schedule=schedule)
