"""Benchmark entry point: one workload, one seed, one JSON result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

Workloads: ``batch``, ``watch_onboard``, ``watch_steady``, ``serve``
(see :mod:`perfbench.workloads`).  Inputs are generated from ``--seed``
before anything is timed.  The run repeats identical rounds (set-up
plus timed phase) until ``--seconds`` of timed work is done, with at
least three rounds.  Every round does the same work on the same units,
and samples the host's speed wherever nothing is in flight
(:mod:`perfbench.calibrate`); each time is scaled by the speed around
it.  The run then takes each throughput window's CPU cost and the
set-up at their median over the rounds, and each unit's latency at its
best round (stalls only add to a unit's latency); it reports units per
CPU-second over the windows and exact percentiles over units.

With ``--trace 1`` every other round runs with per-layer span wrappers
installed (:mod:`perfbench.tracing`); the run reports per-layer counts
and self time per traced round instead of the end-to-end metrics, plus
the tracing overhead measured against the untraced rounds.

Every round's output is reduced to a canonical digest -- per-customer
update streams (refresh flags included) and per-request results, keyed
by customer so timing-dependent interleaving cannot change it -- and
compared with the digest recorded for the seed in
``perfbench/digests.json``.  For a seed without a recording the rounds
must agree with each other and a subset of customers is replayed
through an independent path (the single-workload engine, a bare
``LiveRecommender``).  A mismatch counts the round's operations as
failed.  ``--record`` adds the run's digest to the recording once the
independent check has passed.

Human-readable lines go to stdout first; the last line is the JSON
result.  Exits 2 without a result when the library source is missing
from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKDIR = ROOT / ".perfbench_work"

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Latencies printed beside the end-to-end metrics but not among them:
#: on the reference box hypervisor steal moves them between runs by more
#: than any bound the benchmark may set (see perfbench/README.md, "Noise").
UNGATED = ("p50_ms", "p95_ms", "recommend_p50_ms", "recommend_p95_ms")

#: Per-layer counters beside the span metrics, and their units.
LAYER_COUNTERS = {
    "fleet.cache.hits": "count",
    "fleet.cache.misses": "count",
    "fleet.watch_cache.hits": "count",
    "fleet.watch_cache.misses": "count",
    "streaming.live.refresh.sku_changes": "count",
    "store.fleetstore.n_state_bytes": "bytes",
    "bench.units": "count",
    "bench.refresh_share": "share",
    "bench.samples_per_tick": "count",
    "bench.parent_cpu_s": "s",
    "bench.worker_cpu_s": "s",
    "bench.trace_overhead": "share",
    "host.steal_share": "share",
    "serve.observe.admitted": "count",
    "serve.observe.rejected": "count",
    "serve.observe.flushes": "count",
    "serve.observe.mean_batch": "count",
    "serve.observe.size_flushes": "count",
    "serve.observe.deadline_flushes": "count",
    "serve.recommend.admitted": "count",
    "serve.recommend.rejected": "count",
    "serve.recommend.flushes": "count",
    "serve.recommend.mean_batch": "count",
    "serve.recommend.size_flushes": "count",
    "serve.recommend.deadline_flushes": "count",
    "serve.recommend.cache_hit_ratio": "share",
    "serve.lateness_p99_ms": "ms",
}

#: Rounds every run makes, however short ``--seconds`` is: each median
#: and best is taken over at least this many repeats.
MIN_ROUNDS = 3
#: Stop starting rounds after this much wall time, whatever ``--seconds`` says.
MAX_WALL_S = 120.0


def digest(lines: dict[str, list[str]]) -> str:
    hasher = hashlib.sha256()
    for key in sorted(lines):
        hasher.update(key.encode())
        for line in lines[key]:
            hasher.update(b"\n" + line.encode())
        hasher.update(b"\n\n")
    return hasher.hexdigest()


def per_layer_names() -> dict[str, str]:
    from perfbench.tracing import SPANS

    names = {}
    for span in SPANS:
        names[f"{span}.calls"] = "count"
        names[f"{span}.self_ms"] = "ms"
    names.update(LAYER_COUNTERS)
    return names


def load_recorded(workload: str, size: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get(workload, {}).get(size, {}).get(str(seed))


def record_digest(workload: str, size: str, seed: int, value: str) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entries = table.setdefault(workload, {}).setdefault(size, {})
    entries[str(seed)] = value
    for sizes in table.values():
        for key, seeds in sizes.items():
            sizes[key] = dict(sorted(seeds.items(), key=lambda item: int(item[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("batch", "watch_onboard", "watch_steady", "serve")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="input preset (tiny: self-test)"
    )
    parser.add_argument("--record", action="store_true", help="record this seed's digest once verified")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import calibrate, host, inputs, workloads
    from perfbench.tracing import Tracer

    steal_start = host.cpu_ticks()
    sizes = inputs.SIZES[args.size]
    workload_cls = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    if workload_cls is workloads.WatchSteady:
        WORKDIR.mkdir(exist_ok=True)
        workload = workload_cls(args.seed, sizes, WORKDIR)
    else:
        workload = workload_cls(args.seed, sizes)
    inputs_s = time.perf_counter() - started
    # The inputs are the benchmark's, not the program's: keep them out of
    # the collector's scans and the memory high-water mark.
    gc.collect()
    gc.freeze()
    host.reset_peak_rss()

    if workload.serial:
        workload.speed = calibrate.Speedometer(calibrate.pin_to_one_cpu())

    tracer = Tracer() if args.trace else None
    rounds = []
    traced_flags = []
    timed_total = 0.0
    while len(rounds) < MIN_ROUNDS or (
        timed_total < args.seconds and time.perf_counter() - started < MAX_WALL_S
    ):
        traced = tracer is not None and len(rounds) % 2 == 0
        result = workload.run_round(tracer if traced else None)
        rounds.append(result)
        traced_flags.append(traced)
        timed_total += result.timed_s
    peak_mb = host.parent_peak_mb() + max(r.workers_mb for r in rounds)
    steal = host.steal_share(steal_start, host.cpu_ticks())

    # Output check.
    digests = [digest(r.lines) for r in rounds]
    recorded = load_recorded(args.workload, args.size, args.seed)
    if recorded is not None:
        expected_digest, source = recorded, "recorded"
        mismatch_reason = "differs from the recorded digest"
    else:
        expected_digest, source = digests[0], "reference"
        mismatch_reason = "differs from round 0"
    mismatched = [i for i, value in enumerate(digests) if value != expected_digest]
    reference_failures = []
    if recorded is None:
        for key, lines in workload.reference().items():
            if rounds[0].lines.get(key) != lines:
                reference_failures.append(key)
    failed = 0
    for index, result in enumerate(rounds):
        if index in mismatched or reference_failures or result.broken:
            failed += result.units
        else:
            failed += result.failed
    attempted = sum(r.units for r in rounds)
    correct = failed == 0

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    record = dict(host.run_record(), steal_share=round(steal, 4), inputs_s=round(inputs_s, 3))
    print("run record: " + json.dumps(record))
    print(f"rounds={len(rounds)} units/round={rounds[0].units} {workload.unit}")
    print(f"latency = {workload.latency_of}")
    observed = sum(len(r.latencies) for r in rounds)
    print(
        f"timed units per round: {len(rounds[0].latencies)} for p50/p95, "
        f"{len(rounds[0].fresh)} for recommend_p50/p95"
    )
    if any(r.refreshed for r in rounds):
        share = sum(r.refreshed for r in rounds) / observed
        boundary = 100 * (1 - share)
        print(f"refresh share {share:.4f}: refresh/ingest boundary near the {boundary:.0f}th percentile")
    print(f"digest {digests[0]} ({source}); rounds agreeing: {len(rounds) - len(mismatched)}/{len(rounds)}")
    if mismatched:
        print(f"DIGEST MISMATCH in rounds {mismatched}: {mismatch_reason}")
    if reference_failures:
        print(f"REFERENCE MISMATCH for {reference_failures[:5]}")
    for index, result in enumerate(rounds):
        if result.broken:
            print(f"round {index} failed: {result.broken}")

    factors = sorted(factor for r in rounds for _, _, factor in r.windows)
    print(
        f"host speed over {workload.speed.n_samples} samples: factor "
        f"{factors[0]:.3f} / {statistics.median(factors):.3f} / {factors[-1]:.3f} (min / median / max)"
    )
    if args.trace:
        metrics = layer_metrics(workload, rounds, traced_flags, tracer, steal)
        units = per_layer_names()
    else:
        print("as read: " + json.dumps(end_to_end_metrics(rounds, peak_mb, workload, scale=False)))
        print(
            "per round at reference speed: setup_s "
            + " ".join(f"{seconds * factor:.3f}" for seconds, factor in (r.setup for r in rounds))
            + " | throughput_per_s "
            + " ".join(
                f"{sum(u for u, _, _ in r.windows) / sum(c * f for _, c, f in r.windows):.1f}"
                for r in rounds
            )
        )
        metrics = end_to_end_metrics(rounds, peak_mb, workload)
        for name in UNGATED:
            print(f"  {name:<48} {metrics.pop(name):>14.4f} ms (printed only, not an end-to-end metric)")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.4f} {units[name]}")

    if args.record:
        if correct and recorded is None:
            record_digest(args.workload, args.size, args.seed, digests[0])
            print(f"recorded digest for seed {args.seed}")
        elif recorded is None:
            print("not recorded: the run failed its output check")
    host.stop_helpers()
    if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
        WORKDIR.rmdir()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def end_to_end_metrics(rounds, peak_mb: float, workload, scale: bool = True) -> dict[str, float]:
    """The end-to-end metrics (and the ungated latencies) over a run's rounds.

    With ``scale`` every time is first multiplied by the host speed
    factor around it (:mod:`perfbench.calibrate`).  Each throughput
    window, each unit and the set-up are then taken over the rounds:
    throughput is units over the summed window costs, and a latency
    percentile is exact over the units.

    Set-up and window costs span hundreds of milliseconds of CPU time
    or more; they are taken at their median over the rounds, since
    what scaling leaves over errs either way.  A unit's latency is
    taken at its best round, as ``timeit`` takes the best of its
    repeats: the stalls that reach a single unit -- hypervisor steal on
    the wall clock, interrupts and evicted caches on either clock --
    only ever add to it.  Batch latencies are whole windows and follow
    the windows (``workload.latency_over_rounds``).
    """
    from perfbench.workloads import percentile

    pick = statistics.median if workload.latency_over_rounds == "median" else min

    def at(seconds: float, factor: float) -> float:
        return seconds * factor if scale else seconds

    def per_unit(attr: str) -> list[float]:
        values: dict = defaultdict(list)
        for result in rounds:
            for key, timing in getattr(result, attr).items():
                values[key].append(at(*timing))
        return [pick(v) * 1000.0 for v in values.values()]

    units = 0
    cost = 0.0
    for window in zip(*(r.windows for r in rounds)):
        units += window[0][0]
        cost += statistics.median(at(seconds, factor) for _, seconds, factor in window)
    latencies = per_unit("latencies")
    fresh = per_unit("fresh")
    return {
        "setup_s": statistics.median(at(*r.setup) for r in rounds),
        "throughput_per_s": units / cost,
        "p50_ms": percentile(latencies, 50),
        "p95_ms": percentile(latencies, 95),
        "recommend_p50_ms": percentile(fresh, 50),
        "recommend_p95_ms": percentile(fresh, 95),
        "peak_rss_mb": peak_mb,
    }


def layer_metrics(workload, rounds, traced_flags, tracer, steal: float) -> dict[str, float]:
    from perfbench.tracing import SKU_CHANGES, STATE_BYTES

    traced = [r for r, flag in zip(rounds, traced_flags) if flag]
    plain = [r for r, flag in zip(rounds, traced_flags) if not flag]
    n = len(traced)
    spans, counts = tracer.snapshot()
    metrics: dict[str, float] = {}
    for name, totals in spans.items():
        metrics[f"{name}.calls"] = totals.calls / n
        metrics[f"{name}.self_ms"] = totals.self_ns / 1e6 / n
    for name in LAYER_COUNTERS:
        values = [r.layers[name] for r in traced if name in r.layers]
        metrics[name] = sum(values) / n if values else 0.0
    metrics[SKU_CHANGES] = counts.get(SKU_CHANGES, 0.0) / n
    metrics[STATE_BYTES] = counts.get(STATE_BYTES, 0.0) / n
    units = sum(r.units for r in traced)
    metrics["bench.units"] = units / n
    observed = sum(len(r.latencies) for r in traced)
    metrics["bench.refresh_share"] = sum(r.refreshed for r in traced) / observed if observed else 0.0
    ticks = spans["fleet.backends.submit"].calls
    metrics["bench.samples_per_tick"] = units / ticks if ticks else 0.0
    metrics["bench.trace_overhead"] = workload.cost(traced) / workload.cost(plain) - 1.0
    metrics["host.steal_share"] = steal
    return {name: metrics[name] for name in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
