"""Perf-trend diff over the machine-readable benchmark records.

``bench_streaming.py``, ``bench_fleet_scale.py``,
``bench_serving.py`` and the Table 4 / Table 5 paper benches emit
``BENCH_<name>.json`` records in a shared shape (a ``benchmark``
discriminator plus nested sections whose throughput metrics end in
``_per_sec``, measured accuracies in ``_accuracy``, latency
percentiles in ``_ms``, recovery depths in ``_ticks``, and persisted
sizes in ``_bytes`` or ``_bytes_per_<unit>``).  This tool diffs two
directories of such records -- typically the previous CI run's
artifact against the current one -- and flags every metric that
regressed by more than the threshold (default 20 %): a drop for the
higher-is-better ``_per_sec`` and ``_accuracy`` leaves, an *increase*
for the lower-is-better ``_ms``, ``_ticks`` and ``_bytes`` leaves.  Floors-file entries for
lower-is-better metrics are ceilings rather than floors.

Two levels of enforcement:

* **Relative trend** (baseline vs current): warn-only by default under
  ``--warn-only``, but benchmarks named via ``--blocking`` fail the
  run even then -- their throughput history has accumulated enough
  variance data to gate on.
* **Absolute floors** (``--floors floors.json``): a JSON mapping of
  ``{benchmark: {dotted.metric.path: minimum}}``.  A current metric
  below its floor always fails, warn-only or not, and a floored
  metric missing from the current run fails too (a silently vanished
  benchmark must not pass the gate).  Floors are pinned well below
  observed values so they catch order-of-magnitude regressions, not
  runner noise.

Individual metrics can be exempted from enforcement with
``--warn-metric SUBSTRING`` (repeatable, matched against
``benchmark:dotted.metric.path``): matching regressions *and floor
violations* print but never fail the run, even inside a
``--blocking`` benchmark.  The escape hatch for metrics whose CI
variance is not yet established -- typically a benchmark section
added this cycle, whose floor rides warn-only for one cycle before
it starts blocking.

Usage::

    python benchmarks/perf_trend.py --baseline prev/ --current benchmarks/results/
    python benchmarks/perf_trend.py --baseline prev/ --current ... \\
        --warn-only --blocking fleet --floors benchmarks/perf_floors.json

Exit status: 1 when any metric regressed beyond the threshold (0
under ``--warn-only``, except for ``--blocking`` benchmarks), when
any floor is violated, or when a floored metric is missing; 0 when
clean or when either side has no records to compare (first run, new
benchmark) and no floors are violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Metric-name suffix marking a higher-is-better throughput leaf.
METRIC_SUFFIX = "_per_sec"

#: Metric-name suffix marking a higher-is-better accuracy leaf (the
#: paper benches' measured back-test accuracies, ``BENCH_paper.json``).
ACCURACY_SUFFIX = "_accuracy"

#: Metric-name suffix marking a lower-is-better latency leaf (serving
#: percentiles).  For these the trend flags *increases* beyond the
#: threshold, and a floors entry acts as a ceiling.
LATENCY_SUFFIX = "_ms"

#: Metric-name suffix marking a lower-is-better recovery-depth leaf
#: (the fault-matrix benchmark's mean-ticks-to-recover).  Same
#: contract as ``_ms``: increases regress, floors entries are
#: ceilings.
TICKS_SUFFIX = "_ticks"

#: Metric-name marker of a lower-is-better size leaf: a key ending in
#: ``_bytes``, or a per-unit size such as ``state_bytes_per_customer``
#: (``_bytes_per_sec`` stays a higher-is-better rate).  Increases
#: regress; floors entries are ceilings.
BYTES_MARKER = "_bytes"


def is_size(metric: str) -> bool:
    """Whether a metric path's leaf is a persisted size (``_bytes``)."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.endswith(METRIC_SUFFIX):
        return False
    return leaf.endswith(BYTES_MARKER) or f"{BYTES_MARKER}_per_" in leaf


def higher_is_better(metric: str) -> bool:
    """Whether a dotted metric path carries a higher-is-better contract."""
    return metric.endswith(METRIC_SUFFIX) or metric.endswith(ACCURACY_SUFFIX)


def lower_is_better(metric: str) -> bool:
    """Whether a dotted metric path carries a lower-is-better contract."""
    return (
        metric.endswith(LATENCY_SUFFIX)
        or metric.endswith(TICKS_SUFFIX)
        or is_size(metric)
    )


def load_records(directory: Path) -> dict[str, dict]:
    """``{benchmark name: record}`` from every BENCH_*.json in a dir."""
    records: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"note: skipping unreadable record {path}: {exc}", file=sys.stderr)
            continue
        name = record.get("benchmark")
        if isinstance(name, str):
            records[name] = record
    return records


def collect_metrics(record, prefix: str = "") -> dict[str, float]:
    """Flatten a record to ``{dotted.path: value}`` enforceable leaves.

    Only numeric leaves whose key ends in ``_per_sec``
    (higher-is-better throughput), ``_accuracy`` (higher-is-better
    accuracy), ``_ms`` (lower-is-better latency),
    ``_ticks`` (lower-is-better recovery depth) or names a ``_bytes``
    size (lower-is-better) participate in the trend: counters, flags
    and derived ratios carry no directional contract.  Lists recurse with their index in the path, so
    per-size fleet sections stay distinguishable.
    """
    metrics: dict[str, float] = {}
    if isinstance(record, dict):
        for key, value in record.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                metrics.update(collect_metrics(value, path))
            elif (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and (higher_is_better(str(key)) or lower_is_better(str(key)))
            ):
                metrics[path] = float(value)
    elif isinstance(record, list):
        for index, item in enumerate(record):
            metrics.update(collect_metrics(item, f"{prefix}[{index}]"))
    return metrics


def compare_records(
    baseline: dict[str, dict],
    current: dict[str, dict],
    threshold: float = 0.2,
) -> tuple[list[tuple[str, float, float, float]], list[str]]:
    """Regressions beyond ``threshold`` plus human-readable notes.

    Returns:
        ``(regressions, notes)`` where each regression is
        ``(metric path, baseline value, current value, fractional
        change)`` -- change negative for throughput slowdowns,
        positive for latency blow-ups -- and notes describe
        comparability gaps (missing records or metrics).
    """
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be a fraction in (0, 1), got {threshold!r}")
    regressions: list[tuple[str, float, float, float]] = []
    notes: list[str] = []
    for name, base_record in sorted(baseline.items()):
        current_record = current.get(name)
        if current_record is None:
            notes.append(f"benchmark {name!r} missing from the current run")
            continue
        if bool(base_record.get("smoke")) != bool(current_record.get("smoke")):
            notes.append(
                f"benchmark {name!r}: smoke flags differ between runs; "
                "throughputs are not comparable, skipping"
            )
            continue
        base_metrics = collect_metrics(base_record)
        current_metrics = collect_metrics(current_record)
        for metric, base_value in sorted(base_metrics.items()):
            current_value = current_metrics.get(metric)
            if current_value is None:
                notes.append(f"{name}: metric {metric} missing from the current run")
                continue
            if base_value <= 0:
                continue
            change = (current_value - base_value) / base_value
            regressed = change > threshold if lower_is_better(metric) else change < -threshold
            if regressed:
                regressions.append((f"{name}:{metric}", base_value, current_value, change))
    return regressions, notes


def check_floors(
    current: dict[str, dict], floors: dict[str, dict[str, float]]
) -> list[str]:
    """Violations of the absolute throughput floors, as messages.

    A floored metric missing from the current run (absent record or
    absent leaf) is a violation: floors exist so a regression cannot
    slip through, and a benchmark that silently stopped reporting is
    the most complete regression there is.  For lower-is-better
    ``_ms``, ``_ticks`` and ``_bytes`` metrics the pinned value is a *ceiling*:
    the violation fires when the current value exceeds it.  Smoke and
    full runs share the
    floors file, so pin floors from the *smoke* configuration CI
    actually executes.
    """
    violations: list[str] = []
    for name, metric_floors in sorted(floors.items()):
        record = current.get(name)
        metrics = collect_metrics(record) if record is not None else {}
        for metric, floor in sorted(metric_floors.items()):
            value = metrics.get(metric)
            bound = "ceiling" if lower_is_better(metric) else "floor"
            if value is None:
                violations.append(
                    f"{name}:{metric} has a {bound} of {floor:,.6g} but is missing "
                    "from the current run"
                )
            elif lower_is_better(metric):
                if value > floor:
                    violations.append(
                        f"{name}:{metric} = {value:,.6g} above the absolute ceiling "
                        f"{floor:,.6g}"
                    )
            elif value < floor:
                violations.append(
                    f"{name}:{metric} = {value:,.6g} below the absolute floor "
                    f"{floor:,.6g}"
                )
    return violations


def load_floors(path: Path) -> dict[str, dict[str, float]]:
    """Parse and validate a floors file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"floors file {path} must map benchmark names to metrics")
    floors: dict[str, dict[str, float]] = {}
    for name, metric_floors in data.items():
        if name.startswith("_"):
            continue  # comment keys
        if not isinstance(metric_floors, dict):
            raise ValueError(f"floors for benchmark {name!r} must be a mapping")
        floors[name] = {
            metric: float(floor) for metric, floor in metric_floors.items()
        }
    return floors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True, help="directory of baseline BENCH_*.json"
    )
    parser.add_argument(
        "--current", type=Path, required=True, help="directory of current BENCH_*.json"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="fractional throughput drop that counts as a regression (default: 0.2)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="print flags but exit 0 (for noisy shared CI runners)",
    )
    parser.add_argument(
        "--blocking",
        action="append",
        default=[],
        metavar="BENCHMARK",
        help="benchmark whose regressions fail the run even under --warn-only "
        "(repeatable)",
    )
    parser.add_argument(
        "--floors",
        type=Path,
        default=None,
        help="JSON file of absolute throughput floors "
        "({benchmark: {metric.path: minimum}}); violations always fail",
    )
    parser.add_argument(
        "--warn-metric",
        action="append",
        default=[],
        metavar="SUBSTRING",
        help="metric path substring whose regressions only warn, even in a "
        "--blocking benchmark (repeatable; for metrics without variance history)",
    )
    args = parser.parse_args(argv)

    baseline = load_records(args.baseline) if args.baseline.is_dir() else {}
    current = load_records(args.current) if args.current.is_dir() else {}
    floors = load_floors(args.floors) if args.floors is not None else {}

    all_floor_failures = check_floors(current, floors) if floors else []
    floor_failures = []
    for failure in all_floor_failures:
        # Messages lead with "benchmark:dotted.metric.path", the same
        # key --warn-metric patterns match against for regressions.
        metric_key = failure.split(" ", 1)[0]
        if any(pattern in metric_key for pattern in args.warn_metric):
            print(f"FLOOR (warn-only metric) {failure}")
        else:
            print(f"FLOOR {failure}")
            floor_failures.append(failure)

    if not baseline:
        print(f"no baseline records under {args.baseline}; nothing to compare")
        return 1 if floor_failures else 0
    if not current:
        print(f"no current records under {args.current}; nothing to compare")
        return 1 if floor_failures else 0

    regressions, notes = compare_records(baseline, current, threshold=args.threshold)
    for note in notes:
        print(f"note: {note}")
    compared = sorted(set(baseline) & set(current))
    print(f"compared benchmarks: {', '.join(compared) if compared else 'none'}")
    blocking_failures = []
    hard_regressions = []
    if not regressions:
        print(f"no throughput regressions beyond {args.threshold:.0%}")
    for metric, base_value, current_value, change in regressions:
        benchmark = metric.split(":", 1)[0]
        warn_metric = any(pattern in metric for pattern in args.warn_metric)
        blocked = benchmark in args.blocking and not warn_metric
        label = " (blocking)" if blocked else " (warn-only metric)" if warn_metric else ""
        print(
            f"REGRESSION{label} {metric}: "
            f"{base_value:,.6g} -> {current_value:,.6g} ({change:+.1%})"
        )
        if blocked:
            blocking_failures.append(metric)
        if not warn_metric:
            hard_regressions.append(metric)
    if floor_failures or blocking_failures:
        return 1
    if hard_regressions and args.warn_only:
        print("warn-only mode: exiting 0 despite regressions")
        return 0
    return 1 if hard_regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
