"""Self-test of the benchmark at tiny input sizes.

Runs every workload through ``perfbench/run.py`` at the ``tiny``
preset, untraced and traced, and checks that

1. every end-to-end metric (untraced) and every per-layer metric
   (traced) named in ``BENCHMARK.json`` is present with its unit, and
   the benchmark's own metric tables match that file;
2. the output digests match the ones recorded for the tiny preset;
3. traced and untraced runs emit byte-identical output (equal digests);
4. every layer wrapper fired at least once across the traced runs --
   a wrapper bound where no caller looks it up would measure nothing;
5. in a directory holding only ``BENCHMARK.json`` and the benchmark,
   the run exits non-zero without printing a result.

The tracing overhead of each workload is printed alongside.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch", "watch_onboard", "watch_steady", "serve")
SEED = 0


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


def main() -> int:
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.run import END_TO_END, per_layer_names
    from perfbench.tracing import SPANS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    problems = []
    if expected[0] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if expected[1] != per_layer_names():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_names()")

    fired: dict[str, float] = {span: 0.0 for span in SPANS}
    for workload in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            code, lines = run(workload, trace)
            label = f"{workload} trace={trace}"
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            digest_line = next((line for line in lines if line.startswith("digest ")), "")
            digests[trace] = digest_line.split()[1] if digest_line else None
            if "(recorded)" not in digest_line:
                problems.append(f"{label}: no recorded digest to compare against")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: output check failed ({result['failed']} failed)")
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                if metrics.get(name, {}).get("unit") != unit:
                    problems.append(f"{label}: metric {name} missing or not in {unit}")
            if set(metrics) != set(expected[trace]):
                problems.append(f"{label}: unexpected metrics {sorted(set(metrics) - set(expected[trace]))}")
            if trace == 1:
                for span in SPANS:
                    fired[span] += metrics.get(f"{span}.calls", {}).get("value", 0.0)
                overhead = metrics.get("bench.trace_overhead", {}).get("value")
                print(f"{workload}: tracing overhead {overhead:+.1%}" if overhead is not None else "")
        if digests.get(0) != digests.get(1):
            problems.append(f"{workload}: traced and untraced digests differ")
    for span, calls in fired.items():
        if not calls:
            problems.append(f"layer wrapper {span} never fired")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("batch", 0, cwd=bare)
        if code == 0 or (lines and lines[-1].startswith("{")):
            problems.append("bare directory: run did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()

    for problem in problems:
        print("FAIL", problem)
    print("self-test", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
