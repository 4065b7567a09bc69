"""Host speed probe: a fixed kernel of the benchmark's own, timed inside each round.

The reference box is a shared 2-vCPU VM whose CPUs change speed on
their own: the same fixed work takes 4.5 ms, 7 ms or 14 ms of CPU time
depending on the moment and the CPU, at under 2% reported steal, and a
state can last from tens of milliseconds to many seconds.  No clock
the guest can read leaves that out.

So a round samples the speed of the CPUs it runs on at its quiet
points -- between batch shards, between feed cycles of the serial
watch, right after a checkpoint of the process watch, between the
serve schedule's segments: moments when no unit of work is in flight,
so sampling delays nothing that is timed.  A sample runs
:func:`kernel` once on each CPU (pinning the calling thread to it) and
reads its thread CPU time; its *speed factor* is
``NOMINAL_CPU_S / that time``, averaged over the CPUs.  A window of
work between two samples is scaled by the mean of their factors, so a
figure reads as it would on the reference box at its usual speed.  The
kernel never runs program code, so a slower program still reads
slower.

The kernel mixes what the program spends its time on: an interpreted
loop over dicts, lists and floats (per-sample ingest, orchestration)
and numpy work on a demand matrix against capacities (the violation
kernel, curve assembly).
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Typical CPU seconds of one :func:`kernel` call on the reference box
#: (2-vCPU x86_64 VM, Python 3.11, numpy 2.4).  Fixed: changing it
#: rescales every reported time.
NOMINAL_CPU_S = 0.006

_rng = np.random.default_rng(20221)
_DEMAND = _rng.gamma(2.0, 1.0, size=(4, 2016))
_CAPS = np.sort(_rng.gamma(4.0, 1.0, size=(4, 64)), axis=1)
_SERIES = _rng.random(40000)


def kernel() -> float:
    """Fixed work, about half interpreted and half numpy."""
    # Violation counts of every capacity column over the demand window.
    over = _DEMAND[:, None, :] > _CAPS[:, :, None]
    counts = over.any(axis=0).sum(axis=1)
    ordered = np.sort(_SERIES)
    cumulative = np.cumsum(ordered)
    ranks = np.searchsorted(ordered, _SERIES[::7])
    total = float(counts.sum()) + float(cumulative[-1]) + float(ranks.sum())
    # Interpreted bookkeeping over small containers.
    state: dict[int, list[float]] = {}
    for index in range(8000):
        key = index % 61
        bucket = state.get(key)
        if bucket is None:
            bucket = state[key] = []
        value = (index * 0.618) % 1.0
        bucket.append(value * value + 0.5)
        if len(bucket) > 24:
            total += sum(bucket) / len(bucket)
            del bucket[:12]
    return total


def pin_to_one_cpu() -> list[int]:
    """Pin the calling thread (and the threads it starts) to one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return [cpu]


class Speedometer:
    """Samples the speed of the CPUs a workload runs on."""

    def __init__(self, cpus: list[int] | None = None) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if cpus is None else cpus
        self.n_samples = 0

    def sample(self) -> float:
        """The speed factor now: mean over the CPUs of ``NOMINAL_CPU_S / kernel CPU time``."""
        home = os.sched_getaffinity(0)
        move = len(self.cpus) > 1 or home != set(self.cpus)
        factors = []
        try:
            for cpu in self.cpus:
                if move:
                    os.sched_setaffinity(0, {cpu})
                start = time.thread_time()
                kernel()
                factors.append(NOMINAL_CPU_S / (time.thread_time() - start))
        finally:
            if move:
                os.sched_setaffinity(0, home)
        self.n_samples += 1
        return sum(factors) / len(factors)
