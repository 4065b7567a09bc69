"""Run record and memory accounting from ``/proc``.

The run record names what the numbers were measured on -- cores,
Python and numpy versions, whether numba is importable -- and how much
CPU the hypervisor stole while the run lasted, so a slow host can be
told apart from a slow commit.

Memory is the program's, not the benchmark's inputs': the parent's
high-water mark is reset after input generation (``clear_refs``) and
read back from ``VmHWM`` at the end.  Forked process-backend workers
inherit the parent's pages -- the benchmark's inputs among them -- so
for them only pages not shared with the parent count: their
``Private_Clean + Private_Dirty`` from ``smaps_rollup``, read at the
watch's last update while they are alive, *summed* over workers and
added to the parent's peak.

CPU time comes from the kernel's per-task clocks, which leave out
the time the hypervisor stole from the guest.
"""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import platform
import time
from pathlib import Path


def _status_kib(pid: int | str, field: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS; False if unsupported."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def parent_peak_mb() -> float:
    return _status_kib("self", "VmHWM") / 1024.0


def _private_kib(pid: int) -> int:
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        return 0
    fields = ("Private_Clean:", "Private_Dirty:")
    return sum(int(line.split()[1]) for line in text.splitlines() if line.startswith(fields))


def workers_private_mb() -> float:
    """Sum of the live multiprocessing children's pages not shared with the parent."""
    return sum(_private_kib(child.pid) for child in multiprocessing.active_children()) / 1024.0


def workers_cpu_s() -> float:
    """CPU seconds of the live multiprocessing children.

    Read from ``schedstat`` (nanoseconds on the CPU, the clock
    ``process_time`` reads for this process) rather than the tick-based
    ``utime``/``stime``.
    """
    total = 0
    for child in multiprocessing.active_children():
        try:
            total += int(Path(f"/proc/{child.pid}/schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9


def parent_cpu_s() -> float:
    """User+system CPU seconds of this process, all threads."""
    return time.process_time()


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs from ``/proc/stat``."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except OSError:
        return 0, 0
    values = [int(value) for value in fields[:8]]
    return values[7], sum(values)


def steal_share(start: tuple[int, int], end: tuple[int, int]) -> float:
    total = end[1] - start[1]
    return (end[0] - start[0]) / total if total > 0 else 0.0


def stop_helpers() -> None:
    """Reap finished workers and stop multiprocessing's resource tracker.

    The process backend starts the tracker; it would otherwise outlive
    this process by a moment instead of being waited for.
    """
    multiprocessing.active_children()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def run_record() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "peak_rss": "parent VmHWM + sum of workers' private pages at the end of the timed phase",
    }
