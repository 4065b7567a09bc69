"""Load generation against the serving tier.

Two driver shapes, the standard pair from the serving-benchmark
literature:

* **Open loop** (:func:`open_loop`): requests fire on a wall-clock
  arrival schedule regardless of completions, so queueing delay shows
  up as latency instead of silently throttling the offered load --
  the honest way to measure a system under a demand curve it does not
  control.  Schedules derive from the repo's own
  :mod:`repro.workloads.patterns` demand shapes
  (:func:`arrival_times`): a diurnal day compressed into seconds, or
  a flash crowd (steady base + spike burst) for the backpressure
  story.
* **Closed loop** (:func:`closed_loop`): ``n_workers`` concurrent
  callers each await their response before issuing the next request.
  Sustained throughput under a fixed concurrency -- the capacity
  number the perf floors pin.

Both drivers account rejections (:class:`~repro.serve.service.AdmissionError`)
separately from errors and fold latencies into a
:class:`~repro.serve.metrics.LatencyRecorder`, reported as a
:class:`LoadReport`.

Drivers take any ``submit`` coroutine factory, so they run equally
against in-process service calls and -- through
:class:`HttpLoadClient`, a small pooled keep-alive HTTP/1.1 client for
the :mod:`repro.serve.http` front end -- against the real socket path.
The client translates a 429 response back into
:class:`~repro.serve.service.AdmissionError` so the drivers' rejection
accounting is transport-independent.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Awaitable, Callable, Sequence

import numpy as np

from ..fleet.engine import FleetCustomer, FleetSample
from ..ml.bootstrap import resolve_rng
from ..telemetry.serialize import trace_to_dict
from ..workloads.patterns import Composite, DemandPattern, DiurnalPattern, SpikyPattern, SteadyPattern
from .metrics import REPORTED_PERCENTILES, LatencyRecorder
from .service import AdmissionError

__all__ = [
    "HttpLoadClient",
    "LoadReport",
    "arrival_times",
    "closed_loop",
    "diurnal_pattern",
    "flash_crowd_pattern",
    "open_loop",
]

def diurnal_pattern(peak: float = 1.0) -> DemandPattern:
    """A full diurnal day, trough at 20% of peak -- the canonical curve."""
    return DiurnalPattern(trough=0.2 * peak, peak=peak, noise=0.02)


def flash_crowd_pattern(base: float = 0.3, peak: float = 3.0) -> DemandPattern:
    """Steady background plus a rare, violent spike: the flash crowd."""
    return Composite(
        SteadyPattern(level=base, noise=0.02),
        SpikyPattern(
            base=0.0,
            peak=peak,
            spike_probability=0.05,
            spike_duration_samples=4,
            noise=0.02,
        ),
    )


def arrival_times(
    pattern: DemandPattern,
    duration_s: float,
    mean_rps: float,
    n_bins: int = 48,
    rng=None,
) -> list[float]:
    """An open-loop arrival schedule shaped by a demand pattern.

    The pattern's demand curve (sampled at ``n_bins`` points, its
    nominal cadence compressed onto ``duration_s`` seconds) is
    normalized so the *mean* arrival rate is ``mean_rps``; each bin
    then receives a proportional number of arrivals, spread uniformly
    at random inside the bin.  Returns offsets in seconds from the
    driver's start, sorted ascending.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s!r}")
    if mean_rps <= 0:
        raise ValueError(f"mean_rps must be positive, got {mean_rps!r}")
    generator = resolve_rng(rng)
    levels = np.asarray(
        pattern.generate(n_bins, interval_minutes=10.0, rng=generator), dtype=float
    )
    levels = np.maximum(levels, 0.0)
    if levels.sum() <= 0:
        levels = np.ones(n_bins)
    n_total = max(1, round(mean_rps * duration_s))
    weights = levels / levels.sum()
    counts = np.floor(weights * n_total).astype(int)
    # Distribute the rounding remainder onto the highest-demand bins.
    remainder = n_total - int(counts.sum())
    for index in np.argsort(weights)[::-1][:remainder]:
        counts[index] += 1
    bin_len = duration_s / n_bins
    times: list[float] = []
    for index, count in enumerate(counts):
        if count:
            start = index * bin_len
            times.extend(start + generator.random(int(count)) * bin_len)
    times.sort()
    return times


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-driver run.

    ``requests_per_sec`` counts *completed* (ok) requests over the
    run's wall-clock; rejections and errors are accounted but not
    credited as throughput.
    """

    name: str
    n_requests: int
    n_ok: int
    n_rejected: int
    n_errors: int
    duration_s: float
    latency: LatencyRecorder

    @property
    def requests_per_sec(self) -> float:
        return self.n_ok / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def rejection_rate(self) -> float:
        return self.n_rejected / self.n_requests if self.n_requests else 0.0

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "n_requests": self.n_requests,
            "n_ok": self.n_ok,
            "n_rejected": self.n_rejected,
            "n_errors": self.n_errors,
            "duration_s": self.duration_s,
            "requests_per_sec": self.requests_per_sec,
            "rejection_rate": self.rejection_rate,
        }
        for label, _ in REPORTED_PERCENTILES:
            out[label] = 0.0
        out.update(
            (label, value)
            for label, value in self.latency.summary().items()
            if label.endswith("_ms")
        )
        return out


async def _timed_call(
    submit: Callable[[], Awaitable], latency: LatencyRecorder
) -> str:
    loop = asyncio.get_running_loop()
    started = loop.time()
    try:
        await submit()
    except AdmissionError:
        return "rejected"
    except Exception:  # noqa: BLE001 - drivers classify, not crash
        return "error"
    latency.record(loop.time() - started)
    return "ok"


async def open_loop(
    submit: Callable[[], Awaitable], schedule: Sequence[float], name: str = "open_loop"
) -> LoadReport:
    """Fire ``submit`` at each schedule offset; never wait in between.

    One dispatcher walks the schedule in offset order, sleeps until
    each offset and only then creates that request's task, so the loop
    carries one timer and the requests in flight, not a sleeping task
    per scheduled request.  Overdue requests are created at once, in
    order (the driver never *re-throttles* a backlog -- that would
    close the loop); every request's latency is measured from its
    actual dispatch.
    """
    loop = asyncio.get_running_loop()
    latency = LatencyRecorder()
    started = loop.time()
    tasks: list[asyncio.Task] = []
    for offset in sorted(schedule):
        delay = started + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(_timed_call(submit, latency)))
    outcomes = await asyncio.gather(*tasks)
    duration = loop.time() - started
    return LoadReport(
        name=name,
        n_requests=len(outcomes),
        n_ok=sum(1 for outcome in outcomes if outcome == "ok"),
        n_rejected=sum(1 for outcome in outcomes if outcome == "rejected"),
        n_errors=sum(1 for outcome in outcomes if outcome == "error"),
        duration_s=duration,
        latency=latency,
    )


async def closed_loop(
    submit: Callable[[], Awaitable],
    n_workers: int,
    n_requests: int,
    name: str = "closed_loop",
) -> LoadReport:
    """``n_workers`` callers issue ``n_requests`` total, one at a time each."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers!r}")
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests!r}")
    loop = asyncio.get_running_loop()
    latency = LatencyRecorder()
    remaining = iter(range(n_requests))
    outcomes: list[str] = []

    async def worker() -> None:
        for _ in remaining:
            outcomes.append(await _timed_call(submit, latency))

    started = loop.time()
    await asyncio.gather(*(worker() for _ in range(n_workers)))
    duration = loop.time() - started
    return LoadReport(
        name=name,
        n_requests=len(outcomes),
        n_ok=sum(1 for outcome in outcomes if outcome == "ok"),
        n_rejected=sum(1 for outcome in outcomes if outcome == "rejected"),
        n_errors=sum(1 for outcome in outcomes if outcome == "error"),
        duration_s=duration,
        latency=latency,
    )


class HttpLoadClient:
    """Pooled keep-alive HTTP client for the serving front end.

    Speaks the exact wire shapes :mod:`repro.serve.http` accepts, over
    at most ``pool_size`` persistent connections.  Concurrent callers
    beyond the pool size queue for a free connection, so a closed-loop
    driver with ``n_workers`` callers wants ``pool_size >= n_workers``.

    A 429 response is raised as
    :class:`~repro.serve.service.AdmissionError` (lane and suggested
    back-off taken from the response body), matching what the
    in-process call would have raised; any other non-200 status raises
    :class:`RuntimeError`.
    """

    def __init__(self, host: str, port: int, pool_size: int = 8) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size!r}")
        self._host = host
        self._port = port
        # Unopened slots are ``None``; connections dial lazily on
        # first acquire and return to the pool after each exchange.
        self._pool: asyncio.Queue = asyncio.Queue()
        for _ in range(pool_size):
            self._pool.put_nowait(None)
        self._closed = False

    async def observe(self, sample: FleetSample) -> dict:
        """POST one telemetry sample; the observe outcome document."""
        return await self._request(
            "POST",
            "/observe",
            {
                "customer_id": sample.customer_id,
                "values": {
                    dimension.name: float(value)
                    for dimension, value in sample.values.items()
                },
                "deployment": sample.deployment.value,
            },
        )

    async def recommend(self, customer: FleetCustomer) -> dict:
        """POST one customer's trace; the recommendation document."""
        payload: dict = {
            "customer_id": customer.customer_id,
            "trace": trace_to_dict(customer.trace),
            "deployment": customer.deployment.value,
        }
        if customer.file_sizes_gib is not None:
            payload["file_sizes_gib"] = list(customer.file_sizes_gib)
        if customer.current_sku_name is not None:
            payload["current_sku_name"] = customer.current_sku_name
        return await self._request("POST", "/recommend", payload)

    async def stats(self) -> dict:
        """GET the service's metrics snapshot."""
        return await self._request("GET", "/stats")

    async def close(self) -> None:
        """Close every pooled connection; the client is done after."""
        self._closed = True
        while not self._pool.empty():
            connection = self._pool.get_nowait()
            if connection is not None:
                _reader, writer = connection
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

    async def __aenter__(self) -> "HttpLoadClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        if self._closed:
            raise RuntimeError("HttpLoadClient is closed")
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        connection = await self._pool.get()
        try:
            if connection is None:
                connection = await asyncio.open_connection(self._host, self._port)
            reader, writer = connection
            writer.write(head + body)
            await writer.drain()
            status, document = await self._read_response(reader)
        except BaseException:
            # Connection state is unknown; drop it and free the slot.
            if connection is not None:
                connection[1].close()
            self._pool.put_nowait(None)
            raise
        self._pool.put_nowait(connection)
        if status == 200:
            return document
        if status == 429:
            lane = document.get("lane", "unknown")
            retry_after = float(document.get("retry_after_s", 0.001))
            raise AdmissionError(lane, retry_after, "server returned 429")
        raise RuntimeError(f"HTTP {status} from {method} {path}: {document}")

    @staticmethod
    async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict]:
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise RuntimeError(f"malformed status line {lines[0]!r}")
        status = int(parts[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length) if length else b""
        document = json.loads(body.decode("utf-8")) if body else {}
        return status, document
