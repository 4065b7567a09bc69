"""Online serving tier: asyncio service over the fleet engine.

The deployment shape the paper's engine is meant for -- a cloud
service over live customer telemetry -- as a subsystem:
:class:`RecommendationService` front-ends
:class:`~repro.fleet.engine.FleetEngine` with ``observe`` (telemetry
ingestion onto sharded live-assessment state) and ``recommend``
(columnar batch SKU queries) endpoints, load-sized microbatching
(:mod:`repro.serve.microbatch`: batches form while a lane is busy, no
timer holds a request back), per-lane admission control with
reject-with-retry-after backpressure, request-level percentile
metrics (:mod:`repro.serve.metrics`), a stdlib HTTP front end
(:func:`repro.serve.http.serve`), and open/closed-loop load drivers
(:mod:`repro.serve.loadgen`).  Everything runs on one asyncio event
loop: every flush executes inline on it, and the tier starts no
thread.
"""

from .config import ServeConfig
from .http import serve
from .loadgen import (
    HttpLoadClient,
    LoadReport,
    arrival_times,
    closed_loop,
    diurnal_pattern,
    flash_crowd_pattern,
    open_loop,
)
from .metrics import BatchStats, LatencyRecorder
from .microbatch import MicroBatcher
from .service import AdmissionError, RecommendationService

__all__ = [
    "AdmissionError",
    "BatchStats",
    "HttpLoadClient",
    "LatencyRecorder",
    "LoadReport",
    "MicroBatcher",
    "RecommendationService",
    "ServeConfig",
    "arrival_times",
    "closed_loop",
    "diurnal_pattern",
    "flash_crowd_pattern",
    "open_loop",
    "serve",
]
