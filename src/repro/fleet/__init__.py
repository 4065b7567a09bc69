"""Fleet-scale batch and streaming recommendation.

Scales Doppler from one workload to whole customer populations:
sharded, parallel, curve-memoizing batch passes with streaming results
and campaign-level summary reports, plus an elastic live fleet watch
that shards customers' streaming assessments across the same
execution backends (:mod:`repro.fleet.backends`) with sticky
per-customer routing over a consistent-hash ring
(:mod:`repro.fleet.sharding`) and optional live rebalancing --
customer migration, hot-key pinning and worker-pool resizing
(:mod:`repro.fleet.rebalance`).
"""

from .backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WatchSupervisionStats,
    WorkerEvent,
    make_backend,
)
from .cache import (
    CurveCache,
    CurveCacheStats,
    catalog_signature,
    trace_fingerprint,
)
from .config import CheckpointConfig, SupervisionConfig, WatchConfig
from .engine import (
    FleetBackend,
    FleetCustomer,
    FleetEngine,
    FleetFitReport,
    FleetLiveUpdate,
    FleetRecommendation,
    FleetSample,
)
from .rebalance import (
    LoadImbalancePolicy,
    Migration,
    RebalanceDecision,
    RebalanceEvent,
    RebalancePolicy,
    ScheduledRebalancePolicy,
    ShardLoad,
    WatchLoadSnapshot,
    WatchRebalanceStats,
)
from .report import (
    FleetSummary,
    WatchActivitySummary,
    summarize_fleet,
    summarize_watch_activity,
)
from .sharding import ShardRing, auto_chunk_size, shard

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "ShardRing",
    "RebalancePolicy",
    "LoadImbalancePolicy",
    "ScheduledRebalancePolicy",
    "RebalanceDecision",
    "RebalanceEvent",
    "Migration",
    "ShardLoad",
    "WatchLoadSnapshot",
    "WatchRebalanceStats",
    "CurveCache",
    "CurveCacheStats",
    "catalog_signature",
    "trace_fingerprint",
    "FleetBackend",
    "FleetCustomer",
    "FleetEngine",
    "FleetFitReport",
    "FleetLiveUpdate",
    "FleetRecommendation",
    "FleetSample",
    "CheckpointConfig",
    "SupervisionConfig",
    "WatchSupervisionStats",
    "WorkerEvent",
    "FleetSummary",
    "WatchActivitySummary",
    "WatchConfig",
    "summarize_fleet",
    "summarize_watch_activity",
    "auto_chunk_size",
    "shard",
]
