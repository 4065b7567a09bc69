"""Telemetry substrate: perf counters, time series, traces, rollups.

Implements the data path of the DMA "Perf Collector & Pre-Aggregator"
(paper Figure 2 and Section 4): 10-minute counter samples, aligned
multi-dimension traces, file/database/instance aggregation and the
local persistence format.
"""

from .aggregate import aggregate_database, aggregate_instance, aggregate_traces
from .batch import dump_trace_batch, iter_trace_paths, load_trace_batch
from .collector import DemandSampler, PerfCollector
from .gaps import GapRepair, longest_gap, repair_gaps
from .counters import (
    DB_DIMENSIONS,
    MI_DIMENSIONS,
    PROFILING_DB_DIMENSIONS,
    PROFILING_MI_DIMENSIONS,
    PerfDimension,
)
from .serialize import (
    dump_trace_json,
    load_trace_json,
    trace_from_dict,
    trace_to_csv,
    trace_to_dict,
)
from .streaming import DEFAULT_STREAM_WINDOW, StreamingTraceBuilder
from .timeseries import DEFAULT_SAMPLE_INTERVAL_MINUTES, TimeSeries
from .trace import PerformanceTrace

__all__ = [
    "aggregate_database",
    "aggregate_instance",
    "aggregate_traces",
    "dump_trace_batch",
    "iter_trace_paths",
    "load_trace_batch",
    "DemandSampler",
    "PerfCollector",
    "GapRepair",
    "longest_gap",
    "repair_gaps",
    "DB_DIMENSIONS",
    "MI_DIMENSIONS",
    "PROFILING_DB_DIMENSIONS",
    "PROFILING_MI_DIMENSIONS",
    "PerfDimension",
    "dump_trace_json",
    "load_trace_json",
    "trace_from_dict",
    "trace_to_csv",
    "trace_to_dict",
    "DEFAULT_SAMPLE_INTERVAL_MINUTES",
    "DEFAULT_STREAM_WINDOW",
    "StreamingTraceBuilder",
    "TimeSeries",
    "PerformanceTrace",
]
