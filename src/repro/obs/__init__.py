"""Structured stage-event observability.

The :class:`~repro.core.engine.StageEngine` narrates every run as a typed
event stream (:mod:`repro.obs.events`); subscriber sinks
(:mod:`repro.obs.sinks`) turn the one stream into whatever a consumer
needs -- a JSONL trace on disk, live CLI progress lines, or the aggregated
:class:`~repro.core.results.RunResult` itself.

On top of the event stream sit two quantitative layers:

* :mod:`repro.obs.metrics` -- a registry of counters/gauges/histograms
  over deterministic counts (marks, bytes moved, retries), near-zero cost
  when disabled;
* :mod:`repro.obs.spans` -- hierarchical dual-clock spans (host
  wall-clock and virtual time), exportable as Chrome trace-event JSON for
  Perfetto;
* :mod:`repro.obs.report` -- folds a recorded trace into the paper-style
  summary tables (``repro report``).

Alongside the deterministic stream runs the **operational plane** --
host-clock, non-deterministic, never part of golden traces
(docs/observability.md):

* :mod:`repro.obs.oplog` -- the unified JSONL operational logger every
  component (engine, supervisors, backends, faults) writes
  through;
* :mod:`repro.obs.resources` -- a background host resource sampler
  (RSS, CPU, worker health);
* :mod:`repro.obs.flight` -- bounded rings of recent activity, dumped
  as a crash bundle on uncaught failure (``repro report --bundle``).

Live narration is ``repro run --progress`` (:class:`CliProgressSink`);
a run is read afterwards with ``repro report``, ``repro report
--bundle`` and the ``REPRO_OPLOG`` file.
"""

from repro.obs.events import (
    BlockExecuted,
    Commit,
    DependenceFound,
    FaultInjected,
    MetricsSnapshot,
    Restore,
    Retry,
    RunBegin,
    RunEnd,
    SpanClosed,
    StageBegin,
    StageEnd,
    StageEvent,
    event_from_dict,
    validate_events,
)
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    render_metrics,
    use_instrumentation,
)
from repro.obs.report import load_trace, run_report, write_perfetto
from repro.obs.sinks import (
    AggregatingSink,
    CliProgressSink,
    EventBus,
    EventSink,
    JsonlTraceSink,
    RecordingSink,
)
from repro.obs.flight import FlightRecorder, dump_bundle, load_bundle, render_bundle
from repro.obs.oplog import OpLog, get_oplog
from repro.obs.resources import ResourceSampler, resolve_resources_enabled
from repro.obs.spans import PerfettoTraceSink, SpanTracker, chrome_trace

__all__ = [
    "StageEvent",
    "RunBegin",
    "StageBegin",
    "BlockExecuted",
    "FaultInjected",
    "DependenceFound",
    "Commit",
    "Restore",
    "Retry",
    "SpanClosed",
    "MetricsSnapshot",
    "StageEnd",
    "RunEnd",
    "event_from_dict",
    "validate_events",
    "EventSink",
    "EventBus",
    "RecordingSink",
    "JsonlTraceSink",
    "CliProgressSink",
    "AggregatingSink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "render_metrics",
    "use_instrumentation",
    "SpanTracker",
    "PerfettoTraceSink",
    "chrome_trace",
    "load_trace",
    "run_report",
    "write_perfetto",
    "OpLog",
    "get_oplog",
    "ResourceSampler",
    "resolve_resources_enabled",
    "FlightRecorder",
    "dump_bundle",
    "load_bundle",
    "render_bundle",
]
