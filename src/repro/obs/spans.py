"""Hierarchical dual-clock span tracing and the Perfetto exporter.

Every engine run can narrate *where time went* as a tree of spans::

    run
      stage 0
        checkpoint | execute | analyze | commit | restore
          block (one per scheduled block, on its processor's track)
      stage 1
        ...

Each span records **two clocks**:

* *host* -- real wall-clock seconds (``time.perf_counter``), honest and
  non-deterministic; this is what you optimize when making the runtime
  itself faster.
* *virtual* -- the cost model's simulated time
  (:meth:`repro.machine.timeline.Timeline.virtual_now`), deterministic and
  bit-identical across execution backends; this is what the paper's
  figures are measured in.

Spans are emitted through the engine's existing :class:`EventBus` as
:class:`~repro.obs.events.SpanClosed` events, so they ride the same JSONL
trace as the stage events, and :func:`chrome_trace` folds a recorded
stream into Chrome trace-event JSON that Perfetto (https://ui.perfetto.dev)
renders directly: one process per clock, one thread track per processor
plus an engine track, metric counters as Perfetto counter tracks.

The fork backend ships per-block host timings and metric deltas back
through its delta pipe; the engine emits the block spans itself, in block
order, right after each ``BlockExecuted`` -- so the *order* of a trace is
deterministic even though host durations are not.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Iterable

from repro.obs.events import MetricsSnapshot, SpanClosed, StageEvent


class _OpenSpan:
    """Mutable bookkeeping for a span between begin() and end()."""

    __slots__ = ("name", "cat", "stage", "proc", "host_start", "virt_start")

    def __init__(self, name, cat, stage, proc, host_start, virt_start) -> None:
        self.name = name
        self.cat = cat
        self.stage = stage
        self.proc = proc
        self.host_start = host_start
        self.virt_start = virt_start


class SpanTracker:
    """Builds and emits :class:`SpanClosed` events for one engine run.

    ``emit`` is the engine's event-bus emit; ``host_now`` returns seconds
    relative to the run start; ``virt_now`` returns the timeline's current
    virtual time.  The tracker itself keeps no stack -- the engine owns
    span lifetimes explicitly (phases nest lexically as ``with phase(...)``
    blocks, the stage span is closed by ``close_stage``), which keeps
    `continue`/`return` paths in the engine loop from leaking spans.
    """

    def __init__(
        self,
        emit: Callable[[StageEvent], None],
        host_now: Callable[[], float],
        virt_now: Callable[[], float],
    ) -> None:
        self._emit = emit
        self.host_now = host_now
        self.virt_now = virt_now

    def begin(
        self, name: str, cat: str, stage: int | None = None,
        proc: int | None = None,
    ) -> _OpenSpan:
        return _OpenSpan(
            name, cat, stage, proc, self.host_now(), self.virt_now()
        )

    def end(self, span: _OpenSpan) -> None:
        self._emit(SpanClosed(
            name=span.name, cat=span.cat, stage=span.stage, proc=span.proc,
            host_start=span.host_start,
            host_dur=self.host_now() - span.host_start,
            virt_start=span.virt_start,
            virt_dur=self.virt_now() - span.virt_start,
        ))

    class _Phase:
        __slots__ = ("tracker", "span")

        def __init__(self, tracker, span) -> None:
            self.tracker = tracker
            self.span = span

        def __enter__(self):
            return self.span

        def __exit__(self, *exc) -> bool:
            self.tracker.end(self.span)
            return False

    def phase(self, name: str, stage: int) -> "SpanTracker._Phase":
        """Context manager for one engine phase of one stage."""
        return self._Phase(self, self.begin(name, "phase", stage=stage))

    def block_span(
        self, stage: int, proc: int,
        host_start: float, host_dur: float,
        virt_start: float, virt_dur: float,
    ) -> None:
        """Emit a per-block span from backend-measured timings."""
        self._emit(SpanClosed(
            name="block", cat="block", stage=stage, proc=proc,
            host_start=host_start, host_dur=host_dur,
            virt_start=virt_start, virt_dur=virt_dur,
        ))


class NullTracer:
    """The engine's tracer when span collection is off: every call is a
    no-op, so the engine's phases need no ``if tracer`` guards."""

    class _Phase:
        __slots__ = ()
        virt_start = 0.0

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> bool:
            return False

    _PHASE = _Phase()

    def begin(self, name, cat, stage=None, proc=None) -> None:
        return None

    def end(self, span) -> None:
        pass

    def phase(self, name: str, stage: int) -> "NullTracer._Phase":
        return self._PHASE

    def block_span(self, *timings) -> None:
        pass


# -- Chrome trace-event (Perfetto) export --------------------------------------------

#: Synthetic process ids: one timeline per clock.
HOST_PID = 1
VIRT_PID = 2

#: Thread ids inside each process: 0 = the engine's own track,
#: ``proc + 1`` = simulated processor ``proc``.
ENGINE_TID = 0


def _tid(proc: int | None) -> int:
    return ENGINE_TID if proc is None else proc + 1


#: Resource-sample fields exported as host-timeline counter tracks.
_RESOURCE_COUNTERS = (
    ("rss_bytes", "host rss (bytes)"),
    ("worker_rss_bytes", "worker rss (bytes)"),
    ("cpu_s", "cpu time (s)"),
    ("inflight", "inflight blocks"),
)


def chrome_trace(
    events: Iterable[StageEvent],
    resource_samples: Iterable[dict] = (),
) -> dict:
    """Fold a recorded event stream into Chrome trace-event JSON.

    Span events become complete (``ph: "X"``) slices on two synthetic
    processes -- pid 1 renders the host wall-clock timeline (microseconds),
    pid 2 the virtual timeline (one virtual-time unit = 1 "us") -- with one
    thread per simulated processor.  Stage-scoped metrics snapshots become
    counter (``ph: "C"``) tracks on the virtual timeline.  Host resource
    samples (``resource_samples``, from
    :class:`repro.obs.resources.ResourceSampler`) become counter tracks on
    the *host* timeline only: they are operational-plane data and never
    touch the deterministic virtual clock.  The result dict serializes
    with ``json.dump`` and loads directly in Perfetto.
    """
    trace: list[dict] = []

    def meta(pid: int, name: str) -> None:
        trace.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    meta(HOST_PID, "host wall-clock")
    meta(VIRT_PID, "virtual time (cost model)")
    seen_tids: set[tuple[int, int]] = set()

    def thread_meta(pid: int, tid: int) -> None:
        if (pid, tid) in seen_tids:
            return
        seen_tids.add((pid, tid))
        name = "engine" if tid == ENGINE_TID else f"proc {tid - 1}"
        trace.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name},
        })

    for event in events:
        kind = event.kind
        if kind == "span":
            label = (
                event.name if event.stage is None
                else f"{event.name} s{event.stage}"
            )
            tid = _tid(event.proc)
            thread_meta(HOST_PID, tid)
            thread_meta(VIRT_PID, tid)
            common = {
                "name": label, "cat": event.cat, "ph": "X", "tid": tid,
            }
            trace.append({
                **common, "pid": HOST_PID,
                "ts": event.host_start * 1e6, "dur": event.host_dur * 1e6,
            })
            trace.append({
                **common, "pid": VIRT_PID,
                "ts": event.virt_start, "dur": event.virt_dur,
            })
        elif kind == "metrics" and event.scope == "stage":
            for name, value in event.counters.items():
                trace.append({
                    "ph": "C", "name": name, "pid": VIRT_PID, "tid": 0,
                    "ts": event.virt_time, "args": {"value": value},
                })
    for sample in resource_samples:
        t = sample.get("t")
        if t is None:
            continue
        for key, label in _RESOURCE_COUNTERS:
            value = sample.get(key)
            if value is None:
                continue
            trace.append({
                "ph": "C", "name": label, "pid": HOST_PID, "tid": 0,
                "ts": t * 1e6, "args": {"value": value},
            })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


class PerfettoTraceSink:
    """Event sink buffering span/metric events, written as Chrome trace
    JSON on close (``--perfetto PATH`` / ``RuntimeConfig.perfetto_path``).

    Accepts a path (opened and owned) or an open text stream (borrowed).
    """

    def __init__(self, target: str | IO[str]) -> None:
        self._target = target
        self._events: list[StageEvent] = []
        self._resource_samples: list[dict] = []

    def emit(self, event: StageEvent) -> None:
        if isinstance(event, (SpanClosed, MetricsSnapshot)):
            self._events.append(event)

    def set_resource_samples(self, samples: list[dict]) -> None:
        """Host resource samples to merge as counter tracks on export.

        Called by the engine right before the bus closes this sink; the
        samples land on the host timeline only, so traces recorded with
        the sampler off are byte-identical to before.
        """
        self._resource_samples = list(samples)

    def close(self) -> None:
        payload = chrome_trace(self._events, self._resource_samples)
        if isinstance(self._target, str):
            with open(self._target, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, self._target)
            self._target.flush()
