"""Event sinks: subscribers to the engine's stage-event stream.

A sink is anything with ``emit(event)`` (and optionally ``close()``).  The
engine fans every event out through an :class:`EventBus`; the bundled
sinks cover the three consumers the runtime itself needs:

* :class:`JsonlTraceSink` -- one JSON object per line, the on-disk trace
  format (``--trace`` / ``RuntimeConfig.trace_path``);
* :class:`CliProgressSink` -- live one-line-per-stage progress for the CLI;
* :class:`AggregatingSink` -- folds the stream back into the
  ``stages``/fault-accounting fields of a
  :class:`~repro.core.results.RunResult`.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Protocol, runtime_checkable

from repro.core.results import StageResult
from repro.obs.events import StageEvent


@runtime_checkable
class EventSink(Protocol):
    """Anything that can receive engine events."""

    def emit(self, event: StageEvent) -> None: ...


class EventBus:
    """Fan one event stream out to every subscribed sink."""

    def __init__(self, sinks: Iterable[EventSink] = ()) -> None:
        self.sinks: list[EventSink] = list(sinks)

    def emit(self, event: StageEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class RecordingSink:
    """Keep every event in memory (tests, programmatic consumers)."""

    def __init__(self) -> None:
        self.events: list[StageEvent] = []

    def emit(self, event: StageEvent) -> None:
        self.events.append(event)


class JsonlTraceSink:
    """Write each event as one JSON line.

    Accepts a path (opened and owned by the sink) or an open text stream
    (borrowed; ``close`` flushes but does not close it).
    """

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = target
            self._owned = False

    def emit(self, event: StageEvent) -> None:
        self._fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owned:
            self._fh.close()


class CliProgressSink:
    """Human-oriented live narration: one line per stage, plus a summary."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def _print(self, text: str) -> None:
        self._stream.write(text + "\n")

    def emit(self, event: StageEvent) -> None:
        kind = event.kind
        if kind == "run_begin":
            self._print(
                f"[{event.loop}] {event.strategy} on p={event.n_procs}: "
                f"{event.n_iterations} iterations"
            )
        elif kind == "fault_injected":
            self._print(
                f"  stage {event.stage}: {event.fault} fault on p{event.proc}"
            )
        elif kind == "retry":
            self._print(
                f"  stage {event.stage}: zero-commit retry (streak {event.streak})"
            )
        elif kind == "stage_end":
            r: StageResult = event.result
            verdict = "fail" if r.failed else "ok"
            self._print(
                f"  stage {r.index}: {verdict:4s} committed {r.committed_iterations:5d} "
                f"remaining {r.remaining_after:5d} span {r.span:.1f}"
            )
        elif kind == "run_end":
            # A zero-time run (e.g. a zero-iteration loop) has no defined
            # speedup; "1.00x" would misread as a measurement.
            speedup = (
                f"{event.sequential_work / event.total_time:.2f}x"
                if event.total_time > 0 else "n/a"
            )
            self._print(
                f"[{event.loop}] done: {event.stages} stages, "
                f"{event.restarts} restarts, speedup {speedup}"
            )


class AggregatingSink:
    """Fold the event stream into result-shaped aggregates.

    The engine builds its :class:`~repro.core.results.RunResult` from this
    sink's ``stages`` list, so the one event stream is the single source of
    per-stage truth -- result scraping and tracing can never disagree.
    """

    def __init__(self) -> None:
        self.stages: list[StageResult] = []
        self.faults: list[tuple[int, int, str]] = []
        self.retry_stages: list[int] = []
        self.exit_iteration: int | None = None

    def emit(self, event: StageEvent) -> None:
        kind = event.kind
        if kind == "stage_end":
            self.stages.append(event.result)
        elif kind == "fault_injected":
            self.faults.append((event.stage, event.proc, event.fault))
        elif kind == "retry":
            self.retry_stages.append(event.stage)
        elif kind == "run_end":
            self.exit_iteration = event.exit_iteration
