"""``repro top``: live monitor over a run's streaming status JSONL.

A run started with ``--status PATH`` attaches a :class:`StatusStreamSink`
that multiplexes all three observability streams into one line-flushed
JSONL file, each record tagged with its plane::

    {"plane": "events",    ...deterministic stage event...}
    {"plane": "oplog",     ...operational record...}
    {"plane": "resources", ...host resource sample...}

``repro top PATH`` tails that file and renders a terminal dashboard:
stage progress and committed fraction, restart/retry counts, worker
health from the supervisor's oplog records, and RSS/CPU sparklines
from the resource samples.  The renderer is a pure function over
:class:`TopState` (``render_top``) so tests can drive it without a
terminal; the CLI loop adds ANSI clear-screen framing and ``--once`` for
single-frame output.

The sink is write-through (one ``flush()`` per line): ``repro top``
polls the file from another process, so buffered lines would render as a
stalled run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import IO

#: Sparkline history length (samples) and glyph ramp.
_HISTORY = 48
_SPARKS = "▁▂▃▄▅▆▇█"


class StatusStreamSink:
    """Line-flushed JSONL multiplexer for one run's three streams.

    An event sink (``emit``), an oplog tap (``note_oplog``) and a
    resource-sampler consumer (``note_resources``); the engine wires all
    three up when ``RuntimeConfig.status_path`` is set.  Thread-safe: the
    sampler thread writes concurrently with the engine.
    """

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = target
            self._owned = False
        self._lock = threading.Lock()
        self._closed = False

    def _write(self, record: dict) -> None:
        try:
            line = json.dumps(record, default=str)
        except (TypeError, ValueError):  # pragma: no cover - defensive
            return
        with self._lock:
            if self._closed:
                return
            try:
                self._fh.write(line + "\n")
                self._fh.flush()
            except (OSError, ValueError):  # pragma: no cover - dead target
                pass

    def emit(self, event) -> None:
        self._write({"plane": "events", **event.to_dict()})

    def note_oplog(self, record: dict) -> None:
        self._write({"plane": "oplog", **record})

    def note_resources(self, sample: dict) -> None:
        self._write({"plane": "resources", **sample})

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._fh.flush()
                if self._owned:
                    self._fh.close()
            except (OSError, ValueError):  # pragma: no cover
                pass


class TopState:
    """Folds a status stream into what the dashboard renders."""

    def __init__(self) -> None:
        self.loop = "?"
        self.strategy = "?"
        self.n_procs = 0
        self.n_iterations = 0
        self.committed_upto = 0
        self.stages = 0
        self.restarts = 0
        self.retries = 0
        self.backend = "?"
        self.gil: str | None = None
        self.degradations: list[str] = []
        self.supervise: dict[str, int] = {}
        self.last: str = ""
        self.done = False
        self.failed: str | None = None
        self.rss = deque(maxlen=_HISTORY)
        self.worker_rss = deque(maxlen=_HISTORY)
        self.cpu_s = 0.0
        self.inflight = 0
        self.workers_alive = 0

    def feed(self, record: dict) -> None:
        plane = record.get("plane")
        if plane == "events":
            self._feed_event(record)
        elif plane == "oplog":
            self._feed_oplog(record)
        elif plane == "resources":
            self._feed_resources(record)

    def _feed_event(self, record: dict) -> None:
        kind = record.get("event")
        if kind == "run_begin":
            self.loop = record.get("loop", "?")
            self.strategy = record.get("strategy", "?")
            self.n_procs = record.get("n_procs", 0)
            self.n_iterations = record.get("n_iterations", 0)
        elif kind == "stage_end":
            self.stages += 1
            result = record.get("result") or {}
            if result.get("failed"):
                self.restarts += 1
            self.last = (
                f"stage {record.get('stage')} "
                f"{'fail' if result.get('failed') else 'ok'}"
            )
        elif kind == "commit":
            self.committed_upto = record.get("committed_upto", 0)
            self.last = (
                f"commit s{record.get('stage')} "
                f"upto {self.committed_upto}"
            )
        elif kind == "retry":
            self.retries += 1
            self.last = f"retry s{record.get('stage')}"
        elif kind == "backend_degraded":
            self.degradations.append(
                f"{record.get('from_backend')}->{record.get('to_backend')}"
            )
        elif kind == "run_end":
            self.done = True
            self.last = "run complete"

    def _feed_oplog(self, record: dict) -> None:
        event = record.get("event", "")
        component = record.get("component", "")
        if component == "supervise":
            self.supervise[event] = self.supervise.get(event, 0) + 1
        elif event == "run-failed":
            self.done = True
            self.failed = str(record.get("error", "unknown error"))
        elif event == "run-begin":
            self.backend = record.get("backend", self.backend)

    def _feed_resources(self, record: dict) -> None:
        self.rss.append(record.get("rss_bytes", 0))
        self.worker_rss.append(record.get("worker_rss_bytes", 0))
        self.cpu_s = record.get("cpu_s", self.cpu_s)
        self.inflight = record.get("inflight", 0)
        self.workers_alive = len(record.get("workers", ()))
        self.gil = record.get("gil", self.gil)
        if record.get("backend"):
            self.backend = record["backend"]

    def feed_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            self.feed(json.loads(line))
        except ValueError:
            pass  # torn tail line of a live file; the next poll rereads


def sparkline(values, width: int = 16) -> str:
    """Render the last ``width`` values as a unicode sparkline."""
    tail = list(values)[-width:]
    if not tail:
        return "-" * 1
    top = max(tail)
    if top <= 0:
        return _SPARKS[0] * len(tail)
    return "".join(
        _SPARKS[min(len(_SPARKS) - 1, int(v / top * (len(_SPARKS) - 1)))]
        for v in tail
    )


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_top(state: TopState) -> str:
    """One dashboard frame (pure; no terminal control codes)."""
    mode = f" [{state.gil}]" if state.gil else ""
    lines = [
        f"repro top · {state.loop} · {state.strategy} "
        f"· p={state.n_procs} · backend {state.backend}{mode}",
    ]
    total = state.n_iterations
    frac = state.committed_upto / total if total else 0.0
    lines.append(
        f"progress [{_bar(frac)}] {frac * 100:5.1f}%  "
        f"({state.committed_upto}/{total} iterations)  "
        f"stages {state.stages}  restarts {state.restarts}"
        + (f"  retries {state.retries}" if state.retries else "")
    )
    sup = state.supervise
    lines.append(
        f"workers  alive {state.workers_alive}  inflight {state.inflight}  "
        f"respawns {sup.get('worker-respawned', 0)}  "
        f"overdue {sup.get('worker-overdue', 0)}  "
        f"redispatched {sup.get('blocks-redispatched', 0)}  "
        f"degraded: {', '.join(state.degradations) or 'none'}"
    )
    if state.rss:
        lines.append(
            f"rss {sparkline(state.rss)} {state.rss[-1] / 1e6:8.1f} MB   "
            f"workers {sparkline(state.worker_rss)} "
            f"{state.worker_rss[-1] / 1e6:8.1f} MB   "
            f"cpu {state.cpu_s:7.2f} s"
        )
    else:
        lines.append("rss (no resource samples; run with --resources)")
    if state.failed:
        lines.append(f"FAILED: {state.failed}")
    elif state.done:
        lines.append("done.")
    elif state.last:
        lines.append(f"last: {state.last}")
    return "\n".join(lines)


def follow(
    path: str,
    *,
    interval: float = 0.5,
    once: bool = False,
    stream=None,
    max_frames: int | None = None,
) -> int:
    """Tail ``path`` and render frames until the run ends.

    ``once`` reads whatever is there and renders a single frame (used by
    tests and scripting); the live loop clears the screen per frame and
    stops when the stream reports ``run_end``/``run-failed`` (or on
    Ctrl-C).  ``max_frames`` bounds the live loop for tests.
    """
    import sys

    out = stream or sys.stdout
    state = TopState()
    frames = 0
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"{path}: {exc}") from None
    with fh:
        while True:
            for line in fh:
                state.feed_line(line)
            frame = render_top(state)
            if once:
                out.write(frame + "\n")
                return 1 if state.failed else 0
            out.write("\x1b[2J\x1b[H" + frame + "\n")
            out.flush()
            frames += 1
            if state.done or (max_frames is not None and frames >= max_frames):
                return 1 if state.failed else 0
            try:
                time.sleep(interval)
            except KeyboardInterrupt:  # pragma: no cover - interactive
                return 0
