"""Crash flight recorder: bounded rings dumped as a crash bundle.

When an engine run dies of an *uncaught* failure -- a speculation bug, a
backend error raised from a worker -- the post-mortem evidence
is usually gone with the process: the trace sink flushed what it could,
but the operational context (which workers existed, what the supervisor
did last, how much memory the run held) was never on disk at all.

:class:`FlightRecorder` keeps that context in memory, cheaply, for every
run: three bounded ring buffers of

* the most recent deterministic stage events (as their JSONL dicts),
* the most recent oplog records (it registers as an oplog tap),
* the last host resource samples (as a sampler consumer).

On failure the engine calls :func:`dump_bundle`, which writes a
self-contained crash bundle directory::

    <crash_dir>/crash-<utc timestamp>-pid<pid>/
        manifest.json     error, backend state, counts, host facts
        config.json       the run's RuntimeConfig fields
        env.json          REPRO_* environment at crash time
        trace_tail.jsonl  ring of deterministic events
        oplog_tail.jsonl  ring of operational records
        resources.jsonl   ring of resource samples

``repro report --bundle PATH`` (:func:`render_bundle`) renders a bundle
back into tables.  Bundles are only written when a crash directory is
configured (``RuntimeConfig.crash_dir`` or ``REPRO_CRASH_DIR``) -- an
ordinary failing test run should not litter the tree.
"""

from __future__ import annotations

import json
import os
import platform
import time
import traceback
from collections import deque

from repro.util.tables import format_table

ENV_CRASH_DIR = "REPRO_CRASH_DIR"

#: Resource samples kept regardless of the event-ring capacity: they are
#: periodic, so a short ring still spans the recent past.
_RESOURCE_RING = 64


class FlightRecorder:
    """Bounded in-memory rings of recent run activity.

    Subscribes to all three streams of one engine run: it is an event
    sink (``emit``), an oplog tap (``note_oplog``) and a resource-sampler
    consumer (``note_resources``).  ``capacity`` bounds the event and
    oplog rings (``RuntimeConfig.flight_events``).
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, int(capacity))
        self.events: deque = deque(maxlen=self.capacity)
        self.oplog_records: deque = deque(maxlen=self.capacity)
        self.resource_samples: deque = deque(maxlen=_RESOURCE_RING)

    # -- stream subscriptions ----------------------------------------------------

    def emit(self, event) -> None:
        try:
            self.events.append(event.to_dict())
        except Exception:  # pragma: no cover - recorder must never raise
            pass

    def note_oplog(self, record: dict) -> None:
        self.oplog_records.append(record)

    def note_resources(self, sample: dict) -> None:
        self.resource_samples.append(sample)

    def close(self) -> None:
        """Event-sink protocol; rings stay readable after the bus closes."""

    def snapshot(self) -> dict:
        return {
            "events": list(self.events),
            "oplog": list(self.oplog_records),
            "resources": list(self.resource_samples),
        }


def resolve_crash_dir(config) -> str | None:
    """Where crash bundles go for a run under ``config`` (``None`` = off)."""
    explicit = getattr(config, "crash_dir", None)
    return explicit or os.environ.get(ENV_CRASH_DIR) or None


def _config_fields(config) -> dict:
    import dataclasses

    try:
        return {
            f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)
        }
    except TypeError:
        return {"repr": repr(config)}


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, default=str) + "\n")


def dump_bundle(
    recorder: FlightRecorder,
    crash_dir: str,
    *,
    error: BaseException | None = None,
    config=None,
    state: dict | None = None,
) -> str:
    """Write one crash bundle directory; return its path.

    ``state`` is the engine's operational snapshot (backend name,
    supervision counters, commit point).  Never raises -- a failing dump
    must not mask the original error -- but returns ``""`` when nothing
    could be written.
    """
    try:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        base = os.path.join(crash_dir, f"crash-{stamp}-pid{os.getpid()}")
        path = base
        suffix = 0
        while os.path.exists(path):
            suffix += 1
            path = f"{base}-{suffix}"
        os.makedirs(path)
        manifest = {
            "created": round(time.time(), 6),
            "pid": os.getpid(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "error": {
                "type": type(error).__name__,
                "message": str(error),
                "traceback": "".join(traceback.format_exception(error)),
            } if error is not None else None,
            "state": state or {},
            "counts": {
                "events": len(recorder.events),
                "oplog": len(recorder.oplog_records),
                "resources": len(recorder.resource_samples),
            },
        }
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, default=str)
        if config is not None:
            with open(os.path.join(path, "config.json"), "w") as fh:
                json.dump(_config_fields(config), fh, indent=2, default=str)
        env = {
            key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")
        }
        with open(os.path.join(path, "env.json"), "w") as fh:
            json.dump(env, fh, indent=2)
        _write_jsonl(os.path.join(path, "trace_tail.jsonl"), recorder.events)
        _write_jsonl(
            os.path.join(path, "oplog_tail.jsonl"), recorder.oplog_records
        )
        _write_jsonl(
            os.path.join(path, "resources.jsonl"), recorder.resource_samples
        )
        return path
    except OSError:  # pragma: no cover - dump must never mask the crash
        return ""


# -- bundle reader (`repro report --bundle`) --------------------------------------


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _load_jsonl(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        pass
    except OSError:
        pass
    return records


def load_bundle(path: str) -> dict:
    """Read a crash bundle directory back into one dict."""
    if not os.path.isdir(path):
        raise OSError(f"{path}: not a crash bundle directory")
    return {
        "path": path,
        "manifest": _load_json(os.path.join(path, "manifest.json")) or {},
        "config": _load_json(os.path.join(path, "config.json")) or {},
        "env": _load_json(os.path.join(path, "env.json")) or {},
        "events": _load_jsonl(os.path.join(path, "trace_tail.jsonl")),
        "oplog": _load_jsonl(os.path.join(path, "oplog_tail.jsonl")),
        "resources": _load_jsonl(os.path.join(path, "resources.jsonl")),
    }


def _mb(n: float) -> str:
    return f"{n / 1e6:.1f}"


def _short(value, width: int = 100) -> str:
    text = str(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def render_bundle(path: str, tail: int = 12) -> str:
    """Render a crash bundle as operator-readable tables."""
    bundle = load_bundle(path)
    manifest = bundle["manifest"]
    sections: list[str] = []

    rows = [["bundle", bundle["path"]]]
    error = manifest.get("error")
    if error:
        rows.append(["error", f"{error.get('type')}: {error.get('message')}"])
    for key in ("pid", "python", "platform", "created"):
        if key in manifest:
            rows.append([key, manifest[key]])
    for key, value in sorted((manifest.get("state") or {}).items()):
        rows.append([key, _short(value)])
    sections.append(format_table(["field", "value"], rows, title="crash"))

    if bundle["config"]:
        rows = [
            [key, _short(value)]
            for key, value in sorted(bundle["config"].items())
            if value not in (None, False)
        ]
        sections.append(format_table(["option", "value"], rows, title="config"))

    if bundle["oplog"]:
        rows = [
            [
                r.get("t", ""), r.get("component", ""), r.get("severity", ""),
                r.get("event", ""),
                _short(r.get("reason") or r.get("backend") or "", 72),
            ]
            for r in bundle["oplog"][-tail:]
        ]
        sections.append(format_table(
            ["t", "component", "severity", "event", "detail"], rows,
            title=f"oplog tail ({len(bundle['oplog'])} records)",
        ))

    if bundle["events"]:
        rows = [
            [e.get("event", ""), e.get("stage", ""),
             json.dumps({k: v for k, v in e.items()
                         if k not in ("event", "stage")}, default=str)[:60]]
            for e in bundle["events"][-tail:]
        ]
        sections.append(format_table(
            ["event", "stage", "fields"], rows,
            title=f"trace tail ({len(bundle['events'])} events)",
        ))

    if bundle["resources"]:
        last = bundle["resources"][-1]
        peak_rss = max(
            (s.get("rss_bytes", 0) for s in bundle["resources"]), default=0
        )
        rows = [
            ["samples", len(bundle["resources"])],
            ["peak rss (MB)", _mb(peak_rss)],
            ["last rss (MB)", _mb(last.get("rss_bytes", 0))],
            ["last worker rss (MB)", _mb(last.get("worker_rss_bytes", 0))],
            ["last cpu (s)", last.get("cpu_s", 0)],
            ["gil", last.get("gil", "?")],
        ]
        sections.append(format_table(
            ["field", "value"], rows, title="resources",
        ))

    if error and error.get("traceback"):
        sections.append("traceback\n" + error["traceback"].rstrip())
    return "\n\n".join(sections)
