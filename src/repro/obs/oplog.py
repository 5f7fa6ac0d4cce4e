"""Unified operational log: the runtime's *other* plane.

The deterministic stage-event stream (:mod:`repro.obs.events`) is the
runtime's ground truth -- bit-identical across execution backends, golden
in CI.  Everything that must *never* appear there (host timings, worker
pids, kill/respawn accidents, pool starts and closes) goes here instead.

:class:`OpLog` is the single process-wide operational logger.  Every
record is one JSON line::

    {"ts": <unix seconds>, "t": <seconds since process log start>,
     "component": "supervise" | "engine" | "backend" | "faults" | ...,
     "severity": "info" | "warn" | "error",
     "event": "worker-died" | "run-begin" | ...,
     ...event-specific fields...}

Design constraints, in order:

* **never perturb the run** -- a failed write is swallowed; when no path
  is configured and no tap is registered, ``log()`` is a few dict lookups;
* **per-call path resolution** -- tests (and the chaos CI job) point
  ``REPRO_OPLOG`` at per-run files via environment patching, so the path
  is re-read from the environment on every record rather than cached at
  import;
* **append-only with rotation** -- records append so concurrent runs can
  share one file; when the file exceeds ``REPRO_OPLOG_MAX_BYTES``
  (default 16 MiB) it is renamed to ``<path>.1`` and a fresh file starts;
* **taps** -- in-process consumers (the crash flight recorder, the
  ``repro top`` status stream) subscribe with :meth:`add_tap` and see
  every record whether or not a file path is configured.

The supervisor's records keep their historical field names on top of the
common envelope.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable

ENV_PATH = "REPRO_OPLOG"
ENV_MAX_BYTES = "REPRO_OPLOG_MAX_BYTES"
DEFAULT_MAX_BYTES = 16 << 20

_UNSET = object()


class OpLog:
    """Process-wide structured JSONL operational logger.

    Thread-safe: the supervisor, the resource sampler thread and the
    engine all log concurrently.  Use the module-level :func:`get_oplog`
    singleton; constructing private instances is for tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._taps: list[Callable[[dict], None]] = []
        self._path_override: object = _UNSET
        self._max_override: object = _UNSET
        self._t0 = time.monotonic()

    # -- configuration -----------------------------------------------------------

    def configure(
        self, path: str | None = None, max_bytes: int | None = None
    ) -> None:
        """Pin the log path/rotation size, overriding the environment.

        ``configure()`` with no arguments reverts to environment
        resolution (``REPRO_OPLOG``).  ``configure(path=None)`` explicitly also reverts --
        embedders that want a hard "no file" should simply not set the
        environment variables.
        """
        self._path_override = _UNSET if path is None else path
        self._max_override = _UNSET if max_bytes is None else int(max_bytes)

    def _resolve_path(self) -> str | None:
        """Current target path (``None``: no file)."""
        if self._path_override is not _UNSET:
            return self._path_override  # type: ignore[return-value]
        return os.environ.get(ENV_PATH) or None

    def _max_bytes(self) -> int:
        if self._max_override is not _UNSET:
            return self._max_override  # type: ignore[return-value]
        try:
            return int(os.environ.get(ENV_MAX_BYTES, DEFAULT_MAX_BYTES))
        except ValueError:
            return DEFAULT_MAX_BYTES

    # -- taps --------------------------------------------------------------------

    def add_tap(self, tap: Callable[[dict], None]) -> None:
        """Subscribe an in-process consumer to every record."""
        with self._lock:
            self._taps.append(tap)

    def remove_tap(self, tap: Callable[[dict], None]) -> None:
        with self._lock:
            try:
                self._taps.remove(tap)
            except ValueError:
                pass

    # -- logging -----------------------------------------------------------------

    def log(
        self, component: str, event: str, *, severity: str = "info", **fields
    ) -> dict:
        """Emit one record to the taps and (when configured) the file.

        Caller-supplied ``fields`` win over the envelope defaults, so the
        supervisor can keep its historical run-relative ``t``.  Returns
        the record (tests inspect it); never raises.
        """
        record = {
            "ts": round(time.time(), 6),
            "t": round(time.monotonic() - self._t0, 6),
            "component": component,
            "severity": severity,
            "event": event,
        }
        record.update(fields)
        with self._lock:
            taps = list(self._taps)
        for tap in taps:
            try:
                tap(record)
            except Exception:  # pragma: no cover - taps must not kill runs
                pass
        path = self._resolve_path()
        if path:
            self._write(path, record)
        return record

    def _write(self, path: str, record: dict) -> None:
        with self._lock:
            try:
                self._rotate(path)
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, default=str) + "\n")
            except OSError:  # pragma: no cover - log must never kill the run
                pass

    def _rotate(self, path: str) -> None:
        try:
            size = os.path.getsize(path)
        except OSError:
            return
        if size >= self._max_bytes():
            os.replace(path, path + ".1")


_OPLOG = OpLog()


def get_oplog() -> OpLog:
    """The process-wide operational logger."""
    return _OPLOG
