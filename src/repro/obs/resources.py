"""Host resource profiler: a background sampler for the operational plane.

Speculative parallelization fails operationally long before it fails
logically: shadow planes blow out RSS, one fork worker sits at 100% CPU
while the rest idle.  None of that may enter the deterministic event
stream (the golden parity matrix demands bit-identical traces),
so it is sampled out-of-band instead.

:class:`ResourceSampler` runs one daemon thread per engine run, waking
every ``RuntimeConfig.resource_interval`` seconds to record:

* the engine process's RSS and CPU time;
* every live worker process's RSS and CPU time (fork pools, from the
  backend's :meth:`~repro.core.backend.ExecutionBackend.resource_info`);
* the count of in-flight blocks;
* the interpreter's GIL mode (:func:`gil_mode`).

Samples are plain dicts on the **host clock only** (the engine's
run-relative ``host_now``), consumed by the crash flight recorder, the
``repro top`` status stream, and the Perfetto exporter's counter tracks
(:func:`repro.obs.spans.chrome_trace`).

Platform fallback: on hosts without ``/proc`` (macOS), per-worker
sampling is unavailable and the engine process falls back to
``resource.getrusage`` (``ru_maxrss`` is a high-water mark, not the
current RSS; the sample says so via ``source: "rusage"``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Callable

ENV_ENABLE = "REPRO_RESOURCES"

#: Whether this host exposes per-pid /proc stat files (Linux).
HAVE_PROC = os.path.isdir("/proc/self")

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
    _CLK_TCK = os.sysconf("SC_CLK_TCK") or 100
except (ValueError, OSError, AttributeError):  # pragma: no cover - exotic host
    _PAGE_SIZE = 4096
    _CLK_TCK = 100


def gil_mode() -> str:
    """``"free-threaded"`` when this interpreter runs with the GIL
    disabled (PEP 703 builds expose ``sys._is_gil_enabled``), else
    ``"gil"``."""
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is not None and not probe():
        return "free-threaded"
    return "gil"


def resolve_resources_enabled(config) -> bool:
    """Whether a run under ``config`` samples host resources.

    Explicit ``config.resources`` wins; a set ``status_path`` implies
    sampling (``repro top`` wants the sparklines); otherwise the
    ``REPRO_RESOURCES`` environment variable is the process default --
    which is how CI re-runs the parity matrix with the sampler on
    without touching any case config.
    """
    explicit = getattr(config, "resources", None)
    if explicit is not None:
        return bool(explicit)
    if getattr(config, "status_path", None):
        return True
    return os.environ.get(ENV_ENABLE, "").lower() in ("1", "on", "true", "yes")


def read_process(pid: int) -> dict | None:
    """Current RSS/CPU of one process from /proc; ``None`` when
    unavailable (no /proc, or the process is gone)."""
    if not HAVE_PROC:
        return None
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            resident_pages = int(fh.read().split()[1])
        with open(f"/proc/{pid}/stat", "rb") as fh:
            # comm may contain spaces; fields resume after the last ')'.
            fields = fh.read().rsplit(b")", 1)[1].split()
        utime, stime = int(fields[11]), int(fields[12])
    except (OSError, IndexError, ValueError):
        return None
    return {
        "pid": pid,
        "rss_bytes": resident_pages * _PAGE_SIZE,
        "cpu_s": round((utime + stime) / _CLK_TCK, 3),
    }


def read_self_rusage() -> dict:
    """Portable fallback for the engine process: ``getrusage`` high-water
    RSS (bytes) and consumed CPU seconds."""
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    maxrss = usage.ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    rss_bytes = maxrss if sys.platform == "darwin" else maxrss * 1024
    return {
        "pid": os.getpid(),
        "rss_bytes": int(rss_bytes),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
    }


class ResourceSampler:
    """Samples host resources for one engine run on a daemon thread.

    ``consumers`` are called with each sample dict from the sampler
    thread (the flight recorder's ring, the status stream); exceptions in
    consumers are swallowed -- telemetry must never kill the run.  The
    full sample list is kept (bounded by run length / interval) for the
    Perfetto counter-track merge at close.
    """

    def __init__(
        self,
        eng,
        interval: float = 0.05,
        consumers: tuple[Callable[[dict], None], ...] = (),
    ) -> None:
        self.eng = eng
        self.interval = max(0.001, float(interval))
        self.samples: list[dict] = []
        self._consumers: list[Callable[[dict], None]] = list(consumers)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def add_consumer(self, consumer: Callable[[dict], None]) -> None:
        self._consumers.append(consumer)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-resources", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and take one final sample (so even runs shorter
        than one interval record their peak state)."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=5.0)
        self.sample_now()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_now()

    # -- sampling ----------------------------------------------------------------

    def sample_now(self) -> dict:
        """Take one sample, record it, feed the consumers; never raises."""
        try:
            sample = self._sample()
        except Exception:  # pragma: no cover - telemetry must never raise
            sample = {"t": 0.0, "ts": round(time.time(), 6), "error": True}
        with self._lock:
            self.samples.append(sample)
        for consumer in list(self._consumers):
            try:
                consumer(sample)
            except Exception:  # pragma: no cover - see class docstring
                pass
        return sample

    def _sample(self) -> dict:
        eng = self.eng
        host_now = getattr(eng, "host_now", None)
        sample: dict = {
            "t": round(host_now(), 6) if host_now is not None else 0.0,
            "ts": round(time.time(), 6),
        }
        own = read_process(os.getpid())
        if own is not None:
            sample["source"] = "proc"
        else:
            own = read_self_rusage()
            sample["source"] = "rusage"
        sample["rss_bytes"] = own["rss_bytes"]
        sample["cpu_s"] = own["cpu_s"]

        backend = getattr(eng, "backend", None)
        info: dict = {}
        if backend is not None:
            sample["backend"] = backend.name
            try:
                info = backend.resource_info() or {}
            except Exception:  # pragma: no cover - racing pool teardown
                info = {}
        workers = []
        for pid in info.get("worker_pids", ()):
            stat = read_process(pid)
            if stat is not None:
                workers.append(stat)
        sample["workers"] = workers
        sample["worker_rss_bytes"] = sum(w["rss_bytes"] for w in workers)
        sample["worker_cpu_s"] = round(sum(w["cpu_s"] for w in workers), 3)
        sample["inflight"] = int(info.get("inflight", 0))
        sample["gil"] = gil_mode()
        return sample
