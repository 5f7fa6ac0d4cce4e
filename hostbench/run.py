"""Host-time benchmark of the R-LRPD runtime.

Usage, from the root of a checkout::

    python3 hostbench/run.py --workload nlfilt-16-400 --seed 1 --seconds 12 --trace 0

Runs the seed's fixed unit list of one workload on the serial, threads,
fork and shm backends, checks every call against an independent
sequential oracle, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones ``BENCHMARK.json``
declares; with ``--trace 1`` an untraced pass is followed by a traced
pass and the metrics are the declared per-layer ones.  ``--seconds``
sets the length of the unit list, not a time budget.  See
``hostbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("nlfilt-16-400", "spice-dcdcmp15", "fma3d-quad", "track-program")
#: glibc's ``mallopt`` parameter number for the mmap threshold.
M_MMAP_THRESHOLD = -3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "repro").is_dir() or not spec.is_file():
        print(f"hostbench: needs {spec} and the repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    fix_mmap_threshold()

    import measure
    import schema

    try:
        result = measure.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for line in result.pop("failures"):
            print(f"hostbench: FAILED {line}", file=sys.stderr)
        schema.check(
            schema.declared(spec, bool(args.trace)),
            result["metrics"],
        )
    finally:
        stop_helpers()
    print(json.dumps(result))
    return 0


def fix_mmap_threshold(threshold: int = 128 * 1024) -> None:
    """Give every allocation above ``threshold`` bytes its own mapping.

    By default glibc raises its mmap threshold whenever a large mapped
    block is freed; from then on large arrays come from the heap, and how
    much of it stays resident after they are freed depends on allocation
    order across threads.  ``peak_rss_mb`` then moved by up to 50% between
    runs of the same seed.  Setting the threshold explicitly turns the
    adjustment off, so freed arrays leave the resident set at once and the
    peak tracks the memory the program holds.  Fork workers inherit it.
    Without glibc the default stays.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_MMAP_THRESHOLD, threshold)


def stop_helpers(timeout: float = 10.0) -> None:
    """Stop and reap every process this one started.

    Backends close their worker pools after every call, but
    ``multiprocessing.shared_memory`` (the shm backend) starts
    multiprocessing's resource tracker on first use and never stops it:
    left alone, it outlives this process as an unreaped child.  Closing
    its pipe makes it exit; waiting for it reaps it.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=timeout)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid, fd = getattr(tracker, "_pid", None), getattr(tracker, "_fd", None)
    if pid is None or fd is None:
        return
    os.close(fd)
    tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


if __name__ == "__main__":
    sys.exit(main())
