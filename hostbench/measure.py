"""Run one workload for one seed: set-up, timed passes, metrics.

The load is a closed loop from this one process: every unit of the
seed's fixed unit list runs back to back on all four backends through
the public entry points, in a backend order that rotates with the unit
index so slow drift of the host's speed spreads evenly over backends.
``gc.collect()`` runs before every call, outside the timed region.
Nothing is budgeted by time: a faster program runs the same units.

Every end-to-end time is scaled to the reference host speed
(:mod:`hostspeed`): a pass by the mean of the readings taken between its
calls, the set-up time by the mean of those and the readings taken
between set-ups (two readings around one set-up are too few: they left
``setup_s`` spreading by up to 0.25 between runs).  Per-layer times are
raw host seconds.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from hostspeed import at_reference_speed, reference_s
from layers import AccountingError, LayerTracer
from repro.config import RuntimeConfig
from workloads import BACKENDS, N_PROCS, WORKLOADS, Plan, digest, figures

#: Set-ups per run; ``setup_s`` and the per-layer set-up times report the
#: median.  The last set-up's inputs are the ones measured.
SETUP_REPEATS = 3


def unit_count(workload, seconds: float) -> int:
    """Units in a run of ``seconds``: fixed per workload, never timed."""
    return max(2, round(seconds * workload.units_per_second))


def workers(backend: str) -> int:
    """Workers a backend runs with at its default ``backend_workers``."""
    return 1 if backend == "serial" else min(N_PROCS, os.cpu_count() or 1)


def config_for(backend: str, traced: bool) -> RuntimeConfig:
    """The adaptive configuration at its defaults, on one backend; the
    traced pass also turns on the engine's metrics and spans."""
    if traced:
        return RuntimeConfig.adaptive(backend=backend, metrics=True, spans=True)
    return RuntimeConfig.adaptive(backend=backend)


@dataclass
class SetUp:
    plan: Plan
    build_s: float
    sequential_s: float
    total_s: float
    """Whole set-up, in host seconds."""


def set_up(workload, seed: int, n_units: int) -> SetUp:
    """Generate inputs, run the oracle, warm every backend up once."""
    t0 = time.perf_counter()
    inputs = workload.build(seed, n_units)
    t1 = time.perf_counter()
    plan = workload.oracle(inputs, n_units)
    t2 = time.perf_counter()
    for backend in BACKENDS:
        workload.warm_up(plan, config_for(backend, traced=False))
    total = time.perf_counter() - t0
    return SetUp(plan, t1 - t0, t2 - t1, total)


@dataclass
class Ledger:
    """Every (pass, unit, backend) call attempted, and the ones that failed."""

    attempted: int = 0
    failures: dict[tuple[int, int, str], str] = field(default_factory=dict)

    def fail(self, call: tuple[int, int, str], reason: str) -> None:
        self.failures.setdefault(call, reason)


@dataclass
class Pass:
    host_s: dict[str, list[float]]
    """Host seconds of each unit's timed call, per backend."""
    reference_s: list[float]
    """Reference readings taken before the first call and after each."""
    virtual: list[tuple]
    """Per unit: the virtual figures every backend agreed on."""

    def scaled_s(self, backend: str) -> float:
        """The backend's total host time at the reference speed."""
        return at_reference_speed(sum(self.host_s[backend]), self.reference_s)


def timed_pass(
    workload, plan: Plan, ledger: Ledger, index: int = 0, tracer=None
) -> Pass:
    """Run every unit on every backend; check each call against the oracle
    and the backends against each other.  A call that raises or mismatches
    is recorded as failed; it is never dropped or retried."""
    traced = tracer is not None
    sinks = tracer.sinks if traced else ()
    runners = {
        b: workload.runner(plan, config_for(b, traced), sinks) for b in BACKENDS
    }
    host = {b: [0.0] * len(plan.n) for b in BACKENDS}
    readings = [reference_s()]
    virtual = []
    for k in range(len(plan.n)):
        shift = (k + index) % len(BACKENDS)
        seen = {}
        for b in BACKENDS[shift:] + BACKENDS[:shift]:
            ledger.attempted += 1
            if traced:
                tracer.backend = b
            call = (index, k, b)
            gc.collect()
            t0 = time.perf_counter()
            try:
                runs, memory = runners[b].call(k)
            except Exception as exc:  # counted against the run, reported below
                runs = None
                ledger.fail(call, f"raised {type(exc).__name__}: {exc}")
            host[b][k] = time.perf_counter() - t0
            # Anything left running would also slow the reference down.
            if threading.active_count() > 1 or multiprocessing.active_children():
                ledger.fail(call, "left threads or worker processes running")
            readings.append(reference_s())
            if runs is None:
                continue
            if digest(memory) != plan.expected[k]:
                ledger.fail(call, "final memory differs from the sequential oracle")
            seen[b] = figures(runs)
            if traced:
                tracer.note_results(runs)
        if not seen:
            continue
        reference = seen.get("serial", next(iter(seen.values())))
        for b, fig in seen.items():
            if fig != reference:
                ledger.fail(
                    (index, k, b), f"virtual figures {fig} differ from serial's {reference}"
                )
        virtual.append(reference)
    return Pass(host, readings, virtual)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) worker child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(
    plan: Plan, setups: list[SetUp], readings: list[float], run: Pass
) -> dict[str, tuple]:
    metrics = {
        f"iters_per_s.{b}": (sum(plan.n) / run.scaled_s(b), "1/s") for b in BACKENDS
    }
    calls = [call for unit in run.virtual for call in unit]
    metrics["virtual_speedup"] = (
        sum(c[3] for c in calls) / sum(c[2] for c in calls), "x"
    )
    metrics["parallelism_ratio"] = (
        len(calls) / (sum(c[1] for c in calls) + len(calls)), "ratio"
    )
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["setup_s"] = (
        at_reference_speed(
            statistics.median(s.total_s for s in setups), readings + run.reference_s
        ),
        "s",
    )
    return metrics


#: Per-layer counts and their units, reported once: each must be
#: identical on every backend.
COUNTS = {
    "model.certify_calls": "count",
    "core.engine.stages": "count",
    "core.engine.restarts": "count",
    "machine.checkpoint.saved_bytes": "bytes",
    "machine.checkpoint.restored_bytes": "bytes",
    "core.executor.blocks": "count",
    "core.executor.iterations": "count",
    "shadow.marks": "count",
    "shadow.copy_in_bytes": "bytes",
    "core.analysis.calls": "count",
    "core.analysis.distinct_refs": "count",
    "core.analysis.arcs": "count",
    "core.commit.elements": "count",
    "core.fastpath.calls": "count",
}
#: Per-layer host times, reported per backend as ``<name>.<backend>``.
TIMES = (
    "core.engine.run_s", "core.engine.self_s",
    "core.stage.checkpoint_s", "core.stage.restore_s",
    "core.backend.execute_s", "core.backend.first_execute_s", "core.backend.close_s",
    "core.executor.block_s", "core.analysis.analyze_s", "core.commit.commit_s",
    "core.fastpath.run_s",
)


def per_layer(
    setups: list[SetUp], plain: Pass, traced: Pass, tracer: LayerTracer
) -> dict[str, tuple]:
    t, c = tracer.time, tracer.count
    for name in (*COUNTS, "model.doall", "model.exact"):
        values = {b: c[(name, b)] for b in BACKENDS}
        if len(set(values.values())) != 1:
            tracer.violations.append(f"{name} differs across backends: {values}")
    useful = {b: t[("useful_work", b)] / t[("charged_work", b)] for b in BACKENDS}
    if len(set(useful.values())) != 1:
        tracer.violations.append(f"useful work ratio differs across backends: {useful}")
    for b in BACKENDS:
        if t[("core.engine.self_s", b)] < 0:
            tracer.violations.append(f"core.engine.self_s.{b} is negative")

    s = "serial"
    sequential_s = statistics.median(x.sequential_s for x in setups)
    certified = c[("model.certify_calls", s)]
    metrics = {name: (c[(name, s)], unit) for name, unit in COUNTS.items()}
    metrics.update({
        "workloads.build_s": (statistics.median(x.build_s for x in setups), "s"),
        "baselines.sequential_s": (sequential_s, "s"),
        "core.engine.overhead_x.serial": (sum(plain.host_s[s]) / sequential_s, "x"),
        # Certification runs before the engine and does not depend on the
        # backend: report the mean over the four backend passes.
        "model.certify_s": (
            sum(t[("model.certify_s", b)] for b in BACKENDS) / len(BACKENDS), "s"
        ),
        "model.doall_share": (c[("model.doall", s)] / certified, "ratio"),
        "model.exact_share": (c[("model.exact", s)] / certified, "ratio"),
        "core.engine.useful_work_ratio": (useful[s], "ratio"),
        # Fork and shm workers call the kernels out of process.
        "kernels.calls": (c[("kernels.calls", s)], "count"),
    })
    for b in BACKENDS:
        metrics.update({f"{name}.{b}": (t[(name, b)], "s") for name in TIMES})
        metrics[f"core.backend.idle_share.{b}"] = (
            1.0 - t[("core.executor.block_s", b)]
            / (t[("core.backend.execute_s", b)] * workers(b)),
            "ratio",
        )
        metrics[f"obs.trace_overhead.{b}"] = (
            traced.scaled_s(b) / plain.scaled_s(b) - 1.0, "ratio"
        )
    for b in ("serial", "threads"):
        metrics[f"kernels.s.{b}"] = (t[("kernels.s", b)], "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    workload = WORKLOADS[name]
    n_units = unit_count(workload, seconds)
    setups, readings = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        if setups:
            # Only the last set-up's inputs are measured; the earlier ones
            # would otherwise stay resident and add to peak_rss_mb.
            setups[-1].plan = None
        setups.append(set_up(workload, seed, n_units))
        readings.append(reference_s())
    plan = setups[-1].plan
    ledger = Ledger()
    plain = timed_pass(workload, plan, ledger)
    if trace:
        with LayerTracer() as tracer:
            traced = timed_pass(workload, plan, ledger, 1, tracer)
        tracer.require_fired(BACKENDS, workload.fastpath)
        metrics = per_layer(setups, plain, traced, tracer)
        if tracer.violations:
            raise AccountingError("; ".join(tracer.violations))
    else:
        metrics = end_to_end(plan, setups, readings, plain)
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [
            f"pass {p}, unit {k} on {b}: {reason}"
            for (p, k, b), reason in sorted(ledger.failures.items())
        ],
    }
