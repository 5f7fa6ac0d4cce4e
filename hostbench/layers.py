"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps the public functions of each layer *where the
caller looks them up*.  The engine binds ``analyze_stage``,
``commit_states``, ``charge_checkpoint_begin``, ``perform_restore`` and
``make_backend`` with ``from ... import``, and the runner binds
``certify_loop`` the same way, so those names are patched in
``repro.core.engine`` and ``repro.core.runner``; patching the defining
modules would miss every call and report 0 s.  Backend ``run_blocks`` /
``close`` and ``StageEngine.run`` are patched on their classes, the
kernels on the active kernels module (callers dispatch through
``get_kernels()`` at call time).  Every original is restored on exit.

The tracer is also an event sink: handed to ``parallelize(sinks=...)``
(and, for ``TrackSimulation.step``, injected by patching the
``parallelize`` name it calls), it collects the engine's own span and
block events.  Each engine run is then checked from both sides: no
wrapped phase may take longer than the engine span that encloses it,
and no run's self time (run minus wrapped children) may be negative.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import repro.core.engine as engine_mod
import repro.core.runner as runner_mod
import repro.workloads.track_sim as track_sim_mod
from repro.core.backend import ForkBackend, SerialBackend
from repro.core.engine import StageEngine, Strategy
from repro.core.fastpath import CertifiedDoall, CertifiedSequential
from repro.core.shm import ShmBackend
from repro.core.threads import ThreadsBackend
from repro.kernels import KERNELS, get_default_kernels
from repro.machine.timeline import Category
from repro.obs.events import BlockExecuted, SpanClosed

#: Slack for comparing two sums of ``perf_counter`` differences.
EPS = 1e-6

BACKEND_CLASSES = (SerialBackend, ThreadsBackend, ForkBackend, ShmBackend)

#: Wrapped layer -> counter that must be non-zero after a traced run.
#: Every workload drives all of them.
FIRED = {
    "certify_loop": "model.certify_calls",
    "StageEngine.run": "core.engine.runs",
    "make_backend": "core.backend.made",
    "run_blocks": "core.backend.executes",
    "close": "core.backend.closes",
    "charge_checkpoint_begin": "core.stage.checkpoints",
    "perform_restore": "core.stage.restores",
    "analyze_stage": "core.analysis.calls",
    "commit_states": "core.commit.calls",
}


class AccountingError(RuntimeError):
    """The traced run's numbers contradict each other."""


class _Run:
    """Wrapped-phase and span totals of one engine run."""

    __slots__ = ("child", "spans", "blocks_s")

    def __init__(self) -> None:
        self.child: dict[str, float] = defaultdict(float)
        self.spans: dict[str, float] = defaultdict(float)
        self.blocks_s = 0.0


class LayerTracer:
    """Per-backend layer times and counts, measured from outside ``src/``.

    ``time[(metric, backend)]`` holds seconds, ``count[(metric, backend)]``
    integers, keyed by the per-layer metric names of ``BENCHMARK.json``
    (without the backend suffix).  The benchmark sets :attr:`backend` before
    each timed call.
    """

    def __init__(self) -> None:
        self.backend: str | None = None
        self.time: dict[tuple[str, str], float] = defaultdict(float)
        self.count: dict[tuple[str, str], int] = defaultdict(int)
        self.violations: list[str] = []
        self._run: _Run | None = None
        self._opened: set[int] = set()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, name: str, wrapper_factory) -> None:
        original = getattr(owner, name)
        own = name in vars(owner)
        self._patches.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, wrapper_factory(original))

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._patches:
            owner, name, saved, own = self._patches.pop()
            if own:
                setattr(owner, name, saved)
            else:
                delattr(owner, name)

    def _install(self) -> None:
        self._patch(runner_mod, "certify_loop", self._wrap_certify)
        self._patch(engine_mod, "make_backend", self._wrap_make_backend)
        self._patch(StageEngine, "run", self._wrap_engine_run)
        for name, metric, note in (
            ("charge_checkpoint_begin", "core.stage.checkpoint_s", self._note_checkpoint),
            ("perform_restore", "core.stage.restore_s", self._note_restore),
            ("analyze_stage", "core.analysis.analyze_s", self._note_analysis),
            ("commit_states", "core.commit.commit_s", self._note_commit),
        ):
            self._patch(engine_mod, name, self._phase_wrapper(metric, note))
        # Take every backend's originals before patching any: ShmBackend
        # inherits run_blocks from ForkBackend, and must get one wrapper
        # around the original, not a wrapper around ForkBackend's wrapper.
        originals = [
            (cls, getattr(cls, "run_blocks"), getattr(cls, "close"))
            for cls in BACKEND_CLASSES
        ]
        for cls, run_blocks, close in originals:
            self._patch(cls, "run_blocks", lambda _, f=run_blocks: self._wrap_execute(f))
            self._patch(cls, "close", lambda _, f=close: self._wrap_close(f))
        kernels = KERNELS[get_default_kernels()]
        for name, fn in sorted(vars(kernels).items()):
            if (
                callable(fn) and not name.startswith("_")
                and getattr(fn, "__module__", None) == kernels.__name__
            ):
                self._patch(kernels, name, self._wrap_kernel)
        self._patch(track_sim_mod, "parallelize", self._wrap_parallelize)

    # -- event sink ----------------------------------------------------------

    @property
    def sinks(self) -> tuple:
        return (self,)

    def emit(self, event) -> None:
        run = self._run
        if run is None:
            return
        b = self.backend
        if isinstance(event, SpanClosed):
            if event.cat == "block":
                run.blocks_s += event.host_dur
            else:
                run.spans[event.name] += event.host_dur
        elif isinstance(event, BlockExecuted):
            self.count[("core.executor.blocks", b)] += 1
            self.count[("core.executor.iterations", b)] += event.stop - event.start

    # -- wrappers ------------------------------------------------------------

    def _wrap_parallelize(self, original):
        def parallelize(*args, sinks=(), **kwargs):
            return original(*args, sinks=(*sinks, self), **kwargs)
        return parallelize

    def _wrap_certify(self, original):
        def certify_loop(*args, **kwargs):
            t0 = time.perf_counter()
            cert = original(*args, **kwargs)
            b = self.backend
            self.time[("model.certify_s", b)] += time.perf_counter() - t0
            self.count[("model.certify_calls", b)] += 1
            self.count[("model.doall", b)] += cert.verdict == "DOALL"
            self.count[("model.exact", b)] += bool(cert.exact)
            return cert
        return certify_loop

    def _wrap_make_backend(self, original):
        def make_backend(eng):
            backend = original(eng)
            self.count[("core.backend.made", self.backend)] += 1
            if backend.name != self.backend:
                self.violations.append(
                    f"engine made backend {backend.name!r} during a "
                    f"{self.backend!r} call"
                )
            return backend
        return make_backend

    def _wrap_engine_run(self, original):
        def run(eng):
            self._run = _Run()
            t0 = time.perf_counter()
            try:
                return original(eng)
            finally:
                total = time.perf_counter() - t0
                record, self._run = self._run, None
                self._close_run(eng, record, total)
        return run

    def _phase_wrapper(self, metric: str, note):
        """Time one engine phase function; ``note(backend, result)``
        counts what it did."""
        def factory(original):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                out = original(*args, **kwargs)
                dt = time.perf_counter() - t0
                b = self.backend
                self.time[(metric, b)] += dt
                if self._run is not None:
                    self._run.child[metric] += dt
                note(b, out)
                return out
            wrapper.__name__ = original.__name__
            return wrapper
        return factory

    def _note_checkpoint(self, b: str, out) -> None:
        self.count[("core.stage.checkpoints", b)] += 1

    def _note_restore(self, b: str, out) -> None:
        self.count[("core.stage.restores", b)] += 1

    def _note_analysis(self, b: str, analysis) -> None:
        self.count[("core.analysis.calls", b)] += 1
        self.count[("core.analysis.distinct_refs", b)] += sum(analysis.distinct_refs)
        self.count[("core.analysis.arcs", b)] += len(analysis.arcs)

    def _note_commit(self, b: str, elements: int) -> None:
        self.count[("core.commit.calls", b)] += 1
        self.count[("core.commit.elements", b)] += elements

    def _wrap_execute(self, original):
        def run_blocks(backend, tasks):
            t0 = time.perf_counter()
            out = original(backend, tasks)
            dt = time.perf_counter() - t0
            b = self.backend
            self.time[("core.backend.execute_s", b)] += dt
            self.count[("core.backend.executes", b)] += 1
            if id(backend) not in self._opened:
                self._opened.add(id(backend))
                self.time[("core.backend.first_execute_s", b)] += dt
            if self._run is not None:
                self._run.child["core.backend.execute_s"] += dt
            return out
        return run_blocks

    def _wrap_close(self, original):
        def close(backend):
            t0 = time.perf_counter()
            try:
                return original(backend)
            finally:
                dt = time.perf_counter() - t0
                b = self.backend
                self._opened.discard(id(backend))
                self.time[("core.backend.close_s", b)] += dt
                self.count[("core.backend.closes", b)] += 1
                if self._run is not None:
                    self._run.child["core.backend.close_s"] += dt
        return close

    def _wrap_kernel(self, original):
        local = self._local

        def kernel(*args, **kwargs):
            # Kernels may call each other: time only the outermost call.
            depth = getattr(local, "depth", 0)
            if depth:
                return original(*args, **kwargs)
            local.depth = 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                local.depth = 0
                b = self.backend
                with self._lock:  # threads-backend workers call kernels too
                    self.time[("kernels.s", b)] += dt
                    self.count[("kernels.calls", b)] += 1
        kernel.__name__ = original.__name__
        return kernel

    # -- per-run accounting --------------------------------------------------

    def _close_run(self, eng, run: _Run, total: float) -> None:
        b = self.backend
        children = sum(run.child.values())
        self.time[("core.engine.run_s", b)] += total
        self.time[("core.engine.self_s", b)] += total - children
        self.time[("core.executor.block_s", b)] += run.blocks_s
        self.count[("core.engine.runs", b)] += 1
        if isinstance(eng.strategy, (CertifiedDoall, CertifiedSequential)):
            self.time[("core.fastpath.run_s", b)] += total
            self.count[("core.fastpath.calls", b)] += 1

        # A strategy with a pre-stage (induction phase A) executes blocks
        # outside any execute span, but still inside the run span.
        pre_stage = type(eng.strategy).pre_stage is not Strategy.pre_stage
        spans = run.spans
        checks = (
            ("checkpoint", run.child["core.stage.checkpoint_s"], spans["checkpoint"]),
            ("analyze", run.child["core.analysis.analyze_s"], spans["analyze"]),
            (
                "commit+restore",
                run.child["core.commit.commit_s"] + run.child["core.stage.restore_s"],
                spans["commit"] + spans["restore"],
            ),
            (
                "execute",
                run.child["core.backend.execute_s"],
                spans["run"] if pre_stage else spans["execute"],
            ),
            ("run span", spans["run"], total),
            ("wrapped children", children, total),
        )
        for what, inner, outer in checks:
            if inner > outer + EPS:
                self.violations.append(
                    f"{eng.loop.name} on {b}: {what} took {inner:.6f}s, more "
                    f"than its enclosing engine span ({outer:.6f}s)"
                )

    def note_results(self, runs) -> None:
        """Fold the public ``RunResult`` counts of one timed call."""
        b = self.backend
        for r in runs:
            self.count[("core.engine.stages", b)] += r.n_stages
            self.count[("core.engine.restarts", b)] += r.n_restarts
            self.time[("useful_work", b)] += r.sequential_work
            self.time[("charged_work", b)] += r.timeline.charged_category(Category.WORK)
            counters = r.metrics.get("counters", {})
            for counter, metric in (
                ("shadow.marks", "shadow.marks"),
                ("shadow.copy_in.bytes", "shadow.copy_in_bytes"),
                ("checkpoint.saved.bytes", "machine.checkpoint.saved_bytes"),
                ("restore.bytes", "machine.checkpoint.restored_bytes"),
            ):
                self.count[(metric, b)] += int(counters.get(counter, 0))

    def require_fired(self, backends, fastpath: bool) -> None:
        """Record a violation for every wrapper that never fired."""
        for b in backends:
            for layer, counter in FIRED.items():
                if not self.count[(counter, b)]:
                    self.violations.append(f"{layer} never fired on {b}")
            calls = self.count[("core.fastpath.calls", b)]
            if fastpath and not calls:
                self.violations.append(f"the certified fast path never ran on {b}")
            if not fastpath and calls:
                self.violations.append(
                    f"the certified fast path ran {calls} times on {b}, "
                    "on a workload that must not take it"
                )
        for b in ("serial", "threads"):
            if not self.count[("kernels.calls", b)]:
                self.violations.append(f"no kernel call was seen on {b}")

