"""The ``threads`` execution backend: zero-copy in-process parallelism.

The fork backend pays real dispatch costs -- pickled deltas and a
memory diff-sync broadcast -- because its workers live in other
processes.  The kernels layer (:mod:`repro.kernels`)
removed the last reason for that: every hot per-element loop is now a
batch primitive that releases the GIL inside numpy, so worker *threads*
in the engine's own process can execute blocks concurrently on stock
CPython and truly in parallel on free-threaded (PEP 703) builds.

Execution model
---------------

Worker threads run :func:`~repro.core.executor.execute_block` **directly
against the engine's own processor states and shared memory** -- there
is only one address space, so views and shadows need no shipping:

* Every strategy schedules at most one block per processor per stage, so
  ``eng.states[block.proc]`` is exclusively this block's for the whole
  dispatch; views, shadows, partials, iteration times and the executed
  list land in their final location as the block runs, and the merge
  phase has nothing to copy.
* Virtual-time charges are folded per category by the block's
  :class:`~repro.core.executor.SpeculativeContext` onto a thread-local
  :class:`~repro.core.backend._WorkerMachine` and replayed against the
  real timeline **in block order** during the merge -- the same folding
  every backend uses, so the totals are bit-identical to serial.
  Metrics accumulate in a per-task private registry merged the same
  way, so concurrent completion order never reaches a deterministic
  stream.
* Untested arrays follow the fork worker protocol with a thread-local
  :class:`~repro.machine.checkpoint.CheckpointManager`: the worker writes
  shared memory under its own checkpoint (safe: the statically-analyzable
  isolation contract forbids cross-processor element sharing), captures
  ``(indices, values)``, rolls its writes back, and the merge replays
  them through the parent's checkpoint manager in block order -- so stage
  rollback sees exactly the serial write/restore history.

Where a stage runs
------------------

Like the fork pool, the backend runs a stage in the parent, through the
serial block loop, unless dispatching it is measured to pay
(:class:`~repro.core.backend.PooledBackend`, whose rule and figures it
shares).  Under the GIL the worker threads rarely beat the parent, so
most stages run serial's code; the pool starts lazily on the first
stage dispatched.

Supervision
-----------

Threads cannot be SIGKILLed, so the hang protocol differs from
:class:`~repro.core.supervise.WorkerSupervisor`'s reap-and-respawn:

* the same adaptive deadline (``worker_timeout`` floor, observed
  per-block max x ``worker_timeout_factor``) marks a share *overdue*;
* the supervisor sets the worker's **cooperative cancellation flag**,
  which :func:`~repro.core.executor.execute_block` checks at every
  iteration boundary -- the granularity at which the GIL-releasing
  kernel calls return control -- and the block aborts with
  :class:`~repro.core.executor.BlockCancelled`;
* the worker rolls back its thread-local checkpoint, the supervisor
  resets the share's processor states and mark lists to their (clear)
  dispatch-time contents, and the share is re-dispatched bit-identically
  on the surviving thread.  ``max_worker_respawns`` bounds these
  recoveries and ``_MAX_BLOCK_DEATHS`` quarantines poison blocks, after
  which the pool degrades ``threads -> serial`` through the usual
  :class:`~repro.core.supervise.PoolDegradation` path;
* a thread that never acknowledges the flag is wedged inside a single
  iteration (native code that does not return); it cannot be stopped
  from in-process and a degraded rerun would race its writes, so that is
  a terminal :class:`~repro.errors.BackendError`, not a degradation.

``os_chaos`` plans deliver real SIGKILL/SIGSTOP to worker *processes*;
thread workers share the engine's process, so the backend refuses chaos
configs instead of silently killing the whole run.

GIL detection: :func:`thread_mode` reports ``"free-threaded"`` when the
interpreter runs with the GIL disabled (``sys._is_gil_enabled`` on
3.13+), else ``"gil"`` -- kernel calls still release the GIL, Python
bookkeeping between them serializes.  The mode is surfaced on
``RunResult.thread_mode`` / ``summary()`` / the stage-trace title, and
deliberately kept **out** of the event/span streams so disturbed and
undisturbed traces stay byte-identical across backends.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.backend import (
    BACKENDS,
    BlockOutcome,
    BlockTask,
    PooledBackend,
    _AccessRecorder,
    _WorkerMachine,
    make_capture_checkpoint,
    replay_untested,
)
from repro.core.executor import (
    BlockCancelled,
    execute_block,
    make_all_private_state,
)
from repro.core.supervise import (
    _BACKOFF_BASE,
    _BACKOFF_CAP,
    _MAX_BLOCK_DEATHS,
    PoolDegradation,
    SupervisionStats,
    log_supervision,
)
from repro.errors import BackendError, ConfigurationError
from repro.machine.checkpoint import CheckpointManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.oplog import get_oplog


def thread_mode() -> str:
    """``"free-threaded"`` when this interpreter runs with the GIL
    disabled (PEP 703 builds expose ``sys._is_gil_enabled``), else
    ``"gil"`` -- stock builds still overlap the GIL-releasing kernel
    calls, but Python bookkeeping between them serializes."""
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is not None and not probe():
        return "free-threaded"
    return "gil"


#: Seconds an overdue worker gets to acknowledge its cancellation flag
#: before it is declared wedged (floored; scaled by the per-block
#: estimate so slow-iteration workloads are not misread as wedged).
_CANCEL_GRACE = 5.0


@dataclass
class _ThreadDelta:
    """What a worker thread reports about one executed block.

    Deliberately small: views, shadows, partials, iteration times and the
    executed list were written in place (direct execution), so only the
    order-sensitive residue travels -- folded charges, the metrics
    snapshot, the untested capture and the fault/exit outcome.
    """

    pos: int
    charges: list[tuple]
    fault: str | None = None
    fault_permanent: bool = False
    exit_iteration: int | None = None
    inductions: dict[str, int] = field(default_factory=dict)
    untested: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    untested_reads: list[tuple[str, int]] = field(default_factory=list)
    untested_writes: list[tuple[str, int]] = field(default_factory=list)
    metrics: dict | None = None
    host_start: float = 0.0
    host_dur: float = 0.0
    virt_dur: float = 0.0


def _run_thread_task(eng, task: BlockTask, cancel: threading.Event) -> _ThreadDelta:
    """Execute one block on the calling worker thread.

    Runs in a worker thread against live engine state; every ``eng``
    access below carries its safety argument for the thread-safety lint
    (``tools/check_thread_safety.py``).
    """
    # thread-safe: machine.memory/costs are read-only maps here; charges
    # go to the thread-local stand-in, never the shared timeline.
    machine = _WorkerMachine(eng.machine.memory, eng.machine.costs)
    if task.collect_metrics:
        machine.metrics = MetricsRegistry()
    block = task.block
    recorder = None
    ckpt = None
    if task.all_private:
        # thread-safe: fully privatized state; reads shared memory, all
        # writes land in thread-private views.
        state = make_all_private_state(machine, eng.loop, block.proc)
    elif task.plain:
        # thread-safe: the plain state (no views/shadows) is exclusively
        # ours, and the DOALL certificate guarantees no element we write
        # is touched by any concurrent block.
        state = eng.states[block.proc]
        # thread-safe: charge-free capture checkpoint over all arrays --
        # direct writes must roll back under cancellation and replay in
        # block order at merge, exactly like untested writes (eng.ckpt is
        # None on certified runs, so no CHECKPOINT charges arise).
        ckpt = make_capture_checkpoint(eng.machine.memory)
        if task.log_untested:
            recorder = _AccessRecorder()
    else:
        # thread-safe: one block per processor per stage -- this state is
        # exclusively ours for the whole dispatch.
        state = eng.states[block.proc]
        # thread-safe: thread-local checkpoint over shared memory; the
        # isolation contract keeps our untested elements ours alone.
        if eng.ckpt is not None:
            # thread-safe: reads the parent checkpoint's immutable name
            # list and config only; the manager itself is thread-local.
            ckpt = CheckpointManager(
                eng.machine.memory, eng.ckpt.names,
                eng.config.on_demand_checkpoint,
            )
            ckpt.begin_stage()
        if task.log_untested:
            recorder = _AccessRecorder()
        if task.preload:
            # thread-safe: bulk copy-in reads shared arrays, writes only
            # our private views; the charge goes to the thread-local
            # stand-in.
            state.preload(machine, skip=eng.reduction_names)
    host_before = time.perf_counter() if task.collect_spans else 0.0
    try:
        # thread-safe: executes on our exclusive state; untested writes
        # go through the thread-local checkpoint; charges to the stand-in.
        ctx = execute_block(
            machine, eng.loop, state, block, ckpt,
            inductions=task.inductions, marklists=task.marklists,
            stage=task.stage, untested_log=recorder,
            slowdown=task.slowdown, death=task.death,
            cancel=cancel,
        )
    except BlockCancelled:
        # Roll our partial untested writes back before acknowledging; the
        # supervisor resets the processor state (it must not race us).
        if ckpt is not None:
            ckpt.restore_failed([block.proc])
        raise
    delta = _ThreadDelta(
        pos=task.pos,
        charges=list(machine.charges.items()),
        fault=ctx.fault,
        fault_permanent=ctx.fault_permanent,
        exit_iteration=ctx.exit_iteration,
        inductions=ctx.induction_values(),
    )
    if task.collect_metrics:
        delta.metrics = machine.metrics.snapshot()
    if task.collect_spans:
        delta.host_start = host_before
        delta.host_dur = time.perf_counter() - host_before
        delta.virt_dur = ctx.block_time
    if task.all_private:
        return delta
    if ckpt is not None:
        # thread-safe: gathers only elements this block wrote.
        delta.untested = ckpt.export_writes(block.proc)
        # Undo our untested writes: the merge replays them through the
        # parent's checkpoint manager in block order, which must observe
        # the pre-stage values as "old" for rollback to stay serial.
        ckpt.restore_failed([block.proc])
    if recorder is not None:
        delta.untested_reads = sorted(recorder.reads)
        delta.untested_writes = sorted(recorder.writes)
    return delta


class _Reply:
    """One dispatch's result slot, filled by the worker thread."""

    __slots__ = ("deltas", "error", "cancelled")

    def __init__(self) -> None:
        self.deltas: list[_ThreadDelta] | None = None
        self.error: str | None = None
        self.cancelled = False


class _Worker:
    """One pool slot: a thread, its task inbox and its cancel flag."""

    __slots__ = ("slot", "inbox", "cancel", "thread")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.cancel = threading.Event()
        self.thread: threading.Thread | None = None


def _worker_loop(eng, worker: _Worker, done: queue.SimpleQueue) -> None:
    """Worker thread body: drain the inbox until the ``None`` farewell.

    Runs in a worker thread; ``eng`` is only ever passed through to
    :func:`_run_thread_task`, which documents the per-access safety
    arguments.
    """
    while True:
        item = worker.inbox.get()
        if item is None:
            return
        share, reply = item
        try:
            deltas = []
            for task in share:
                if worker.cancel.is_set():
                    raise BlockCancelled(task.block.proc, task.block.start)
                # thread-safe: see _run_thread_task's annotations.
                deltas.append(_run_thread_task(eng, task, worker.cancel))
            reply.deltas = deltas
        except BlockCancelled:
            reply.cancelled = True
        except BaseException:
            reply.error = traceback.format_exc()
        done.put((worker.slot, reply))


class _ThreadSupervisor:
    """Deadline-based hang detection for the in-process worker pool.

    The process supervisor's state machine, re-targeted at threads::

        busy --done--> merged
        busy --deadline passes--> overdue --cancel flag--> acknowledged
            --reset state + redispatch--> busy
        acknowledged, budget exhausted or poison block --> degraded
        overdue, grace expires unacknowledged --> wedged (BackendError)

    ``max_worker_respawns`` bounds cancellation recoveries (the thread
    survives and is reused, so nothing literally respawns unless a worker
    thread dies outright), and the poison-block counter matches the
    process supervisor's, so configuration knobs keep one meaning across
    backends.  Counters land on the engine's shared
    :class:`~repro.core.supervise.SupervisionStats`; operational records
    flow through the unified oplog (:mod:`repro.obs.oplog`) with the
    same shape as the process supervisor's (``pid`` carries the worker's
    native thread id).
    """

    def __init__(self, backend: "ThreadsBackend") -> None:
        self.backend = backend
        eng = backend.eng
        config = getattr(eng, "config", None)
        self.timeout = float(getattr(config, "worker_timeout", 30.0))
        self.factor = float(getattr(config, "worker_timeout_factor", 8.0))
        self.max_recoveries = int(getattr(config, "max_worker_respawns", 3))
        stats = getattr(eng, "supervision", None)
        self.stats = stats if stats is not None else SupervisionStats()
        self.recoveries_used = 0
        self._block_deaths: dict[tuple[int, int], int] = {}
        self._per_block_est = 0.0
        self._sent: dict[int, float] = {}
        self._shares: list[list] = []
        self._t0 = time.monotonic()

    # -- dispatch/collect loop ---------------------------------------------------

    def run_shares(self, shares: list[list]) -> list:
        """Send the non-empty shares, survive hangs, return all replies."""
        self._shares = shares
        replies: list = [[] for _ in shares]
        pending: dict[int, float] = {}
        cancelling: dict[int, float] = {}
        for k, share in enumerate(shares):
            if share:
                self._dispatch(k, share, pending)
        while pending or cancelling:
            now = time.monotonic()
            deadline = min([*pending.values(), *cancelling.values()])
            try:
                k, reply = self.backend._done.get(
                    timeout=max(0.0, deadline - now)
                )
            except queue.Empty:
                self._check_deadlines(pending, cancelling)
                continue
            if k in pending:
                del pending[k]
            elif k in cancelling:
                del cancelling[k]
                # Acknowledged (or completed just before seeing the
                # flag): the worker is idle again; re-arm its slot.
                self.backend._workers[k].cancel.clear()
            else:  # pragma: no cover - defensive: stale completion
                continue
            if reply.error is not None:
                raise BackendError(
                    f"{self.backend._share_context(k, self._shares[k])} "
                    f"raised:\n{reply.error}",
                    loop=self.backend.eng.loop.name,
                )
            if reply.cancelled:
                self._recover(k, pending)
            else:
                replies[k] = reply.deltas
                self._note_duration(k, self._shares[k])
        # Nothing is in flight between stages; the resource sampler reads
        # ``_sent`` for its inflight gauge, so don't leave stale entries.
        self._sent.clear()
        return replies

    def _dispatch(self, k: int, share: list, pending: dict) -> None:
        backend = self.backend
        worker = backend._workers[k]
        if worker.thread is None or not worker.thread.is_alive():
            # A worker thread only dies if something escaped its loop;
            # replace it (this is the literal respawn case).
            self._budget_check(k, share)
            backend._start_worker(worker)
            self.stats.respawns += 1
            self.recoveries_used += 1
            self._log("worker-respawned", k, share)
        reply = _Reply()
        worker.inbox.put((share, reply))
        now = time.monotonic()
        self._sent[k] = now
        pending[k] = now + self._deadline_for(share)

    def _check_deadlines(self, pending: dict, cancelling: dict) -> None:
        now = time.monotonic()
        for k in [k for k, dl in pending.items() if now >= dl]:
            del pending[k]
            self.stats.overdue += 1
            self._log("worker-overdue", k, self._shares[k])
            self.backend._workers[k].cancel.set()
            cancelling[k] = now + self._grace()
        for k in [k for k, dl in cancelling.items() if now >= dl]:
            # Wedged inside one iteration: the flag is only checked at
            # iteration boundaries, so native code that never returns
            # cannot be stopped from in-process -- and a degraded serial
            # rerun would race the still-running thread's writes.
            self._log("worker-wedged", k, self._shares[k])
            raise BackendError(
                f"{self.backend._share_context(k, self._shares[k])} missed "
                f"its dispatch deadline and did not acknowledge cancellation "
                f"within {self._grace():.1f}s (thread wedged inside an "
                "iteration; threads cannot be force-killed -- use the fork "
                "backend for workloads with non-returning bodies)",
                loop=self.backend.eng.loop.name,
            )

    def _recover(self, k: int, pending: dict) -> None:
        """An overdue share acknowledged its cancellation: roll the blocks'
        shared state back to dispatch-time contents and re-dispatch."""
        share = self._shares[k]
        for task in share:
            key = (task.stage, task.pos)
            deaths = self._block_deaths.get(key, 0) + 1
            self._block_deaths[key] = deaths
            if deaths >= _MAX_BLOCK_DEATHS:
                self.stats.quarantined_blocks += 1
                self._fail_pool(PoolDegradation(
                    self.backend.name,
                    f"block at stage {task.stage} position {task.pos} "
                    f"overran its deadline {deaths} times (poison block)",
                    stage=task.stage, worker=k,
                    blocks=tuple(t.pos for t in share),
                ), pending)
        self._budget_check(k, share, pending)
        self.backend._reset_dispatch_state(share)
        time.sleep(min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** self.recoveries_used)))
        self.recoveries_used += 1
        self._dispatch(k, share, pending)
        self.stats.redispatched_blocks += len(share)
        self.stats.stage_redispatched_procs.extend(
            task.block.proc for task in share
        )
        self._log("blocks-redispatched", k, share)

    def _budget_check(self, k: int, share: list, pending: dict | None = None) -> None:
        if self.recoveries_used >= self.max_recoveries:
            self._fail_pool(PoolDegradation(
                self.backend.name,
                "worker recovery budget exhausted "
                f"(max_worker_respawns={self.max_recoveries})",
                stage=share[0].stage if share else None, worker=k,
                blocks=tuple(t.pos for t in share),
            ), pending or {})

    def _fail_pool(self, exc: PoolDegradation, pending: dict) -> None:
        """Give up on this pool: stop every in-flight worker (cancel flag
        + drain), then roll *all* dispatched blocks' shared state back to
        dispatch-time contents -- direct execution means even completed,
        not-yet-merged blocks left views/shadows/partials in place, and
        the whole stage re-runs on the fallback backend."""
        self.backend._quiesce(pending)
        for share in self._shares:
            self.backend._reset_dispatch_state(share)
        self._log("pool-degraded", exc.worker if exc.worker is not None else -1,
                  [], extra={"reason": str(exc)})
        raise exc

    # -- deadlines ---------------------------------------------------------------

    def _deadline_for(self, share: list) -> float:
        """Same policy as the process supervisor: the configured floor, or
        the adaptive estimate when that is larger."""
        return max(
            self.timeout,
            self.factor * self._per_block_est * max(1, len(share)),
        )

    def _grace(self) -> float:
        """Acknowledgment window after the cancel flag is set: one slow
        iteration must fit, so scale with the per-block estimate."""
        return max(_CANCEL_GRACE, self.factor * self._per_block_est)

    def _note_duration(self, k: int, share: list) -> None:
        if share:
            dur = time.monotonic() - self._sent[k]
            self._per_block_est = max(self._per_block_est, dur / len(share))

    # -- operational log ---------------------------------------------------------

    def _log(self, event: str, k: int, share: list, extra: dict | None = None) -> None:
        workers = self.backend._workers or []
        thread = workers[k].thread if 0 <= k < len(workers) else None
        pid = thread.native_id if thread is not None else None
        log_supervision(
            self.backend.name, event, k, pid, share, self._t0, extra
        )


class ThreadsBackend(PooledBackend):
    """Persistent in-process worker threads over the kernel seam."""

    name = "threads"

    def __init__(self, eng) -> None:
        super().__init__(eng)
        if getattr(eng, "os_chaos", None) is not None:
            raise ConfigurationError(
                "os_chaos delivers SIGKILL/SIGSTOP to worker processes; "
                "the threads backend's workers share the engine's process "
                "-- use backend='fork' for OS-level chaos"
            )
        self.thread_mode = thread_mode()
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    # -- pool lifecycle ----------------------------------------------------------

    def _ensure_workers(self) -> None:
        workers = [_Worker(slot) for slot in range(self._pool_size())]
        for worker in workers:
            self._start_worker(worker)
        self._workers = workers
        get_oplog().log(
            "backend", "pool-started", backend=self.name,
            workers=len(workers), mode=self.thread_mode,
        )

    def _start_worker(self, worker: _Worker) -> None:
        worker.cancel.clear()
        worker.thread = threading.Thread(
            target=_worker_loop, args=(self.eng, worker, self._done),
            name=f"repro-{self.name}-{worker.slot}", daemon=True,
        )
        worker.thread.start()

    def _share_context(self, k: int, share: list[BlockTask]) -> str:
        worker = self._workers[k]
        ident = worker.thread.native_id if worker.thread is not None else None
        if share:
            where = (
                f"stage {share[0].stage} blocks {[t.pos for t in share]} "
                f"(procs {[t.block.proc for t in share]})"
            )
        else:
            where = "an empty share"
        return f"{self.name} backend worker {k} (thread {ident}) executing {where}"

    # -- recovery ----------------------------------------------------------------

    def _reset_dispatch_state(self, share: list[BlockTask]) -> None:
        """Roll one share's directly-executed side effects back to their
        dispatch-time (clear) contents: processor-state planes and mark
        lists.  Untested writes were already rolled back by the worker's
        thread-local checkpoint; ``iter_times`` persist by design and are
        overwritten on re-execution."""
        eng = self.eng
        for task in share:
            if task.all_private:
                continue  # fully private state, nothing shared to undo
            state = eng.states.get(task.block.proc)
            if state is not None:
                state.reset()
            if task.marklists:
                for ml in task.marklists.values():
                    ml.reset()

    def _quiesce(self, pending: dict) -> None:
        """Stop every in-flight share (degradation path): flag them all,
        then drain acknowledgments so no worker still runs when shared
        state is rolled back."""
        if not pending:
            return
        for k in pending:
            self._workers[k].cancel.set()
        grace = (
            self._supervisor._grace() if self._supervisor is not None
            else _CANCEL_GRACE
        )
        deadline = time.monotonic() + grace
        waiting = set(pending)
        while waiting:
            try:
                k, reply = self._done.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                raise BackendError(
                    f"{self.name} backend could not quiesce workers "
                    f"{sorted(waiting)} for degradation (threads wedged "
                    "inside an iteration cannot be force-killed)",
                    loop=self.eng.loop.name,
                ) from None
            waiting.discard(k)
        for k in pending:
            self._workers[k].cancel.clear()
        pending.clear()

    # -- dispatch ----------------------------------------------------------------

    def _run_shares(self, shares: list[list[BlockTask]]) -> list:
        if self._supervisor is None:
            self._supervisor = _ThreadSupervisor(self)
        return self._supervisor.run_shares(shares)

    def _merge(self, task: BlockTask, delta: _ThreadDelta) -> BlockOutcome:
        """Fold one block's delta into the engine, in block-position order.

        Views, shadows, partials, iteration times, the executed list and
        mark lists were written in place by direct execution; only the
        order-sensitive residue replays here.
        """
        eng = self.eng
        machine = eng.machine
        block = task.block
        proc = block.proc
        for category, amount in delta.charges:
            machine.charge(proc, category, amount)
        if delta.metrics is not None:
            machine.metrics.merge(delta.metrics)
        outcome = BlockOutcome(
            pos=task.pos, block=block, fault=delta.fault,
            fault_permanent=delta.fault_permanent,
            exit_iteration=delta.exit_iteration,
            inductions=delta.inductions,
            marklists=task.marklists,
        )
        if task.collect_spans:
            outcome.host_start = eng.rebase_host(delta.host_start)
            outcome.host_dur = delta.host_dur
            outcome.virt_dur = delta.virt_dur
        if task.all_private:
            return outcome
        replay_untested(eng, proc, delta.untested)
        if eng.untested_log is not None:
            for name, index in delta.untested_reads:
                eng.untested_log.note_read(proc, name, index)
            for name, index in delta.untested_writes:
                eng.untested_log.note_write(proc, name, index)
        return outcome

    def resource_info(self) -> dict:
        """Live thread count and per-worker inbox depths for the sampler.

        Threads share the engine process, so there are no worker pids;
        ``worker_threads`` carries the live-thread count instead and
        ``queue_depths`` the (approximate) inbox backlogs.
        """
        info = super().resource_info()
        workers = self._workers or []
        try:
            info["worker_threads"] = sum(
                1 for worker in list(workers)
                if worker.thread is not None and worker.thread.is_alive()
            )
            info["queue_depths"] = [
                worker.inbox.qsize() for worker in list(workers)
            ]
        except (TypeError, ValueError, NotImplementedError):
            pass  # pragma: no cover - qsize unsupported / torn read
        supervisor = self._supervisor
        if supervisor is not None:
            try:
                shares = list(supervisor._shares)
                info["inflight"] = sum(
                    len(shares[k]) for k in list(supervisor._sent)
                    if 0 <= k < len(shares)
                )
            except (TypeError, ValueError):  # pragma: no cover - torn read
                pass
        return info

    def _stop_pool(self, workers: list[_Worker]) -> None:
        for worker in workers:
            worker.inbox.put(None)
        for worker in workers:
            if worker.thread is not None:
                worker.thread.join(timeout=2.0)
        # A worker still alive here is wedged mid-iteration; it is
        # daemonic and cannot outlive the interpreter.


BACKENDS[ThreadsBackend.name] = ThreadsBackend
