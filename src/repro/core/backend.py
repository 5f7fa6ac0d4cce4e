"""Execution backends: where a stage's speculative blocks actually run.

The paper's central property is that every speculative stage is an
embarrassingly parallel doall -- each block runs on privatized storage with
no cross-block communication until the analysis phase.  The backend layer
exploits that: the :class:`StageEngine` hands the stage's blocks to a
backend as :class:`BlockTask` descriptors and receives :class:`BlockOutcome`
objects back, without caring *where* the blocks ran.

Three backends are provided, plus one synonym:

* ``serial`` (the default) executes blocks one after another in-process,
  exactly the pre-backend behavior.
* ``threads`` (:mod:`repro.core.threads`, registered lazily) runs a
  persistent pool of worker *threads* directly against the engine's own
  processor states and shared memory -- no fork, no memory diff-sync, no
  pipes, no pickling.  The hot loops are GIL-releasing
  :mod:`repro.kernels` calls (and truly concurrent on free-threaded
  CPython builds); only folded charges, metrics snapshots and untested
  captures travel through the per-worker queues, merged in block order.
* ``fork`` dispatches the blocks to a persistent pool of forked worker
  processes.  Each worker runs :func:`~repro.core.executor.execute_block`
  against its own fresh :class:`~repro.core.executor.ProcessorState` and
  ships back a compact :class:`_BlockDelta` -- written private-view
  entries, packed shadow bit planes, reduction partials, per-iteration
  times, the block's per-category charge totals, untested-write sets and
  the fault/exit outcome.  The parent merges deltas **in block order**, so
  results, events and virtual-time accounting are bit-identical to serial
  execution (enforced by running the golden parity suite under every
  backend).
* ``shm`` (:mod:`repro.core.shm`, registered lazily) is the fork pool
  under another name, kept for the host-time benchmark.

Bit-exactness rests on two invariants the engine's strategies uphold:

* every backend folds a block's execution-phase charges in one place, the
  block's :class:`~repro.core.executor.SpeculativeContext`: per category,
  seeded with the processor's totals so far, settled once per block --
  onto the timeline in-process, onto a :class:`_WorkerMachine` in a
  worker, whose totals the parent replays in block order.  Every strategy
  schedules at most **one block per processor per stage** (blocked
  drivers by construction, the sliding window assigns its window blocks
  to distinct processors), and the only execution-phase charge a
  processor takes before its block is the pre-initialization copy, which
  workers make themselves -- so a worker starts from the same seed the
  serial backend does and replays the same floats in the same order;
* untested arrays obey the statically-analyzable isolation contract (no
  cross-processor element sharing within a stage -- what ``--self-check``
  verifies), so replaying each block's untested writes in block order
  reproduces the serial interleaving.

Fault injection is handled by *hoisting*: the parent resolves each block's
straggler slowdown and fail-stop point before dispatch (workers carry no
injector), which matches serial query-time state because processors
marked dead are never scheduled again.

The fork pool uses the ``fork`` start method so workers inherit the loop
closure and cost model; only tasks, memory updates and deltas cross the
pipes.  Worker shared memory is kept in sync by broadcasting the contents
of arrays that changed since the last dispatch (commits, restores,
reinitializations all funnel through parent memory, so a diff against the
last synced snapshot catches every mutation without instrumentation).
Workers write only their own copy-on-write address space and undo their
untested writes before replying, so the parent's image never holds a
worker's dirt.

Every dispatch runs under a
:class:`~repro.core.supervise.WorkerSupervisor`: a SIGKILLed, OOM-killed
or wedged worker is detected (process sentinel / dispatch deadline),
reaped and replaced by a fresh fork, and its blocks are re-dispatched --
bit-identically, because deltas merge only after *all* replies arrive, so
the parent carries no trace of the killed attempt.  When the pool is
beyond repair the supervisor raises
:class:`~repro.core.supervise.PoolDegradation` and the engine falls back
to serial.  The supervisor drives the pool through ``_spawn_worker`` /
``_send_share`` / ``_recv_share`` / ``_halt_workers``.

The pooled backends (fork, shm, threads; :class:`PooledBackend`)
dispatch a stage only when it pays (:meth:`PooledBackend.dispatch_pays`),
the host-time twin of the paper's Eq. 4 (redistribute only while the
work saved beats the cost of moving it): a stage whose measured dispatch
time does not beat its measured inline time -- plus, while no pool runs,
the pool's start and teardown -- executes in the parent through
:meth:`SerialBackend.run_blocks`.  Each path times itself
(:class:`DispatchCosts`), the path not taken is probed now and then to
measure its figures afresh, and results, events and virtual time are
identical whichever way a stage goes.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.core.executor import (
    execute_block,
    make_all_private_state,
    make_plain_state,
    make_processor_state,
)
from repro.core.supervise import WorkerSupervisor
from repro.errors import BackendError, ConfigurationError
from repro.obs.oplog import get_oplog
from repro.kernels import get_kernels
from repro.machine.checkpoint import CheckpointManager
from repro.machine.memory import MemoryImage, SharedArray
from repro.machine.timeline import Category
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.util.blocks import Block

# -- default-backend selection ---------------------------------------------------

DEFAULT_BACKEND = "serial"

_default_backend = DEFAULT_BACKEND


def get_default_backend() -> str:
    """Backend used when ``RuntimeConfig.backend`` is ``None``."""
    return _default_backend


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (``use_backend`` scopes it)."""
    global _default_backend
    _ensure_registered()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; known: {', '.join(backend_names())}"
        )
    _default_backend = name


@contextlib.contextmanager
def use_backend(name: str):
    """Scope the default backend: every run started inside the ``with``
    whose config leaves ``backend=None`` uses ``name``.  Lets existing
    entry points (and the golden parity suite) run under the fork backend
    without threading a parameter through every call."""
    previous = _default_backend
    set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def resolve_backend_name(config) -> str:
    """The backend a config resolves to (explicit setting or the default)."""
    name = getattr(config, "backend", None)
    return name if name is not None else _default_backend


# -- task / outcome descriptors ---------------------------------------------------


@dataclass
class BlockTask:
    """One block of one stage, as handed to an execution backend."""

    stage: int
    pos: int
    block: Block
    inductions: dict[str, int] | None = None
    marklists: dict | None = None
    preload: bool = False
    all_private: bool = False
    """Run on a fully privatized state with no checkpoint or injector (the
    induction recipe's side-effect-free range collection)."""
    plain: bool = False
    """Certified fast path (:mod:`repro.core.fastpath`): run on a plain
    processor state with no views and no shadows, so every access takes
    the direct-shared-memory path -- no marking, no copy-in, no
    checkpoint charges.  Out-of-process workers still capture the
    written ``(indices, values)`` through a charge-free
    :class:`_CaptureCheckpoint` so direct writes ship back to the
    parent (and roll back under cancellation) exactly like untested
    writes."""
    log_untested: bool = False
    use_injector: bool = True
    slowdown: float = 1.0
    death: tuple[int, bool] | None = None
    collect_metrics: bool = False
    """Accumulate a metrics snapshot for this block (fork workers use a
    private registry, shipped back in the delta)."""
    collect_spans: bool = False
    """Measure per-block host/virtual timings for the span layer."""


@dataclass
class BlockOutcome:
    """What the engine needs to know after a block executed."""

    pos: int
    block: Block
    fault: str | None = None
    fault_permanent: bool = False
    exit_iteration: int | None = None
    inductions: dict[str, int] = field(default_factory=dict)
    marklists: dict | None = None
    """The block's filled-in mark lists (the task's own object in-process,
    a shipped copy from out-of-process workers)."""
    host_start: float = 0.0
    """Run-relative host seconds at block start (``collect_spans`` only)."""
    host_dur: float = 0.0
    virt_dur: float = 0.0
    """This block's summed virtual-time charges (``collect_spans`` only)."""

    def induction_values(self) -> dict[str, int]:
        return dict(self.inductions)


# -- backends ---------------------------------------------------------------------


class ExecutionBackend:
    """Executes the blocks of one stage and merges results into the engine."""

    name = ""

    def __init__(self, eng) -> None:
        self.eng = eng

    def run_blocks(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        """Execute all tasks; return outcomes ordered by block position.

        Post-condition, regardless of backend: the engine's processor
        states, checkpoint manager, untested-access log, shared memory and
        timeline are exactly as if the blocks had run serially in-process.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def resource_info(self) -> dict:
        """Operational snapshot for the host resource sampler.

        Purely informational (never affects execution): ``worker_pids``
        are OS process ids the sampler should read ``/proc`` stats for,
        ``inflight`` the blocks dispatched but not yet collected,
        ``queue_depths`` any per-worker queue backlogs.
        Backends override what they know; the base backend runs
        everything in-process and holds nothing.
        """
        return {
            "worker_pids": [],
            "inflight": 0,
            "queue_depths": [],
        }


class SerialBackend(ExecutionBackend):
    """In-process, one-block-after-another execution (the default)."""

    name = "serial"

    def run_blocks(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        eng = self.eng
        # Backend-level, not per-task: strategies build their own tasks
        # (pre-stage doalls) and must not need to know about span tracing.
        collect_spans = getattr(eng, "spans_enabled", False)
        outcomes = []
        for task in tasks:
            block = task.block
            if task.all_private:
                state = make_all_private_state(eng.machine, eng.loop, block.proc)
                ckpt = injector = untested_log = None
            else:
                state = eng.states[block.proc]
                ckpt = eng.ckpt
                injector = eng.injector if task.use_injector else None
                untested_log = eng.untested_log if task.log_untested else None
                if task.preload:
                    state.preload(eng.machine, skip=eng.reduction_names)
            if collect_spans:
                record = eng.machine.timeline.current
                virt_before = record.proc_time(block.proc)
                host_before = eng.host_now()
            ctx = execute_block(
                eng.machine, eng.loop, state, block, ckpt,
                inductions=task.inductions, marklists=task.marklists,
                injector=injector, stage=task.stage,
                untested_log=untested_log,
            )
            outcome = BlockOutcome(
                pos=task.pos, block=block, fault=ctx.fault,
                fault_permanent=ctx.fault_permanent,
                exit_iteration=ctx.exit_iteration,
                inductions=ctx.induction_values(),
                marklists=task.marklists,
            )
            if collect_spans:
                outcome.host_start = host_before
                outcome.host_dur = eng.host_now() - host_before
                outcome.virt_dur = record.proc_time(block.proc) - virt_before
            outcomes.append(outcome)
        return outcomes


# -- the fork backend -------------------------------------------------------------


@dataclass
class _BlockDelta:
    """Everything a worker ships back about one executed block."""

    pos: int
    charges: list[tuple[Category, float]]
    fault: str | None = None
    fault_permanent: bool = False
    exit_iteration: int | None = None
    inductions: dict[str, int] = field(default_factory=dict)
    views: dict[str, object] = field(default_factory=dict)
    shadows: dict[str, object] = field(default_factory=dict)
    partials: dict[str, dict[int, object]] = field(default_factory=dict)
    iter_times: dict[int, float] = field(default_factory=dict)
    iter_work: dict[int, float] = field(default_factory=dict)
    untested: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    untested_reads: list[tuple[str, int]] = field(default_factory=list)
    untested_writes: list[tuple[str, int]] = field(default_factory=list)
    marklists: dict | None = None
    metrics: dict | None = None
    """Snapshot of the worker's private registry (``collect_metrics``)."""
    host_start: float = 0.0
    """Absolute ``perf_counter`` at block start (``collect_spans``); the
    parent rebases it onto the run clock -- comparable across fork on
    POSIX, where ``perf_counter`` is the system-wide monotonic clock."""
    host_dur: float = 0.0
    virt_dur: float = 0.0


@dataclass
class _WorkerFailure:
    traceback: str


class _WorkerContext:
    """Per-worker immutable-ish context, inherited through fork."""

    def __init__(self, loop, costs, memory, ckpt_names, on_demand, reduction_names):
        self.loop = loop
        self.costs = costs
        self.memory = memory
        self.ckpt_names = ckpt_names
        self.on_demand = on_demand
        self.reduction_names = reduction_names


class _WorkerMachine:
    """Duck-typed stand-in for :class:`~repro.machine.machine.Machine`
    inside a worker: same memory/costs/metrics surface, but charges go to
    one block's per-category totals instead of a timeline.  The context
    seeds its fold from :attr:`charges` (any pre-initialization copy) and
    settles its folded sums back into it, so the delta ships the block's
    totals as they are and the parent replays them once per category."""

    __slots__ = ("memory", "costs", "charges", "metrics")

    def __init__(self, memory, costs) -> None:
        self.memory = memory
        self.costs = costs
        self.charges: dict[Category, float] = {}
        self.metrics = NULL_REGISTRY

    def charge(self, proc: int, category: Category, amount: float) -> None:
        if amount:
            self.charges[category] = self.charges.get(category, 0.0) + amount

    def running_charges(self, proc: int) -> dict[Category, float]:
        return self.charges

    def settle_charges(self, proc: int, totals) -> None:
        self.charges.update(totals)


def check_unique_procs(name: str, tasks: list[BlockTask]) -> None:
    """Enforce the one-block-per-processor-per-stage invariant every
    parallel backend's bit-exactness argument rests on (see the module
    docstring)."""
    procs = [task.block.proc for task in tasks]
    if len(set(procs)) != len(procs):
        raise BackendError(
            f"{name} backend needs at most one block per processor "
            f"per stage, got procs {procs}"
        )


def hoist_injection(eng, tasks: list[BlockTask]) -> None:
    """Resolve straggler/fail-stop faults parent-side, in block order.

    Matches serial query-time state exactly: the injector's dead set
    only grows with processors the engine removed from the alive pool,
    and those are never scheduled again, so a pre-dispatch query sees
    the same state an execution-time query would.
    """
    injector = eng.injector
    if injector is None:
        return
    for task in tasks:
        if not task.use_injector:
            continue
        task.slowdown = injector.slowdown(task.stage, task.block.proc)
        task.death = injector.fail_stop_point(
            task.stage, task.block.proc, len(task.block)
        )


def make_capture_checkpoint(memory: MemoryImage) -> CheckpointManager:
    """Charge-free capture checkpoint over *every* array of ``memory``.

    Certified plain tasks run with ``eng.ckpt = None``, so the parent-side
    charge profile has zero CHECKPOINT entries.  Out-of-process workers
    still need the *bookkeeping* half of a checkpoint -- which elements
    this block wrote (to ship them home) and their old values (to roll the
    block back under cancellation or local restore) -- over any array,
    since plain tasks write shared memory directly.
    """
    ckpt = CheckpointManager(memory, list(memory.names()), True, charge_saves=False)
    ckpt.begin_stage()
    return ckpt


def replay_untested(eng, proc: int, untested) -> None:
    """Merge a block's shipped untested writes (``name -> (indices,
    values)``) into the parent: the parent checkpoint records them first
    (saving the pre-stage values), then one scatter applies them."""
    memory = eng.machine.memory
    for name, (indices, values) in untested.items():
        if eng.ckpt is not None:
            eng.ckpt.note_write_many(proc, name, indices)
        get_kernels().scatter(memory[name].data, indices, values)


class _AccessRecorder:
    """Worker-side stand-in for the self-check untested-access log."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: set[tuple[str, int]] = set()
        self.writes: set[tuple[str, int]] = set()

    def note_read(self, proc: int, name: str, index: int) -> None:
        self.reads.add((name, index))

    def note_write(self, proc: int, name: str, index: int) -> None:
        self.writes.add((name, index))


def _run_worker_task(wctx: _WorkerContext, task: BlockTask) -> _BlockDelta:
    machine = _WorkerMachine(wctx.memory, wctx.costs)
    if task.collect_metrics:
        machine.metrics = MetricsRegistry()
    block = task.block
    recorder = None
    ckpt = None
    if task.all_private:
        state = make_all_private_state(machine, wctx.loop, block.proc)
    elif task.plain:
        state = make_plain_state(block.proc)
        ckpt = make_capture_checkpoint(wctx.memory)
        if task.log_untested:
            recorder = _AccessRecorder()
    else:
        state = make_processor_state(machine, wctx.loop, block.proc)
        if wctx.ckpt_names:
            ckpt = CheckpointManager(wctx.memory, wctx.ckpt_names, wctx.on_demand)
            ckpt.begin_stage()
        if task.log_untested:
            recorder = _AccessRecorder()
        if task.preload:
            state.preload(machine, skip=wctx.reduction_names)
    # Span window matches the serial backend's: execute_block only, after
    # any preload, so host/virtual block durations are comparable.
    host_before = time.perf_counter() if task.collect_spans else 0.0
    ctx = execute_block(
        machine, wctx.loop, state, block, ckpt,
        inductions=task.inductions, marklists=task.marklists,
        stage=task.stage, untested_log=recorder,
        slowdown=task.slowdown, death=task.death,
    )
    delta = _BlockDelta(
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
    delta.views = {
        name: view.export_written()
        for name, view in state.views.items()
        if view.n_written()
    }
    delta.shadows = {
        name: shadow.export_marks()
        for name, shadow in state.shadows.items()
        if not shadow.is_clear()
    }
    delta.partials = {name: dict(p) for name, p in state.partials.items() if p}
    delta.iter_times = dict(state.iter_times)
    delta.iter_work = dict(state.iter_work)
    if ckpt is not None:
        delta.untested = ckpt.export_writes(block.proc)
        # Undo this block's untested writes locally: the worker's memory
        # must stay equal to the last parent broadcast, else rolled-back
        # stages would leave stale values behind the parent's sync diff.
        ckpt.restore_failed([block.proc])
    if recorder is not None:
        delta.untested_reads = sorted(recorder.reads)
        delta.untested_writes = sorted(recorder.writes)
    if task.marklists is not None:
        delta.marklists = task.marklists
    return delta


def apply_memory_updates(memory: MemoryImage, payload: bytes) -> None:
    """Bring a worker's memory image up to the parent's last broadcast:
    ``payload`` is a pickled :meth:`ForkBackend._memory_updates` dict
    (empty bytes when nothing changed)."""
    if not payload:
        return
    for name, update in pickle.loads(payload).items():
        data = memory[name].data
        if isinstance(update, tuple):
            indices, values = update
            data[indices] = values
        else:
            data[:] = update


def _worker_main(conn, wctx: _WorkerContext) -> None:  # pragma: no cover - child
    try:
        while True:
            message = conn.recv()
            if message is None:
                return
            payload, tasks = message
            apply_memory_updates(wctx.memory, payload)
            conn.send([_run_worker_task(wctx, task) for task in tasks])
    except (EOFError, KeyboardInterrupt):
        return
    except BaseException:
        try:
            conn.send(_WorkerFailure(traceback.format_exc()))
        except Exception:
            pass


# -- the dispatch rule ------------------------------------------------------------


class _Figure:
    """One measured host-time figure (``None`` until the first sample).

    Older samples' weights halve on every new one, so the figure follows
    the host's current load and an outlying sample (a cold first fork, a
    loaded moment) fades within a few more instead of steering the rule
    for the life of the process.  A sample may carry a weight
    (iterations, for per-iteration seconds)."""

    __slots__ = ("total", "weight")

    def __init__(self) -> None:
        self.total = 0.0
        self.weight = 0.0

    def add(self, value: float, weight: float = 1.0) -> None:
        self.total = self.total / 2 + value
        self.weight = self.weight / 2 + weight

    @property
    def value(self) -> float | None:
        return self.total / self.weight if self.weight else None


@dataclass
class DispatchCosts:
    """What one pooled backend class has measured about where its stages
    run.

    Kept at module level (:data:`_DISPATCH_COSTS`), so the figures outlive
    each ``parallelize`` call and its pool.  All are host seconds, each
    timed on its own path: no figure is derived from another.
    """

    inline: dict = field(default_factory=dict)
    """Loop body (its code object) -> wall seconds per iteration of the
    stages run in the parent."""
    dispatch: dict = field(default_factory=dict)
    """Loop body -> wall seconds per iteration of the stages sent to the
    pool (dispatch, compute, merge; pool start excluded)."""
    pool_open: _Figure = field(default_factory=_Figure)
    """``C_open``: pool start (``_ensure_workers``)."""
    pool_close: _Figure = field(default_factory=_Figure)
    """``C_close``: pool teardown (:meth:`PooledBackend.close`)."""
    stake: float = 0.0
    """The estimated cost of the same-way decisions since the last probe
    (:meth:`PooledBackend.dispatch_pays`)."""
    staked_on: bool = False
    """The way those decisions went (True = dispatch)."""
    probes: int = 0
    """Probes so far; each doubles the next probe's price."""


#: Backend class -> its measured dispatch costs.
_DISPATCH_COSTS: dict[type, DispatchCosts] = {}


def _body_key(loop):
    """Per-body key for the per-iteration figures: loops built by one
    factory share their body's code object, not the closure."""
    body = loop.body
    return getattr(body, "__code__", None) or type(body)


def _iterations(tasks: list[BlockTask]) -> int:
    return sum(len(task.block) for task in tasks)


class PooledBackend(ExecutionBackend):
    """A backend with a worker pool that runs a stage in the parent
    unless dispatching it is measured to pay (:meth:`dispatch_pays`).

    Subclasses supply the pool: :meth:`_ensure_workers` (start it),
    :meth:`_run_shares` (run one stage's shares on it), :meth:`_merge`
    (fold one block's reply into the engine) and :meth:`_stop_pool`
    (tear it down).
    """

    #: The parent-side path for stages that do not pay for dispatch.
    #: Bound once here, not looked up per call: a wrapper installed on
    #: ``SerialBackend.run_blocks`` (hostbench's outside-in tracer) must
    #: not count an inline stage as a second backend execute.
    _run_inline = SerialBackend.run_blocks

    def __init__(self, eng) -> None:
        super().__init__(eng)
        self._workers: list | None = None
        self._supervisor = None

    def _pool_size(self) -> int:
        """Workers the pool has (or would have once started)."""
        eng = self.eng
        n_workers = eng.config.backend_workers or min(
            eng.n_procs, os.cpu_count() or 1
        )
        return max(1, min(n_workers, eng.n_procs))

    def _ensure_workers(self) -> None:
        raise NotImplementedError

    def _run_shares(self, shares: list[list[BlockTask]]) -> list:
        raise NotImplementedError

    def _merge(self, task: BlockTask, delta) -> BlockOutcome:
        raise NotImplementedError

    def _stop_pool(self, workers: list) -> None:
        raise NotImplementedError

    @property
    def _costs(self) -> DispatchCosts:
        return _DISPATCH_COSTS.setdefault(type(self), DispatchCosts())

    def dispatch_pays(self, tasks: list[BlockTask]) -> bool:
        """Whether this stage goes to the pool; otherwise it runs in the
        parent.  The host-time twin of Eq. 4: dispatch only when

            ``T_inline > T_dispatch``                      (a pool runs), or
            ``T_inline > T_dispatch + C_open + C_close``   (none runs yet),

        with ``T_inline`` and ``T_dispatch`` the stage's iterations times
        this loop body's measured wall seconds per iteration on each path
        (see :class:`DispatchCosts`).  Bootstrap: a body with no inline
        figure runs inline, which measures it; one with no dispatch
        figure (or, while no pool runs, no pool figures) dispatches,
        which measures them.  A stage that would use fewer than two
        workers runs inline; ``os_chaos`` runs always dispatch: their
        signals target workers.

        Each path measures only its own figures, so the rule probes the
        other one: every decision adds the estimated cost of the path it
        takes to a stake, and once the stake of a run of same-way
        decisions passes the estimated cost of the other path, doubled
        per probe so far, the stage takes the other path.  Every decision
        stakes a positive amount, so one wrong figure cannot fix the
        choice for good; a probe costs about what it insures, and where
        the choice is right the probes thin out geometrically.
        """
        eng = self.eng
        if eng.os_chaos is not None:
            return True
        if min(self._pool_size(), len(tasks)) < 2:
            return False
        costs = self._costs
        key = _body_key(eng.loop)
        inline, dispatch = costs.inline.get(key), costs.dispatch.get(key)
        if inline is None:
            return False
        if dispatch is None:
            return True
        n = _iterations(tasks)
        t_inline, t_dispatch = inline.value * n, dispatch.value * n
        if self._workers is None:
            opened, closed = costs.pool_open.value, costs.pool_close.value
            if opened is None or closed is None:
                return True
            t_dispatch += opened + closed
        pays = t_inline > t_dispatch
        if pays != costs.staked_on:
            # The choice flipped, so the other path just measured its figures.
            costs.stake, costs.staked_on = 0.0, pays
        taken, other = (t_dispatch, t_inline) if pays else (t_inline, t_dispatch)
        costs.stake += taken
        if costs.stake > other * 2**costs.probes:
            costs.stake = 0.0
            costs.probes += 1
            return not pays
        return pays

    def run_blocks(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        if not tasks:
            return []
        check_unique_procs(self.name, tasks)
        stats, costs = self.eng.supervision, self._costs
        dispatch = self.dispatch_pays(tasks)
        t0 = time.perf_counter()
        if dispatch:
            stats.dispatched_stages += 1
            if self._workers is None:
                self._ensure_workers()
                stats.pools_started += 1
                opened = time.perf_counter()
                costs.pool_open.add(opened - t0)
                t0 = opened
            outcomes = self._dispatch_stage(tasks)
        else:
            stats.inline_stages += 1
            outcomes = self._run_inline(tasks)
        figures = costs.dispatch if dispatch else costs.inline
        figures.setdefault(_body_key(self.eng.loop), _Figure()).add(
            time.perf_counter() - t0, _iterations(tasks)
        )
        return outcomes

    def _dispatch_stage(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        """Run one stage on the pool: faults hoisted, blocks dealt to the
        workers round-robin, replies merged in block order."""
        eng = self.eng
        hoist_injection(eng, tasks)
        for task in tasks:
            task.collect_metrics = getattr(eng, "metrics_enabled", False)
            task.collect_spans = getattr(eng, "spans_enabled", False)
        shares: list[list[BlockTask]] = [[] for _ in self._workers]
        for k, task in enumerate(tasks):
            shares[k % len(shares)].append(task)
        deltas = {
            delta.pos: delta for reply in self._run_shares(shares) for delta in reply
        }
        return [self._merge(task, deltas[task.pos]) for task in tasks]

    def close(self) -> None:
        """Stop the pool, if one runs, and release its resources; the
        teardown is timed as ``C_close``."""
        if self._workers is None:
            return
        t0 = time.perf_counter()
        workers, self._workers = self._workers, None
        get_oplog().log(
            "backend", "pool-closed", backend=self.name,
            workers=len(workers),
        )
        self._stop_pool(workers)
        self._supervisor = None
        self._costs.pool_close.add(time.perf_counter() - t0)


class ForkBackend(PooledBackend):
    """Dispatch a stage's blocks to a persistent forked worker pool."""

    name = "fork"

    def __init__(self, eng) -> None:
        super().__init__(eng)
        self._last_sync: dict[str, np.ndarray] = {}
        self._wctx = None
        self._mp_ctx = None
        self._updates_bytes: bytes = b""

    def _make_wctx(self):
        """Build the context workers inherit through fork."""
        eng = self.eng
        memory = eng.machine.memory
        self._last_sync = {
            name: memory[name].data.copy() for name in memory.names()
        }
        return _WorkerContext(
            loop=eng.loop,
            costs=eng.machine.costs,
            memory=MemoryImage(
                SharedArray(name, memory[name].data) for name in memory.names()
            ),
            ckpt_names=eng.ckpt.names if eng.ckpt is not None else [],
            on_demand=eng.config.on_demand_checkpoint,
            reduction_names=eng.reduction_names,
        )

    def _ensure_workers(self) -> None:
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            raise ConfigurationError(
                f"the {self.name} execution backend needs the 'fork' start "
                "method (POSIX only); use backend='serial' on this platform"
            )
        n_workers = self._pool_size()
        self._wctx = self._make_wctx()
        self._mp_ctx = mp.get_context("fork")
        workers = []
        try:
            for _ in range(n_workers):
                workers.append(self._spawn_worker())
        except BaseException:
            for process, conn in workers:
                conn.close()
                process.terminate()
            raise
        self._workers = workers
        get_oplog().log(
            "backend", "pool-started", backend=self.name,
            workers=len(workers),
            pids=[process.pid for process, _ in workers],
        )

    def _spawn_worker(self):
        """Fork one worker from the saved context.

        Initial pool fill and supervised respawn share this path.  A
        respawn forks from the parent's *current* address space; the
        inherited ``wctx`` arrays are pool-build-time copies, so the
        supervisor's re-dispatch uses the full-sync ``fresh`` send to
        bring the replacement up to the dispatch-time broadcast state.
        """
        parent_conn, child_conn = self._mp_ctx.Pipe()
        process = self._mp_ctx.Process(
            target=_worker_main, args=(child_conn, self._wctx),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    # -- what the supervisor drives ----------------------------------------------

    def _send_share(self, k: int, share: list[BlockTask], fresh: bool) -> None:
        """Send worker ``k`` its share.  ``fresh`` marks a respawned
        worker, which needs the full memory image instead of the diff."""
        _, conn = self._workers[k]
        if fresh:
            memory = self.eng.machine.memory
            payload = pickle.dumps(
                {name: memory[name].data.copy() for name in memory.names()},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        else:
            payload = self._updates_bytes
        conn.send((payload, share))

    def _recv_share(self, k: int, share: list[BlockTask]):
        """Receive worker ``k``'s reply; a worker-raised exception becomes
        a :class:`BackendError` carrying the worker's full context."""
        _, conn = self._workers[k]
        reply = conn.recv()
        if isinstance(reply, _WorkerFailure):
            raise BackendError(
                f"{self._share_context(k, share)} raised:\n{reply.traceback}",
                loop=self.eng.loop.name,
            )
        return reply

    def _share_context(self, k: int, share: list[BlockTask]) -> str:
        """Identify one worker and its in-flight work, for error messages."""
        process, _ = self._workers[k]
        if share:
            where = (
                f"stage {share[0].stage} blocks {[t.pos for t in share]} "
                f"(procs {[t.block.proc for t in share]})"
            )
        else:
            where = "an empty share"
        return f"{self.name} backend worker {k} (pid {process.pid}) executing {where}"

    def _halt_workers(self) -> None:
        """Kill the whole pool immediately (degradation path): live
        workers may still be executing and must stop before the pool is
        abandoned."""
        if self._workers is None:
            return
        workers, self._workers = self._workers, None
        get_oplog().log(
            "backend", "pool-halted", severity="warn", backend=self.name,
            workers=len(workers),
        )
        for process, _ in workers:
            if process.is_alive():
                process.kill()
        for process, conn in workers:
            process.join(timeout=5.0)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already broken
                pass

    #: Ship a sparse ``(indices, values)`` diff instead of the whole array
    #: when at most this fraction of its elements changed since the last
    #: broadcast.  Sparse-commit workloads (the spice LU loops) touch a
    #: few hundred elements of multi-thousand-element arrays per stage;
    #: full-array pickling made fork dispatch cost more than the whole
    #: serial stage (the 0.38x spice15-sparse regression).
    _SPARSE_SYNC_FRACTION = 0.25

    def _memory_updates(self) -> dict:
        """Per-array changes since the last broadcast (commit/restore/init):
        either a full copy or a sparse ``(indices, values)`` pair the
        worker scatters into its image.

        Elementwise ``!=`` treats NaN as changed, so NaN elements re-ship
        every stage -- wasteful but correct (and now per-element, not
        per-array).
        """
        memory = self.eng.machine.memory
        updates: dict = {}
        for name in memory.names():
            data = memory[name].data
            last = self._last_sync.get(name)
            if last is None or last.shape != data.shape or data.ndim != 1:
                if last is None or not np.array_equal(last, data):
                    updates[name] = data.copy()
                    self._last_sync[name] = updates[name]
                continue
            changed = last != data
            n_changed = int(np.count_nonzero(changed))
            if not n_changed:
                continue
            if n_changed > self._SPARSE_SYNC_FRACTION * data.size:
                updates[name] = data.copy()
                self._last_sync[name] = updates[name]
            else:
                indices = np.flatnonzero(changed)
                values = data[indices]
                updates[name] = (indices, values)
                last[indices] = values
        return updates

    def _run_shares(self, shares: list[list[BlockTask]]) -> list:
        # The memory-update broadcast is pickled **once** here and the
        # same frame reused for every worker's send: re-serializing
        # identical array payloads per share was a measurable slice of
        # fork dispatch (docs/cost-model.md, the spice15-sparse case).
        updates = self._memory_updates()
        self._updates_bytes = (
            pickle.dumps(updates, protocol=pickle.HIGHEST_PROTOCOL)
            if updates else b""
        )
        # Every worker gets a share, even an empty one: the dispatch also
        # carries the memory-update broadcast, which must reach the whole
        # pool because the diff baseline (_last_sync) has advanced.
        if self._supervisor is None:
            self._supervisor = WorkerSupervisor(self)
        return self._supervisor.run_shares(shares)

    def _merge(self, task: BlockTask, delta: _BlockDelta) -> BlockOutcome:
        """Fold one block's delta into the engine, in block-position order."""
        eng = self.eng
        machine = eng.machine
        block = task.block
        proc = block.proc
        for category, amount in delta.charges:
            machine.charge(proc, category, amount)
        if delta.metrics is not None:
            # Block-order folding (this method runs in task order): merged
            # totals equal the serial backend's exactly.
            machine.metrics.merge(delta.metrics)
        outcome = BlockOutcome(
            pos=task.pos, block=block, fault=delta.fault,
            fault_permanent=delta.fault_permanent,
            exit_iteration=delta.exit_iteration,
            inductions=delta.inductions,
            marklists=delta.marklists,
        )
        if task.collect_spans:
            # Worker clocks are absolute perf_counter readings; rebase onto
            # the engine's run-relative host clock.
            outcome.host_start = eng.rebase_host(delta.host_start)
            outcome.host_dur = delta.host_dur
            outcome.virt_dur = delta.virt_dur
        if task.all_private:
            return outcome
        state = eng.states[proc]
        for name, payload in delta.views.items():
            state.views[name].absorb_written(payload)
        for name, payload in delta.shadows.items():
            state.shadows[name].absorb_marks(payload)
        for name, partial in delta.partials.items():
            state.partials.setdefault(name, {}).update(partial)
        state.iter_times.update(delta.iter_times)
        state.iter_work.update(delta.iter_work)
        state.executed.append(block)
        replay_untested(eng, proc, delta.untested)
        if eng.untested_log is not None:
            for name, index in delta.untested_reads:
                eng.untested_log.note_read(proc, name, index)
            for name, index in delta.untested_writes:
                eng.untested_log.note_write(proc, name, index)
        return outcome

    def resource_info(self) -> dict:
        """Worker pids plus in-flight share sizes for the sampler.

        Called from the sampler thread while the supervisor may be
        mid-dispatch, so everything is read through defensive copies.
        """
        info = super().resource_info()
        workers = self._workers or []
        try:
            info["worker_pids"] = [
                process.pid for process, _ in list(workers)
                if process.pid is not None
            ]
        except (TypeError, ValueError):  # pragma: no cover - torn read
            pass
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

    def _stop_pool(self, workers: list) -> None:
        _shutdown_pool(workers)
        self._wctx = None
        self._updates_bytes = b""


def _shutdown_pool(workers: list) -> None:
    """Politely stop a worker pool, then escalate until it is gone:
    farewell message -> join -> ``terminate()`` (SIGTERM) -> join ->
    ``kill()`` (SIGKILL) -> reap.  A worker wedged in a signal handler or
    stopped by SIGSTOP ignores SIGTERM but cannot ignore SIGKILL, so no
    zombie survives close."""
    for _, conn in workers:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    for process, conn in workers:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=1.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already broken
            pass


# -- registry ---------------------------------------------------------------------

BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ForkBackend.name: ForkBackend,
}

#: Backend modules registered lazily on first lookup (they import this
#: module, so eager registration here would be a cycle).
_LAZY_BACKEND_MODULES = ("repro.core.shm", "repro.core.threads")
_lazy_loaded = False


def _ensure_registered() -> None:
    global _lazy_loaded
    if _lazy_loaded:
        return
    _lazy_loaded = True
    import importlib

    for module in _LAZY_BACKEND_MODULES:
        importlib.import_module(module)


def backend_names() -> list[str]:
    _ensure_registered()
    return sorted(BACKENDS)


def make_backend(eng) -> ExecutionBackend:
    """Instantiate the backend an engine's config resolves to."""
    _ensure_registered()
    name = resolve_backend_name(eng.config)
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; known: "
            f"{', '.join(backend_names())}"
        ) from None
    return cls(eng)
