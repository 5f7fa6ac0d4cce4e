"""Execution backends: where a stage's speculative blocks actually run.

The paper's central property is that every speculative stage is an
embarrassingly parallel doall -- each block runs on privatized storage with
no cross-block communication until the analysis phase.  The backend layer
exploits that: the :class:`StageEngine` hands the stage's blocks to a
backend as :class:`BlockTask` descriptors and receives :class:`BlockOutcome`
objects back, without caring *where* the blocks ran.

Every backend runs a block through one function, :func:`run_task`; they
differ only in where the block's effects land.  Two backends are
provided, plus two synonyms:

* ``serial`` (the default) runs each block with the engine's machine,
  processor states and checkpoint, so its effects land in place.
* ``fork`` dispatches the blocks to a persistent pool of forked worker
  processes.  A worker runs each block with a :class:`_WorkerMachine`, a
  fresh :class:`~repro.core.executor.ProcessorState` and a local
  checkpoint, and ships back a compact :class:`_BlockDelta` -- the
  block's outcome, written private-view entries, the shadows' access
  logs, reduction partials, per-iteration times, the block's
  per-category charge totals, untested-write sets.  The parent merges
  deltas **in block order**, so results, events, virtual-time accounting
  and block spans are bit-identical to serial execution (enforced by
  running the golden parity suite under every backend).
* ``shm`` (:mod:`repro.core.shm`, registered lazily) is the fork pool
  under another name, and ``threads`` (:mod:`repro.core.threads`,
  registered lazily) the serial block loop under another name; both are
  kept for the host-time benchmark.

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

Fault injection is *hoisted* for every backend: the engine resolves each
block's straggler slowdown and fail-stop point into its task before the
stage runs (:meth:`~repro.core.engine.StageEngine.execute_tasks`), so
workers carry no injector.

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

The fork pool (and its ``shm`` synonym) dispatches a stage only when it
pays (:meth:`ForkBackend.dispatch_pays`),
the host-time twin of the paper's Eq. 4 (redistribute only while the
work saved beats the cost of moving it): a stage whose measured dispatch
time does not beat its measured inline time -- plus, while no pool runs,
the pool's start and teardown -- executes in the parent through
:meth:`SerialBackend.run_blocks`.  Each path times itself
(:class:`DispatchCosts`), the path not taken is probed now and then to
measure its figures afresh, and results, events and virtual time are
identical whichever way a stage goes.  While no pool runs, a stage that
could not save the cheapest measured pool start and teardown even at a
perfect ``w``-way split never starts a pool, not even as a probe.
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
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.util.blocks import Block

# -- default-backend selection ---------------------------------------------------

DEFAULT_BACKEND = "serial"

_default_backend = DEFAULT_BACKEND


@contextlib.contextmanager
def use_backend(name: str):
    """Scope the default backend: every run started inside the ``with``
    whose config leaves ``backend=None`` uses ``name``.  Lets existing
    entry points (and the golden parity suite) run under the fork backend
    without threading a parameter through every call."""
    global _default_backend
    _ensure_registered()
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; known: {', '.join(backend_names())}"
        )
    previous, _default_backend = _default_backend, name
    try:
        yield
    finally:
        _default_backend = previous


def resolve_backend_name(config) -> str:
    """The backend a config resolves to (explicit setting or the default)."""
    name = getattr(config, "backend", None)
    return name if name is not None else _default_backend


# -- task / outcome descriptors ---------------------------------------------------


@dataclass
class BlockTask:
    """One block of one stage, as handed to an execution backend (the
    run's constant flags live on the engine and :class:`_WorkerContext`)."""

    stage: int
    pos: int
    block: Block
    inductions: dict[str, int] | None = None
    marklists: dict | None = None
    all_private: bool = False
    """Run on a fully privatized state with no checkpoint and no faults
    (the induction recipe's side-effect-free range collection)."""
    slowdown: float = 1.0
    death: tuple[int, bool] | None = None
    """The hoisted straggler multiplier and fail-stop point (see
    :meth:`~repro.core.engine.StageEngine.execute_tasks`)."""


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
    """Absolute ``perf_counter`` at block start (spans only); the engine
    rebases it onto the run clock -- comparable across fork on POSIX,
    where ``perf_counter`` is the system-wide monotonic clock."""
    host_dur: float = 0.0
    virt_dur: float = 0.0
    """This block's summed virtual-time charges (spans only)."""

    def induction_values(self) -> dict[str, int]:
        return dict(self.inductions)


def run_task(
    task: BlockTask,
    machine,
    loop,
    states,
    ckpt: CheckpointManager | None,
    untested_log,
    *,
    preload: bool,
    skip: frozenset[str],
    spans: bool,
) -> BlockOutcome:
    """Run one block and describe it: the one caller of
    :func:`~repro.core.executor.execute_block`, for every backend, each
    supplying its own machine, processor ``states`` and checkpoint.  An
    ``all_private`` task runs on a fresh fully private state instead,
    with no checkpoint and no access log."""
    block = task.block
    if task.all_private:
        state = make_all_private_state(machine, loop, block.proc)
        ckpt = untested_log = None
    else:
        state = states[block.proc]
        if preload:
            state.preload(machine, skip=skip)
    host_start = time.perf_counter() if spans else 0.0
    ctx = execute_block(
        machine, loop, state, block, ckpt,
        inductions=task.inductions, marklists=task.marklists,
        untested_log=untested_log, slowdown=task.slowdown, death=task.death,
    )
    outcome = BlockOutcome(
        pos=task.pos, block=block, fault=ctx.fault,
        fault_permanent=ctx.fault_permanent,
        exit_iteration=ctx.exit_iteration,
        inductions=ctx.induction_values(),
        marklists=task.marklists,
    )
    if spans:
        outcome.host_start = host_start
        outcome.host_dur = time.perf_counter() - host_start
        outcome.virt_dur = ctx.block_time
    return outcome


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
        ``inflight`` the blocks dispatched but not yet collected.
        Backends override what they know; the base backend runs
        everything in-process and holds nothing.
        """
        return {"worker_pids": [], "inflight": 0}


class SerialBackend(ExecutionBackend):
    """In-process, one-block-after-another execution (the default)."""

    name = "serial"

    def run_blocks(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        eng = self.eng
        return [
            run_task(
                task, eng.machine, eng.body_loop, eng.states, eng.ckpt,
                eng.untested_log, preload=eng.preload,
                skip=eng.reduction_names, spans=eng.spans_enabled,
            )
            for task in tasks
        ]


# -- the fork backend -------------------------------------------------------------


@dataclass
class _BlockDelta:
    """Everything a worker ships back about one executed block: its
    outcome plus the effects the parent merges into its own state."""

    outcome: BlockOutcome
    charges: list[tuple[Category, float]]
    views: dict[str, object] = field(default_factory=dict)
    shadows: dict[str, object] = field(default_factory=dict)
    partials: dict[str, dict[int, object]] = field(default_factory=dict)
    iter_times: dict[int, float] = field(default_factory=dict)
    iter_work: dict[int, float] = field(default_factory=dict)
    untested: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    untested_reads: list[tuple[str, int]] = field(default_factory=list)
    untested_writes: list[tuple[str, int]] = field(default_factory=list)
    metrics: dict | None = None
    """Snapshot of the worker's private registry (metrics runs only)."""


@dataclass
class _WorkerFailure:
    """A worker's reply when something raised: its traceback text, plus,
    when a block's body raised, the block's position and the pickled
    exception (``None`` when it does not pickle)."""

    traceback: str
    pos: int | None = None
    error: bytes | None = None


@dataclass
class _WorkerContext:
    """What a worker inherits through fork, built from the engine at pool
    start (a pool lives for one run), the run's constant flags included."""

    loop: object
    costs: object
    memory: MemoryImage
    ckpt_names: list[str]
    on_demand: bool
    reduction_names: frozenset[str]
    preload: bool = False
    plain: bool = False
    log_untested: bool = False
    collect_metrics: bool = False
    collect_spans: bool = False


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
    if wctx.collect_metrics:
        machine.metrics = MetricsRegistry()
    proc = task.block.proc
    states: dict = {}
    ckpt = recorder = None
    if not task.all_private:
        if wctx.plain:
            states[proc] = make_plain_state(proc)
            # Charge-free capture over every array: certified plain tasks
            # write shared memory directly and charge no CHECKPOINT time,
            # but the delta must ship what this block wrote and the worker
            # must undo it in its own image.
            ckpt = CheckpointManager(
                wctx.memory, list(wctx.memory.names()), True, charge_saves=False
            )
        else:
            states[proc] = make_processor_state(machine, wctx.loop, proc)
            if wctx.ckpt_names:
                ckpt = CheckpointManager(wctx.memory, wctx.ckpt_names, wctx.on_demand)
        if ckpt is not None:
            ckpt.begin_stage()
        if wctx.log_untested:
            recorder = _AccessRecorder()
    outcome = run_task(
        task, machine, wctx.loop, states, ckpt, recorder,
        preload=wctx.preload, skip=wctx.reduction_names,
        spans=wctx.collect_spans,
    )
    delta = _BlockDelta(outcome=outcome, charges=list(machine.charges.items()))
    if wctx.collect_metrics:
        delta.metrics = machine.metrics.snapshot()
    if task.all_private:
        return delta
    state = states[proc]
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
        delta.untested = ckpt.export_writes(proc)
        # Undo this block's untested writes locally: the worker's memory
        # must stay equal to the last parent broadcast, else rolled-back
        # stages would leave stale values behind the parent's sync diff.
        ckpt.restore_failed([proc])
    if recorder is not None:
        delta.untested_reads = sorted(recorder.reads)
        delta.untested_writes = sorted(recorder.writes)
    return delta


def _run_share(wctx: _WorkerContext, share: list[BlockTask]):
    """Run one share in block order; stop at the first block that raises
    and reply with its failure instead."""
    deltas = []
    for task in share:
        try:
            deltas.append(_run_worker_task(wctx, task))
        except Exception as exc:
            try:
                error = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                error = None
            return _WorkerFailure(traceback.format_exc(), task.pos, error)
    return deltas


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
            conn.send(_run_share(wctx, tasks))
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
    (iterations, for per-iteration seconds).  The figure also counts its
    samples and keeps the cheapest one."""

    __slots__ = ("total", "weight", "samples", "least")

    def __init__(self) -> None:
        self.total = 0.0
        self.weight = 0.0
        self.samples = 0
        self.least = float("inf")

    def add(self, value: float, weight: float = 1.0) -> None:
        self.total = self.total / 2 + value
        self.weight = self.weight / 2 + weight
        self.samples += 1
        self.least = min(self.least, value)

    @property
    def value(self) -> float | None:
        return self.total / self.weight if self.weight else None


@dataclass
class DispatchCosts:
    """What one pool backend class (``fork`` or ``shm``) has measured
    about where its stages run.

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
    """``C_close``: pool teardown (:meth:`ForkBackend.close`)."""
    stake: float = 0.0
    """The estimated cost of the same-way decisions since the last probe
    (:meth:`ForkBackend.dispatch_pays`)."""
    staked_on: bool = False
    """The way those decisions went (True = dispatch)."""
    probes: int = 0
    """Probes so far; each doubles the next probe's price."""

    def pool_floor(self) -> float | None:
        """The cheapest pool start plus the cheapest teardown measured, once
        each has two samples (a lone one may be the process's cold first
        fork); ``None`` before."""
        opened, closed = self.pool_open, self.pool_close
        if min(opened.samples, closed.samples) < 2:
            return None
        return opened.least + closed.least


#: Backend class -> its measured dispatch costs.
_DISPATCH_COSTS: dict[type, DispatchCosts] = {}

#: The host's CPU count, read once: ``os.cpu_count()`` takes 3-40 us per
#: call, and every stage decision sizes the pool.
_CPUS = os.cpu_count() or 1


def _body_key(loop):
    """Per-body key for the per-iteration figures: loops built by one
    factory share their body's code object, not the closure."""
    body = loop.body
    return getattr(body, "__code__", None) or type(body)


def _iterations(tasks: list[BlockTask]) -> int:
    return sum(len(task.block) for task in tasks)


class ForkBackend(ExecutionBackend):
    """Dispatch a stage's blocks to a persistent forked worker pool when
    dispatching it is measured to pay (:meth:`dispatch_pays`); otherwise
    run it in the parent."""

    name = "fork"

    #: The parent-side path for stages that do not pay for dispatch.
    #: Bound once here, not looked up per call: a wrapper installed on
    #: ``SerialBackend.run_blocks`` (hostbench's outside-in tracer) must
    #: not count an inline stage as a second backend execute.
    _run_inline = SerialBackend.run_blocks

    def __init__(self, eng) -> None:
        super().__init__(eng)
        self._workers: list | None = None
        self._supervisor: WorkerSupervisor | None = None
        self._last_sync: dict[str, np.ndarray] = {}
        self._wctx = None
        self._mp_ctx = None
        self._updates_bytes: bytes = b""

    def _pool_size(self) -> int:
        """Workers the pool has (or would have once started)."""
        eng = self.eng
        n_workers = eng.config.backend_workers or min(eng.n_procs, _CPUS)
        return max(1, min(n_workers, eng.n_procs))

    # -- where a stage runs ------------------------------------------------------

    @property
    def _costs(self) -> DispatchCosts:
        costs = _DISPATCH_COSTS.get(type(self))
        if costs is None:
            # Not ``setdefault``: its default would build a DispatchCosts
            # (two figures, two dicts) on every lookup.
            costs = _DISPATCH_COSTS[type(self)] = DispatchCosts()
        return costs

    def dispatch_pays(self, tasks: list[BlockTask], n: int | None = None) -> bool:
        """Whether this stage goes to the pool; otherwise it runs in the
        parent (``n``: the stage's iterations, when the caller has summed
        them already).  The host-time twin of Eq. 4: dispatch only when

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

        While no pool runs, a stage whose best-case saving
        ``T_inline * (1 - 1/w)``, ``w = min(workers, blocks)``, is at most
        the cheapest pool start plus the cheapest teardown measured
        (:meth:`DispatchCosts.pool_floor`, once each has two samples) runs
        inline whatever its dispatch figure: no bootstrap, decision or
        probe starts a pool for it, and its stake stays as it is.  A
        running pool lifts the bound.

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
        w = min(self._pool_size(), len(tasks))
        if w < 2:
            return False
        costs = self._costs
        key = _body_key(eng.loop)
        inline, dispatch = costs.inline.get(key), costs.dispatch.get(key)
        if inline is None:
            return False
        if n is None:
            n = _iterations(tasks)
        t_inline, c_pool = inline.value * n, 0.0
        if self._workers is None:
            # Dispatch cannot beat T_inline / w: a stage whose best-case
            # saving does not cover the cheapest pool measured never
            # starts one, not even to measure or probe it.
            floor = costs.pool_floor()
            if floor is not None and t_inline * (1 - 1 / w) <= floor:
                return False
            opened, closed = costs.pool_open.value, costs.pool_close.value
            if opened is None or closed is None:
                return True
            c_pool = opened + closed
        if dispatch is None:
            return True
        t_dispatch = dispatch.value * n + c_pool
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
        eng = self.eng
        stats = eng.supervision
        if eng.body_loop is not eng.loop:
            # A replayed certified stage makes no loads or stores, so a
            # worker has nothing to do; and every replay shares one body
            # code object, so it must not feed the per-body figures.
            stats.inline_stages += 1
            return self._run_inline(tasks)
        costs = self._costs
        n = _iterations(tasks)
        dispatch = self.dispatch_pays(tasks, n)
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
        figures.setdefault(_body_key(eng.loop), _Figure()).add(
            time.perf_counter() - t0, n
        )
        return outcomes

    def _dispatch_stage(self, tasks: list[BlockTask]) -> list[BlockOutcome]:
        """Run one stage on the pool: blocks dealt to the workers
        round-robin, replies merged in block order.

        When blocks raised, the exception of the lowest failing block
        position is raised -- the one a serial run meets first, since
        each worker runs its share in order and stops at its first
        failure -- chained from a :class:`BackendError` that carries the
        worker's context and traceback (the :class:`BackendError` itself
        when the exception did not cross the pipe)."""
        # Every worker gets a share, even an empty one: the dispatch also
        # carries the memory-update broadcast, which must reach the whole
        # pool because the diff baseline (_last_sync) has advanced.
        shares: list[list[BlockTask]] = [[] for _ in self._workers]
        for k, task in enumerate(tasks):
            shares[k % len(shares)].append(task)
        # The memory-update broadcast is pickled **once** here and the
        # same frame reused for every worker's send: re-serializing
        # identical array payloads per share was a measurable slice of
        # fork dispatch (docs/cost-model.md, the spice15-sparse case).
        updates = self._memory_updates()
        self._updates_bytes = (
            pickle.dumps(updates, protocol=pickle.HIGHEST_PROTOCOL)
            if updates else b""
        )
        if self._supervisor is None:
            self._supervisor = WorkerSupervisor(self)
        replies = self._supervisor.run_shares(shares)
        failures = [
            (-1 if reply.pos is None else reply.pos, k, reply)
            for k, reply in enumerate(replies)
            if isinstance(reply, _WorkerFailure)
        ]
        if failures:
            _, k, failure = min(failures, key=lambda found: found[:2])
            error = BackendError(
                f"{self._share_context(k, shares[k])} raised:\n{failure.traceback}",
                loop=self.eng.loop.name,
            )
            try:
                raised = pickle.loads(failure.error) if failure.error else None
            except Exception:
                raised = None
            if not isinstance(raised, BaseException):
                raise error
            raise raised from error
        deltas = {
            delta.outcome.pos: delta for reply in replies for delta in reply
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
        _shutdown_pool(workers)
        self._supervisor = None
        self._wctx = None
        self._updates_bytes = b""
        self._costs.pool_close.add(time.perf_counter() - t0)

    # -- the pool ----------------------------------------------------------------

    def _make_wctx(self):
        """Build the context workers inherit through fork.  It holds the
        engine's own memory image: each fork snapshots it, so the sync
        baseline ``_last_sync`` is the only copy the parent makes."""
        eng = self.eng
        memory = eng.machine.memory
        self._last_sync = {
            name: memory[name].data.copy() for name in memory.names()
        }
        return _WorkerContext(
            loop=eng.loop,
            costs=eng.machine.costs,
            memory=memory,
            ckpt_names=eng.ckpt.names if eng.ckpt is not None else [],
            on_demand=eng.config.on_demand_checkpoint,
            reduction_names=eng.reduction_names,
            preload=eng.preload,
            plain=eng.plain,
            log_untested=eng.untested_log is not None,
            collect_metrics=eng.metrics_enabled,
            collect_spans=eng.spans_enabled,
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
        supervisor's re-dispatch still sends it the full image
        (``fresh``), so it starts from the dispatch-time state whatever
        it inherited.
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
        """Receive worker ``k``'s reply: its deltas, or a
        :class:`_WorkerFailure` that :meth:`_dispatch_stage` raises once
        every reply is in (raising here would read as a lost worker)."""
        _, conn = self._workers[k]
        return conn.recv()

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
        if task.all_private:
            return delta.outcome
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
        # The parent checkpoint records the shipped untested writes first
        # (saving the pre-stage values), then one scatter applies each.
        memory = machine.memory
        for name, (indices, values) in delta.untested.items():
            if eng.ckpt is not None:
                eng.ckpt.note_write_many(proc, name, indices)
            get_kernels().scatter(memory[name].data, indices, values)
        if eng.untested_log is not None:
            for name, index in delta.untested_reads:
                eng.untested_log.note_read(proc, name, index)
            for name, index in delta.untested_writes:
                eng.untested_log.note_write(proc, name, index)
        return delta.outcome

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
