"""Speculative block execution: privatized contexts and virtual-time charging.

One :class:`ProcessorState` holds everything a processor accumulates during a
speculative stage: private views and shadows of the tested arrays, reduction
partials, and measured per-iteration times (fed back to the load balancer).
:func:`execute_block` runs a contiguous block of iterations through a
:class:`SpeculativeContext`, which folds the block's virtual-time charges
per category and settles them on the machine's timeline once per block.

Shadow marking is columnar: each tested-array access appends its element
index (a write as ``~index``) to its array's per-block log, and the block's
``finally`` applies every log with one kernel pass per array
(:meth:`~repro.shadow.base.ShadowArray.apply_log`).  Untested writes save
their first-touch old value eagerly and append to their processor's
checkpoint column (:meth:`~repro.machine.checkpoint.CheckpointManager.write_handles`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import get_kernels
from repro.loopir.context import IterationContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.checkpoint import CheckpointManager
from repro.machine.machine import Machine
from repro.machine.memory import PrivateView, make_private_view
from repro.machine.timeline import Category
from repro.shadow import ShadowArray, make_shadow
from repro.shadow.marklist import IterationMarks
from repro.util.blocks import Block

#: The execution-phase charge categories, indexed by the context's fold
#: slots.  Slots are plain ints so the per-access fold never hashes a
#: :class:`Category` (``Enum.__hash__`` is a Python-level call).
_FOLD_CATEGORIES = (Category.WORK, Category.MARK, Category.COPY_IN, Category.CHECKPOINT)
_WORK, _MARK, _COPY_IN, _CHECKPOINT = range(len(_FOLD_CATEGORIES))

#: Write handles of a context without a checkpoint, and the handle of an
#: array without one.
_NO_WRITES: dict[str, tuple] = {}
_NO_HANDLE = (None, None, None)


def _out_of_range(index, size: int) -> IndexError:
    return IndexError(f"element {index} out of range [0, {size})")


@dataclass
class ProcessorState:
    """Per-processor speculative state for one stage."""

    proc: int
    views: dict[str, PrivateView]
    shadows: dict[str, ShadowArray]
    partials: dict[str, dict[int, object]] = field(default_factory=dict)
    iter_times: dict[int, float] = field(default_factory=dict)
    """Measured per-iteration time incl. marking/copy-in (balancer input)."""
    iter_work: dict[int, float] = field(default_factory=dict)
    """Useful-work-only per-iteration time (sequential-time accounting)."""
    executed: list[Block] = field(default_factory=list)
    access: dict[str, tuple[PrivateView, int, list[int]]] = field(
        init=False, repr=False
    )
    """Per tested array ``(view, size, log)``: the access path's records,
    built once per state.  ``log`` holds the current block's accesses
    until the block ends (see :meth:`SpeculativeContext.flush_marks`)."""

    def __post_init__(self) -> None:
        self.access = {
            name: (view, self.shadows[name].n_elements, [])
            for name, view in self.views.items()
        }

    def distinct_refs(self) -> int:
        return sum(shadow.distinct_refs() for shadow in self.shadows.values())

    def n_written(self) -> int:
        written = sum(view.n_written() for view in self.views.values())
        written += sum(len(p) for p in self.partials.values())
        return written

    def reset(self) -> None:
        """Discard private data and marks (between recursive stages)."""
        # hot-path: per tested array; each reset is a bulk op
        for view in self.views.values():
            view.reset()
        for shadow in self.shadows.values():  # hot-path: per tested array
            shadow.reset()
        for _, _, log in self.access.values():  # hot-path: per tested array
            log.clear()
        self.partials.clear()
        self.executed.clear()
        # iter_times persist: the balancer wants the latest measurement of
        # every iteration regardless of which stage finally committed it.

    def preload(self, machine: "Machine", skip: frozenset[str] = frozenset()) -> int:
        """Pre-initialize this processor's dense private views by bulk copy
        (the ``pre_initialize`` configuration option); charges the copy to
        the processor.  Reduction arrays are skipped -- their partials
        start at the operator identity, never at the shared values."""
        total = 0
        for name, view in self.views.items():  # hot-path: per array, bulk copy
            if name in skip:
                continue
            total += view.preload()
        if total:
            machine.charge(
                self.proc,
                Category.COPY_IN,
                machine.costs.bulk_copy_per_elem * total,
            )
        return total


def make_processor_state(machine: Machine, loop: SpeculativeLoop, proc: int) -> ProcessorState:
    """Allocate views and shadows for every tested array of ``loop``."""
    views: dict[str, PrivateView] = {}
    shadows: dict[str, ShadowArray] = {}
    for spec in loop.arrays:  # hot-path: per array, state setup
        if not spec.tested:
            continue
        shared = machine.memory[spec.name]
        views[spec.name] = make_private_view(shared, sparse=spec.sparse)
        shadows[spec.name] = make_shadow(len(shared), sparse=spec.sparse)
    return ProcessorState(proc=proc, views=views, shadows=shadows)


def make_plain_state(proc: int) -> ProcessorState:
    """Processor state with no views and no shadows: every access takes the
    direct-shared-memory path with zero marking/copy-in charges (the
    certified-DOALL fast path of :mod:`repro.core.fastpath`)."""
    return ProcessorState(proc=proc, views={}, shadows={})


def make_all_private_state(machine: Machine, loop: SpeculativeLoop, proc: int) -> ProcessorState:
    """Processor state where *every* array is privatized, untested ones
    included (side-effect-free execution: the induction recipe's range
    collection must keep even untested writes out of shared memory, their
    indices are provisional)."""
    views: dict[str, PrivateView] = {}
    shadows: dict[str, ShadowArray] = {}
    for spec in loop.arrays:  # hot-path: per array, state setup
        shared = machine.memory[spec.name]
        views[spec.name] = make_private_view(shared, sparse=spec.sparse)
        shadows[spec.name] = make_shadow(len(shared), sparse=spec.sparse)
    return ProcessorState(proc=proc, views=views, shadows=shadows)


class SpeculativeContext(IterationContext):
    """Execution context for one processor during one speculative stage.

    Tested arrays go through private views with shadow marking and on-demand
    copy-in; untested arrays are written to shared memory under checkpoint.

    Every array is *routed* once, when the context is built: a tested
    array's route holds its private view, size and access log, an untested
    array's its shared data buffer and this processor's checkpoint handles.
    An access makes one route lookup and does only its eager work: the
    private-view value, copy-in detection, the virtual-time additions and
    one append to the array's access log (tested) or the processor's
    checkpoint column after the first-touch save (untested).  Accesses with
    no route take one cold path (:meth:`_cold_route`): reduction arrays
    outside :meth:`update`, names the memory image lacks, and untested
    arrays while the self-check records their traffic.  Shadow marks are
    applied from the logs when the block ends (:meth:`flush_marks`), with
    exactly the result per-access marking would have had.

    Virtual time is *folded*, not charged, as accesses happen: each access
    adds its (straggler-stretched) amount to a per-category running total
    of this block, seeded with the processor's totals in the current stage
    (e.g. a pre-initialization copy).  :meth:`settle_charges` writes the
    totals back once per block, in first-appearance order -- exactly the
    floats and dict layout one timeline charge per access would produce.
    Every backend folds here: the serial backend settles on the machine,
    worker backends on their stand-in, whose totals ship to the parent.
    :func:`execute_block` runs the per-iteration part of the bookkeeping
    (iteration number, base work, measured times) in its own loop.
    """

    __slots__ = (
        "_machine",
        "_state",
        "_access",
        "_routes",
        "_logged",
        "_reductions",
        "_ckpt",
        "_inductions",
        "_iter_marks",
        "_iter_time",
        "_iter_work",
        "_folded",
        "_costs",
        "_omega",
        "_slowdown",
        "_mark_charge",
        "_copy_in_charge",
        "_save_charge",
        "_untested_log",
        "_m_marks",
        "block_time",
        "exit_iteration",
        "fault",
        "fault_permanent",
    )

    def __init__(
        self,
        machine: Machine,
        loop: SpeculativeLoop,
        state: ProcessorState,
        checkpoints: CheckpointManager | None,
        inductions: dict[str, int] | None = None,
        slowdown: float = 1.0,
        untested_log=None,
    ) -> None:
        super().__init__()
        self._machine = machine
        self._state = state
        self._access = state.access
        self._reductions = loop.reductions
        self._ckpt = checkpoints
        self._inductions = dict(inductions or {})
        # Optional per-iteration mark sink (DDG extraction); maps array name
        # to the current iteration's IterationMarks.
        self._iter_marks: dict[str, IterationMarks] | None = None
        # The current iteration's measured and work-only times, reset and
        # read by execute_block around each body call.
        self._iter_time = 0.0
        self._iter_work = 0.0
        # Fold slot -> running total; seeded from the processor's charges
        # so far this stage so the fold continues them float-for-float.
        prior = machine.running_charges(state.proc)
        self._folded: dict[int, float] = {
            slot: prior[category]
            for slot, category in enumerate(_FOLD_CATEGORIES)
            if category in prior
        }
        self.block_time = 0.0
        """Sum of this block's charges in the order they happened (the
        worker backends' block-span virtual duration)."""
        costs = self._costs = machine.costs
        self._omega = costs.omega
        # Straggler fault: every charge of this block is stretched by the
        # multiplier, but iter_work stays nominal -- the useful work done
        # is unchanged, only the time to do it grows.
        self._slowdown = slowdown
        # The per-access charges, stretched once per block: the same
        # floats ``amount * slowdown`` per access would compute.
        self._mark_charge = costs.mark * slowdown
        self._copy_in_charge = costs.copy_in * slowdown
        self._save_charge: float | None = None
        handles = _NO_WRITES
        if checkpoints is not None:
            handles = checkpoints.write_handles(state.proc)
            if checkpoints.charge_saves:
                self._save_charge = costs.checkpoint_per_elem * slowdown
        # Self-check: per-stage recorder of untested-array traffic.
        self._untested_log = untested_log
        # Routes: name -> (view, data, size, log, saved, tally).  Tested
        # arrays: (view, None, size, access log, None, copy-in tally).
        # Untested arrays: (None, shared data, 0, checkpoint column or
        # None, first-touch saves or None, checkpoint-save tally); while
        # the self-check logs they wait in ``_logged`` for the cold path.
        # Reduction arrays get none: update() reads state.access.
        self._routes: dict[str, tuple] = {}
        self._logged: dict[str, tuple] = {}
        untested = self._routes if untested_log is None else self._logged
        for name, shared in machine.memory.arrays.items():  # hot-path: per array, once a block
            if name in self._reductions:
                continue
            record = state.access.get(name)
            if record is not None:
                view, size, log = record
                self._routes[name] = (view, None, size, log, None, [0])
            else:
                saved, column, _ = handles.get(name, _NO_HANDLE)
                untested[name] = (None, shared.data, 0, column, saved, [0])
        # Marks applied this block, folded into the registry once per
        # block (flush_metrics) with the route tallies.
        self._m_marks = 0
        self.exit_iteration: int | None = None
        self.fault: str | None = None
        """Fault class that aborted this block (``None`` = ran clean)."""
        self.fault_permanent = False
        """A fail-stop fault removed the processor for good."""

    def induction_values(self) -> dict[str, int]:
        return dict(self._inductions)

    def _charge(self, slot: int, amount: float) -> None:
        charged = amount * self._slowdown
        self._iter_time += charged
        if charged:
            folded = self._folded
            folded[slot] = folded.get(slot, 0.0) + charged
            self.block_time += charged

    def settle_charges(self) -> None:
        """Write the folded per-category totals to the machine (once per
        block, by :func:`execute_block`)."""
        if self._folded:
            self._machine.settle_charges(
                self._state.proc,
                [(_FOLD_CATEGORIES[slot], total) for slot, total in self._folded.items()],
            )

    def flush_marks(self) -> None:
        """Apply the block's access logs to the shadows (once per block, by
        :func:`execute_block`; also when the block ends in an exception,
        so the marks match what per-access marking would have left)."""
        reductions = self._reductions
        shadows = self._state.shadows
        # hot-path: once per tested array per block; the marking is a
        # kernel pass over the whole log
        for name, (_, _, log) in self._access.items():
            if not log:
                continue
            self._m_marks += len(log)
            try:
                if name in reductions:
                    shadows[name].mark_update_many(np.array(log, dtype=np.int64))
                else:
                    shadows[name].apply_log(log)
            finally:
                log.clear()

    # -- memory access ----------------------------------------------------------

    def _cold_route(self, name: str, indices, write: bool) -> tuple:
        """The route of an access to an array with no fast route: raise on
        a reduction array or an unknown name; for an untested array under
        the self-check, record the access, then route it as usual."""
        if name in self._reductions:
            raise ValueError(
                f"array {name!r} is declared a reduction; use update() only"
            )
        route = self._logged.get(name)
        if route is None:
            self._machine.memory[name]  # raises the image's descriptive KeyError
            raise KeyError(name)
        log, proc = self._untested_log, self._state.proc
        note = log.note_write if write else log.note_read
        for index in indices:  # hot-path: self-check recording only (off by default)
            note(proc, name, index)
        return route

    def load(self, name: str, index: int):
        try:
            view, data, size, log, _, tally = self._routes[name]
        except KeyError:
            view, data, size, log, _, tally = self._cold_route(name, (index,), False)
        if view is None:
            # Untested array: direct shared read, no instrumentation.
            return data[index]
        if not 0 <= index < size:
            raise _out_of_range(index, size)
        value, copied_in = view.load(index)
        log.append(index)
        charged = self._mark_charge
        self._iter_time += charged
        if charged:
            folded = self._folded
            folded[_MARK] = folded.get(_MARK, 0.0) + charged
            self.block_time += charged
        if copied_in:
            tally[0] += 1
            charged = self._copy_in_charge
            self._iter_time += charged
            if charged:
                folded = self._folded
                folded[_COPY_IN] = folded.get(_COPY_IN, 0.0) + charged
                self.block_time += charged
        if self._iter_marks is not None:
            self._iter_marks[name].mark_read(index)
        return value

    def store(self, name: str, index: int, value) -> None:
        try:
            view, data, size, log, saved, tally = self._routes[name]
        except KeyError:
            view, data, size, log, saved, tally = self._cold_route(name, (index,), True)
        if view is None:
            if log is not None:
                # Checkpointed: ``log`` is this processor's write column.
                if saved is not None and index not in saved:
                    # On-demand first touch: save before the write lands.
                    saved[index] = data[index]
                    charged = self._save_charge
                    if charged is not None:
                        tally[0] += 1
                        self._iter_time += charged
                        if charged:
                            folded = self._folded
                            folded[_CHECKPOINT] = folded.get(_CHECKPOINT, 0.0) + charged
                            self.block_time += charged
                log.append(index)
            data[index] = value
            return
        if not 0 <= index < size:
            raise _out_of_range(index, size)
        view.store(index, value)
        log.append(~index)
        charged = self._mark_charge
        self._iter_time += charged
        if charged:
            folded = self._folded
            folded[_MARK] = folded.get(_MARK, 0.0) + charged
            self.block_time += charged
        if self._iter_marks is not None:
            self._iter_marks[name].mark_write(index, value)

    def update(self, name: str, index: int, value) -> None:
        op = self._reductions.get(name)
        if op is None:
            raise ValueError(f"array {name!r} has no declared reduction operator")
        _, size, log = self._access[name]
        if not 0 <= index < size:
            raise _out_of_range(index, size)
        partial = self._state.partials.setdefault(name, {})
        partial[index] = op.combine(partial.get(index, op.identity), value)
        log.append(index)
        charged = self._mark_charge
        self._iter_time += charged
        if charged:
            folded = self._folded
            folded[_MARK] = folded.get(_MARK, 0.0) + charged
            self.block_time += charged
        if self._iter_marks is not None:
            self._iter_marks[name].mark_update(index)

    # -- bulk memory access -------------------------------------------------------

    def _bulk_route(self, name: str, idx: np.ndarray, write: bool) -> tuple:
        """The route of a bulk access to ``name``, bounds-checked (tested
        arrays) before any private state moves."""
        try:
            route = self._routes[name]
        except KeyError:
            route = self._cold_route(name, idx.tolist(), write)
        size = route[2]
        if route[0] is not None and idx.size:
            bad = (idx < 0) | (idx >= size)
            if bad.any():
                raise _out_of_range(int(idx[int(np.argmax(bad))]), size)
        return route

    def load_many(self, name: str, indices) -> np.ndarray:
        """Vectorized :meth:`load` over an index array.

        Tested arrays: one bulk copy-in, one MARK charge of
        ``mark * len(indices)``, one COPY_IN charge for the distinct
        elements actually copied in, and the reads join the block's log.
        Semantically a single bulk read: every index sees the current
        private state, none of this batch's own side effects.  Untested
        arrays: one gather from shared memory.  Either way the result has
        the shared array's dtype.
        """
        idx = np.asarray(indices, dtype=np.int64)
        view, data, _, log, _, tally = self._bulk_route(name, idx, False)
        if view is None:
            return get_kernels().gather(data, idx)
        values, copied = view.load_many(idx)
        log.extend(idx.tolist())
        self._charge(_MARK, self._costs.mark * len(idx))
        if copied:
            tally[0] += copied
            self._charge(_COPY_IN, self._costs.copy_in * copied)
        if self._iter_marks is not None:
            marks = self._iter_marks[name]
            # hot-path: DDG extraction's per-iteration marks stay eager
            for i in idx.tolist():
                marks.mark_read(i)
        return values

    def store_many(self, name: str, indices, values) -> None:
        """Vectorized :meth:`store` over parallel index/value arrays.

        Later duplicates win, matching the scalar loop.  Tested arrays:
        one bulk private store and one batched MARK charge.  Untested
        arrays: one checkpoint column append with its first-touch saves,
        one charge per save (as element-wise stores would add them), and
        one scatter into shared memory.
        """
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        view, data, _, log, _, tally = self._bulk_route(name, idx, True)
        if view is None:
            if log is not None:
                saves = self._ckpt.note_write_many(self._state.proc, name, idx)
                if saves:
                    tally[0] += saves
                    amount = self._costs.checkpoint_per_elem
                    # hot-path: one fold addition per first-touch save
                    # keeps the charges bit-identical to element-wise stores
                    for _ in range(saves):
                        self._charge(_CHECKPOINT, amount)
            get_kernels().scatter(data, idx, vals)
            return
        view.store_many(idx, vals)
        log.extend((~idx).tolist())
        self._charge(_MARK, self._costs.mark * len(idx))
        if self._iter_marks is not None:
            marks = self._iter_marks[name]
            # hot-path: DDG extraction's per-iteration marks stay eager
            for i, v in zip(idx.tolist(), vals):
                marks.mark_write(i, v)

    # -- induction ---------------------------------------------------------------

    def bump(self, name: str) -> int:
        if name not in self._inductions:
            raise KeyError(
                f"induction variable {name!r} not initialized for this stage"
            )
        value = self._inductions[name]
        self._inductions[name] = value + 1
        return value

    def peek(self, name: str) -> int:
        return self._inductions[name]

    # -- costs ----------------------------------------------------------------

    def work(self, units: float) -> None:
        if units < 0:
            raise ValueError("work units must be non-negative")
        amount = units * self._omega
        charged = amount * self._slowdown
        self._iter_time += charged
        if charged:
            folded = self._folded
            folded[_WORK] = folded.get(_WORK, 0.0) + charged
            self.block_time += charged
        # iter_work stays nominal under a straggler slowdown.
        self._iter_work += amount

    # -- premature exit -----------------------------------------------------------

    def exit_loop(self) -> None:
        if self.exit_iteration is None:
            self.exit_iteration = self.iteration

    # -- metrics ------------------------------------------------------------------

    def flush_metrics(self, registry, iterations: int) -> None:
        """Fold this block's accumulated counts into ``registry``.

        Called once per block (never per access), after :meth:`flush_marks`
        has counted the block's marks; byte counts derive from the shared
        arrays' element sizes so "how much data moved" is reportable
        without touching the hot paths.  A tested route's tally counts its
        copy-ins, an untested route's its charged checkpoint saves.
        """
        registry.counter("shadow.marks").inc(self._m_marks)
        memory = self._machine.memory
        routes = (*self._routes.items(), *self._logged.items())
        for name, (view, _, _, _, _, (n,)) in routes:  # hot-path: per array, once a block
            if not n:
                continue
            kind = "shadow.copy_in" if view is not None else "checkpoint.saved"
            registry.counter(f"{kind}.elements").inc(n)
            registry.counter(f"{kind}.bytes").inc(n * memory[name].data.itemsize)
        registry.counter("exec.blocks").inc()
        registry.histogram("exec.block_iterations").observe(iterations)
        if self.fault is not None:
            registry.counter("faults.blocks_hit").inc()


def execute_block(
    machine: Machine,
    loop: SpeculativeLoop,
    state: ProcessorState,
    block: Block,
    checkpoints: CheckpointManager | None,
    inductions: dict[str, int] | None = None,
    marklists: dict[str, "object"] | None = None,
    injector=None,
    stage: int = 0,
    untested_log=None,
    slowdown: float | None = None,
    death: tuple[int, bool] | None = None,
) -> SpeculativeContext:
    """Run ``block``'s iterations on ``block.proc``, charging virtual time.

    The context's folded charges settle on ``machine`` when the block ends
    -- also when it ends in an exception, as per-access charging would
    have left them.

    ``marklists`` (array name -> :class:`~repro.shadow.marklist.MarkList`)
    switches on iteration-level marking for DDG extraction.  Returns the
    context so callers can read final induction values.

    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`) arms
    this block for fault injection under the driver's stage counter
    ``stage``: a planned straggler stretches every charge, and a planned
    fail-stop kills the processor at an iteration boundary mid-block --
    the context comes back with ``ctx.fault`` set and the partial work
    (including untested writes, already logged by the checkpoint) awaiting
    the driver's rollback.  ``untested_log`` records untested-array
    traffic for the self-check isolation verifier.

    The fork execution backend queries the injector in the parent and
    passes the pre-resolved ``slowdown``/``death`` explicitly (worker
    processes have no injector); explicit values take precedence.
    """
    if slowdown is None:
        slowdown = 1.0
        if injector is not None:
            slowdown = injector.slowdown(stage, block.proc)
    if death is None and injector is not None:
        death = injector.fail_stop_point(stage, block.proc, len(block))
    ctx = SpeculativeContext(
        machine, loop, state, checkpoints, inductions,
        slowdown=slowdown, untested_log=untested_log,
    )
    body = loop.body
    iter_work = loop.iter_work
    omega = machine.costs.omega
    # Base work of an iteration: ``loop.work_of(i) * omega``, its
    # uniform default 1.0 multiplied out once.
    uniform_base = 1.0 * omega
    iter_times, iter_works = state.iter_times, state.iter_work
    folded = ctx._folded
    completed = 0
    try:
        # hot-path: the iteration loop itself; fail-stop and exits keep
        # their per-iteration boundaries
        for i in block.iterations():
            if death is not None and completed >= death[0]:
                # Fail-stop: the processor dies here; everything it did this
                # stage (private state, untested writes) is garbage to roll
                # back, and any exit it signalled cannot be trusted.
                ctx.fault = "fail-stop"
                ctx.fault_permanent = death[1]
                break
            ctx.iteration = i
            if marklists is not None:
                ctx._iter_marks = {name: ml.open_level(i) for name, ml in marklists.items()}
            if iter_work is None:
                base = uniform_base
            else:
                units = float(iter_work(i))
                if units < 0:
                    raise ValueError(f"iter_work({i}) returned negative cost {units}")
                base = units * omega
            iter_time = iter_work_only = 0.0
            if base:
                # The base-work charge, folded as ctx.work() folds its own.
                charged = base * slowdown
                iter_time += charged
                if charged:
                    folded[_WORK] = folded.get(_WORK, 0.0) + charged
                    ctx.block_time += charged
                iter_work_only += base
            ctx._iter_time = iter_time
            ctx._iter_work = iter_work_only
            body(ctx, i)
            iter_times[i] = ctx._iter_time
            iter_works[i] = ctx._iter_work
            completed += 1
            if ctx.exit_iteration is not None:
                # The iteration that signalled the exit completes; the rest of
                # the block never executes (speculatively validated later).
                break
    finally:
        ctx.settle_charges()
        ctx.flush_marks()
    state.executed.append(block)
    metrics = getattr(machine, "metrics", None)
    if metrics is not None and metrics.enabled:
        ctx.flush_metrics(metrics, completed)
    return ctx
