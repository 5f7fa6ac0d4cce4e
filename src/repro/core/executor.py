"""Speculative block execution: privatized contexts and virtual-time charging.

One :class:`ProcessorState` holds everything a processor accumulates during a
speculative stage: private views and shadows of the tested arrays, reduction
partials, and measured per-iteration times (fed back to the load balancer).
:func:`execute_block` runs a contiguous block of iterations through a
:class:`SpeculativeContext`, which folds the block's virtual-time charges
per category and settles them on the machine's timeline once per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


class BlockCancelled(Exception):
    """Internal control flow: a cooperative cancellation flag was observed
    at an iteration boundary (:func:`execute_block`'s ``cancel``).

    The threads backend's supervisor cannot SIGKILL an overdue worker the
    way the process supervisors do, so it sets the worker's cancel flag
    and the block aborts itself at the next iteration boundary -- the
    granularity at which the GIL-releasing kernel calls return control.
    The raiser has *not* cleaned up: partial private state and untested
    writes are still in place, exactly like a block cut short by SIGKILL,
    and the supervisor rolls them back before re-dispatching.
    """

    def __init__(self, proc: int, iteration: int) -> None:
        self.proc = proc
        self.iteration = iteration
        super().__init__(
            f"block on proc {proc} cancelled before iteration {iteration}"
        )


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

    def distinct_refs(self) -> int:
        return sum(shadow.distinct_refs() for shadow in self.shadows.values())

    def n_written(self) -> int:
        written = sum(view.n_written() for view in self.views.values())
        written += sum(len(p) for p in self.partials.values())
        return written

    def reset(self) -> None:
        """Discard private data and marks (between recursive stages)."""
        for view in self.views.values():
            view.reset()
        for shadow in self.shadows.values():
            shadow.reset()
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
        for name, view in self.views.items():
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
    for spec in loop.arrays:
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
    for spec in loop.arrays:
        shared = machine.memory[spec.name]
        views[spec.name] = make_private_view(shared, sparse=spec.sparse)
        shadows[spec.name] = make_shadow(len(shared), sparse=spec.sparse)
    return ProcessorState(proc=proc, views=views, shadows=shadows)


class SpeculativeContext(IterationContext):
    """Execution context for one processor during one speculative stage.

    Tested arrays go through private views with shadow marking and on-demand
    copy-in; untested arrays are written to shared memory under checkpoint.

    Virtual time is *folded*, not charged, as accesses happen: each access
    adds its (straggler-stretched) amount to a per-category running total
    of this block, seeded with the processor's totals in the current stage
    (e.g. a pre-initialization copy).  :meth:`settle_charges` writes the
    totals back once per block, in first-appearance order -- exactly the
    floats and dict layout one timeline charge per access would produce.
    Every backend folds here: the serial backend settles on the machine,
    worker backends on their stand-in, whose totals ship to the parent.
    """

    __slots__ = (
        "_machine",
        "_loop",
        "_state",
        "_ckpt",
        "_inductions",
        "_iter_marks",
        "_iter_time",
        "_iter_work",
        "_folded",
        "_ckpt_names",
        "_costs",
        "_slowdown",
        "_untested_log",
        "_m_marks",
        "_m_copyin",
        "_m_ckpt",
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
        self._loop = loop
        self._state = state
        self._ckpt = checkpoints
        self._inductions = dict(inductions or {})
        # Optional per-iteration mark sink (DDG extraction); maps array name
        # to the current iteration's IterationMarks.
        self._iter_marks: dict[str, IterationMarks] | None = None
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
        self._ckpt_names = checkpoints.name_set if checkpoints is not None else frozenset()
        self._costs = machine.costs
        # Straggler fault: every charge of this block is stretched by the
        # multiplier, but iter_work stays nominal -- the useful work done
        # is unchanged, only the time to do it grows.
        self._slowdown = slowdown
        # Self-check: per-stage recorder of untested-array traffic.
        self._untested_log = untested_log
        # Metrics accumulators: plain slot updates on the hot paths, folded
        # into the registry once per block (flush_metrics) -- and only when
        # metrics are on, so the disabled cost is one integer add per access.
        self._m_marks = 0
        self._m_copyin: dict[str, int] = {}
        self._m_ckpt: dict[str, int] = {}
        self.exit_iteration: int | None = None
        self.fault: str | None = None
        """Fault class that aborted this block (``None`` = ran clean)."""
        self.fault_permanent = False
        """A fail-stop fault removed the processor for good."""

    # -- wiring used by the drivers --------------------------------------------

    def set_iteration_marks(self, marks: dict[str, IterationMarks] | None) -> None:
        self._iter_marks = marks

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._iter_time = 0.0
        self._iter_work = 0.0

    def end_iteration(self) -> tuple[float, float]:
        """Return ``(measured time, work-only time)`` for this iteration."""
        return self._iter_time, self._iter_work

    def induction_values(self) -> dict[str, int]:
        return dict(self._inductions)

    def _charge(self, slot: int, amount: float) -> None:
        charged = amount * self._slowdown
        self._iter_time += charged
        if charged:
            folded = self._folded
            folded[slot] = folded.get(slot, 0.0) + charged
            self.block_time += charged

    def _charge_work(self, amount: float) -> None:
        self._charge(_WORK, amount)
        # iter_work stays nominal under a straggler slowdown.
        self._iter_work += amount

    def settle_charges(self) -> None:
        """Write the folded per-category totals to the machine (once per
        block, by :func:`execute_block`)."""
        if self._folded:
            self._machine.settle_charges(
                self._state.proc,
                [(_FOLD_CATEGORIES[slot], total) for slot, total in self._folded.items()],
            )

    # -- memory access ----------------------------------------------------------

    def load(self, name: str, index: int):
        if name in self._loop.reductions:
            raise ValueError(
                f"array {name!r} is declared a reduction; use update() only"
            )
        view = self._state.views.get(name)
        if view is None:
            # Untested array: direct shared read, no instrumentation.
            if self._untested_log is not None:
                self._untested_log.note_read(self._state.proc, name, index)
            return self._machine.memory[name].data[index]
        value, copied_in = view.load(index)
        self._state.shadows[name].mark_read(index)
        self._m_marks += 1
        self._charge(_MARK, self._costs.mark)
        if copied_in:
            self._m_copyin[name] = self._m_copyin.get(name, 0) + 1
            self._charge(_COPY_IN, self._costs.copy_in)
        if self._iter_marks is not None:
            self._iter_marks[name].mark_read(index)
        return value

    def store(self, name: str, index: int, value) -> None:
        if name in self._loop.reductions:
            raise ValueError(
                f"array {name!r} is declared a reduction; use update() only"
            )
        view = self._state.views.get(name)
        if view is None:
            if self._untested_log is not None:
                self._untested_log.note_write(self._state.proc, name, index)
            if name in self._ckpt_names:
                saved = self._ckpt.note_write(self._state.proc, name, index)
                if saved:
                    self._m_ckpt[name] = self._m_ckpt.get(name, 0) + saved
                    self._charge(
                        _CHECKPOINT, self._costs.checkpoint_per_elem * saved
                    )
            self._machine.memory[name].data[index] = value
            return
        view.store(index, value)
        self._state.shadows[name].mark_write(index)
        self._m_marks += 1
        self._charge(_MARK, self._costs.mark)
        if self._iter_marks is not None:
            self._iter_marks[name].mark_write(index, value)

    def update(self, name: str, index: int, value) -> None:
        op = self._loop.reductions.get(name)
        if op is None:
            raise ValueError(f"array {name!r} has no declared reduction operator")
        partial = self._state.partials.setdefault(name, {})
        partial[index] = op.combine(partial.get(index, op.identity), value)
        self._state.shadows[name].mark_update(index)
        self._m_marks += 1
        self._charge(_MARK, self._costs.mark)
        if self._iter_marks is not None:
            self._iter_marks[name].mark_update(index)

    # -- bulk memory access -------------------------------------------------------

    def load_many(self, name: str, indices) -> np.ndarray:
        """Vectorized :meth:`load` over an index array of one tested array.

        Marking and charging are batched: one ``mark_read_many`` on the
        shadow, one MARK charge of ``mark * len(indices)``, one COPY_IN
        charge for the distinct elements actually copied in.  Semantically
        a single bulk read: every index sees the current private state,
        none of this batch's own side effects.
        """
        if name in self._loop.reductions:
            raise ValueError(
                f"array {name!r} is declared a reduction; use update() only"
            )
        idx = np.asarray(indices, dtype=np.int64)
        view = self._state.views.get(name)
        if view is None:
            return np.array([self.load(name, int(i)) for i in idx])
        values, copied = view.load_many(idx)
        self._state.shadows[name].mark_read_many(idx)
        self._m_marks += len(idx)
        self._charge(_MARK, self._costs.mark * len(idx))
        if copied:
            self._m_copyin[name] = self._m_copyin.get(name, 0) + copied
            self._charge(_COPY_IN, self._costs.copy_in * copied)
        if self._iter_marks is not None:
            marks = self._iter_marks[name]
            for i in idx.tolist():
                marks.mark_read(i)
        return values

    def store_many(self, name: str, indices, values) -> None:
        """Vectorized :meth:`store` over parallel index/value arrays.

        Later duplicates win, matching the scalar loop.  One
        ``mark_write_many`` on the shadow, one batched MARK charge.
        """
        if name in self._loop.reductions:
            raise ValueError(
                f"array {name!r} is declared a reduction; use update() only"
            )
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values)
        view = self._state.views.get(name)
        if view is None:
            for i, v in zip(idx.tolist(), vals):
                self.store(name, i, v)
            return
        view.store_many(idx, vals)
        self._state.shadows[name].mark_write_many(idx)
        self._m_marks += len(idx)
        self._charge(_MARK, self._costs.mark * len(idx))
        if self._iter_marks is not None:
            marks = self._iter_marks[name]
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
        self._charge_work(units * self._costs.omega)

    # -- premature exit -----------------------------------------------------------

    def exit_loop(self) -> None:
        if self.exit_iteration is None:
            self.exit_iteration = self.iteration

    # -- metrics ------------------------------------------------------------------

    def flush_metrics(self, registry, iterations: int) -> None:
        """Fold this block's accumulated counts into ``registry``.

        Called once per block (never per access); byte counts derive from
        the shared arrays' element sizes so "how much data moved" is
        reportable without touching the hot paths.
        """
        registry.counter("shadow.marks").inc(self._m_marks)
        memory = self._machine.memory
        for name, n in self._m_copyin.items():
            registry.counter("shadow.copy_in.elements").inc(n)
            registry.counter("shadow.copy_in.bytes").inc(
                n * memory[name].data.itemsize
            )
        for name, n in self._m_ckpt.items():
            registry.counter("checkpoint.saved.elements").inc(n)
            registry.counter("checkpoint.saved.bytes").inc(
                n * memory[name].data.itemsize
            )
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
    cancel=None,
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

    ``cancel`` (an object with ``is_set()``, e.g. a ``threading.Event``)
    is the threads backend's cooperative hang-recovery hook: when it
    reads true at an iteration boundary the block raises
    :class:`BlockCancelled` without cleaning up, leaving rollback to the
    supervisor.  ``None`` (every other caller) costs one identity check
    per iteration.
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
    omega = machine.costs.omega
    completed = 0
    try:
        for i in block.iterations():
            if cancel is not None and cancel.is_set():
                raise BlockCancelled(block.proc, i)
            if death is not None and completed >= death[0]:
                # Fail-stop: the processor dies here; everything it did this
                # stage (private state, untested writes) is garbage to roll
                # back, and any exit it signalled cannot be trusted.
                ctx.fault = "fail-stop"
                ctx.fault_permanent = death[1]
                break
            ctx.begin_iteration(i)
            if marklists is not None:
                ctx.set_iteration_marks(
                    {name: ml.open_level(i) for name, ml in marklists.items()}
                )
            base = loop.work_of(i) * omega
            if base:
                ctx._charge_work(base)
            loop.body(ctx, i)
            measured, work_only = ctx.end_iteration()
            state.iter_times[i] = measured
            state.iter_work[i] = work_only
            completed += 1
            if ctx.exit_iteration is not None:
                # The iteration that signalled the exit completes; the rest of
                # the block never executes (speculatively validated later).
                break
    finally:
        ctx.settle_charges()
    state.executed.append(block)
    metrics = getattr(machine, "metrics", None)
    if metrics is not None and metrics.enabled:
        ctx.flush_metrics(metrics, completed)
    return ctx
