"""Iteration contexts: the instrumentation boundary of the runtime.

A loop body is a Python callable ``body(ctx, i)``.  All shared-memory
traffic must flow through the context:

* ``ctx.load(name, index)`` / ``ctx.store(name, index, value)`` -- element
  access to a shared array (tested arrays get privatization + shadow
  marking under speculation);
* ``ctx.update(name, index, value)`` -- a reduction statement
  ``A[index] = A[index] (op) value``;
* ``ctx.load_many(name, indices)`` / ``ctx.store_many(name, indices,
  values)`` -- bulk element access, available on every context;
* ``ctx.bump(ivar)`` -- read-then-increment of a speculative induction
  variable;
* ``ctx.work(units)`` -- extra useful computation beyond the loop's base
  per-iteration cost (models iteration-dependent work for the load
  balancing experiments).

Bodies must be deterministic functions of the values they load; given that,
any two executions that observe the same values write the same values, which
is what makes speculation + re-execution sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn

import numpy as np

from repro.kernels import ACCESS_KINDS, READ, UPDATE, WRITE, get_kernels
from repro.loopir.reductions import ReductionOp
from repro.machine.memory import MemoryImage

if TYPE_CHECKING:
    from repro.loopir.loop import SpeculativeLoop


@dataclass(frozen=True, slots=True)
class AccessRecord:
    """One element access in a recorded trace (testing / inspector use)."""

    iteration: int
    kind: str  # 'r' | 'w' | 'u'
    array: str
    index: int


class IterationContext:
    """Abstract context; concrete subclasses define the memory discipline."""

    __slots__ = ("iteration",)

    def __init__(self) -> None:
        self.iteration = -1

    # -- shared-array access --------------------------------------------------

    def load(self, name: str, index: int):
        raise NotImplementedError

    def store(self, name: str, index: int, value) -> None:
        raise NotImplementedError

    def update(self, name: str, index: int, value) -> None:
        """Reduction access ``A[index] = A[index] (op) value``."""
        raise NotImplementedError

    # -- bulk access ---------------------------------------------------------

    def load_many(self, name: str, indices) -> np.ndarray:
        """Bulk access, on every context.  ``load_many`` is one gather of
        ``load(name, i)`` over ``indices`` whose result keeps the array's
        dtype (also when empty); ``store_many`` is ``store(name, i, v)``
        over the pairs in order, so later duplicates win.  Results and
        charges match the element-wise twin, and traces and shadow marks
        record one access per element, in program order."""
        raise NotImplementedError

    def store_many(self, name: str, indices, values) -> None:
        """Bulk :meth:`store`; the contract is on :meth:`load_many`."""
        raise NotImplementedError

    # -- induction variables ---------------------------------------------------

    def bump(self, name: str) -> int:
        """Return the induction variable's current value, then increment it."""
        raise NotImplementedError

    def peek(self, name: str) -> int:
        """Read the induction variable without incrementing."""
        raise NotImplementedError

    # -- cost modelling ---------------------------------------------------------

    def work(self, units: float) -> None:
        """Charge additional useful computation to this iteration."""
        raise NotImplementedError

    # -- premature exit -----------------------------------------------------------

    def exit_loop(self) -> None:
        """Signal a premature loop exit *after* the current iteration.

        Sequential semantics: the current iteration completes (its writes
        count), no later iteration executes.  Speculatively, processors keep
        executing their blocks; the runtime validates the earliest exit
        whose processor's work is itself correct and discards everything
        beyond it (the technique behind SPICE's DCDCMP loop 70).
        """
        raise NotImplementedError


class SequentialContext(IterationContext):
    """Reference semantics: direct, in-order access to shared memory.

    The one in-order interpreter outside the engine: the sequential
    baseline (the oracle every speculative run must match), every other
    in-order pass (doall fallback, DOACROSS, wavefront and list schedules,
    the self-check replay) and, with ``trace=True``, the certification
    probe run loop bodies through it, iteration by iteration via
    :meth:`run`.

    Arrays are routed once, when the context is built: a name maps to its
    ``(data, code)``, with codes indexing ``array_names``.  A traced
    context appends every access's ``(iteration, kind code, array code,
    index)`` quad to the flat ``log`` and every :meth:`work` call's
    ``(iteration, units)`` pair to the flat ``work_log`` (both None when
    untraced); :attr:`records` rebuilds :class:`AccessRecord` objects
    from the log on demand.
    """

    __slots__ = (
        "_memory",
        "_routes",
        "_updates",
        "_reductions",
        "_inductions",
        "array_names",
        "extra_work",
        "log",
        "work_log",
        "exited",
    )

    def __init__(
        self,
        memory: MemoryImage,
        reductions: dict[str, ReductionOp] | None = None,
        inductions: dict[str, int] | None = None,
        trace: bool = False,
    ) -> None:
        super().__init__()
        self._memory = memory
        self._reductions = dict(reductions or {})
        self._inductions = dict(inductions or {})
        names = self.array_names = memory.names()
        # Reduction arrays are routed for update() only, so load/store
        # misuse and unknown names share one cold path (_misroute).
        routes = [(name, memory[name].data, code) for code, name in enumerate(names)]
        ops = self._reductions
        self._routes = {name: (data, code) for name, data, code in routes if name not in ops}
        self._updates = {
            name: (data, code, ops[name]) for name, data, code in routes if name in ops
        }
        self.extra_work = 0.0
        # None when untraced; accesses extend a local alias of the list in
        # place, the cheapest traced append.
        self.log: list[int] | None = [] if trace else None
        self.work_log: list | None = [] if trace else None
        self.exited = False

    @classmethod
    def for_loop(
        cls, loop: SpeculativeLoop, memory: MemoryImage, trace: bool = False
    ) -> SequentialContext:
        """A context that runs ``loop`` over ``memory`` from its initial inductions."""
        return cls(memory, loop.reductions, loop.initial_inductions(), trace)

    def _misroute(self, name: str, update: bool = False) -> NoReturn:
        """The cold path of every access: the reduction discipline's
        ``ValueError``, else the image's descriptive ``KeyError``."""
        if update and name not in self._reductions:
            raise ValueError(f"array {name!r} has no declared reduction operator") from None
        if not update and name in self._reductions:
            raise ValueError(f"array {name!r} is declared a reduction; use update() only") from None
        self._memory[name]  # raises the image's descriptive KeyError
        raise KeyError(name)

    # -- access -----------------------------------------------------------------

    def load(self, name: str, index: int):
        try:
            data, code = self._routes[name]
        except KeyError:
            self._misroute(name)
        log = self.log
        if log is not None:
            log += (self.iteration, READ, code, index)
        return data[index]

    def store(self, name: str, index: int, value) -> None:
        try:
            data, code = self._routes[name]
        except KeyError:
            self._misroute(name)
        log = self.log
        if log is not None:
            log += (self.iteration, WRITE, code, index)
        data[index] = value

    def update(self, name: str, index: int, value) -> None:
        try:
            data, code, op = self._updates[name]
        except KeyError:
            self._misroute(name, update=True)
        log = self.log
        if log is not None:
            log += (self.iteration, UPDATE, code, index)
        data[index] = op.combine(data[index], value)

    def load_many(self, name: str, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        try:
            data, code = self._routes[name]
        except KeyError:
            self._misroute(name)
        if self.log is not None:
            quads = np.empty((idx.size, 4), dtype=np.int64)
            quads[:, 0] = self.iteration
            quads[:, 1] = READ
            quads[:, 2] = code
            quads[:, 3] = idx
            self.log += quads.ravel().tolist()
        return get_kernels().gather(data, idx)

    def store_many(self, name: str, indices, values) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        # hot-path: each element re-enters store(), so later duplicates
        # win and the log keeps per-element program order
        for index, value in zip(idx.tolist(), np.asarray(values)):
            self.store(name, index, value)

    # -- induction ---------------------------------------------------------------

    def bump(self, name: str) -> int:
        value = self._inductions[name]
        self._inductions[name] = value + 1
        return value

    def peek(self, name: str) -> int:
        return self._inductions[name]

    def induction_values(self) -> dict[str, int]:
        """Final counter values (exposed for last-value semantics)."""
        return dict(self._inductions)

    # -- costs ----------------------------------------------------------------

    def work(self, units: float) -> None:
        if units < 0:
            raise ValueError("work units must be non-negative")
        self.extra_work += units
        work_log = self.work_log
        if work_log is not None:
            work_log += (self.iteration, units)

    # -- premature exit ------------------------------------------------------------

    def exit_loop(self) -> None:
        self.exited = True

    # -- in-order execution ---------------------------------------------------------

    def run(
        self,
        loop: SpeculativeLoop,
        order: Iterable[int],
        omega: float | None = None,
        stop_at_exit: bool = True,
    ) -> Iterator[tuple[int, float | None]]:
        """Execute ``loop``'s iterations in ``order``, yielding ``(i, time)``.

        An iteration's time is ``(loop.work_of(i) + extra work it charged)
        * omega``; passes that charge nothing (the probe, the self-check
        replay) leave ``omega`` None, get None and skip the work model.
        The generator stops after the iteration that signals
        :meth:`exit_loop` unless ``stop_at_exit`` is false (a sampled probe
        observes every sampled iteration); callers read :attr:`exited` on
        each yield to apply their own exit policy.
        """
        body, work_of = loop.body, loop.work_of
        # hot-path: the in-order iteration loop, one body call each
        for i in order:
            self.iteration = i
            if omega is None:
                body(self, i)
                yield i, None
            else:
                before = self.extra_work
                body(self, i)
                yield i, (work_of(i) + (self.extra_work - before)) * omega
            if stop_at_exit and self.exited:
                return

    # -- trace ------------------------------------------------------------------

    @property
    def records(self) -> list[AccessRecord]:
        """The trace as :class:`AccessRecord` objects, built on demand."""
        return trace_records(self.log or [], self.array_names)


def trace_records(log: list[int], array_names: list[str]) -> list[AccessRecord]:
    """Rebuild :class:`AccessRecord` objects from a flat quad log."""
    return [
        AccessRecord(i, ACCESS_KINDS[k], array_names[a], int(x))
        for i, k, a, x in zip(log[0::4], log[1::4], log[2::4], log[3::4])
    ]
