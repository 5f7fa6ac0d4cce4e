"""Iteration-level mark lists for DDG extraction.

For dependence-*graph* extraction (Section 3) the processor-wise shadow is
too coarse: the edges connect iterations, not processors.  The paper
organizes the shadow as an *N-level mark list* where ``N`` is the number of
iterations assigned to each processor; level ``k`` records the reads and
writes of the processor's ``k``-th iteration.  This module keeps one
:class:`IterationMarks` per (iteration, array), grouped in a
:class:`MarkList` per processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels import get_kernels


@dataclass(slots=True)
class IterationMarks:
    """Read/write/update element sets of a single iteration for one array.

    ``exposed_reads`` are reads not covered by an earlier write *in the same
    iteration* -- the upward-exposed uses that can be dependence sinks.

    ``values`` holds the last value written to each element when the mark
    list logs values.  The iteration-wise test needs this to commit a *prefix*
    of a processor's block (the per-processor private view only holds the
    block's final values); the memory cost is proportional to the write
    trace, which is exactly why the paper prefers the processor-wise test
    when iteration granularity is not required.
    """

    iteration: int
    writes: set[int] = field(default_factory=set)
    exposed_reads: set[int] = field(default_factory=set)
    updates: set[int] = field(default_factory=set)
    values: dict[int, object] = field(default_factory=dict)

    @classmethod
    def from_log(
        cls, iteration: int, entries, reduction: bool = False, view=None
    ) -> "IterationMarks":
        """The marks of one iteration's slice of an array's signed access
        log (reads ``i``, writes ``~i``).  A reduction array's slice is all
        updates; otherwise the open reads are the exposed reads.  ``view``,
        the private view right after the iteration, holds its last write
        of each written element: given, those values are logged."""
        if reduction:
            return cls(iteration, updates=set(entries))
        if not len(entries):
            return cls(iteration)
        open_reads, writes, _ = get_kernels().resolve_access_log(entries)
        written = writes.tolist()
        values = {} if view is None else {i: view.load(i)[0] for i in written}
        return cls(iteration, set(written), set(open_reads.tolist()), values=values)

    def distinct_refs(self) -> int:
        return len(self.writes | self.exposed_reads | self.updates)


class MarkList:
    """Per-processor, per-array list of iteration-level marks for one window.

    Levels are appended in the processor's local execution order, which is
    also increasing iteration order (block scheduling), so scanning a mark
    list visits iterations in program order.
    """

    def __init__(self, array: str, proc: int, log_values: bool = False) -> None:
        self.array = array
        self.proc = proc
        self.log_values = log_values
        self._levels: list[IterationMarks] = []

    def record(
        self, iteration: int, entries, reduction: bool = False, view=None
    ) -> IterationMarks:
        """Append ``iteration``'s level, built from its access-log slice
        (:meth:`IterationMarks.from_log`; ``view`` is read only when this
        list logs values)."""
        if self._levels and iteration <= self._levels[-1].iteration:
            raise ValueError(
                f"mark-list iterations must increase: {iteration} after "
                f"{self._levels[-1].iteration}"
            )
        marks = IterationMarks.from_log(
            iteration, entries, reduction, view if self.log_values else None
        )
        self._levels.append(marks)
        return marks

    @property
    def levels(self) -> list[IterationMarks]:
        return list(self._levels)

    def level(self, k: int) -> IterationMarks:
        return self._levels[k]

    def __len__(self) -> int:
        return len(self._levels)

    def distinct_refs(self) -> int:
        return sum(level.distinct_refs() for level in self._levels)

    def reset(self) -> None:
        self._levels.clear()
