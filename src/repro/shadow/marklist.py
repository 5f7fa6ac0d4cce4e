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

import numpy as np

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

    def distinct_refs(self) -> int:
        return len(self.writes | self.exposed_reads | self.updates)


def written_values(view, entries) -> dict[int, object]:
    """The private view's value of each element a log slice wrote, in
    element order (read right after the slice's iteration)."""
    return {i: view.load(i)[0] for i in sorted({~e for e in entries if e < 0})}


def iteration_marks(
    iterations: list[int], bounds: list[int], entries: np.ndarray,
    reduction: bool = False,
) -> list[IterationMarks]:
    """The marks of consecutive iterations of one block, iteration
    ``iterations[k]`` owning ``entries[bounds[k]:bounds[k + 1]]`` of the
    array's signed block log.  A reduction array's log is all updates;
    otherwise one grouped-log kernel pass, grouped by iteration, gives
    each iteration's written elements and exposed reads (first access a
    read)."""
    if reduction:
        ids = entries.tolist()
        return [
            IterationMarks(i, updates=set(ids[a:b]))
            for i, a, b in zip(iterations, bounds, bounds[1:])
        ]
    lo, hi = bounds[0], bounds[-1]
    if lo == hi:
        return [IterationMarks(i) for i in iterations]
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    positions = np.repeat(np.arange(len(iterations)), counts)
    elements, pos, first_read, written, _, _ = get_kernels().group_access_logs(
        positions, entries[lo:hi]
    )
    writes = [set() for _ in iterations]
    exposed = [set() for _ in iterations]
    rows = zip(elements.tolist(), pos.tolist(), first_read.tolist(), written.tolist())
    for element, k, first, wrote in rows:  # hot-path: per (iteration, element) row
        if wrote:
            writes[k].add(element)
        if first:
            exposed[k].add(element)
    return [
        IterationMarks(i, w, x) for i, w, x in zip(iterations, writes, exposed)
    ]


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

    def record_block(
        self, iterations: list[int], bounds: list[int], entries: np.ndarray,
        reduction: bool = False, values: list[dict] | None = None,
    ) -> None:
        """Append one level per iteration of a block, built from the
        block's log in one pass (:func:`iteration_marks`); ``values`` are
        the iterations' logged values (:func:`written_values`)."""
        if iterations and self._levels and iterations[0] <= self._levels[-1].iteration:
            raise ValueError(
                f"mark-list iterations must increase: {iterations[0]} after "
                f"{self._levels[-1].iteration}"
            )
        levels = iteration_marks(iterations, bounds, entries, reduction)
        if values is not None:
            for marks, logged in zip(levels, values):  # hot-path: per iteration
                marks.values = logged
        self._levels.extend(levels)

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
