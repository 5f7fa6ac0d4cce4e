"""The post-execution analysis phase.

After a speculative doall, the shadows of all participating processors are
analyzed for cross-processor dependences.  With block scheduling and
on-demand copy-in, the only invalidating pattern is a *flow* dependence: a
write on a lower-ranked block matched by an exposed read (read-before-local-
write) on a higher-ranked block (paper, Section 2).  The crucial R-LRPD
observation follows: all blocks strictly before the **earliest sink** of any
dependence arc executed correctly and can commit.

The analysis operates on an ordered sequence of *groups* -- ``(processor,
shadows)`` pairs in increasing iteration order -- so the same code serves
the blocked strategies (groups ordered by processor rank) and the sliding
window (groups ordered by block sequence, processors assigned circularly).

Speculative reductions are folded in here: an element is a valid reduction
only if *every* access to it in the stage is a reduction update.  Elements
with mixed reduction/ordinary marks have their updates treated as a
write-plus-exposed-read, which routes them through the normal dependence
machinery (a mixed element behaves like an ordinary read-modify-write).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.config import TestCondition
from repro.kernels import get_kernels
from repro.shadow import ShadowArray
from repro.shadow.log import stack_logs

Groups = Sequence[tuple[int, Mapping[str, ShadowArray]]]


@dataclass(frozen=True, slots=True)
class DependenceArc:
    """A cross-group flow dependence found by the analysis phase.

    Positions index the ordered group sequence, not processor ids (the
    sliding window maps positions to processors circularly).
    """

    src_pos: int
    dst_pos: int
    array: str
    index: int

    def __post_init__(self) -> None:
        if self.src_pos >= self.dst_pos:
            raise ValueError("dependence arcs point to later groups")


class FlowArcs:
    """A stage's flow arcs as columns: ``len()`` is O(1), and
    :class:`DependenceArc` objects are built only when iterated, in
    (sink position, array, element) order."""

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        # (array, source positions, sink positions, elements) per array.
        self._columns: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []

    def add(self, array: str, src: np.ndarray, dst: np.ndarray, index: np.ndarray) -> None:
        if len(dst):
            self._columns.append((array, src, dst, index))

    def __len__(self) -> int:
        return sum(len(dst) for _, _, dst, _ in self._columns)

    def earliest_sink(self) -> int | None:
        """The earliest sink position, the R-LRPD commit boundary."""
        if not self._columns:
            return None
        return min(int(dst.min()) for _, _, dst, _ in self._columns)

    def __iter__(self) -> Iterator[DependenceArc]:
        if not self._columns:
            return iter(())
        names = [name for name, _, _, _ in self._columns]
        rank = np.repeat(np.arange(len(names)), [len(c[2]) for c in self._columns])
        src, dst, index = (
            np.concatenate([c[k] for c in self._columns]) for k in (1, 2, 3)
        )
        order = np.lexsort((index, rank, dst))
        return map(
            DependenceArc,
            src[order].tolist(), dst[order].tolist(),
            [names[r] for r in rank[order].tolist()], index[order].tolist(),
        )

    def __repr__(self) -> str:
        return f"FlowArcs({list(self)!r})"


@dataclass(slots=True)
class StageAnalysis:
    """Outcome of analyzing one speculative stage."""

    earliest_sink_pos: int | None
    arcs: FlowArcs
    distinct_refs: list[int] = field(default_factory=list)
    mixed_reduction_elements: int = 0

    @property
    def fully_parallel(self) -> bool:
        return self.earliest_sink_pos is None


def _flow_arcs(runs) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(sources, sinks, elements, mixed elements)`` of one array's
    resolved logs (:func:`~repro.kernels.scalar.group_access_logs` rows,
    sorted by element, then position).

    An element both reduction-updated and read or written anywhere in the
    stage is *mixed*: its updates count as a write plus an exposed read.
    Each element's earliest writer is its first writing row; every
    exposed read at a later position is a flow arc from it.
    """
    elements, pos, exposed, written, read, updated = runs
    starts = np.flatnonzero(np.concatenate(([True], elements[1:] != elements[:-1])))
    counts = np.diff(np.append(starts, len(elements)))
    n_mixed = 0
    if updated.any():
        mixed = np.logical_or.reduceat(updated, starts) & np.logical_or.reduceat(
            written | read, starts
        )
        n_mixed = int(np.count_nonzero(mixed))
        if n_mixed:
            extra = updated & np.repeat(mixed, counts)
            exposed, written = exposed | extra, written | extra
    writer = np.minimum.reduceat(np.where(written, pos, pos.max() + 1), starts)
    src = np.repeat(writer, counts)
    arc = exposed & (src < pos)
    return src[arc], pos[arc], elements[arc], n_mixed


def analyze_stage(groups: Groups) -> StageAnalysis:
    """Find all cross-group flow arcs and the earliest sink (copy-in test).

    Groups must be given in increasing iteration order.  Cost: one
    grouped-log kernel pass per tested array over every group's logs of
    it.  Each shadow keeps its distinct count for the re-initialization
    charge.
    """
    owners: dict[str, list[tuple[int, ShadowArray]]] = {}
    for pos, (_proc, shadows) in enumerate(groups):  # hot-path: per-group scan
        for name, shadow in shadows.items():  # hot-path: per-array scan
            owners.setdefault(name, []).append((pos, shadow))
    arcs = FlowArcs()
    distinct = np.zeros(len(groups), dtype=np.int64)
    n_mixed = 0
    kernels = get_kernels()
    for name, owned in owners.items():  # hot-path: one kernel pass per array
        runs = kernels.group_access_logs(*stack_logs(owned))
        counts = np.bincount(runs[1], minlength=len(groups))
        distinct += counts
        per_group = counts.tolist()
        for pos, shadow in owned:  # hot-path: per (group, array)
            shadow.note_distinct(per_group[pos])
        if not len(runs[0]):
            continue
        src, dst, index, mixed = _flow_arcs(runs)
        arcs.add(name, src, dst, index)
        n_mixed += mixed
    return StageAnalysis(
        earliest_sink_pos=arcs.earliest_sink(),
        arcs=arcs,
        distinct_refs=distinct.tolist(),
        mixed_reduction_elements=n_mixed,
    )


def doall_valid(groups: Groups, condition: TestCondition) -> bool:
    """The classic LRPD pass/fail verdict for a single speculative doall.

    * ``COPY_IN``: valid iff no cross-group flow arc exists (anti and output
      dependences are absorbed by copy-in privatization + last-value commit).
    * ``PRIVATIZATION``: stricter original test -- valid iff no element has
      an exposed read in one group and a write in a *different* group, in
      either direction (without copy-in, a read-first element written
      elsewhere in the loop cannot be privatized).
    """
    if condition is TestCondition.COPY_IN:
        return analyze_stage(groups).fully_parallel

    # Mixed elements: a shadow's updates of an element some group reads
    # or writes count as a write plus an exposed read.
    ordinary: dict[str, set[int]] = {}
    for _proc, shadows in groups:  # hot-path: offline oracle, not a stage path
        for name, shadow in shadows.items():  # hot-path: offline oracle
            ordinary.setdefault(name, set()).update(
                shadow.write_set() | shadow.any_read_set()
            )
    exposed_by: dict[str, dict[int, set[int]]] = {}
    written_by: dict[str, dict[int, set[int]]] = {}
    for pos, (_proc, shadows) in enumerate(groups):  # hot-path: offline oracle
        for name, shadow in shadows.items():  # hot-path: offline oracle
            extra = shadow.update_set() & ordinary[name]
            exposed = shadow.exposed_read_set() | extra
            writes = shadow.write_set() | extra
            for index in exposed:  # hot-path: offline oracle
                exposed_by.setdefault(name, {}).setdefault(index, set()).add(pos)
            for index in writes:  # hot-path: offline oracle
                written_by.setdefault(name, {}).setdefault(index, set()).add(pos)
    for name, element_readers in exposed_by.items():  # hot-path: offline oracle
        element_writers = written_by.get(name, {})
        for index, readers in element_readers.items():  # hot-path: offline oracle
            writers = element_writers.get(index, set())
            if writers and (len(writers | readers) > 1):
                return False
    return True
