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
from typing import Mapping, Sequence

import numpy as np

from repro.config import TestCondition
from repro.kernels import get_kernels
from repro.shadow import ShadowArray

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


@dataclass(slots=True)
class StageAnalysis:
    """Outcome of analyzing one speculative stage."""

    earliest_sink_pos: int | None
    arcs: list[DependenceArc]
    distinct_refs: list[int] = field(default_factory=list)
    mixed_reduction_elements: int = 0

    @property
    def fully_parallel(self) -> bool:
        return self.earliest_sink_pos is None


def _mixed_sets(groups: Groups) -> dict[str, set[int]]:
    """Per array: elements carrying both reduction and ordinary marks.

    Reduction marks are rare -- most stages carry none -- so the scan first
    finds the arrays with any ``update`` mark (a cheap bit test per shadow)
    and returns immediately when there are none, instead of materializing
    Python sets for every shadow of every group.  For the arrays that do
    mix, shadow exports stay numpy index arrays until the final
    intersection, which is the only point a set is actually needed.
    """
    updated = {
        name
        for _, shadows in groups
        for name, shadow in shadows.items()
        if shadow.has_updates()
    }
    if not updated:
        return {}
    red: dict[str, list[np.ndarray]] = {}
    normal: dict[str, list[np.ndarray]] = {}
    for _, shadows in groups:  # hot-path: per-group scan, not per-element
        for name, shadow in shadows.items():  # hot-path: per-array scan
            if name not in updated:
                continue
            upd = shadow.update_indices()
            if len(upd):
                red.setdefault(name, []).append(upd)
            ordinary = shadow.ordinary_indices()
            if len(ordinary):
                normal.setdefault(name, []).append(ordinary)
    mixed: dict[str, set[int]] = {}
    for name, red_parts in red.items():  # hot-path: per-array scan
        normal_parts = normal.get(name)
        if not normal_parts:
            continue
        both = get_kernels().intersect_indices(
            np.concatenate(red_parts), np.concatenate(normal_parts)
        )
        if len(both):
            mixed[name] = set(map(int, both))
    return mixed


def _analyze_dense(groups: Groups) -> StageAnalysis:
    """Word-level fast path for all-dense, reduction-free stages.

    The generic path materializes Python sets of every marked element per
    group; on dense shadows the same scan is a handful of 64-bit-word
    operations per array: ``exposed & cumulative_writes`` finds conflicts,
    and element indices are only extracted for the (rare) conflicting
    words.  Semantics are identical to the generic path -- enforced by a
    hypothesis equivalence test against sparse-shadow mirrors.
    """
    from repro.shadow.dense import DenseShadow
    from repro.util.bitset import BitSet

    arcs: list[DependenceArc] = []
    cumulative: dict[str, BitSet] = {}
    write_history: dict[str, list[tuple[int, object]]] = {}
    distinct: list[int] = []
    for pos, (_proc, shadows) in enumerate(groups):  # hot-path: per-group scan
        for name, shadow in shadows.items():  # hot-path: per-array scan
            assert isinstance(shadow, DenseShadow)
            cum = cumulative.get(name)
            if cum is not None and shadow.exposed_bits.intersects(cum):
                conflicts = get_kernels().and_words_indices(
                    shadow.exposed_bits.words, cum.words, shadow.n_elements
                )
                for index in conflicts.tolist():  # hot-path: conflicting elements only
                    src = next(
                        p for p, bits in write_history[name] if bits.test(index)
                    )
                    arcs.append(DependenceArc(src, pos, name, index))
        for name, shadow in shadows.items():  # hot-path: per-array scan
            writes = shadow.write_bits
            if writes:
                if name in cumulative:
                    cumulative[name] |= writes
                else:
                    cumulative[name] = writes.copy()
                write_history.setdefault(name, []).append((pos, writes))
        distinct.append(
            sum(shadow.distinct_refs() for shadow in shadows.values())
        )
    earliest = _earliest_sink(arcs)
    return StageAnalysis(
        earliest_sink_pos=earliest,
        arcs=arcs,
        distinct_refs=distinct,
        mixed_reduction_elements=0,
    )


def _dense_eligible(groups: Groups) -> bool:
    """Fast path applies when every shadow is dense and no reduction marks
    exist (mixed-reduction reclassification needs the generic machinery)."""
    from repro.shadow.dense import DenseShadow

    for _proc, shadows in groups:  # hot-path: per-group scan, not per-element
        for shadow in shadows.values():  # hot-path: per-array scan
            if not isinstance(shadow, DenseShadow):
                return False
            if bool(shadow.update_bits):
                return False
    return True


def _earliest_sink(arcs: list[DependenceArc]) -> int | None:
    """Earliest dependence-sink position, the R-LRPD commit boundary."""
    if not arcs:
        return None
    sinks = np.fromiter((arc.dst_pos for arc in arcs), dtype=np.int64, count=len(arcs))
    return get_kernels().reduce_min_max(sinks)[0]


def analyze_stage(groups: Groups) -> StageAnalysis:
    """Find all cross-group flow arcs and the earliest sink (copy-in test).

    Groups must be given in increasing iteration order.  Cost: one pass over
    the distinct marked elements of every group (word-level on all-dense
    stages).
    """
    if _dense_eligible(groups):
        return _analyze_dense(groups)
    mixed = _mixed_sets(groups)
    arcs: list[DependenceArc] = []
    # array -> element -> earliest writing position.
    written_before: dict[str, dict[int, int]] = {}
    distinct: list[int] = []
    for pos, (_proc, shadows) in enumerate(groups):  # hot-path: per-group scan
        for name, shadow in shadows.items():  # hot-path: per-array scan
            name_mixed = mixed.get(name, set())
            exposed = shadow.exposed_read_set()
            if name_mixed:
                exposed = exposed | (shadow.update_set() & name_mixed)
            writers = written_before.get(name)
            if writers:
                # hot-path: generic (mixed-shadow) reference path; all-dense
                # stages take the kernel fast path in _analyze_dense
                for index in exposed:
                    src = writers.get(index)
                    if src is not None:
                        arcs.append(DependenceArc(src, pos, name, index))
        # Register this group's writes only after its reads were checked:
        # intra-group read/write ordering is already folded into the
        # exposed-read bit by the shadow.
        for name, shadow in shadows.items():  # hot-path: per-array scan
            name_mixed = mixed.get(name, set())
            writes = shadow.write_set()
            if name_mixed:
                writes = writes | (shadow.update_set() & name_mixed)
            if writes:
                writers = written_before.setdefault(name, {})
                # hot-path: generic (mixed-shadow) reference path
                for index in writes:
                    writers.setdefault(index, pos)
        distinct.append(
            sum(shadow.distinct_refs() for shadow in shadows.values())
        )
    earliest = _earliest_sink(arcs)
    return StageAnalysis(
        earliest_sink_pos=earliest,
        arcs=arcs,
        distinct_refs=distinct,
        mixed_reduction_elements=sum(len(v) for v in mixed.values()),
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

    mixed = _mixed_sets(groups)
    exposed_by: dict[str, dict[int, set[int]]] = {}
    written_by: dict[str, dict[int, set[int]]] = {}
    for pos, (_proc, shadows) in enumerate(groups):  # hot-path: per-group scan
        for name, shadow in shadows.items():  # hot-path: per-array scan
            name_mixed = mixed.get(name, set())
            exposed = shadow.exposed_read_set()
            writes = shadow.write_set()
            if name_mixed:
                extra = shadow.update_set() & name_mixed
                exposed = exposed | extra
                writes = writes | extra
            # hot-path: PRIVATIZATION verdict is an offline oracle, not a
            # per-stage runtime path
            for index in exposed:
                exposed_by.setdefault(name, {}).setdefault(index, set()).add(pos)
            for index in writes:  # hot-path: offline oracle (see above)
                written_by.setdefault(name, {}).setdefault(index, set()).add(pos)
    for name, element_readers in exposed_by.items():  # hot-path: offline oracle
        element_writers = written_by.get(name, {})
        for index, readers in element_readers.items():  # hot-path: offline oracle
            writers = element_writers.get(index, set())
            if writers and (len(writers | readers) > 1):
                return False
    return True
