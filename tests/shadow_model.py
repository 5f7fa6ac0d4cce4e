"""A per-access reference model of the processor-wise shadow and of the
analysis phase, independent of the access-log representation.

:class:`SetShadow` marks Python sets in access order, as the paper
describes the shadow: a read sets the any-read mark, and the exposed-read
mark unless the element is write-marked by then.  :func:`reference_stage`
is the generic set-walking arc rule the runtime used before its shadows
became access logs.
"""

from __future__ import annotations


class SetShadow:
    """Write / exposed-read / any-read / update sets, marked per access."""

    def __init__(self, n_elements: int) -> None:
        self.n_elements = n_elements
        self.writes: set[int] = set()
        self.exposed: set[int] = set()
        self.reads: set[int] = set()
        self.updates: set[int] = set()

    def _check(self, index: int) -> int:
        if not 0 <= index < self.n_elements:
            raise IndexError(index)
        return index

    def mark_read(self, index: int) -> None:
        self.reads.add(self._check(index))
        if index not in self.writes:
            self.exposed.add(index)

    def mark_write(self, index: int) -> None:
        self.writes.add(self._check(index))

    def mark_update(self, index: int) -> None:
        self.updates.add(self._check(index))

    def write_set(self) -> set[int]:
        return set(self.writes)

    def exposed_read_set(self) -> set[int]:
        return set(self.exposed)

    def any_read_set(self) -> set[int]:
        return set(self.reads)

    def update_set(self) -> set[int]:
        return set(self.updates)

    def distinct_refs(self) -> int:
        return len(self.writes | self.reads | self.updates)


def planes(shadow) -> tuple:
    """The four mark sets of a shadow (either representation)."""
    return (
        shadow.write_set(), shadow.exposed_read_set(),
        shadow.any_read_set(), shadow.update_set(),
    )


def reference_stage(groups) -> tuple[set, int | None, list[int], int]:
    """``(arcs, earliest sink, distinct refs per group, mixed elements)``
    of ordered ``(proc, {array: shadow})`` groups, by the generic rule:
    an element updated anywhere and read or written anywhere is mixed, and
    its updates count as a write plus an exposed read; a group's exposed
    reads are checked against the earliest earlier writer before its own
    writes register.  Arcs are ``(src_pos, dst_pos, array, index)``."""
    updated: dict[str, set[int]] = {}
    ordinary: dict[str, set[int]] = {}
    for _, shadows in groups:
        for name, shadow in shadows.items():
            updated.setdefault(name, set()).update(shadow.update_set())
            ordinary.setdefault(name, set()).update(
                shadow.write_set() | shadow.any_read_set()
            )
    mixed = {name: updated[name] & ordinary[name] for name in updated}
    arcs: set[tuple] = set()
    writers: dict[str, dict[int, int]] = {}
    distinct = []
    for pos, (_, shadows) in enumerate(groups):
        for name, shadow in shadows.items():
            exposed = shadow.exposed_read_set() | (shadow.update_set() & mixed[name])
            for index in exposed:
                src = writers.get(name, {}).get(index)
                if src is not None:
                    arcs.add((src, pos, name, index))
        for name, shadow in shadows.items():
            writes = shadow.write_set() | (shadow.update_set() & mixed[name])
            for index in writes:
                writers.setdefault(name, {}).setdefault(index, pos)
        distinct.append(sum(shadow.distinct_refs() for shadow in shadows.values()))
    sink = min((dst for _, dst, _, _ in arcs), default=None)
    return arcs, sink, distinct, sum(len(m) for m in mixed.values())
