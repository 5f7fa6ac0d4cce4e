"""The processor-wise shadow: one processor's access log of one tested array.

The paper's analysis phase needs three facts per processor: which
elements it wrote, which it read before writing them (its *exposed*
reads, exactly the reads that trigger on-demand copy-in) and how many
distinct elements it touched, which sets the analysis cost.  All three
follow from the order of its accesses, so the shadow keeps that order
and nothing else: the signed log of each block it ran (a read of element
``i`` is ``i``, a write ``~i``), plus the reduction updates in a column
of their own.  The stage's analysis resolves every processor's logs of
one array in a single kernel pass
(:func:`~repro.kernels.scalar.group_access_logs`); the set queries
below resolve this shadow's logs alone.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_kernels

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def stack_logs(owned) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The kernel input of ``(position, shadow)`` pairs in position order:
    ``(positions, entries, updates)``, each shadow's logs then its
    updates (``updates`` is ``None`` when no shadow has any)."""
    parts = [
        (pos, chunk, flag)
        for pos, shadow in owned
        for chunks, flag in ((shadow.logs, False), (shadow.updates, True))
        for chunk in chunks
    ]
    if not parts:
        return _EMPTY, _EMPTY, None
    lengths = [len(chunk) for _, chunk, _ in parts]
    flags = [flag for _, _, flag in parts]
    entries = np.concatenate([chunk for _, chunk, _ in parts]) if len(parts) > 1 else parts[0][1]
    positions = np.repeat(np.array([pos for pos, _, _ in parts], dtype=np.int64), lengths)
    return positions, entries, np.repeat(flags, lengths) if any(flags) else None


class ShadowArray:
    """The marks of one (processor, tested array) pair during one stage.

    Contract (paper, Section 2), in terms of the log:

    * an element is *written* if any write hit it;
    * it has an *exposed* read if its first read or write was a read --
      where a write came first, later reads are covered;
    * it is *updated* if a reduction update hit it;
    * repeated accesses change none of these, so :meth:`distinct_refs`
      (elements with any mark) bounds the analysis cost.

    The speculative executor records one log per block
    (:meth:`record`, :meth:`record_updates`) when the block ends; the
    scalar ``mark_*`` methods append single accesses.
    """

    __slots__ = ("n_elements", "logs", "updates", "_distinct")

    def __init__(self, n_elements: int) -> None:
        if n_elements < 0:
            raise ValueError("shadow size must be non-negative")
        self.n_elements = n_elements
        self.logs: list[np.ndarray] = []
        """Signed int64 access logs, one per recorded block, in order."""
        self.updates: list[np.ndarray] = []
        """Reduction-updated element indices, one array per block."""
        self._distinct: int | None = 0

    # -- recording --------------------------------------------------------------

    def record(self, entries: np.ndarray) -> None:
        """Append one block's signed access log (an int64 array)."""
        self.logs.append(entries)
        self._distinct = None

    def record_updates(self, indices: np.ndarray) -> None:
        """Append one block's reduction updates (an int64 array)."""
        self.updates.append(indices)
        self._distinct = None

    def _checked(self, index: int) -> np.ndarray:
        if not 0 <= index < self.n_elements:
            raise IndexError(f"element {index} out of range [0, {self.n_elements})")
        return np.array([index], dtype=np.int64)

    def mark_read(self, index: int) -> None:
        self.record(self._checked(index))

    def mark_write(self, index: int) -> None:
        self.record(~self._checked(index))

    def mark_update(self, index: int) -> None:
        self.record_updates(self._checked(index))

    # -- queries ------------------------------------------------------------------

    def _resolved(self) -> tuple[np.ndarray, ...]:
        return get_kernels().group_access_logs(*stack_logs([(0, self)]))

    def write_set(self) -> set[int]:
        """Elements written."""
        elements, _, _, written, _, _ = self._resolved()
        return set(elements[written].tolist())

    def exposed_read_set(self) -> set[int]:
        """Elements whose first read or write was a read (copy-in reads)."""
        elements, _, first_read, _, _, _ = self._resolved()
        return set(elements[first_read].tolist())

    def any_read_set(self) -> set[int]:
        """Elements read at least once, regardless of ordering."""
        elements, _, _, _, read, _ = self._resolved()
        return set(elements[read].tolist())

    def update_set(self) -> set[int]:
        """Elements touched by reduction updates."""
        elements, _, _, _, _, updated = self._resolved()
        return set(elements[updated].tolist())

    def distinct_refs(self) -> int:
        """Number of distinct elements carrying any mark: the count the
        stage's analysis pass left (:meth:`note_distinct`), else resolved
        from the log."""
        if self._distinct is None:
            self._distinct = len(self._resolved()[0])
        return self._distinct

    def note_distinct(self, count: int) -> None:
        """Keep the distinct count the stage's analysis computed, for the
        re-initialization charge."""
        self._distinct = count

    def reset(self) -> None:
        """Drop every mark (between recursive stages)."""
        self.logs.clear()
        self.updates.clear()
        self._distinct = 0

    def is_clear(self) -> bool:
        """True when nothing was recorded (fresh or reset shadow)."""
        return not (self.logs or self.updates)

    # -- cross-process shipping ---------------------------------------------------

    def export_marks(self) -> tuple[np.ndarray, np.ndarray]:
        """The log and the updates as two int64 arrays, shipped between
        processes by the fork execution backend."""
        return tuple(
            np.concatenate(parts) if parts else _EMPTY
            for parts in (self.logs, self.updates)
        )

    def absorb_marks(self, payload: tuple[np.ndarray, np.ndarray]) -> None:
        """Append a payload from :meth:`export_marks` after this shadow's
        own log."""
        log, updates = payload
        if len(log):
            self.record(log)
        if len(updates):
            self.record_updates(updates)


def make_shadow(n_elements: int) -> ShadowArray:
    """A fresh shadow for a tested array of ``n_elements``."""
    return ShadowArray(n_elements)
