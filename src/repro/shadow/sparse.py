"""Hash-based sparse shadow arrays.

The SPICE loops test a huge, sparsely touched workspace (everything is
EQUIVALENCEd into one ``VALUE`` array); allocating dense shadow planes per
processor for it would waste memory and make shadow re-initialization
O(total size) instead of O(touched).  The sparse shadow stores only marked
elements, the representation the paper's sparse LRPD variant uses.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_kernels
from repro.shadow.base import ShadowArray


class SparseShadow(ShadowArray):
    """Set-backed shadow for sparsely accessed tested arrays."""

    __slots__ = ("_write", "_exposed", "_any_read", "_update")

    def __init__(self, n_elements: int) -> None:
        super().__init__(n_elements)
        self._write: set[int] = set()
        self._exposed: set[int] = set()
        self._any_read: set[int] = set()
        self._update: set[int] = set()

    def _check(self, index: int) -> int:
        if not 0 <= index < self.n_elements:
            raise IndexError(
                f"element {index} out of range [0, {self.n_elements})"
            )
        return index

    # -- marking ----------------------------------------------------------------

    def mark_read(self, index: int) -> None:
        index = self._check(index)
        self._any_read.add(index)
        if index not in self._write:
            self._exposed.add(index)

    def mark_write(self, index: int) -> None:
        self._write.add(self._check(index))

    def mark_update(self, index: int) -> None:
        self._update.add(self._check(index))

    def mark_read_many(self, indices) -> None:
        get_kernels().mark_reads_set(
            self._write, self._exposed, self._any_read, self.n_elements, indices
        )

    def mark_write_many(self, indices) -> None:
        get_kernels().mark_writes_set(self._write, self.n_elements, indices)

    def mark_update_many(self, indices) -> None:
        get_kernels().mark_writes_set(self._update, self.n_elements, indices)

    def apply_log(self, entries) -> None:
        # The planes are Python sets, so one ordered pass over the log
        # beats splitting it into index arrays first (see mark_log_set).
        get_kernels().mark_log_set(
            self._write, self._exposed, self._any_read, self.n_elements, entries
        )

    # -- queries --------------------------------------------------------------

    def write_set(self) -> set[int]:
        return set(self._write)

    def exposed_read_set(self) -> set[int]:
        return set(self._exposed)

    def any_read_set(self) -> set[int]:
        return set(self._any_read)

    def update_set(self) -> set[int]:
        return set(self._update)

    def distinct_refs(self) -> int:
        return len(self._write | self._any_read | self._update)

    def reset(self) -> None:
        self._write.clear()
        self._exposed.clear()
        self._any_read.clear()
        self._update.clear()

    def has_updates(self) -> bool:
        return bool(self._update)

    def is_clear(self) -> bool:
        return not (self._write or self._any_read or self._exposed or self._update)

    def export_marks(self) -> tuple[np.ndarray, ...]:
        # Four sorted int64 index arrays rather than sets of Python ints:
        # one contiguous buffer per plane pickles in O(1) objects, which is
        # what keeps sparse shadow shipping off the fork hot path.
        return tuple(
            np.fromiter(sorted(plane), dtype=np.int64, count=len(plane))
            for plane in (self._write, self._exposed, self._any_read, self._update)
        )

    def absorb_marks(self, payload: tuple[np.ndarray, ...]) -> None:
        write, exposed, any_read, update = payload
        self._write.update(write.tolist())
        self._exposed.update(exposed.tolist())
        self._any_read.update(any_read.tolist())
        self._update.update(update.tolist())
