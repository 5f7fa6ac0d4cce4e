"""Dense (bit-packed) shadow arrays.

One :class:`~repro.util.bitset.BitSet` per mark plane keeps the shadow at a
fraction of a byte per element per processor, matching the paper's packed
two-bit shadow arrays, while the analysis-phase exports stay vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import get_kernels
from repro.shadow.base import ShadowArray
from repro.util.bitset import BitSet


class DenseShadow(ShadowArray):
    """Bit-plane shadow for densely accessed tested arrays."""

    __slots__ = ("_write", "_exposed", "_any_read", "_update")

    def __init__(self, n_elements: int) -> None:
        super().__init__(n_elements)
        self._write = BitSet(n_elements)
        self._exposed = BitSet(n_elements)
        self._any_read = BitSet(n_elements)
        self._update = BitSet(n_elements)

    # -- marking ----------------------------------------------------------------

    def mark_read(self, index: int) -> None:
        self._any_read.set(index)
        if not self._write.test(index):
            self._exposed.set(index)

    def mark_write(self, index: int) -> None:
        self._write.set(index)

    def mark_update(self, index: int) -> None:
        self._update.set(index)

    def mark_read_many(self, indices: np.ndarray) -> None:
        get_kernels().mark_reads_bits(
            self._write.words,
            self._exposed.words,
            self._any_read.words,
            self.n_elements,
            np.asarray(indices, dtype=np.int64),
        )

    def mark_write_many(self, indices: np.ndarray) -> None:
        get_kernels().set_bits(
            self._write.words, self.n_elements, np.asarray(indices, dtype=np.int64)
        )

    def mark_update_many(self, indices: np.ndarray) -> None:
        get_kernels().set_bits(
            self._update.words, self.n_elements, np.asarray(indices, dtype=np.int64)
        )

    # -- queries --------------------------------------------------------------

    def write_set(self) -> set[int]:
        return set(map(int, self._write.to_indices()))

    def exposed_read_set(self) -> set[int]:
        return set(map(int, self._exposed.to_indices()))

    def any_read_set(self) -> set[int]:
        return set(map(int, self._any_read.to_indices()))

    def update_set(self) -> set[int]:
        return set(map(int, self._update.to_indices()))

    def distinct_refs(self) -> int:
        return len(self._write | self._any_read | self._update)

    def reset(self) -> None:
        self._write.reset()
        self._exposed.reset()
        self._any_read.reset()
        self._update.reset()

    def has_updates(self) -> bool:
        return bool(self._update)

    def update_indices(self) -> np.ndarray:
        return self._update.to_indices()

    def ordinary_indices(self) -> np.ndarray:
        return (self._write | self._any_read).to_indices()

    def is_clear(self) -> bool:
        return not (
            bool(self._write)
            or bool(self._any_read)
            or bool(self._exposed)
            or bool(self._update)
        )

    def export_marks(self) -> tuple[BitSet, BitSet, BitSet, BitSet]:
        return (
            self._write.copy(),
            self._exposed.copy(),
            self._any_read.copy(),
            self._update.copy(),
        )

    def absorb_marks(self, payload: tuple[BitSet, BitSet, BitSet, BitSet]) -> None:
        write, exposed, any_read, update = payload
        self._write |= write
        self._exposed |= exposed
        self._any_read |= any_read
        self._update |= update

    # -- fast-path helpers used by the dense analysis ------------------------------

    @property
    def write_bits(self) -> BitSet:
        return self._write

    @property
    def exposed_bits(self) -> BitSet:
        return self._exposed

    @property
    def update_bits(self) -> BitSet:
        return self._update
