"""Shared and private (speculative) memory.

Tested arrays -- those whose access pattern the compiler could not analyze --
are never written in place during a speculative stage.  Each processor works
on a *private view*: reads copy in the shared value on demand (the paper's
"on-demand copy-in", which both implements the copy-in condition and feeds
flow-dependence data produced by earlier, already committed stages), writes
stay private until the analysis phase decides which processors commit.

Untested arrays (statically analyzable state such as array ``B`` in the
paper's Fig. 1) are written directly to shared memory and protected by a
checkpoint (:mod:`repro.machine.checkpoint`) so the sections modified by
failed processors can be restored.

Two private-view implementations are provided: a dense one backed by numpy
arrays (best for small or densely accessed arrays) and a sparse, dict-backed
one (best for the paper's sparse workloads, e.g. the SPICE ``VALUE``
workspace, where each processor touches a tiny fraction of a huge array).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.kernels import get_kernels


class SharedArray:
    """A named, one-dimensional shared array.

    Multi-dimensional program arrays are linearized by the workload (the
    shadow structures and the dependence test operate on element addresses,
    exactly as the real runtime operates on memory locations).
    """

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: np.ndarray) -> None:
        arr = np.asarray(data)
        if arr.ndim != 1:
            raise ValueError(
                f"SharedArray {name!r} must be 1-D (got shape {arr.shape}); "
                "linearize multi-dimensional arrays in the workload"
            )
        self.name = name
        self.data = arr.copy()

    def __len__(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedArray({self.name!r}, n={len(self)}, dtype={self.data.dtype})"


class MemoryImage:
    """The machine's shared address space: a set of named arrays."""

    def __init__(self, arrays: Iterable[SharedArray] = ()) -> None:
        self._arrays: dict[str, SharedArray] = {}
        for array in arrays:  # hot-path: per-array, setup only
            self.add(array)

    def add(self, array: SharedArray) -> None:
        if array.name in self._arrays:
            raise ValueError(f"duplicate shared array {array.name!r}")
        self._arrays[array.name] = array

    def __getitem__(self, name: str) -> SharedArray:
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(
                f"no shared array {name!r}; declared: {sorted(self._arrays)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    @property
    def arrays(self) -> Mapping[str, SharedArray]:
        """The name -> :class:`SharedArray` map itself (no copy): hot paths
        index it directly.  Arrays are stable objects; their ``data`` may
        be rebound."""
        return self._arrays

    def names(self) -> list[str]:
        return sorted(self._arrays)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of every array's contents (test oracle support)."""
        return {name: arr.data.copy() for name, arr in self._arrays.items()}

    def restore(self, snapshot: Mapping[str, np.ndarray]) -> None:
        """Overwrite all arrays from a snapshot taken earlier."""
        for name, data in snapshot.items():  # hot-path: per-array bulk copy
            self[name].data[:] = data

    def equals(self, snapshot: Mapping[str, np.ndarray]) -> bool:
        if set(snapshot) != set(self._arrays):
            return False
        return all(
            np.array_equal(self._arrays[name].data, data)
            for name, data in snapshot.items()
        )

    def allclose(
        self,
        snapshot: Mapping[str, np.ndarray],
        rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> bool:
        """Tolerant comparison for runs with parallel reductions.

        Per-processor reduction partials are combined in a different order
        than a sequential execution, so floating-point results may differ in
        the last bits while remaining mathematically identical.
        """
        if set(snapshot) != set(self._arrays):
            return False
        return all(
            np.allclose(self._arrays[name].data, data, rtol=rtol, atol=atol)
            for name, data in snapshot.items()
        )


class PrivateView:
    """Abstract per-processor speculative overlay of one shared array.

    ``load`` returns ``(value, copied_in)`` where ``copied_in`` reports
    whether the shared value had to be brought into private storage (so the
    caller can charge the copy-in cost and mark an exposed read).  ``store``
    buffers the value privately.  ``written_items`` yields the data needed
    by the commit phase.
    """

    __slots__ = ("shared",)

    def __init__(self, shared: SharedArray) -> None:
        self.shared = shared

    def load(self, index: int) -> tuple[object, bool]:
        raise NotImplementedError

    def store(self, index: int, value: object) -> None:
        raise NotImplementedError

    def has_local(self, index: int) -> bool:
        """Whether the element already has a private copy (written or copied)."""
        raise NotImplementedError

    def written_items(self) -> Iterable[tuple[int, object]]:
        """``(index, last_private_value)`` for every element this processor
        wrote (iteration order within the processor is already folded in:
        the private copy holds the processor's last value)."""
        raise NotImplementedError

    def written_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` ndarrays of every written element, index-
        sorted, so the commit phase is one fancy-indexed assignment instead
        of a Python loop per element.  Values are cast to the shared dtype
        (exactly the cast a scalar ``data[index] = value`` would perform)."""
        pairs = list(self.written_items())
        indices = np.fromiter(
            (i for i, _ in pairs), dtype=np.int64, count=len(pairs)
        )
        values = get_kernels().pack_values(
            [value for _, value in pairs], self.shared.data.dtype
        )
        return indices, values

    def export_written(self) -> object:
        """Representation-specific payload of the written elements, suitable
        for shipping between processes (see :mod:`repro.core.backend`).
        Must round-trip bit-exactly through :meth:`absorb_written`."""
        raise NotImplementedError

    def absorb_written(self, payload: object) -> None:
        """Merge a payload produced by :meth:`export_written` on a view of
        the same array (the receiving view is assumed freshly reset)."""
        raise NotImplementedError

    def store_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Bulk :meth:`store` over parallel index/value arrays."""
        # hot-path: generic fallback for custom views; the shipped dense and
        # sparse views override this with a kernel batch call.
        for index, value in zip(indices.tolist(), values):
            self.store(index, value)

    def load_many(self, indices: np.ndarray) -> tuple[np.ndarray, int]:
        """Bulk :meth:`load`; returns ``(values, distinct elements copied
        in)`` so the caller can charge the copy-in cost once."""
        copied = 0
        out = np.empty(len(indices), dtype=self.shared.data.dtype)
        seen: set[int] = set()
        # hot-path: generic fallback for custom views; the shipped dense and
        # sparse views override this with a kernel batch call.
        for k, index in enumerate(indices.tolist()):
            value, copied_in = self.load(index)
            out[k] = value
            if copied_in and index not in seen:
                seen.add(index)
                copied += 1
        return out, copied

    def n_written(self) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Discard all private state (between stages)."""
        raise NotImplementedError

    def preload(self) -> int:
        """Pre-initialize the private copy from shared memory (the paper's
        'before the start of the speculative loop' option).  Returns the
        element count copied; sparse views return 0 (they always use
        on-demand copy-in -- bulk-copying a huge sparsely-touched array is
        exactly what the sparse representation avoids)."""
        return 0


class DensePrivateView(PrivateView):
    """Numpy-backed private view; O(n) memory, O(1) access.

    A scalar access reads and sets the have/written flags through
    memoryviews of the flag arrays: one buffer index each, where a numpy
    scalar op costs about twice as much.  Only the value itself goes
    through numpy, so loads return the shared dtype's scalars, as the
    batch paths do.
    """

    __slots__ = ("_values", "_have", "_written", "_have_flags", "_written_flags")

    def __init__(self, shared: SharedArray) -> None:
        super().__init__(shared)
        n = len(shared)
        self._values = np.zeros(n, dtype=shared.data.dtype)
        self._have = np.zeros(n, dtype=bool)
        self._written = np.zeros(n, dtype=bool)
        self._have_flags = memoryview(self._have)
        self._written_flags = memoryview(self._written)

    def load(self, index: int) -> tuple[object, bool]:
        if self._have_flags[index]:
            return self._values[index], False
        value = self.shared.data[index]
        self._values[index] = value
        self._have_flags[index] = True
        return value, True

    def store(self, index: int, value: object) -> None:
        self._values[index] = value
        self._have_flags[index] = True
        self._written_flags[index] = True

    def has_local(self, index: int) -> bool:
        return bool(self._have[index])

    def written_items(self):
        # hot-path: compat iterator; the commit phase uses written_arrays
        for index in np.flatnonzero(self._written):
            yield int(index), self._values[index]

    def written_indices(self) -> np.ndarray:
        return np.flatnonzero(self._written)

    def written_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return get_kernels().copy_out_dense(self._values, self._written)

    def export_written(self) -> tuple[np.ndarray, np.ndarray]:
        return self.written_arrays()

    def absorb_written(self, payload: tuple[np.ndarray, np.ndarray]) -> None:
        indices, values = payload
        if len(indices):
            get_kernels().store_dense(
                self._values, self._have, self._written, indices, values
            )

    def store_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        get_kernels().store_dense(
            self._values, self._have, self._written, indices, values
        )

    def load_many(self, indices: np.ndarray) -> tuple[np.ndarray, int]:
        return get_kernels().copy_in_dense(
            self._values, self._have, self.shared.data, indices
        )

    def n_written(self) -> int:
        return int(self._written.sum())

    def reset(self) -> None:
        self._have[:] = False
        self._written[:] = False

    def preload(self) -> int:
        np.copyto(self._values, self.shared.data)
        self._have[:] = True
        return len(self._values)


#: Missing-key sentinel of the sparse view's value map (values may be None).
_ABSENT = object()


class SparsePrivateView(PrivateView):
    """Dict-backed private view; memory proportional to touched elements."""

    __slots__ = ("_values", "_written")

    def __init__(self, shared: SharedArray) -> None:
        super().__init__(shared)
        self._values: dict[int, object] = {}
        self._written: set[int] = set()

    def load(self, index: int) -> tuple[object, bool]:
        # A sentinel lookup, not try/except: a first touch (the copy-in)
        # is common here, and a raised KeyError costs several lookups.
        value = self._values.get(index, _ABSENT)
        if value is not _ABSENT:
            return value, False
        value = self.shared.data[index]
        self._values[index] = value
        return value, True

    def store(self, index: int, value: object) -> None:
        self._values[index] = value
        self._written.add(index)

    def has_local(self, index: int) -> bool:
        return index in self._values

    def written_items(self):
        # hot-path: compat iterator; the commit phase uses written_arrays
        for index in sorted(self._written):
            yield index, self._values[index]

    def written_indices(self) -> np.ndarray:
        return np.fromiter(sorted(self._written), dtype=np.int64, count=len(self._written))

    def written_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return get_kernels().copy_out_sparse(
            self._values, self._written, self.shared.data.dtype
        )

    def export_written(self) -> tuple[np.ndarray, np.ndarray]:
        # Paired index/value arrays, not a per-element dict: pickling one
        # values buffer is what keeps the sparse fork delta path cheap.
        # The dtype cast is safe because an absorbed view is only consumed
        # by the commit phase, whose ``written_arrays`` applies exactly the
        # same element-wise cast a scalar ``data[index] = value`` would.
        return self.written_arrays()

    def absorb_written(self, payload: tuple[np.ndarray, np.ndarray]) -> None:
        indices, values = payload
        get_kernels().store_sparse(self._values, self._written, indices, values)

    def store_many(self, indices: np.ndarray, values: np.ndarray) -> None:
        get_kernels().store_sparse(self._values, self._written, indices, values)

    def load_many(self, indices: np.ndarray) -> tuple[np.ndarray, int]:
        return get_kernels().copy_in_sparse(self._values, self.shared.data, indices)

    def n_written(self) -> int:
        return len(self._written)

    def reset(self) -> None:
        self._values.clear()
        self._written.clear()


#: Arrays at or below this element count default to the dense view.
DENSE_VIEW_THRESHOLD = 1 << 16


def make_private_view(shared: SharedArray, sparse: bool | None = None) -> PrivateView:
    """Choose a private-view implementation for a shared array.

    ``sparse=None`` picks automatically by array size; workloads with known
    access density can force either representation.
    """
    if sparse is None:
        sparse = len(shared) > DENSE_VIEW_THRESHOLD
    return SparsePrivateView(shared) if sparse else DensePrivateView(shared)
