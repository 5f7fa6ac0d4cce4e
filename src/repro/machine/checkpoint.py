"""Checkpoint / restore of untested shared state.

Arrays the compiler *can* analyze (array ``B`` in the paper's Fig. 1) are
written in place during speculation, so before each stage their old contents
must be saved; if some processors fail, the sections they modified are
restored before re-execution.  Two flavors are implemented:

* **Full checkpointing** copies every checkpointed array once per stage --
  simple, but its cost is proportional to total state size, which the paper
  identifies as the dominant overhead for loops with large, conditionally
  modified state (NLFILT).
* **On-demand checkpointing** saves an element's old value only on the first
  write to it in the stage.  Fig. 12(a) shows this is the single most
  important optimization for NLFILT; the cost becomes proportional to the
  state actually modified.

On-demand state is kept per array as flags and buffers, never per element
in a Python object: a first-touch flag per element (shared by every
processor, so the first touch wins) and, per fixed-size chunk of
:data:`CHUNK` elements, a copy of the chunk's old values, taken the first
time any element of the chunk is written in the stage (see
:class:`FirstTouch`).  The virtual-time model charges per element saved;
the chunk copy is only how the host keeps the old values.

Restoration only needs to roll back elements first-touched by *failed*
processors.  The statically-analyzable contract means committing and failed
processors never write the same untested element in one stage; the manager
verifies this and raises :class:`~repro.errors.CheckpointError` on violation
(that would indicate the workload mis-declared a tested array as untested).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.errors import CheckpointError
from repro.kernels import get_kernels
from repro.machine.memory import MemoryImage

#: Old values are copied this many elements at a time (a power of two).
CHUNK_SHIFT = 6
CHUNK = 1 << CHUNK_SHIFT


class FirstTouch:
    """On-demand checkpoint state of one array of ``n`` elements.

    * ``saved``: a memoryview of the per-element first-touch flags.  A
      writer tests ``saved[index]``; on a first touch it sets the flag,
      calls :meth:`save_chunk` unless ``copied`` says the element's chunk
      is already saved (or the index is negative), then writes.
    * ``copied``: a memoryview of the per-chunk flags.
    * The chunk copies live in a slab, one row per chunk copied this
      stage, in copy order, with a chunk -> row map.  The slab grows by
      doubling and is reused across stages, so memory follows the chunks
      a stage touches, not the array's size.

    An element's old value is its chunk's copy: any write to an element
    first copies its chunk, and a rolled-back element is restored to
    exactly that copy, so the copy stays its old value for the stage.
    """

    __slots__ = (
        "data", "n", "_flags", "saved", "_chunk_flags", "copied",
        "_slots", "_chunks", "_slab", "_used",
    )

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        n = self.n = len(data)
        n_chunks = -(-n // CHUNK)
        # Padded to whole chunks so a stage's flags clear chunk-wise; the
        # writers' view stops at ``n``, so out-of-range indices still raise.
        self._flags = np.zeros(n_chunks * CHUNK, dtype=bool)
        self.saved = memoryview(self._flags[:n])
        self._chunk_flags = np.zeros(n_chunks, dtype=bool)
        self.copied = memoryview(self._chunk_flags)
        self._slots = np.empty(n_chunks, dtype=np.int64)
        self._chunks = np.empty(0, dtype=np.int64)
        self._slab = np.empty((0, CHUNK), dtype=data.dtype)
        self._used = 0

    def clear(self) -> None:
        """Forget the stage: every flag down, no chunk copied."""
        if self._used:
            chunks = self._chunks[: self._used]
            self._flags.reshape(-1, CHUNK)[chunks] = False
            self._chunk_flags[chunks] = False
            self._used = 0

    def _rows(self, m: int) -> int:
        """Make room for ``m`` more chunk copies; return the first row."""
        used = self._used
        if used + m > len(self._slab):
            size = max(2 * len(self._slab), used + m, 4)
            slab = np.empty((size, CHUNK), dtype=self._slab.dtype)
            slab[:used] = self._slab[:used]
            chunks = np.empty(size, dtype=np.int64)
            chunks[:used] = self._chunks[:used]
            self._slab, self._chunks = slab, chunks
        self._used = used + m
        return used

    def save_chunk(self, index: int) -> None:
        """Copy the chunk holding element ``index`` (numpy-style negative
        indices count from the end) unless it is already saved."""
        if index < 0:
            index += self.n
        chunk = index >> CHUNK_SHIFT
        if self.copied[chunk]:
            return
        row = self._rows(1)
        lo = chunk << CHUNK_SHIFT
        values = self.data[lo:lo + CHUNK]
        if len(values) == CHUNK:
            self._slab[row] = values
        else:  # the last, partial chunk
            self._slab[row, : len(values)] = values
        self._slots[chunk] = row
        self._chunks[row] = chunk
        self.copied[chunk] = True

    def save_many(self, indices: np.ndarray) -> int:
        """First-touch every distinct element of ``indices`` (sorted and
        unique) not saved yet; return how many were new.  Raises
        :class:`IndexError`, saving nothing, if one is out of range."""
        if indices[0] < 0 or indices[-1] >= self.n:
            bad = indices[0] if indices[0] < 0 else indices[-1]
            raise IndexError(f"element {bad} out of range [0, {self.n})")
        new = indices[~self._flags[indices]]
        if not new.size:
            return 0
        chunks = get_kernels().unique_indices(new >> CHUNK_SHIFT)
        chunks = chunks[~self._chunk_flags[chunks]]
        if chunks.size:
            rows = np.arange(self._rows(len(chunks)), self._used)
            offsets = (chunks[:, None] << CHUNK_SHIFT) + np.arange(CHUNK)
            # A last partial chunk copies its final element into its
            # padding: those slab cells are never read back.
            np.minimum(offsets, self.n - 1, out=offsets)
            self._slab[rows] = get_kernels().gather(
                self.data, offsets.ravel()
            ).reshape(-1, CHUNK)
            self._slots[chunks] = rows
            self._chunks[rows] = chunks
            self._chunk_flags[chunks] = True
        self._flags[new] = True
        return len(new)

    def old_values(self, indices: np.ndarray) -> np.ndarray:
        """The saved old values of ``indices`` (sorted, unique,
        non-negative, every one first-touched this stage)."""
        rows = self._slots[indices >> CHUNK_SHIFT]
        return get_kernels().gather(
            self._slab.reshape(-1), (rows << CHUNK_SHIFT) + (indices & (CHUNK - 1))
        )

    def drop(self, indices: np.ndarray) -> None:
        """Lower the first-touch flags of ``indices``: their next write is
        a first touch again (their chunk copies stay)."""
        self._flags[indices] = False

    def n_saved(self) -> int:
        """Elements flagged as saved now."""
        if not self._used:
            return 0
        chunks = self._chunks[: self._used]
        return int(np.count_nonzero(self._flags.reshape(-1, CHUNK)[chunks]))


class CheckpointManager:
    """Tracks old values of untested arrays for one speculative stage.

    Writes are recorded as per-(array, processor) index columns: the
    executor appends each untested write's index to its processor's column
    (see :meth:`write_handles`) and, in on-demand mode, saves the element
    on its first touch, before the write lands, through the array's
    :class:`FirstTouch` flags and chunk copies.  Full mode reads old values
    from its stage-begin copy instead.  Rollback, the contract check and
    the backends' write capture are kernel passes over the columns.

    ``charge_saves=False`` makes a *capture* checkpoint: it records old
    values and writers exactly the same way, but its first-touch saves
    cost no virtual time (the backends' bookkeeping for certified plain
    tasks, whose parent-side run has no checkpoint at all).
    """

    def __init__(
        self,
        memory: MemoryImage,
        names: Iterable[str],
        on_demand: bool,
        charge_saves: bool = True,
    ) -> None:
        self._memory = memory
        self._names = sorted(set(names))
        self.on_demand = bool(on_demand)
        self.charge_saves = bool(charge_saves) and self.on_demand
        """Whether a first-touch save is charged (on-demand mode only: a
        full checkpoint is paid for once, at stage begin)."""
        # name -> first-touch state (on-demand only), kept across stages.
        self._touch: dict[str, FirstTouch] = {}
        self._full: dict[str, np.ndarray] = {}
        # name -> proc -> indices the proc wrote this stage, in write order.
        self._columns: dict[str, dict[int, list[int]]] = {}
        # proc -> its write handles (see write_handles), built once a stage.
        self._handles: dict[int, dict[str, tuple]] = {}
        self._full_elements = 0
        self._dropped_saves = 0
        self.last_restored_bytes = 0
        self._stage_active = False

    @property
    def names(self) -> list[str]:
        return list(self._names)

    @property
    def elements_checkpointed(self) -> int:
        """Elements saved this stage: the whole state in full mode, every
        first-touch save (rolled-back ones included) when on-demand."""
        if not self.on_demand:
            return self._full_elements
        return self._dropped_saves + sum(t.n_saved() for t in self._touch.values())

    def begin_stage(self) -> int:
        """Start a stage; returns the number of elements checkpointed now
        (full mode copies everything up front, on-demand copies nothing)."""
        self._columns = {name: {} for name in self._names}
        self._handles = {}
        self._full = {}
        self._full_elements = 0
        self._dropped_saves = 0
        self._stage_active = True
        for name in self._names:  # hot-path: per array, once a stage
            data = self._memory[name].data
            if not self.on_demand:
                self._full[name] = data.copy()
                self._full_elements += len(data)
                continue
            touch = self._touch.get(name)
            if touch is None or touch.data is not data:
                self._touch[name] = FirstTouch(data)
            else:
                touch.clear()
        return self._full_elements

    def _require_open(self, what: str) -> None:
        if not self._stage_active:
            raise CheckpointError(
                f"{what} before begin_stage(): the checkpoint "
                "epoch has not been opened; drivers must call begin_stage() "
                "once per speculative stage before any untested write"
            )

    def _check_writable(self, name: str) -> None:
        """Raise unless a stage is open and ``name`` is checkpointed."""
        self._require_open(f"note_write({name!r})")
        if name not in self._columns:
            raise CheckpointError(f"array {name!r} is not under checkpoint")

    def write_handles(self, proc: int) -> dict[str, tuple]:
        """``proc``'s per-array ``(column, touch)`` write handles.

        ``column`` is ``proc``'s own index column and ``touch`` the
        array's :class:`FirstTouch` (``None`` in full mode), shared by
        every processor.  A writer first-touches the index through
        ``touch`` (see there), appends it to ``column``, then writes --
        what :meth:`note_write` does, without a call per write.  Built
        once per (stage, processor); restoring the processor invalidates
        them.
        """
        handles = self._handles.get(proc)
        if handles is None:
            self._require_open(f"write_handles({proc})")
            handles = {
                name: (
                    self._columns[name].setdefault(proc, []),
                    self._touch.get(name),
                )
                for name in self._names
            }
            self._handles[proc] = handles
        return handles

    def note_write(self, proc: int, name: str, index: int) -> int:
        """Record a write to an untested element.

        Returns the number of elements newly checkpointed by this call
        that cost virtual time (1 for a charged on-demand first touch,
        else 0) so the caller can charge it.
        """
        self._check_writable(name)
        column, touch = self.write_handles(proc)[name]
        first = touch is not None and not touch.saved[index]
        column.append(index)
        if not first:
            return 0
        touch.saved[index] = True
        touch.save_chunk(index)
        return 1 if self.charge_saves else 0

    def note_write_many(self, proc: int, name: str, indices: np.ndarray) -> int:
        """Batch :meth:`note_write` over an index array (duplicates allowed).

        Returns the number of charged first touches (the distinct indices
        not saved before), so the caller charges exactly what per-element
        calls would have charged.
        """
        self._check_writable(name)
        idx = np.asarray(indices, dtype=np.int64)
        column, touch = self.write_handles(proc)[name]
        new = 0
        if touch is not None and idx.size:
            new = touch.save_many(self._normalized(name, idx))
        column.extend(idx.tolist())
        return new if self.charge_saves else 0

    def _normalized(self, name: str, indices: np.ndarray) -> np.ndarray:
        """Sorted unique ``indices`` of ``name``, numpy-style negative
        indices mapped onto the elements they name."""
        idx = get_kernels().unique_indices(indices)
        if idx.size and idx[0] < 0:
            n = len(self._memory[name].data)
            idx = get_kernels().unique_indices(np.where(idx < 0, idx + n, idx))
        return idx

    def _written(self, name: str, procs) -> np.ndarray:
        """Sorted unique indices of ``name`` written by any of ``procs``."""
        columns = self._columns[name]
        parts = [columns[p] for p in procs if columns.get(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return self._normalized(
            name, np.concatenate([np.asarray(c, dtype=np.int64) for c in parts])
        )

    def restore_failed(self, failed_procs: Iterable[int]) -> int:
        """Roll back elements written by failed processors.

        Returns the element count restored (for virtual-time charging).
        Raises if a committing and a failed processor both wrote the same
        untested element (contract violation).
        """
        failed = set(failed_procs)
        kernels = get_kernels()
        restored = 0
        self.last_restored_bytes = 0
        for proc in failed:  # hot-path: per failed processor
            self._handles.pop(proc, None)
        for name in self._names:  # hot-path: per array; kernels inside
            columns = self._columns[name]
            dirty = self._written(name, failed)
            if not dirty.size:
                continue
            committing = [p for p in columns if p not in failed]
            clash = kernels.intersect_indices(dirty, self._written(name, committing))
            if clash.size:
                index = int(clash[0])
                raise CheckpointError(
                    f"untested array {name!r} element {index} written by both "
                    f"committing procs "
                    f"{sorted(p for p in committing if index in columns[p])} and "
                    f"failed procs "
                    f"{sorted(p for p in failed if index in columns.get(p, ()))}; "
                    "declare it tested instead"
                )
            data = self._memory[name].data
            if self.on_demand:
                # Failed procs will re-write: dropping their saves makes
                # the next first touch re-checkpoint the restored value.
                touch = self._touch[name]
                old = touch.old_values(dirty)
                touch.drop(dirty)
                self._dropped_saves += len(dirty)
            else:
                old = kernels.gather(self._full[name], dirty)
            kernels.scatter(data, dirty, old)
            restored += len(dirty)
            self.last_restored_bytes += len(dirty) * data.dtype.itemsize
            for proc in failed:  # hot-path: per failed processor
                columns.pop(proc, None)
        return restored

    def modified_by(self, procs: Iterable[int]) -> dict[str, list[int]]:
        """Indices written by the given processors, per array (diagnostics)."""
        wanted = list(procs)
        return {name: self._written(name, wanted).tolist() for name in self._names}

    def export_writes(self, proc: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """``name -> (indices, current values)`` of every checkpointed array
        ``proc`` wrote, indices sorted (a worker's untested-write delta)."""
        out = {}
        for name in self._names:  # hot-path: per array; one gather each
            idx = self._written(name, (proc,))
            if idx.size:
                out[name] = (idx, get_kernels().gather(self._memory[name].data, idx))
        return out


def verify_untested_isolation(
    reads: Mapping[str, Mapping[int, set[int]]],
    writes: Mapping[str, Mapping[int, set[int]]],
) -> list[str]:
    """Debug validator for the statically-analyzable contract.

    Given per-array maps ``index -> procs that read/wrote it`` for one
    stage's *untested* arrays, return a description of every cross-processor
    read-after-write pair (a workload declaring such an array untested is
    unsound and should mark it tested instead).
    """
    problems: list[str] = []
    # hot-path: the self-check validator (off by default) walks its own
    # per-stage log once per stage, never the access path
    for name, write_map in writes.items():
        read_map = reads.get(name, {})
        for index, writer_procs in write_map.items():  # hot-path: see above
            reader_procs = read_map.get(index, set())
            foreign = {r for r in reader_procs if any(w != r for w in writer_procs)}
            if foreign and len(writer_procs | reader_procs) > 1:
                problems.append(
                    f"{name}[{index}]: written by procs {sorted(writer_procs)}, "
                    f"read by procs {sorted(reader_procs)}"
                )
    return problems
