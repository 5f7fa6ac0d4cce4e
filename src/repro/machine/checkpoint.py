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


class CheckpointManager:
    """Tracks old values of untested arrays for one speculative stage.

    Writes are recorded as per-(array, processor) index columns: the
    executor appends each untested write's index to its processor's column
    (see :meth:`write_handles`) and saves the element's old value eagerly
    on its first touch, before the write lands.  Rollback, the contract
    check and the backends' write capture are kernel passes over those
    columns.

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
        # name -> index -> old value; first touch wins.  On-demand only:
        # full mode reads old values from the stage-begin copy.
        self._saved: dict[str, dict[int, object]] = {}
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
        return self._dropped_saves + sum(len(s) for s in self._saved.values())

    def begin_stage(self) -> int:
        """Start a stage; returns the number of elements checkpointed now
        (full mode copies everything up front, on-demand copies nothing)."""
        self._saved = {name: {} for name in self._names} if self.on_demand else {}
        self._columns = {name: {} for name in self._names}
        self._handles = {}
        self._full = {}
        self._full_elements = 0
        self._dropped_saves = 0
        self._stage_active = True
        if not self.on_demand:
            for name in self._names:  # hot-path: per array, once a stage
                data = self._memory[name].data
                self._full[name] = data.copy()
                self._full_elements += len(data)
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
        """``proc``'s per-array ``(saved, column, shared)`` write handles.

        ``saved`` maps index -> old value (``None`` in full mode), shared
        by every processor; ``column`` is ``proc``'s own index column and
        ``shared`` the checkpointed :class:`SharedArray`.  A writer saves
        ``shared.data[index]`` into ``saved`` if the index is not there
        yet, appends the index to ``column``, then writes -- what
        :meth:`note_write` does, without a call per write.  Built once per
        (stage, processor); restoring the processor invalidates them.
        """
        handles = self._handles.get(proc)
        if handles is None:
            self._require_open(f"write_handles({proc})")
            handles = {
                name: (
                    self._saved.get(name),
                    self._columns[name].setdefault(proc, []),
                    self._memory[name],
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
        saved, column, shared = self.write_handles(proc)[name]
        column.append(index)
        if saved is None or index in saved:
            return 0
        saved[index] = shared.data[index]
        return 1 if self.charge_saves else 0

    def note_write_many(self, proc: int, name: str, indices: np.ndarray) -> int:
        """Batch :meth:`note_write` over an index array (duplicates allowed).

        Returns the number of charged first touches (the distinct indices
        not saved before), so the caller charges exactly what per-element
        calls would have charged.
        """
        self._check_writable(name)
        idx = np.asarray(indices, dtype=np.int64)
        saved, column, shared = self.write_handles(proc)[name]
        column.extend(idx.tolist())
        if saved is None or not idx.size:
            return 0
        new = [i for i in get_kernels().unique_indices(idx).tolist() if i not in saved]
        if new:
            old = get_kernels().gather(
                shared.data, np.fromiter(new, dtype=np.int64, count=len(new))
            )
            saved.update(zip(new, old))
        return len(new) if self.charge_saves else 0

    def _written(self, name: str, procs) -> np.ndarray:
        """Sorted unique indices of ``name`` written by any of ``procs``."""
        columns = self._columns[name]
        parts = [columns[p] for p in procs if columns.get(p)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return get_kernels().unique_indices(
            np.concatenate([np.asarray(c, dtype=np.int64) for c in parts])
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
                saved = self._saved[name]
                old = kernels.pack_values(
                    list(map(saved.pop, dirty.tolist())), data.dtype
                )
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
