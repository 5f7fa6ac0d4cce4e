"""Shared-memory execution backend: zero-copy data plane, struct-packed pipes.

The fork backend (:mod:`repro.core.backend`) proved the *protocol* -- one
block per processor per stage, deltas merged in block order -- but pays for
it in serialization: every dispatch pickles full memory diffs down the pipe
and every reply pickles dense private views and shadow bit planes back up.
``BENCH_host.json`` showed that cost swamping the loop work (fork at 0.5x
serial on the dense doall, 0.2x on the sparse SPICE loop).

The ``shm`` backend splits the two planes:

**Data plane** -- ``multiprocessing.shared_memory`` segments wrapped in
numpy views, mapped into the workers by fork inheritance:

* every numeric :class:`~repro.machine.memory.SharedArray` of the memory
  image is rebound onto a shared segment, so commits, restores and
  re-initializations performed by the parent are *immediately* visible to
  the workers -- no memory diff broadcast at all;
* each (processor, dense tested array) pair owns shared buffers for its
  :class:`~repro.machine.memory.DensePrivateView` storage and its four
  :class:`~repro.shadow.dense.DenseShadow` bit planes.  The parent's
  processor states are re-pointed at those buffers ("adopted"), the worker
  wraps the same buffers around fresh view/shadow objects, and the write
  happens exactly once, in place -- merging a dense view or shadow is a
  no-op;
* per-iteration timing feedback and the per-block metrics counters travel
  through dedicated scratch/slot segments instead of pickled dicts.

**Control plane** -- the pipe carries ``send_bytes`` frames of fixed-width,
struct-packed records: task descriptors down (stage, position, block range,
hoisted fault plan), per-block outcome headers up (fault/exit state, charge
vector in first-appearance order, span clocks).  Sparse residue -- sparse
view/shadow exports (already index/value arrays), reduction partials,
untested write-backs, marklists, induction values -- rides in one small
pickle blob per block, the existing delta path.

Bit-exactness follows the fork backend's argument: identical worker-side
execution (same :func:`~repro.core.executor.execute_block`, same charge
folding, same checkpoint discipline), identical block-order merge in the
parent, plus the observation that dense private data needs no merge at all
because parent and worker share the storage.  The golden parity matrix
runs the full 32-case suite under ``shm``, fully instrumented.

Segment lifecycle: all segments are created by an :class:`ShmArena` whose
cleanup is registered with ``weakref.finalize`` (atexit-backed); unlink
happens before close so a crash mid-stage -- even a SIGKILLed worker --
leaves nothing behind in ``/dev/shm`` (the stdlib resource tracker remains
the net for a hard-killed parent).  The iteration-time scratch segment is
resized (allocate-new, publish via the dispatch manifest, unlink-old) when
a stage's block length outgrows it.
"""

from __future__ import annotations

import pickle
import struct
import time
import traceback
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.backend import (
    BACKENDS,
    BlockOutcome,
    BlockTask,
    ForkBackend,
    _AccessRecorder,
    _WorkerMachine,
    _shutdown_pool,
    make_all_private_state,
    make_capture_checkpoint,
)
from repro.core import frames
from repro.core.executor import ProcessorState, execute_block, make_plain_state
from repro.errors import BackendError
from repro.kernels import get_kernels
from repro.machine.checkpoint import CheckpointManager
from repro.machine.memory import (
    DENSE_VIEW_THRESHOLD,
    DensePrivateView,
    MemoryImage,
    PrivateView,
    SharedArray,
    make_private_view,
)
from repro.machine.timeline import Category
from repro.obs.metrics import MetricsRegistry
from repro.obs.oplog import get_oplog
from repro.shadow import make_shadow
from repro.shadow.base import ShadowArray
from repro.shadow.dense import DenseShadow
from repro.util.bitset import BitSet
from repro.util.blocks import Block

# -- wire format -------------------------------------------------------------------

_MSG_RUN = 0
_MSG_EXIT = 1

#: One task descriptor: stage, pos, proc, start, stop, slowdown,
#: death_at (-1 = none), flags, residue-blob length.
_TASK = struct.Struct("<qqqqqdqBI")

_TF_DEATH_PERMANENT = 1 << 0
_TF_PRELOAD = 1 << 1
_TF_ALL_PRIVATE = 1 << 2
_TF_LOG_UNTESTED = 1 << 3
_TF_COLLECT_METRICS = 1 << 4
_TF_COLLECT_SPANS = 1 << 5
_TF_PLAIN = 1 << 6

#: One outcome header: pos, exit_iteration (-1 = none), iter_start,
#: iter_count, fault_code, fault_permanent, metrics_in_slots, n_charges,
#: host_start, host_dur, virt_dur, residue-blob length.
_DELTA = struct.Struct("<qqqqBBBBdddI")

#: One charge entry: category index, summed amount.
_CHARGE = struct.Struct("<Bd")

_FAULT_NONE = 0
_FAULT_FAIL_STOP = 1
_FAULT_OTHER = 2  # fault string rides in the residue blob

_CATEGORIES = list(Category)

# -- the shared metrics slot block --------------------------------------------------

#: Per-block metrics travel through a fixed [n_procs, _N_SLOTS] int64 slot
#: block instead of a pickled registry snapshot.  The worker-side registry
#: is only ever touched by ``SpeculativeContext.flush_metrics``, whose
#: instrument set is closed; the presence mask reproduces exactly which
#: instruments the flush created, so the parent can reconstruct a snapshot
#: dict that is byte-for-byte what the fork backend would have shipped.
_SLOT_COUNTERS = (
    "checkpoint.saved.bytes",
    "checkpoint.saved.elements",
    "exec.blocks",
    "faults.blocks_hit",
    "shadow.copy_in.bytes",
    "shadow.copy_in.elements",
    "shadow.marks",
)
_SLOT_HIST = "exec.block_iterations"
_S_HIST_COUNT = len(_SLOT_COUNTERS)
_S_HIST_TOTAL = _S_HIST_COUNT + 1
_S_HIST_MIN = _S_HIST_COUNT + 2
_S_HIST_MAX = _S_HIST_COUNT + 3
_S_MASK = _S_HIST_COUNT + 4
_N_SLOTS = _S_HIST_COUNT + 5
_MASK_HIST = 1 << len(_SLOT_COUNTERS)


def _pack_metrics(snapshot: dict, slots: np.ndarray) -> bool:
    """Encode a worker registry snapshot into one slot row.

    Returns False when the snapshot holds anything outside the fixed
    ``flush_metrics`` instrument set (or non-integral values); the caller
    then ships the snapshot through the residue blob instead.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    if snapshot.get("gauges"):
        return False
    if not set(counters) <= set(_SLOT_COUNTERS):
        return False
    if not set(histograms) <= {_SLOT_HIST}:
        return False
    mask = 0
    slots[:] = 0
    for k, name in enumerate(_SLOT_COUNTERS):
        if name in counters:
            value = counters[name]
            if not isinstance(value, int):
                return False
            mask |= 1 << k
            slots[k] = value
    hist = histograms.get(_SLOT_HIST)
    if hist is not None:
        total = hist["total"]
        if total != int(total):
            return False
        mask |= _MASK_HIST
        slots[_S_HIST_COUNT] = hist["count"]
        slots[_S_HIST_TOTAL] = int(total)
        slots[_S_HIST_MIN] = hist["min"]
        slots[_S_HIST_MAX] = hist["max"]
    slots[_S_MASK] = mask
    return True


def _unpack_metrics(slots: np.ndarray) -> dict:
    """Rebuild the snapshot dict a fork worker would have pickled."""
    mask = int(slots[_S_MASK])
    counters = {
        name: int(slots[k])
        for k, name in enumerate(_SLOT_COUNTERS)
        if mask & (1 << k)
    }
    histograms = {}
    if mask & _MASK_HIST:
        histograms[_SLOT_HIST] = {
            "count": int(slots[_S_HIST_COUNT]),
            "total": float(slots[_S_HIST_TOTAL]),
            "min": int(slots[_S_HIST_MIN]),
            "max": int(slots[_S_HIST_MAX]),
        }
    return {"counters": counters, "gauges": {}, "histograms": histograms}


# -- segment lifecycle --------------------------------------------------------------


def _shmable(data: np.ndarray) -> bool:
    """Whether an array can live in a raw shared-memory segment (numeric
    dtypes only; anything else rides the fork-style residue path)."""
    return data.dtype.kind in "biufc"


def _release_segments(segments: list) -> None:
    """Unlink-then-close every segment; safe to call twice, safe at exit.

    Unlink comes first so the ``/dev/shm`` name disappears even when close
    cannot complete (numpy views may still be alive during interpreter
    shutdown; the mapping itself dies with the process).
    """
    for seg in segments:
        try:
            seg.unlink()
        except Exception:
            pass
    for seg in segments:
        try:
            seg.close()
        except BufferError:
            pass  # exported numpy views still alive; see docstring
        except Exception:
            pass
    segments.clear()


class ShmArena:
    """Creates and owns named shared-memory segments for one backend.

    A bump allocator carves numpy views out of large chunk segments (one
    ``mmap`` per ~megabyte instead of one per buffer); standalone segments
    (the resizable iteration-time scratch) are handed out individually.
    Cleanup is registered with ``weakref.finalize`` so segments are
    unlinked even when :meth:`release` is never reached (atexit-backed);
    the stdlib resource tracker covers a hard-killed parent process.
    """

    CHUNK = 1 << 20
    ALIGN = 64

    def __init__(self) -> None:
        self._segments: list = []  # shared with the finalizer, do not rebind
        self._chunk = None
        self._offset = 0
        self._finalizer = weakref.finalize(self, _release_segments, self._segments)

    def _new_shm(self, nbytes: int):
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self._segments.append(seg)
        return seg

    def new_segment(self, nbytes: int):
        """A dedicated (individually unlinkable) segment."""
        return self._new_shm(nbytes)

    def drop_segment(self, seg) -> None:
        """Unlink one dedicated segment early (scratch resize)."""
        if seg in self._segments:
            self._segments.remove(seg)
        _release_segments([seg])

    def alloc(self, shape, dtype) -> np.ndarray:
        """A zero-filled numpy view inside a chunk segment."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        aligned = -(-nbytes // self.ALIGN) * self.ALIGN
        if self._chunk is None or self._offset + aligned > self._chunk.size:
            self._chunk = self._new_shm(max(self.CHUNK, aligned))
            self._offset = 0
        view = np.frombuffer(
            self._chunk.buf, dtype=dtype, count=nbytes // dtype.itemsize,
            offset=self._offset,
        ).reshape(shape)
        view[...] = 0
        self._offset += aligned
        return view

    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments]

    @property
    def total_bytes(self) -> int:
        """Bytes currently held in ``/dev/shm`` across all live segments."""
        try:
            return sum(seg.size for seg in list(self._segments))
        except (TypeError, ValueError):  # pragma: no cover - torn read
            return 0

    def release(self) -> None:
        """Unlink and close everything now; idempotent."""
        if self._segments:
            get_oplog().log(
                "shm", "arena-released",
                segments=len(self._segments), bytes=self.total_bytes,
            )
        _release_segments(self._segments)

    @property
    def released(self) -> bool:
        return not self._segments


def _attach_segment(name: str):
    """Worker-side attach to a segment created after the fork.

    The forked worker inherits the parent's resource-tracker pipe, so the
    constructor's register lands in the same tracker cache (a set) the
    parent's create already populated -- a harmless no-op.  Do *not*
    unregister here: that would remove the name from the shared cache and
    make the parent's eventual ``unlink`` trip the tracker.  The parent
    owns the lifecycle end to end.
    """
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)


# -- the data-plane layout ----------------------------------------------------------


@dataclass
class _DenseBufs:
    """Shared storage for one (processor, dense tested array) pair."""

    values: np.ndarray
    have: np.ndarray
    written: np.ndarray
    planes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    """BitSet word arrays: write, exposed, any_read, update."""


@dataclass
class _ShmPlan:
    """Everything the parent laid out in shared memory before forking."""

    arena: ShmArena
    image_names: list[str]
    """Memory-image arrays rebound onto shared segments."""
    residue_names: list[str]
    """Memory-image arrays still broadcast fork-style (non-numeric)."""
    dense_names: dict[str, int]
    """Tested arrays with shared dense view/shadow buffers -> length."""
    proc_bufs: dict[int, dict[str, _DenseBufs]]
    metrics_block: np.ndarray
    """int64 [n_procs, _N_SLOTS]; row per block position's processor."""
    scratch: np.ndarray | None = None
    """float64 [n_procs, 2, cap]: per-iteration measured/work times."""
    scratch_cap: int = 0
    scratch_seg: object = None


def _wrap_dense_view(shared: SharedArray, bufs: _DenseBufs) -> DensePrivateView:
    """A DensePrivateView over externally owned (shared) storage."""
    view = DensePrivateView.__new__(DensePrivateView)
    PrivateView.__init__(view, shared)
    view._values = bufs.values
    view._have = bufs.have
    view._written = bufs.written
    return view


def _wrap_dense_shadow(n_elements: int, bufs: _DenseBufs) -> DenseShadow:
    """A DenseShadow whose bit planes live in externally owned storage."""
    shadow = DenseShadow.__new__(DenseShadow)
    ShadowArray.__init__(shadow, n_elements)
    shadow._write = BitSet(n_elements, words=bufs.planes[0])
    shadow._exposed = BitSet(n_elements, words=bufs.planes[1])
    shadow._any_read = BitSet(n_elements, words=bufs.planes[2])
    shadow._update = BitSet(n_elements, words=bufs.planes[3])
    return shadow


def _loop_dense_names(loop, memory: MemoryImage) -> dict[str, int]:
    """Tested arrays that get shared dense buffers, with their lengths
    (same dense/sparse choice :func:`make_private_view` makes)."""
    dense: dict[str, int] = {}
    for spec in loop.arrays:
        if not spec.tested:
            continue
        data = memory[spec.name].data
        sparse = spec.sparse
        if sparse is None:
            sparse = len(data) > DENSE_VIEW_THRESHOLD
        if not sparse and _shmable(data):
            dense[spec.name] = len(data)
    return dense


# -- worker side --------------------------------------------------------------------


class _ShmWorkerContext:
    """Worker state inherited through fork (plus post-fork attachments)."""

    def __init__(
        self, loop, costs, memory, ckpt_names, on_demand, reduction_names,
        n_procs, dense_names, proc_bufs, metrics_block,
    ) -> None:
        self.loop = loop
        self.costs = costs
        self.memory = memory
        self.ckpt_names = ckpt_names
        self.on_demand = on_demand
        self.reduction_names = reduction_names
        self.n_procs = n_procs
        self.dense_names = dense_names
        self.proc_bufs = proc_bufs
        self.metrics_block = metrics_block
        self.scratch: np.ndarray | None = None
        self.scratch_cap = 0
        self._attached: list = []  # keep post-fork segments mapped

    def attach_scratch(self, name: str, cap: int) -> None:
        seg = _attach_segment(name)
        self._attached.append(seg)
        self.scratch = np.frombuffer(
            seg.buf, dtype=np.float64, count=self.n_procs * 2 * cap
        ).reshape(self.n_procs, 2, cap)
        self.scratch_cap = cap

    def make_state(self, proc: int) -> ProcessorState:
        """Fresh per-task state; dense views/shadows wrap the shared
        buffers (no allocation, no copy), the rest is private."""
        views: dict[str, PrivateView] = {}
        shadows: dict[str, ShadowArray] = {}
        bufs = self.proc_bufs[proc]
        for spec in self.loop.arrays:
            if not spec.tested:
                continue
            shared = self.memory[spec.name]
            b = bufs.get(spec.name)
            if b is not None:
                views[spec.name] = _wrap_dense_view(shared, b)
                shadows[spec.name] = _wrap_dense_shadow(len(shared), b)
            else:
                views[spec.name] = make_private_view(shared, sparse=spec.sparse)
                shadows[spec.name] = make_shadow(len(shared), sparse=spec.sparse)
        return ProcessorState(proc=proc, views=views, shadows=shadows)


def _run_shm_task(wctx: _ShmWorkerContext, task: BlockTask) -> bytes:
    """Execute one block; dense results land in shared memory, the rest
    is packed into one outcome header + residue blob."""
    machine = _WorkerMachine(wctx.memory, wctx.costs)
    if task.collect_metrics:
        machine.metrics = MetricsRegistry()
    block = task.block
    recorder = None
    ckpt = None
    if task.all_private:
        state = make_all_private_state(machine, wctx.loop, block.proc)
    elif task.plain:
        # Certified fast path: plain state, direct writes.  Image-array
        # writes land in the shared segments (parent-visible) and residue
        # writes in the fork-private copy; either way the charge-free
        # capture checkpoint records them, so they ship through the
        # uniform untested residue below and roll back locally, keeping
        # worker memory equal to the last parent broadcast.
        state = make_plain_state(block.proc)
        ckpt = make_capture_checkpoint(wctx.memory)
        if task.log_untested:
            recorder = _AccessRecorder()
    else:
        state = wctx.make_state(block.proc)
        if wctx.ckpt_names:
            ckpt = CheckpointManager(wctx.memory, wctx.ckpt_names, wctx.on_demand)
            ckpt.begin_stage()
        if task.log_untested:
            recorder = _AccessRecorder()
        if task.preload:
            state.preload(machine, skip=wctx.reduction_names)
    host_before = time.perf_counter() if task.collect_spans else 0.0
    ctx = execute_block(
        machine, wctx.loop, state, block, ckpt,
        inductions=task.inductions, marklists=task.marklists,
        stage=task.stage, untested_log=recorder,
        slowdown=task.slowdown, death=task.death,
    )
    host_dur = time.perf_counter() - host_before if task.collect_spans else 0.0
    virt_dur = ctx.block_time if task.collect_spans else 0.0

    residue: dict = {}
    metrics_in_slots = 0
    if task.collect_metrics:
        snapshot = machine.metrics.snapshot()
        if _pack_metrics(snapshot, wctx.metrics_block[block.proc]):
            metrics_in_slots = 1
        else:  # pragma: no cover - future instruments outside the fixed set
            residue["metrics"] = snapshot

    fault_code = _FAULT_NONE
    if ctx.fault is not None:
        fault_code = _FAULT_FAIL_STOP if ctx.fault == "fail-stop" else _FAULT_OTHER
        if fault_code == _FAULT_OTHER:
            residue["fault"] = ctx.fault

    iter_start = block.start
    iter_count = 0
    if not task.all_private:
        iter_count = len(state.iter_times)
        scratch = wctx.scratch
        kernels = get_kernels()
        scratch[block.proc, 0, :iter_count] = kernels.pack_range_map(
            state.iter_times, iter_start, iter_count
        )
        scratch[block.proc, 1, :iter_count] = kernels.pack_range_map(
            state.iter_work, iter_start, iter_count
        )
        views = {
            name: view.export_written()
            for name, view in state.views.items()
            if name not in wctx.dense_names and view.n_written()
        }
        if views:
            residue["views"] = views
        shadows = {
            name: shadow.export_marks()
            for name, shadow in state.shadows.items()
            if name not in wctx.dense_names and not shadow.is_clear()
        }
        if shadows:
            residue["shadows"] = shadows
        partials = {name: dict(p) for name, p in state.partials.items() if p}
        if partials:
            residue["partials"] = partials
        if ckpt is not None:
            untested = {}
            for name, indices in ckpt.modified_by([block.proc]).items():
                if indices:
                    idx = np.asarray(indices, dtype=np.int64)
                    untested[name] = (idx, get_kernels().gather(wctx.memory[name].data, idx))
            if untested:
                residue["untested"] = untested
            # Undo this block's untested writes: with the image in shared
            # memory they are already parent-visible, but the merge phase
            # replays them through the parent's checkpoint manager so it
            # learns the true old values -- the memory must hold those old
            # values until the parent's note_write has read them.
            ckpt.restore_failed([block.proc])
        if recorder is not None:
            residue["untested_reads"] = sorted(recorder.reads)
            residue["untested_writes"] = sorted(recorder.writes)
        if task.marklists is not None:
            residue["marklists"] = task.marklists
    inductions = ctx.induction_values()
    if inductions or task.inductions is not None:
        residue["inductions"] = inductions

    blob = frames.pack_residue(residue)
    out = bytearray(
        _DELTA.pack(
            task.pos,
            -1 if ctx.exit_iteration is None else ctx.exit_iteration,
            iter_start,
            iter_count,
            fault_code,
            1 if ctx.fault_permanent else 0,
            metrics_in_slots,
            len(machine.charges),
            host_before,
            host_dur,
            virt_dur,
            len(blob),
        )
    )
    # The block's folded totals, first-appearance order (the same order
    # the fork backend replays, hence the same per_proc dict layout).
    for category, amount in machine.charges.items():
        out += _CHARGE.pack(_CATEGORIES.index(category), amount)
    out += blob
    return bytes(out)


def _parse_dispatch(wctx: _ShmWorkerContext, payload: bytes) -> list[BlockTask]:
    """Decode one dispatch frame; applies manifest + residue updates."""
    off = 1
    (n_manifest,) = struct.unpack_from("<B", payload, off)
    off += 1
    for _ in range(n_manifest):
        cap, name_len = struct.unpack_from("<qH", payload, off)
        off += struct.calcsize("<qH")
        name = payload[off:off + name_len].decode("ascii")
        off += name_len
        wctx.attach_scratch(name, cap)
    (updates_len,) = struct.unpack_from("<I", payload, off)
    off += 4
    if updates_len:
        updates = pickle.loads(payload[off:off + updates_len])
        off += updates_len
        for name, data in updates.items():
            wctx.memory[name].data[:] = data
    (n_tasks,) = struct.unpack_from("<I", payload, off)
    off += 4
    tasks = []
    for _ in range(n_tasks):
        (stage, pos, proc, start, stop, slowdown, death_at, flags, blob_len) = (
            _TASK.unpack_from(payload, off)
        )
        off += _TASK.size
        extras = {}
        if blob_len:
            extras = frames.unpack_task_extras(payload, off, blob_len)
            off += blob_len
        tasks.append(
            BlockTask(
                stage=stage,
                pos=pos,
                block=Block(proc, start, stop),
                inductions=extras.get("inductions"),
                marklists=extras.get("marklists"),
                preload=bool(flags & _TF_PRELOAD),
                all_private=bool(flags & _TF_ALL_PRIVATE),
                log_untested=bool(flags & _TF_LOG_UNTESTED),
                slowdown=slowdown,
                death=(
                    None if death_at < 0
                    else (death_at, bool(flags & _TF_DEATH_PERMANENT))
                ),
                collect_metrics=bool(flags & _TF_COLLECT_METRICS),
                collect_spans=bool(flags & _TF_COLLECT_SPANS),
                plain=bool(flags & _TF_PLAIN),
            )
        )
    return tasks


def _shm_worker_main(conn, wctx: _ShmWorkerContext) -> None:  # pragma: no cover - child
    try:
        while True:
            try:
                payload = conn.recv_bytes()
            except EOFError:
                return
            if not payload or payload[0] == _MSG_EXIT:
                return
            tasks = _parse_dispatch(wctx, payload)
            deltas = [_run_shm_task(wctx, task) for task in tasks]
            reply = bytearray(struct.pack("<BI", 0, len(deltas)))
            for delta in deltas:
                reply += delta
            conn.send_bytes(bytes(reply))
    except (EOFError, KeyboardInterrupt):
        return
    except BaseException:
        tb = traceback.format_exc().encode("utf-8", "replace")
        try:
            conn.send_bytes(struct.pack("<BI", 1, len(tb)) + tb)
        except Exception:
            pass


# -- parsed reply -------------------------------------------------------------------


@dataclass
class _ShmDelta:
    pos: int
    exit_iteration: int | None
    iter_start: int
    iter_count: int
    fault_code: int
    fault_permanent: bool
    metrics_in_slots: bool
    charges: list[tuple[Category, float]]
    host_start: float
    host_dur: float
    virt_dur: float
    residue: dict = field(default_factory=dict)


def _parse_reply(payload: bytes) -> list[_ShmDelta]:
    status, count = struct.unpack_from("<BI", payload, 0)
    off = struct.calcsize("<BI")
    if status != 0:
        raise _ShmWorkerFailure(payload[off:].decode("utf-8", "replace"))
    deltas = []
    for _ in range(count):
        (
            pos, exit_iter, iter_start, iter_count, fault_code,
            fault_permanent, metrics_in_slots, n_charges,
            host_start, host_dur, virt_dur, blob_len,
        ) = _DELTA.unpack_from(payload, off)
        off += _DELTA.size
        charges = []
        for _ in range(n_charges):
            cat_idx, amount = _CHARGE.unpack_from(payload, off)
            off += _CHARGE.size
            charges.append((_CATEGORIES[cat_idx], amount))
        residue = {}
        if blob_len:
            residue = frames.unpack_residue(payload, off, blob_len)
            off += blob_len
        deltas.append(
            _ShmDelta(
                pos=pos,
                exit_iteration=None if exit_iter < 0 else exit_iter,
                iter_start=iter_start,
                iter_count=iter_count,
                fault_code=fault_code,
                fault_permanent=bool(fault_permanent),
                metrics_in_slots=bool(metrics_in_slots),
                charges=charges,
                host_start=host_start,
                host_dur=host_dur,
                virt_dur=virt_dur,
                residue=residue,
            )
        )
    return deltas


class _ShmWorkerFailure(Exception):
    pass


# -- the backend --------------------------------------------------------------------


class ShmBackend(ForkBackend):
    """Forked workers over a shared-memory data plane (see module doc)."""

    name = "shm"

    _worker_target = staticmethod(_shm_worker_main)

    def __init__(self, eng) -> None:
        super().__init__(eng)
        self._plan: _ShmPlan | None = None
        self._adopted: dict[int, ProcessorState] = {}
        self._manifest: list[tuple[str, int]] = []
        self._untested_snapshot: dict[str, np.ndarray] = {}

    # -- setup ---------------------------------------------------------------------

    def _build_plan(self) -> _ShmPlan:
        eng = self.eng
        memory = eng.machine.memory
        arena = ShmArena()
        image_names: list[str] = []
        residue_names: list[str] = []
        for name in memory.names():
            sa = memory[name]
            if _shmable(sa.data):
                view = arena.alloc(sa.data.shape, sa.data.dtype)
                view[:] = sa.data
                sa.data = view  # parent writes are now worker-visible
                image_names.append(name)
            else:
                residue_names.append(name)
        dense_names = _loop_dense_names(eng.loop, memory)
        proc_bufs: dict[int, dict[str, _DenseBufs]] = {}
        for proc in range(eng.n_procs):
            bufs: dict[str, _DenseBufs] = {}
            for name, n in dense_names.items():
                dtype = memory[name].data.dtype
                n_words = (n + 63) // 64
                bufs[name] = _DenseBufs(
                    values=arena.alloc((n,), dtype),
                    have=arena.alloc((n,), bool),
                    written=arena.alloc((n,), bool),
                    planes=tuple(
                        arena.alloc((n_words,), np.uint64) for _ in range(4)
                    ),
                )
            proc_bufs[proc] = bufs
        metrics_block = arena.alloc((eng.n_procs, _N_SLOTS), np.int64)
        return _ShmPlan(
            arena=arena,
            image_names=image_names,
            residue_names=residue_names,
            dense_names=dense_names,
            proc_bufs=proc_bufs,
            metrics_block=metrics_block,
        )

    def _make_wctx(self) -> _ShmWorkerContext:
        eng = self.eng
        self._plan = plan = self._build_plan()
        get_oplog().log(
            "shm", "arena-created",
            segments=len(plan.arena.segment_names()),
            bytes=plan.arena.total_bytes,
        )
        memory = eng.machine.memory
        worker_arrays = []
        for name in memory.names():
            sa = SharedArray.__new__(SharedArray)
            sa.name = name
            # Shared segments are shared with the parent; residue arrays
            # get a fork-private copy kept fresh by the diff broadcast.
            sa.data = (
                memory[name].data
                if name in set(plan.image_names)
                else memory[name].data.copy()
            )
            worker_arrays.append(sa)
        self._last_sync = {
            name: memory[name].data.copy() for name in plan.residue_names
        }
        return _ShmWorkerContext(
            loop=eng.loop,
            costs=eng.machine.costs,
            memory=MemoryImage(worker_arrays),
            ckpt_names=eng.ckpt.names if eng.ckpt is not None else [],
            on_demand=eng.config.on_demand_checkpoint,
            reduction_names=eng.reduction_names,
            n_procs=eng.n_procs,
            dense_names=plan.dense_names,
            proc_bufs=plan.proc_bufs,
            metrics_block=plan.metrics_block,
        )

    def _ensure_scratch(self, cap_needed: int) -> list[tuple[str, int]]:
        """Grow (or first-allocate) the iteration-time scratch; returns the
        manifest entries to publish to the workers this dispatch."""
        plan = self._plan
        if cap_needed <= plan.scratch_cap:
            return []
        cap = 64
        while cap < cap_needed:
            cap *= 2
        nbytes = self.eng.n_procs * 2 * cap * 8
        seg = plan.arena.new_segment(nbytes)
        old = plan.scratch_seg
        plan.scratch = np.frombuffer(
            seg.buf, dtype=np.float64, count=self.eng.n_procs * 2 * cap
        ).reshape(self.eng.n_procs, 2, cap)
        plan.scratch_cap = cap
        plan.scratch_seg = seg
        if old is not None:
            # Workers switch before touching scratch (the manifest rides in
            # front of the tasks in the same frame); existing mappings stay
            # valid after the unlink, the name just vanishes.
            plan.arena.drop_segment(old)
        return [(seg.name, cap)]

    # -- state adoption ---------------------------------------------------------

    def _adopt_states(self, tasks: list[BlockTask]) -> None:
        """Re-point the parent's dense views/shadows at the shared buffers.

        Strategies may recreate processor states between stages (the
        induction recipe does), so adoption is re-checked per dispatch:
        a not-yet-adopted state has its current contents copied into the
        shared buffers (fresh states carry zeros, so this doubles as the
        reset) and its storage slots swapped in place.
        """
        eng = self.eng
        for task in tasks:
            if task.all_private or task.plain:
                # Plain states own no views/shadows to re-point.
                continue
            proc = task.block.proc
            state = eng.states[proc]
            for name, bufs in self._plan.proc_bufs[proc].items():
                view = state.views[name]
                if view._values is not bufs.values:
                    np.copyto(bufs.values, view._values)
                    np.copyto(bufs.have, view._have)
                    np.copyto(bufs.written, view._written)
                    view._values = bufs.values
                    view._have = bufs.have
                    view._written = bufs.written
                shadow = state.shadows[name]
                if shadow.write_bits.words is not bufs.planes[0]:
                    planes = (
                        shadow.write_bits, shadow.exposed_bits,
                        shadow.any_read_bits, shadow.update_bits,
                    )
                    for words, bits in zip(bufs.planes, planes):
                        np.copyto(words, bits.words)
                    n = shadow.n_elements
                    shadow._write = BitSet(n, words=bufs.planes[0])
                    shadow._exposed = BitSet(n, words=bufs.planes[1])
                    shadow._any_read = BitSet(n, words=bufs.planes[2])
                    shadow._update = BitSet(n, words=bufs.planes[3])
            self._adopted[proc] = state

    def _unadopt_states(self) -> None:
        """Move adopted states back onto private heap storage (close time:
        the segments are about to be unlinked and unmapped, and callers may
        keep inspecting the states afterwards)."""
        for proc, state in self._adopted.items():
            bufs_by_name = self._plan.proc_bufs.get(proc, {})
            for name, bufs in bufs_by_name.items():
                view = state.views.get(name)
                if view is not None and view._values is bufs.values:
                    view._values = view._values.copy()
                    view._have = view._have.copy()
                    view._written = view._written.copy()
                shadow = state.shadows.get(name)
                if shadow is not None and shadow.write_bits.words is bufs.planes[0]:
                    shadow._write = shadow._write.copy()
                    shadow._exposed = shadow._exposed.copy()
                    shadow._any_read = shadow._any_read.copy()
                    shadow._update = shadow._update.copy()
        self._adopted.clear()

    # -- dispatch ---------------------------------------------------------------

    def _residue_updates(self) -> dict[str, np.ndarray]:
        memory = self.eng.machine.memory
        updates: dict[str, np.ndarray] = {}
        for name in self._plan.residue_names:
            data = memory[name].data
            last = self._last_sync.get(name)
            if last is None or not np.array_equal(last, data):
                updates[name] = data.copy()
                self._last_sync[name] = updates[name]
        return updates

    def _pack_dispatch(
        self, tasks: list[BlockTask], manifest: list[tuple[str, int]],
        updates: dict[str, np.ndarray],
    ) -> bytes:
        buf = bytearray(struct.pack("<BB", _MSG_RUN, len(manifest)))
        for name, cap in manifest:
            raw = name.encode("ascii")
            buf += struct.pack("<qH", cap, len(raw))
            buf += raw
        blob = (
            pickle.dumps(updates, protocol=pickle.HIGHEST_PROTOCOL)
            if updates else b""
        )
        buf += struct.pack("<I", len(blob))
        buf += blob
        buf += struct.pack("<I", len(tasks))
        for task in tasks:
            extras = {}
            if task.inductions is not None:
                extras["inductions"] = task.inductions
            if task.marklists is not None:
                extras["marklists"] = task.marklists
            task_blob = frames.pack_task_extras(extras)
            flags = 0
            death_at = -1
            if task.death is not None:
                death_at = task.death[0]
                if task.death[1]:
                    flags |= _TF_DEATH_PERMANENT
            if task.preload:
                flags |= _TF_PRELOAD
            if task.all_private:
                flags |= _TF_ALL_PRIVATE
            if task.log_untested:
                flags |= _TF_LOG_UNTESTED
            if task.collect_metrics:
                flags |= _TF_COLLECT_METRICS
            if task.collect_spans:
                flags |= _TF_COLLECT_SPANS
            if task.plain:
                flags |= _TF_PLAIN
            buf += _TASK.pack(
                task.stage, task.pos, task.block.proc,
                task.block.start, task.block.stop,
                task.slowdown, death_at, flags, len(task_blob),
            )
            buf += task_blob
        return bytes(buf)

    # -- supervision hooks -------------------------------------------------------

    def _begin_dispatch(self, tasks: list[BlockTask]) -> None:
        self._adopt_states(tasks)
        self._manifest = self._ensure_scratch(
            max(
                (len(task.block) for task in tasks if not task.all_private),
                default=1,
            )
        )
        self._updates = self._residue_updates()
        self._snapshot_untested(tasks)

    def _snapshot_untested(self, tasks: list[BlockTask]) -> None:
        """Copy the checkpointed (untested) shared arrays at dispatch time.

        Live workers undo their own untested writes before replying
        (``ckpt.restore_failed`` in :func:`_run_shm_task`), so at the
        reply barrier the shared image equals this snapshot *except* for
        dirt left by workers that died mid-share.  Wholesale restore is
        therefore exactly the lost workers' rollback.

        Plain (certified fast path) tasks write *any* image array
        directly -- ``eng.ckpt`` is None on those runs -- so the snapshot
        widens to the whole image whenever the dispatch carries one.
        """
        eng = self.eng
        memory = eng.machine.memory
        if any(task.plain for task in tasks):
            names = list(memory.names())
        else:
            names = eng.ckpt.names if eng.ckpt is not None else []
        self._untested_snapshot = {
            name: memory[name].data.copy() for name in names
        }

    def _send_share(self, k: int, share: list[BlockTask], fresh: bool) -> None:
        _, conn = self._workers[k]
        if fresh:
            # A respawned worker forked off the *current* parent: shared
            # segments arrive live, but its private residue copies date
            # from pool build time and its scratch mapping may name a
            # dropped segment -- resend both in full.
            plan = self._plan
            memory = self.eng.machine.memory
            manifest = (
                [(plan.scratch_seg.name, plan.scratch_cap)]
                if plan.scratch_seg is not None
                else []
            )
            updates = {
                name: memory[name].data.copy() for name in plan.residue_names
            }
        else:
            manifest = self._manifest
            updates = self._updates
        conn.send_bytes(self._pack_dispatch(share, manifest, updates))

    def _recv_share(self, k: int, share: list[BlockTask]):
        _, conn = self._workers[k]
        reply = conn.recv_bytes()
        try:
            return _parse_reply(reply)
        except _ShmWorkerFailure as failure:
            raise BackendError(
                f"{self._share_context(k, share)} raised:\n{failure}",
                loop=self.eng.loop.name,
            ) from None

    def _recover_shared_state(self, procs: list[int]) -> None:
        """Scrub shared state a lost worker may have dirtied mid-share.

        Untested arrays roll back wholesale to the dispatch snapshot (see
        :meth:`_snapshot_untested`).  The lost processors' dense view and
        shadow buffers are zeroed: processor states are clear at dispatch
        time (reset/reinitialize clear them in place, and fresh states
        adopt as zeros), so cleared buffers *are* the dispatch state."""
        memory = self.eng.machine.memory
        for name, data in self._untested_snapshot.items():
            memory[name].data[:] = data
        for proc in sorted(set(procs)):
            for bufs in self._plan.proc_bufs.get(proc, {}).values():
                bufs.values[...] = 0
                bufs.have[...] = False
                bufs.written[...] = False
                for plane in bufs.planes:
                    plane[...] = 0

    # -- merge ------------------------------------------------------------------

    def _merge(self, task: BlockTask, delta: _ShmDelta) -> BlockOutcome:
        """Fold one outcome into the engine, in block-position order.

        Dense private views and shadows need no action -- the worker wrote
        the parent's own (adopted) buffers in place.  Everything else
        mirrors the fork backend's merge exactly.
        """
        eng = self.eng
        machine = eng.machine
        block = task.block
        proc = block.proc
        residue = delta.residue
        for category, amount in delta.charges:
            machine.charge(proc, category, amount)
        if task.collect_metrics:
            if delta.metrics_in_slots:
                snapshot = _unpack_metrics(self._plan.metrics_block[proc])
            else:  # pragma: no cover - residue fallback
                snapshot = residue.get("metrics", {})
            machine.metrics.merge(snapshot)
        fault = None
        if delta.fault_code == _FAULT_FAIL_STOP:
            fault = "fail-stop"
        elif delta.fault_code == _FAULT_OTHER:  # pragma: no cover - defensive
            fault = residue.get("fault", "unknown")
        outcome = BlockOutcome(
            pos=task.pos, block=block, fault=fault,
            fault_permanent=delta.fault_permanent,
            exit_iteration=delta.exit_iteration,
            inductions=residue.get("inductions", {}),
        )
        if task.collect_spans:
            outcome.host_start = eng.rebase_host(delta.host_start)
            outcome.host_dur = delta.host_dur
            outcome.virt_dur = delta.virt_dur
        if task.all_private:
            return outcome
        state = eng.states[proc]
        for name, payload in residue.get("views", {}).items():
            state.views[name].absorb_written(payload)
        for name, payload in residue.get("shadows", {}).items():
            state.shadows[name].absorb_marks(payload)
        for name, partial in residue.get("partials", {}).items():
            state.partials.setdefault(name, {}).update(partial)
        if delta.iter_count:
            span = range(delta.iter_start, delta.iter_start + delta.iter_count)
            scratch = self._plan.scratch
            state.iter_times.update(
                zip(span, scratch[proc, 0, : delta.iter_count].tolist())
            )
            state.iter_work.update(
                zip(span, scratch[proc, 1, : delta.iter_count].tolist())
            )
        state.executed.append(block)
        for name, (indices, values) in residue.get("untested", {}).items():
            if eng.ckpt is not None:
                eng.ckpt.note_write_many(proc, name, indices)
            get_kernels().scatter(machine.memory[name].data, indices, values)
        if eng.untested_log is not None:
            for name, index in residue.get("untested_reads", ()):
                eng.untested_log.note_read(proc, name, index)
            for name, index in residue.get("untested_writes", ()):
                eng.untested_log.note_write(proc, name, index)
        if task.marklists is not None:
            eng.strategy.install_marklists(
                eng, task.pos, block, residue.get("marklists")
            )
        return outcome

    def resource_info(self) -> dict:
        """Fork's pids/inflight plus the arena's ``/dev/shm`` footprint."""
        info = super().resource_info()
        plan = self._plan
        if plan is not None:
            info["shm_bytes"] = plan.arena.total_bytes
        return info

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        if self._workers is not None:
            workers, self._workers = self._workers, None
            get_oplog().log(
                "backend", "pool-closed", backend=self.name,
                workers=len(workers),
            )
            _shutdown_pool(workers, lambda conn: conn.send_bytes(bytes([_MSG_EXIT])))
        # The retained worker context (respawn template) holds numpy views
        # into the segments; drop them before the arena unlinks, or the
        # SharedMemory objects could never close their mappings.
        self._wctx = None
        self._supervisor = None
        self._updates = {}
        self._untested_snapshot = {}
        plan = self._plan
        if plan is None:
            return
        # Move every externally visible numpy view back onto the heap
        # before the segments are unlinked and unmapped: the run result
        # keeps using the memory image, tests keep poking the states.
        self._unadopt_states()
        self._plan = None
        memory = self.eng.machine.memory
        for name in plan.image_names:
            sa = memory[name]
            sa.data = sa.data.copy()
        plan.scratch = None
        plan.metrics_block = None
        plan.proc_bufs = None
        plan.arena.release()


BACKENDS[ShmBackend.name] = ShmBackend
