"""Symbolic access analysis: probe a loop body and reason about its indices.

The certification front-end (:mod:`repro.model.certify`) needs to know a
loop's cross-iteration access pattern *before* committing to the
speculative machinery.  Loop bodies here are opaque Python callables, so
the analysis is observational: run iterations through a traced
:class:`~repro.loopir.context.SequentialContext` (the oracle's own
semantics over a scratch copy of the shared image) and lift the observed
``load``/``store``/``update`` calls into per-site access descriptions.

Two levels of evidence come out of a probe:

* **exact** -- every iteration was executed with sequential semantics, so
  the recorded trace *is* the loop's reference access stream (bodies are
  required to be deterministic functions of the values they load); any
  dependence statement derived from it is a proof for this instantiation.
* **affine** -- only a sample of iterations was executed, but every probed
  iteration issued the same call sequence and each call site's index fits
  ``index = stride * i + offset`` exactly.  The affine model then predicts
  all ``n`` iterations; the prediction is sound *if* the loop really is
  affine (a data-dependent subscript can masquerade as affine on a
  sample), which is why only ``--certify=trust`` acts on it.

The dependence tests themselves (:func:`trace_dependences`,
:func:`affine_dependences`) are exact over their respective inputs: the
trace test follows each element's access history through the recorded
stream (the ``trace_dependences`` primitive of :mod:`repro.kernels`, run
on the probe's columnar log), the affine test intersects the two index
progressions over ``[0, n)`` and checks for a common element touched at
two different iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.kernels import ACCESS_KINDS, READ, get_kernels
from repro.kernels.vector import unique_indices
from repro.loopir.context import AccessRecord, SequentialContext, trace_records
from repro.loopir.loop import SpeculativeLoop
from repro.machine.memory import MemoryImage, SharedArray


def _log_columns(log: list[int]) -> np.ndarray:
    """The flat quad log as a ``(4, m)`` int64 array of columns:
    iteration, kind code, array code, index."""
    flat = np.fromiter(log, dtype=np.int64, count=len(log))
    return flat.reshape(-1, 4).T


@dataclass(frozen=True)
class AffineSite:
    """One call site with an exact affine index fit over the probe."""

    ordinal: int
    kind: str  # 'r' | 'w' | 'u'
    array: str
    stride: int
    offset: int


@dataclass
class ProbeResult:
    """What one probe of a loop observed."""

    n: int
    iterations: list[int]
    full: bool
    """Every iteration in ``[0, n)`` was executed with sequential
    semantics (the trace is exact evidence)."""
    log: list[int]
    """The columnar access log: flat ``(iteration, kind code, array code,
    index)`` quads in execution order (see
    :class:`~repro.loopir.context.SequentialContext`)."""
    array_names: list[str]
    """Array code -> array name."""
    exit_at: int | None
    uniform: bool | None
    """Every probed iteration issued the same (kind, array) call sequence;
    ``None`` on full probes, which need no affine fit."""
    sites: list[AffineSite] | None
    """Exact affine fits per call site; ``None`` when the probe was full,
    was not uniform, or some site's indices do not fit
    ``stride * i + offset``."""
    scratch: MemoryImage
    """The scratch image the probe ran on, as the probe left it: after a
    full probe, the loop's final memory."""
    work_log: list
    """Every ``ctx.work(units)`` call as a flat ``(iteration, units)``
    pair, in execution order."""

    @property
    def records(self) -> list[AccessRecord]:
        """The trace as :class:`AccessRecord` objects, built on demand
        (tests and inspectors; the certifier reads the columns)."""
        return trace_records(self.log, self.array_names)

    @cached_property
    def columns(self) -> np.ndarray:
        """The log as ``(4, m)`` int64 columns (see :func:`_log_columns`)."""
        return _log_columns(self.log)

    def dependences(self) -> DependenceSummary:
        """Exact dependence summary of the recorded trace (meaningful as a
        proof only for a full probe)."""
        return _trace_summary(self.columns)

    def land(self, memory: MemoryImage) -> None:
        """Copy every element the probe wrote from ``scratch`` into
        ``memory``, in place: after a full probe, ``memory`` then holds
        what running the loop on it would have left."""
        _, kind, array, index = self.columns
        writes = kind != READ
        arrays, indices = array[writes], index[writes]
        # hot-path: per written array, one scatter each
        for code in unique_indices(arrays).tolist():
            name = self.array_names[code]
            where = indices[arrays == code]
            memory[name].data[where] = self.scratch[name].data[where]


def probe_loop(
    loop: SpeculativeLoop,
    memory: MemoryImage | None = None,
    limit: int = 4096,
    sample: int = 48,
) -> ProbeResult:
    """Execute a full or sampled probe of ``loop`` over scratch memory.

    ``memory`` is the image the real run would start from (defaults to the
    loop's own materialization); the probe works on a deep copy and never
    mutates it.  With ``n <= limit`` every iteration runs in order
    (sequential semantics, exact evidence); otherwise ``sample`` evenly
    spaced iterations run against the initial image (address observation
    only -- loaded values may differ from a true sequential execution, so
    the result is only usable through the affine model).
    """
    n = loop.n_iterations
    if memory is None:
        # A fresh materialization is already a private copy.
        scratch = loop.materialize()
    else:
        scratch = MemoryImage(
            SharedArray(name, memory[name].data) for name in memory.names()
        )
    full = n <= limit
    if full:
        iterations = list(range(n))
    else:
        step = max(1, n // max(2, sample))
        iterations = sorted(set(range(0, n, step)) | {n - 1})
    ctx = SequentialContext.for_loop(loop, scratch, trace=True)
    exit_at = None
    # hot-path: ctx.run executes the iterations; this only notes the exit
    for i, _ in ctx.run(loop, iterations, stop_at_exit=full):
        if ctx.exited and exit_at is None:
            exit_at = i
    uniform, sites = None, None
    if not full:
        uniform, sites = _fit_sites(
            _log_columns(ctx.log), ctx.array_names, iterations, exit_at
        )
    return ProbeResult(
        n=n,
        iterations=iterations,
        full=full,
        log=ctx.log,
        array_names=ctx.array_names,
        exit_at=exit_at,
        uniform=uniform,
        sites=sites,
        scratch=scratch,
        work_log=ctx.work_log,
    )


def _fit_sites(
    columns: np.ndarray,
    array_names: list[str],
    iterations: list[int],
    exit_at: int | None,
) -> tuple[bool, list[AffineSite] | None]:
    """Group the trace by call ordinal and fit each site affinely.

    The log is iteration-ordered, so with a uniform signature of ``c``
    calls the executed iterations' accesses form an ``(E, c)`` grid whose
    columns are the call sites.
    """
    executed = np.asarray(
        [i for i in iterations if exit_at is None or i <= exit_at],
        dtype=np.int64,
    )
    if not executed.size:
        return True, []
    it, kind, array, index = columns
    lo = np.searchsorted(it, executed, side="left")
    counts = np.searchsorted(it, executed, side="right") - lo
    calls = int(counts[0])
    if (counts != calls).any():
        return False, None
    # Equal counts and an iteration-ordered log: the executed iterations'
    # accesses are the first ``E * calls`` entries.
    grid = slice(0, executed.size * calls)
    kinds = kind[grid].reshape(executed.size, calls)
    arrays = array[grid].reshape(executed.size, calls)
    if (kinds != kinds[0]).any() or (arrays != arrays[0]).any():
        return False, None
    if executed.size < 2:
        # One data point cannot pin a stride; callers treat a single-
        # iteration loop as trivially independent before fitting.
        return True, None
    x = index[grid].reshape(executed.size, calls)
    i0, i1 = int(executed[0]), int(executed[1])
    dx = x[1] - x[0]
    if (dx % (i1 - i0)).any():
        return True, None
    stride = dx // (i1 - i0)
    offset = x[0] - stride * i0
    if (x != executed[:, None] * stride + offset).any():
        return True, None
    return True, [
        AffineSite(o, ACCESS_KINDS[k], array_names[a], s, off)
        for o, (k, a, s, off) in enumerate(
            zip(kinds[0].tolist(), arrays[0].tolist(), stride.tolist(),
                offset.tolist())
        )
    ]


@dataclass
class DependenceSummary:
    """Cross-iteration dependence facts extracted from a probe."""

    conflicts: int
    """Element-sharing (iteration, iteration) pairs with at least one
    write -- zero means provably independent (DOALL) over the evidence."""
    flow_edges: list[tuple[int, int]]
    """``(source, sink)`` iteration pairs where the sink reads a value the
    source wrote (true dependences; what sequentializes a loop)."""
    critical_path: int
    """Longest flow-dependence chain, in iterations (1 = no chain)."""
    max_distance: int
    sink_iterations: int
    """Distinct iterations that are the sink of at least one dependence."""


def _trace_summary(columns: np.ndarray) -> DependenceSummary:
    conflicts, edges, critical, max_distance, sinks = (
        get_kernels().trace_dependences(*columns)
    )
    return DependenceSummary(
        conflicts=conflicts,
        flow_edges=edges,
        critical_path=critical,
        max_distance=max_distance,
        sink_iterations=sinks,
    )


def trace_dependences(records: list[AccessRecord]) -> DependenceSummary:
    """Exact dependence extraction from a full sequential trace.

    Scans each element's access history in iteration order (the
    ``trace_dependences`` kernel of :mod:`repro.kernels`).  Reduction
    (``u``) accesses commute with each other, so u-u sharing is not a
    conflict; any r/w access mixing with another iteration's write (or
    update) is.
    """
    codes: dict[str, int] = {}
    log = [
        field
        for rec in records
        for field in (
            rec.iteration,
            ACCESS_KINDS.index(rec.kind),
            codes.setdefault(rec.array, len(codes)),
            rec.index,
        )
    ]
    return _trace_summary(_log_columns(log))


def _site_indices(site: AffineSite, n: int) -> np.ndarray:
    return site.stride * np.arange(n, dtype=np.int64) + site.offset


def _meeting_iterations(a: AffineSite, b: AffineSite, n: int):
    """``(i_a, i_b)``: every pair of iterations in ``[0, n)`` at which two
    non-zero-stride sites touch the same element.  ``a`` is injective, so
    each of ``b``'s elements meets at most one of its iterations, found by
    solving ``a.stride * i_a + a.offset = element`` exactly."""
    num = _site_indices(b, n) - a.offset
    ib = np.flatnonzero(num % a.stride == 0)
    ia = num[ib] // a.stride
    inside = (0 <= ia) & (ia < n)
    return ia[inside], ib[inside]


def affine_dependences(sites: list[AffineSite], n: int) -> DependenceSummary:
    """Exact dependence test over affine sites, evaluated on ``[0, n)``.

    For every (write, any) site pair on the same array, intersect the two
    index progressions and look for an element touched at two *different*
    iterations.  Progressions with non-zero stride are injective, so the
    intersection is a vectorized exact computation, not a heuristic.
    """
    conflicts = 0
    max_distance = 0
    sinks: list[np.ndarray] = []
    flow_srcs: list[np.ndarray] = []
    flow_dsts: list[np.ndarray] = []

    def note_pair(i_src: int, i_dst: int, is_flow: bool) -> None:
        nonlocal conflicts, max_distance
        conflicts += 1
        src, dst = min(i_src, i_dst), max(i_src, i_dst)
        sinks.append(np.array([dst], dtype=np.int64))
        max_distance = max(max_distance, dst - src)
        if is_flow and i_src < i_dst:
            flow_srcs.append(np.array([i_src], dtype=np.int64))
            flow_dsts.append(np.array([i_dst], dtype=np.int64))

    # hot-path: the per-site-pair affine test (sites, not elements)
    for a in sites:
        if a.kind not in ("w", "u"):
            continue
        # hot-path: inner half of the per-site-pair affine test
        for b in sites:
            if b.array != a.array:
                continue
            if a.kind == "u" and b.kind == "u":
                continue  # commuting reduction updates
            if b.ordinal < a.ordinal and b.kind in ("w", "u"):
                continue  # the symmetric pass already covered this pair
            is_flow = b.kind == "r"
            if a.stride == 0 and b.stride == 0:
                if a.offset == b.offset and n >= 2:
                    note_pair(0, 1, is_flow)
                continue
            if a.stride == 0 or b.stride == 0:
                lin = b if a.stride == 0 else a
                const = a if a.stride == 0 else b
                num = const.offset - lin.offset
                if n < 2 or num % lin.stride or not 0 <= num // lin.stride < n:
                    continue
                j = num // lin.stride
                other = 0 if j != 0 else 1
                i_a = j if lin is a else other
                i_b = j if lin is b else other
                # Pick the constant site's witness iteration so a real flow
                # (write-then-read in iteration order) is reported when one
                # exists anywhere in [0, n).
                if is_flow and lin is b:
                    i_a = 0 if j > 0 else 1
                elif is_flow and lin is a:
                    i_b = n - 1 if j < n - 1 else 0
                note_pair(i_a, i_b, is_flow)
                continue
            ia, ib = _meeting_iterations(a, b, n)
            diff = ia != ib
            if not np.any(diff):
                continue
            srcs = np.minimum(ia[diff], ib[diff])
            dsts = np.maximum(ia[diff], ib[diff])
            conflicts += int(diff.sum())
            sinks.append(dsts)
            max_distance = max(max_distance, int((dsts - srcs).max()))
            if is_flow:
                reads_after = ib[diff] > ia[diff]
                flow_srcs.append(ia[diff][reads_after])
                flow_dsts.append(ib[diff][reads_after])
    edges: list[tuple[int, int]] = []
    if flow_srcs:
        # Pairs sorted by (source, sink), duplicates dropped: both lie in
        # [0, n), so ``source * n + sink`` orders and identifies a pair.
        keys = unique_indices(np.concatenate(flow_srcs) * n + np.concatenate(flow_dsts))
        edges = list(zip((keys // n).tolist(), (keys % n).tolist()))
    depth: dict[int, int] = {}
    # hot-path: critical-path walk over the deduplicated flow edges, in
    # source order (every in-edge of an iteration comes from an earlier one)
    for src, sink in edges:
        depth[sink] = max(depth.get(sink, 0), depth.get(src, 1) + 1)
    return DependenceSummary(
        conflicts=conflicts,
        flow_edges=edges,
        critical_path=max(depth.values(), default=1),
        max_distance=max_distance,
        sink_iterations=unique_indices(np.concatenate(sinks)).size if sinks else 0,
    )
