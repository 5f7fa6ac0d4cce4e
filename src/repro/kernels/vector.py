"""Numpy-vectorized hot-path kernels (the production default).

Same API and bit-identical semantics as the scalar reference
(:mod:`repro.kernels.scalar` -- see its docstring for the conventions);
each primitive here replaces the reference's per-element Python loop with
a constant number of numpy array operations.  There are two exceptions.
The dict-backed sparse-view primitives: Python containers admit no true
vectorization, so those kernels batch bulk ``update`` calls but still
touch elements through the container protocol.
And the trace dependence test keeps one Python loop, the critical-path
walk: one step per distinct flow edge rather than per access.

Equivalence with the scalar reference is enforced by the property-based
differential tests in ``tests/test_kernels.py`` (random index/value decks
with duplicates and aliasing) and by the golden parity CI leg that runs
the full matrix under ``REPRO_KERNELS=scalar``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.scalar import READ, UPDATE, WRITE

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


# -- access logs (shadow marking and the analysis phase) ---------------------------


def group_access_logs(
    positions: np.ndarray, entries: np.ndarray, updates: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    log = np.asarray(entries, dtype=np.int64)
    n = log.size
    if not n:
        none = np.zeros(0, dtype=bool)
        return _EMPTY, _EMPTY, none, none, none, none
    # One stable sort by element keeps each element's entries in log
    # order, and so in position order: every (position, element) pair is
    # one contiguous run.  Updates log ``i``, so ``element`` needs no
    # special case for them.
    element = log ^ (log >> 63)
    order = np.argsort(element, kind="stable")
    element = element[order]
    pos = np.asarray(positions, dtype=np.int64)[order]
    write = log[order] < 0
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(element[1:], element[:-1], out=first[1:])
    first[1:] |= pos[1:] != pos[:-1]
    starts = np.flatnonzero(first)
    written = np.logical_or.reduceat(write, starts)
    if updates is None:
        first_read = ~write[starts]
        read = ~np.logical_and.reduceat(write, starts)
        updated = np.zeros(starts.size, dtype=bool)
    else:
        update = np.asarray(updates, dtype=bool)[order]
        is_read = ~(write | update)
        read = np.logical_or.reduceat(is_read, starts)
        updated = np.logical_or.reduceat(update, starts)
        # A run's first read or write: updates rank after every entry.
        rank = np.where(update, n, np.arange(n))
        head = np.minimum.reduceat(rank, starts)
        first_read = (head < n) & is_read[np.minimum(head, n - 1)]
    return element[starts], pos[starts], first_read, written, read, updated


# -- dense private-view copies ---------------------------------------------------


def copy_in_dense(
    values: np.ndarray, have: np.ndarray, shared_data: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, int]:
    idx = np.asarray(indices)
    missing = unique_indices(idx[~have[idx]])
    if len(missing):
        values[missing] = shared_data[missing]
        have[missing] = True
    return values[idx], len(missing)


def store_dense(
    values: np.ndarray,
    have: np.ndarray,
    written: np.ndarray,
    indices: np.ndarray,
    new_values: np.ndarray,
) -> None:
    values[indices] = new_values
    have[indices] = True
    written[indices] = True


def copy_out_dense(
    values: np.ndarray, written: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    idx = np.flatnonzero(written)
    return idx, values[idx]


# -- sparse (dict-backed) private-view copies ------------------------------------


def copy_in_sparse(
    value_map: dict, shared_data: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, int]:
    idx = np.asarray(indices)
    ids = idx.tolist()
    missing = sorted({i for i in ids if i not in value_map})
    if missing:
        gathered = shared_data[np.fromiter(missing, np.int64, len(missing))]
        value_map.update(zip(missing, gathered))
    out = np.empty(len(ids), dtype=shared_data.dtype)
    for k, index in enumerate(ids):  # dict gather; no array backing to index
        out[k] = value_map[index]
    return out, len(missing)


def store_sparse(value_map: dict, written: set, indices: np.ndarray, new_values) -> None:
    ids = np.asarray(indices).tolist()
    value_map.update(zip(ids, new_values))
    written.update(ids)


def copy_out_sparse(
    value_map: dict, written: set, dtype
) -> tuple[np.ndarray, np.ndarray]:
    order = sorted(written)
    idx = np.fromiter(order, dtype=np.int64, count=len(order))
    vals = np.empty(len(order), dtype=dtype)
    for k, index in enumerate(order):  # dict gather; no array backing to index
        vals[k] = value_map[index]
    return idx, vals


# -- scatter / gather / packing --------------------------------------------------


def gather(data: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return data[np.asarray(indices)]


def scatter(data: np.ndarray, indices: np.ndarray, values) -> None:
    data[indices] = values


# -- index sets -------------------------------------------------------------------


def unique_indices(indices: np.ndarray) -> np.ndarray:
    # One sort, not np.unique: np.unique imports numpy.ma on its first
    # call (~50 ms and 1.3 MB), which every freshly forked worker of a
    # pool would pay again.
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    keep = np.empty(idx.size, dtype=bool)
    keep[:1] = True
    np.not_equal(idx[1:], idx[:-1], out=keep[1:])
    return idx[keep]


#: Widest element-address span the table-based intersection may allocate a
#: lookup table for (one byte per address: 16 MiB).
_ISIN_TABLE_SPAN = 1 << 24


def intersect_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if not len(a) or not len(b):
        return np.empty(0, dtype=np.int64)
    # Element addresses are non-negative and bounded by the array size, so
    # a table-based membership test usually applies and beats sorting both
    # sides by several times.
    lo = min(int(a.min()), int(b.min()))
    hi = max(int(a.max()), int(b.max()))
    if 0 <= lo and hi - lo <= _ISIN_TABLE_SPAN:
        return unique_indices(a[np.isin(a, b, kind="table")])
    # Wider spans: look each of a's distinct indices up in b's (not
    # np.intersect1d, which imports numpy.ma like np.unique).
    ua, ub = unique_indices(a), unique_indices(b)
    at = np.minimum(np.searchsorted(ub, ua), ub.size - 1)
    return ua[ub[at] == ua]


# -- certification: exact trace dependence test ------------------------------------


def trace_dependences(
    iterations: np.ndarray,
    kinds: np.ndarray,
    arrays: np.ndarray,
    indices: np.ndarray,
) -> tuple[int, list[tuple[int, int]], int, int, int]:
    it = np.asarray(iterations, dtype=np.int64)
    m = it.size
    if m == 0:
        return 0, [], 1, 0, 0
    kinds, arrays, indices = (np.asarray(c) for c in (kinds, arrays, indices))
    # One stable sort groups the trace by element (array, index); each
    # group keeps its accesses in execution order, so its iterations are
    # non-decreasing.
    order = np.lexsort((indices, arrays))
    it, kind = it[order], kinds[order]
    array, index = arrays[order], indices[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (array[1:] != array[:-1]) | (index[1:] != index[:-1])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], m) - 1
    # Cross-iteration sharing is a conflict unless the element's accesses
    # are all reads or all commuting reduction updates.
    conflicts = int(np.count_nonzero(
        (it[starts] != it[ends])
        & (np.maximum.reduceat(kind, starts) != READ)
        & (np.minimum.reduceat(kind, starts) != UPDATE)
    ))
    # Forward-fill the position of the last write strictly before each
    # access; it is the element's own only if it is not before the group.
    is_write = kind == WRITE
    last_write = np.maximum.accumulate(np.where(is_write, np.arange(m), -1))
    prev = np.empty(m, dtype=np.int64)
    prev[0] = -1
    prev[1:] = last_write[:-1]
    has_prev = prev >= np.repeat(starts, ends - starts + 1)
    writer = it[prev]
    is_flow = (kind == READ) & has_prev & (writer < it)
    rewrite = is_write & has_prev & (writer != it)
    srcs, dsts = writer[is_flow], it[is_flow]
    max_distance = int((dsts - srcs).max()) if dsts.size else 0
    sink_ids = np.sort(np.concatenate((dsts, it[rewrite])))
    sink_iterations = int(np.count_nonzero(sink_ids[1:] != sink_ids[:-1]))
    sink_iterations += int(sink_ids.size > 0)
    # Deduplicated flow edges in (source, sink) order.
    by_source = np.lexsort((dsts, srcs))
    srcs, dsts = srcs[by_source], dsts[by_source]
    keep = np.ones(srcs.size, dtype=bool)
    keep[1:] = (srcs[1:] != srcs[:-1]) | (dsts[1:] != dsts[:-1])
    edges = list(zip(srcs[keep].tolist(), dsts[keep].tolist()))
    depth: dict[int, int] = {}
    # Critical-path walk in source order: an iteration's in-edges all come
    # from earlier iterations, so its depth is final before its out-edges.
    for src, sink in edges:
        level = depth.get(src, 1) + 1
        if level > depth.get(sink, 0):
            depth[sink] = level
    return (
        conflicts, edges, max(depth.values(), default=1), max_distance,
        sink_iterations,
    )
