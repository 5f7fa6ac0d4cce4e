"""Numpy-vectorized hot-path kernels (the production default).

Same API and bit-identical semantics as the scalar reference
(:mod:`repro.kernels.scalar` -- see its docstring for the conventions);
each primitive here replaces the reference's per-element Python loop with
a constant number of numpy array operations.  There are two exceptions.
The dict/set-backed sparse primitives: Python containers admit no true
vectorization, so those kernels batch the bounds checks and bulk
``update`` calls but still touch elements through the container protocol.
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

_ONE = np.uint64(1)
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def _check_bounds(idx: np.ndarray, size: int) -> None:
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        index = int(idx[int(np.argmax(bad))])
        raise IndexError(f"element {index} out of range [0, {size})")


def _word_masks(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return idx >> 6, _ONE << (idx & 63).astype(np.uint64)


# -- packed bit planes (dense shadow marking) -----------------------------------


def set_bits(words: np.ndarray, size: int, indices: np.ndarray) -> None:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return
    _check_bounds(idx, size)
    word, mask = _word_masks(idx)
    np.bitwise_or.at(words, word, mask)


def mark_reads_bits(
    write_words: np.ndarray,
    exposed_words: np.ndarray,
    any_read_words: np.ndarray,
    size: int,
    indices: np.ndarray,
) -> None:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return
    _check_bounds(idx, size)
    word, mask = _word_masks(idx)
    np.bitwise_or.at(any_read_words, word, mask)
    # The write plane is not modified here, so filtering against it before
    # or after setting any-read bits is equivalent to the reference loop.
    unwritten = (write_words[word] & mask) == 0
    np.bitwise_or.at(exposed_words, word[unwritten], mask[unwritten])


def or_words(dst: np.ndarray, src: np.ndarray) -> None:
    np.bitwise_or(dst, src, out=dst)


def words_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((a & b).any())


def and_words_indices(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    bits = np.unpackbits((a & b).view(np.uint8), bitorder="little")
    return np.flatnonzero(bits[:size]).astype(np.int64, copy=False)


def bits_to_indices(words: np.ndarray, size: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits[:size]).astype(np.int64, copy=False)


def popcount(words: np.ndarray) -> int:
    # np.uint64 bit_count needs numpy>=2; unpackbits keeps 1.x support.
    return int(np.unpackbits(words.view(np.uint8)).sum())


# -- set-backed sparse shadow marking -------------------------------------------


def mark_writes_set(target: set, size: int, indices) -> None:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return
    _check_bounds(idx, size)
    target.update(idx.tolist())


def mark_reads_set(
    write_set: set, exposed_set: set, any_read_set: set, size: int, indices
) -> None:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return
    _check_bounds(idx, size)
    ids = idx.tolist()
    exposed_set.update(i for i in ids if i not in write_set)
    any_read_set.update(ids)


def resolve_access_log(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    log = np.asarray(entries, dtype=np.int64)
    if not log.size or log.min() >= 0:
        return np.unique(log), _EMPTY, _EMPTY
    # One stable sort groups the log by element, each group in log order;
    # a group's first entry says whether the element was read first.
    index = log ^ (log >> 63)  # ~i for writes, i for reads
    order = np.argsort(index, kind="stable")
    index = index[order]
    write = log[order] < 0
    first = np.empty(index.size, dtype=bool)
    first[0] = True
    np.not_equal(index[1:], index[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    elements = index[starts]
    write_first = write[starts]
    written = np.logical_or.reduceat(write, starts)
    read = ~np.logical_and.reduceat(write, starts)
    return elements[~write_first], elements[written], elements[write_first & read]


def mark_log_set(
    write_set: set, exposed_set: set, any_read_set: set, size: int, entries
) -> None:
    log = np.asarray(entries, dtype=np.int64)
    if not log.size:
        return
    lo, hi = int(log.min()), int(log.max())
    if lo < -size or hi >= size:
        # Report the first offending entry, as the reference loop does.
        bad = (log < -size) | (log >= size)
        entry = int(log[int(np.argmax(bad))])
        raise IndexError(f"element {entry if entry >= 0 else ~entry} out of range [0, {size})")
    ids = log.tolist()
    if lo >= 0:
        # No writes: every read sees the block-start write plane.
        any_read_set.update(ids)
        exposed_set.update(i for i in ids if i not in write_set)
        return
    # Order matters once the log writes: one pass over the set planes
    # (Python containers admit no vectorization).
    for entry in ids:  # hot-path: set-backed planes, one pass per block
        if entry < 0:
            write_set.add(~entry)
        else:
            any_read_set.add(entry)
            if entry not in write_set:
                exposed_set.add(entry)


# -- dense private-view copies ---------------------------------------------------


def copy_in_dense(
    values: np.ndarray, have: np.ndarray, shared_data: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, int]:
    idx = np.asarray(indices)
    missing = np.unique(idx[~have[idx]])
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


def pack_values(values, dtype) -> np.ndarray:
    out = np.empty(len(values), dtype=dtype)
    if len(values):
        out[:] = values
    return out


def pack_range_map(mapping, start: int, count: int) -> np.ndarray:
    return np.fromiter(
        (mapping[start + k] for k in range(count)), dtype=np.float64, count=count
    )


# -- analysis reductions ---------------------------------------------------------


#: Widest element-address span the table-based intersection may allocate a
#: lookup table for (one byte per address: 16 MiB).
_ISIN_TABLE_SPAN = 1 << 24


def intersect_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    b = np.asarray(b)
    if not len(a) or not len(b):
        return np.empty(0, dtype=np.int64)
    # Element addresses are non-negative and bounded by the array size, so
    # a table-based membership test usually applies and beats the sort-
    # based np.intersect1d by several times.
    lo = min(int(a.min()), int(b.min()))
    hi = max(int(a.max()), int(b.max()))
    if 0 <= lo and hi - lo <= _ISIN_TABLE_SPAN:
        return np.unique(a[np.isin(a, b, kind="table")]).astype(np.int64, copy=False)
    return np.intersect1d(a, b).astype(np.int64, copy=False)


def reduce_min_max(values: np.ndarray) -> tuple[int, int]:
    arr = np.asarray(values)
    return int(arr.min()), int(arr.max())


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
