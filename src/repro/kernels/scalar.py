"""Pure-Python scalar reference kernels.

This module is the executable specification of the kernel API: every
function does its work with an explicit per-element Python loop whose
semantics are easy to audit against the paper's marking/copy rules.  The
vectorized implementation (:mod:`repro.kernels.vector`) must be
bit-identical to these loops on every input -- the property-based
differential tests in ``tests/test_kernels.py`` enforce it, and CI runs
the golden parity matrix once under ``REPRO_KERNELS=scalar`` so this
reference cannot rot.

Shared conventions:

* ``words`` arguments are packed ``uint64`` bit planes (64 bits per word,
  little-endian bit order within a word), the storage of
  :class:`repro.util.bitset.BitSet`;
* ``indices`` are integer arrays (possibly with duplicates, possibly
  unsorted); bounds are checked against ``size`` where one is given, and
  the error reports the first offending index in iteration order;
* dict/set-backed sparse structures keep Python ``int`` keys;
* access traces are four parallel int64 columns -- iteration, kind code
  (:data:`ACCESS_KINDS`), array code, element index -- in execution order
  (iterations non-decreasing);
* a block's access log is one signed int64 column per tested array, in
  execution order: a read of element ``i`` is logged as ``i``, a write as
  ``~i`` (``-i - 1``).
"""

from __future__ import annotations

import numpy as np

_ONE = np.uint64(1)

#: Access-kind codes of trace columns: ``ACCESS_KINDS[code]`` is the kind
#: (read, write, reduction update).
ACCESS_KINDS = "rwu"
READ, WRITE, UPDATE = 0, 1, 2


def _check_range(index: int, size: int) -> None:
    if not 0 <= index < size:
        raise IndexError(f"element {index} out of range [0, {size})")


# -- packed bit planes (dense shadow marking) -----------------------------------


def set_bits(words: np.ndarray, size: int, indices: np.ndarray) -> None:
    """Set bit ``i`` of ``words`` for every ``i`` in ``indices``."""
    for index in np.asarray(indices).tolist():
        _check_range(index, size)
        words[index >> 6] |= _ONE << np.uint64(index & 63)


def mark_reads_bits(
    write_words: np.ndarray,
    exposed_words: np.ndarray,
    any_read_words: np.ndarray,
    size: int,
    indices: np.ndarray,
) -> None:
    """Dense read marking: set the any-read bit for every index, and the
    exposed-read bit only where no local write precedes it (the write
    plane is not modified, so a batch read sees all writes already marked
    and none of its own batch's)."""
    for index in np.asarray(indices).tolist():
        _check_range(index, size)
        word, mask = index >> 6, _ONE << np.uint64(index & 63)
        any_read_words[word] |= mask
        if not write_words[word] & mask:
            exposed_words[word] |= mask


def or_words(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst |= src``, word by word (cumulative-write folding)."""
    for k in range(len(dst)):
        dst[k] |= src[k]


def words_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether any bit is set in both planes."""
    for k in range(len(a)):
        if a[k] & b[k]:
            return True
    return False


def and_words_indices(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Sorted positions of bits set in both planes (conflict extraction)."""
    out = []
    for k in range(len(a)):
        both = int(a[k] & b[k])
        while both:
            low = both & -both
            out.append(k * 64 + low.bit_length() - 1)
            both ^= low
    return np.fromiter((i for i in out if i < size), dtype=np.int64)


def bits_to_indices(words: np.ndarray, size: int) -> np.ndarray:
    """Sorted positions of all set bits."""
    out = []
    for k in range(len(words)):
        word = int(words[k])
        while word:
            low = word & -word
            out.append(k * 64 + low.bit_length() - 1)
            word ^= low
    return np.fromiter((i for i in out if i < size), dtype=np.int64)


def popcount(words: np.ndarray) -> int:
    """Number of set bits across the plane."""
    total = 0
    for k in range(len(words)):
        total += int(words[k]).bit_count()
    return total


# -- set-backed sparse shadow marking -------------------------------------------


def mark_writes_set(target: set, size: int, indices) -> None:
    """Add every index to a sparse mark plane (write or update)."""
    for index in (int(i) for i in indices):
        _check_range(index, size)
        target.add(index)


def mark_reads_set(
    write_set: set, exposed_set: set, any_read_set: set, size: int, indices
) -> None:
    """Sparse read marking; same exposure rule as :func:`mark_reads_bits`."""
    for index in (int(i) for i in indices):
        _check_range(index, size)
        any_read_set.add(index)
        if index not in write_set:
            exposed_set.add(index)


def resolve_access_log(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a block's signed access log into the element sets its marks
    need, in the order a shadow applies them: ``(open_reads, writes,
    covered_reads)``, each sorted and unique.

    An element is an *open read* when its first access in the log is a
    read (that read is exposed unless the element already carried a
    write mark when the block started), a *covered read* when it is read
    but its first access is a write.  Marking the open reads, then the
    writes, then the covered reads reproduces per-access marking exactly:
    a covered read's element is write-marked by then, so it sets only the
    any-read bit, and every later read of an open element found the
    any-read bit its first read set.
    """
    first_is_read: dict[int, bool] = {}
    reads: set[int] = set()
    writes: set[int] = set()
    for entry in np.asarray(entries, dtype=np.int64).tolist():
        if entry < 0:
            writes.add(~entry)
            first_is_read.setdefault(~entry, False)
        else:
            reads.add(entry)
            first_is_read.setdefault(entry, True)
    open_reads = {index for index, first in first_is_read.items() if first}
    covered = {index for index in reads if not first_is_read[index]}
    return tuple(
        np.fromiter(sorted(group), dtype=np.int64, count=len(group))
        for group in (open_reads, writes, covered)
    )


def mark_log_set(
    write_set: set, exposed_set: set, any_read_set: set, size: int, entries
) -> None:
    """Sparse marking of a whole signed access log, in log order: each
    write adds to the write plane, each read to the any-read plane and,
    unless its element is write-marked by then, to the exposed plane."""
    for entry in np.asarray(entries, dtype=np.int64).tolist():
        if entry < 0:
            _check_range(~entry, size)
            write_set.add(~entry)
        else:
            _check_range(entry, size)
            any_read_set.add(entry)
            if entry not in write_set:
                exposed_set.add(entry)


# -- dense private-view copies ---------------------------------------------------


def copy_in_dense(
    values: np.ndarray, have: np.ndarray, shared_data: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, int]:
    """Bulk load with on-demand copy-in.  Returns ``(loaded values,
    distinct elements copied in)`` -- the count the caller charges the
    copy-in cost for."""
    idx = np.asarray(indices)
    out = np.empty(len(idx), dtype=values.dtype)
    copied = 0
    for k, index in enumerate(idx.tolist()):
        if have[index]:
            out[k] = values[index]
        else:
            value = shared_data[index]
            values[index] = value
            have[index] = True
            out[k] = value
            copied += 1
    return out, copied


def store_dense(
    values: np.ndarray,
    have: np.ndarray,
    written: np.ndarray,
    indices: np.ndarray,
    new_values: np.ndarray,
) -> None:
    """Bulk store into private dense storage (last duplicate wins)."""
    for k, index in enumerate(np.asarray(indices).tolist()):
        values[index] = new_values[k]
        have[index] = True
        written[index] = True


def copy_out_dense(
    values: np.ndarray, written: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of every written element, index-sorted (the
    commit phase's input)."""
    out = []
    for index in range(len(written)):
        if written[index]:
            out.append(index)
    idx = np.fromiter(out, dtype=np.int64, count=len(out))
    vals = np.empty(len(out), dtype=values.dtype)
    for k, index in enumerate(out):
        vals[k] = values[index]
    return idx, vals


# -- sparse (dict-backed) private-view copies ------------------------------------


def copy_in_sparse(
    value_map: dict, shared_data: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, int]:
    """Bulk load over dict-backed storage with on-demand copy-in."""
    idx = np.asarray(indices)
    out = np.empty(len(idx), dtype=shared_data.dtype)
    copied = 0
    for k, index in enumerate(idx.tolist()):
        try:
            out[k] = value_map[index]
        except KeyError:
            value = shared_data[index]
            value_map[index] = value
            out[k] = value
            copied += 1
    return out, copied


def store_sparse(value_map: dict, written: set, indices: np.ndarray, new_values) -> None:
    """Bulk store into dict-backed storage (last duplicate wins); also
    the absorb path for shipped ``(indices, values)`` payloads."""
    for index, value in zip(np.asarray(indices).tolist(), new_values):
        value_map[index] = value
        written.add(index)


def copy_out_sparse(
    value_map: dict, written: set, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, values)`` of every written element, index-sorted, values
    cast to the shared dtype (exactly the cast a scalar ``data[index] =
    value`` performs)."""
    order = sorted(written)
    idx = np.fromiter(order, dtype=np.int64, count=len(order))
    vals = np.empty(len(order), dtype=dtype)
    for k, index in enumerate(order):
        vals[k] = value_map[index]
    return idx, vals


# -- scatter / gather / packing --------------------------------------------------


def gather(data: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Copy ``data[indices]`` out (untested write-back capture)."""
    idx = np.asarray(indices)
    out = np.empty(len(idx), dtype=data.dtype)
    for k, index in enumerate(idx.tolist()):
        out[k] = data[index]
    return out


def scatter(data: np.ndarray, indices: np.ndarray, values) -> None:
    """Apply ``data[indices] = values`` (commit write-back, untested-write
    replay, checkpoint restore)."""
    for k, index in enumerate(np.asarray(indices).tolist()):
        data[index] = values[k]


def pack_values(values, dtype) -> np.ndarray:
    """Pack a sequence of scalars into a fresh array of ``dtype`` (same
    element-wise cast as scalar assignment)."""
    out = np.empty(len(values), dtype=dtype)
    for k, value in enumerate(values):
        out[k] = value
    return out


def pack_range_map(mapping, start: int, count: int) -> np.ndarray:
    """Pack ``mapping[start : start + count]`` values (a dict keyed by a
    contiguous iteration range) into a float64 array (shm scratch fill)."""
    out = np.empty(count, dtype=np.float64)
    for k in range(count):
        out[k] = mapping[start + k]
    return out


# -- analysis reductions ---------------------------------------------------------


def intersect_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted unique indices present in both arrays (mixed-set detection)."""
    common = set(np.asarray(a).tolist()) & set(np.asarray(b).tolist())
    return np.fromiter(sorted(common), dtype=np.int64, count=len(common))


def reduce_min_max(values: np.ndarray) -> tuple[int, int]:
    """``(min, max)`` of a non-empty integer array (earliest-sink /
    last-write reductions)."""
    seq = np.asarray(values).tolist()
    lo = hi = seq[0]
    for value in seq[1:]:
        if value < lo:
            lo = value
        if value > hi:
            hi = value
    return lo, hi


# -- certification: exact trace dependence test ------------------------------------


def trace_dependences(
    iterations: np.ndarray,
    kinds: np.ndarray,
    arrays: np.ndarray,
    indices: np.ndarray,
) -> tuple[int, list[tuple[int, int]], int, int, int]:
    """Exact dependence scan of an iteration-ordered access trace.

    Returns ``(conflicts, flow_edges, critical_path, max_distance,
    sink_iterations)``: elements shared across iterations with a write
    (u-u sharing commutes and r-only sharing is harmless), the sorted
    ``(source, sink)`` flow pairs (a read of an earlier iteration's
    write), the longest flow chain in iterations, the longest flow
    distance, and the number of distinct dependence sinks (flow sinks and
    writes over an earlier iteration's write).
    """
    by_elem: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for iteration, kind, array, index in zip(
        np.asarray(iterations).tolist(), np.asarray(kinds).tolist(),
        np.asarray(arrays).tolist(), np.asarray(indices).tolist(),
    ):
        by_elem.setdefault((array, index), []).append((iteration, kind))
    conflicts = 0
    flow: dict[int, set[int]] = {}
    max_distance = 0
    sinks: set[int] = set()
    for accesses in by_elem.values():
        last_write: int | None = None
        touched = {i for i, _ in accesses}
        kind_set = {k for _, k in accesses}
        # Cross-iteration sharing invalidates DOALL unless every access is
        # a read, or every access is a commuting reduction update.
        if len(touched) > 1 and kind_set != {READ} and kind_set != {UPDATE}:
            conflicts += 1
        for iteration, kind in accesses:
            if kind == READ and last_write is not None and last_write < iteration:
                flow.setdefault(iteration, set()).add(last_write)
                max_distance = max(max_distance, iteration - last_write)
                sinks.add(iteration)
            if kind == WRITE:
                if last_write is not None and last_write != iteration:
                    sinks.add(iteration)
                last_write = iteration
    depth: dict[int, int] = {}
    for sink in sorted(flow):
        depth[sink] = 1 + max(
            (depth.get(src, 1) for src in flow[sink]), default=1
        )
    critical = max(depth.values(), default=1)
    edges = [(src, sink) for sink, srcs in flow.items() for src in sorted(srcs)]
    return conflicts, sorted(edges), critical, max_distance, len(sinks)
