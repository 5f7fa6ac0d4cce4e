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

* ``indices`` are integer arrays (possibly with duplicates, possibly
  unsorted);
* dict/set-backed sparse structures keep Python ``int`` keys;
* access traces are four parallel int64 columns -- iteration, kind code
  (:data:`ACCESS_KINDS`), array code, element index -- in execution order
  (iterations non-decreasing);
* an access log is one signed int64 column per tested array, in
  execution order: a read of element ``i`` is logged as ``i``, a write as
  ``~i`` (``-i - 1``).
"""

from __future__ import annotations

import numpy as np

#: Access-kind codes of trace columns: ``ACCESS_KINDS[code]`` is the kind
#: (read, write, reduction update).
ACCESS_KINDS = "rwu"
READ, WRITE, UPDATE = 0, 1, 2


# -- access logs (shadow marking and the analysis phase) ---------------------------


def group_access_logs(
    positions: np.ndarray, entries: np.ndarray, updates: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Resolve concatenated access logs into one row per (position,
    element) pair.

    ``entries`` is a signed access log (reads ``i``, writes ``~i``) made of
    one log per position, concatenated in position order: ``positions``
    (non-decreasing) holds each entry's position, and each position's
    entries are in execution order.  ``updates``, when given, flags the
    entries that are reduction updates (element ``i`` logged as ``i``).

    Returns the columns ``(elements, positions, first_read, written, read,
    updated)``, sorted by element, then position: whether the pair's first
    read or write was a read (the *exposed* read of the paper's shadow),
    and whether the element was written, read and reduction-updated there.
    """
    flags = [False] * len(entries) if updates is None else np.asarray(updates).tolist()
    runs: dict[tuple[int, int], list] = {}
    for pos, entry, update in zip(
        np.asarray(positions).tolist(), np.asarray(entries).tolist(), flags
    ):
        element = ~entry if entry < 0 else entry
        run = runs.setdefault((element, pos), [None, False, False, False])
        if update:
            run[3] = True
        elif entry < 0:
            if run[0] is None:
                run[0] = False
            run[1] = True
        else:
            if run[0] is None:
                run[0] = True
            run[2] = True
    keys = sorted(runs)
    rows = [runs[key] for key in keys]
    return (
        np.fromiter((e for e, _ in keys), dtype=np.int64, count=len(keys)),
        np.fromiter((p for _, p in keys), dtype=np.int64, count=len(keys)),
        *(
            np.fromiter((bool(row[k]) for row in rows), dtype=bool, count=len(rows))
            for k in range(4)
        ),
    )


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


# -- index sets -------------------------------------------------------------------


def unique_indices(indices: np.ndarray) -> np.ndarray:
    """Sorted unique indices (copy-in misses, first-touch saves, rollback
    sets)."""
    distinct = set(np.asarray(indices).tolist())
    return np.fromiter(sorted(distinct), dtype=np.int64, count=len(distinct))


def intersect_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted unique indices present in both arrays (the checkpoint's
    committing/failed contract check)."""
    common = set(np.asarray(a).tolist()) & set(np.asarray(b).tolist())
    return np.fromiter(sorted(common), dtype=np.int64, count=len(common))


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
