"""The hot-path kernels layer: vector and scalar must be bit-identical.

The numpy-vectorized kernels (:mod:`repro.kernels.vector`) are the
production default; the pure-Python loops (:mod:`repro.kernels.scalar`)
are the semantic reference.  These tests drive both implementations with
the same seeded random index/value decks -- duplicates and aliasing
included, since fancy-indexed stores and sort-based grouping are exactly
where vectorization bugs hide -- and demand identical results at three
levels: raw primitives, the shadow/view/checkpoint structures built on
them, and a full speculative run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.config import ConfigurationError, RuntimeConfig
from repro.core.runner import parallelize
from repro.kernels import (
    KERNELS,
    get_default_kernels,
    get_kernels,
    kernel_names,
    scalar,
    use_kernels,
    vector,
)
from repro.loopir.context import AccessRecord
from repro.loopir.symbolic import trace_dependences
from repro.machine.memory import SharedArray, make_private_view
from repro.shadow import ShadowArray
from repro.workloads.synthetic import random_dependence_loop
from tests.shadow_model import SetShadow, planes

N = 192

index_decks = st.lists(
    st.lists(st.integers(min_value=0, max_value=N - 1), min_size=0, max_size=24),
    min_size=1,
    max_size=8,
)

#: (kind, indices) operation decks: interleaved reads/writes/updates.
op_decks = st.lists(
    st.tuples(
        st.sampled_from(["r", "w", "u"]),
        st.lists(st.integers(min_value=0, max_value=N - 1), min_size=0, max_size=16),
    ),
    min_size=1,
    max_size=10,
)


def _idx(ids) -> np.ndarray:
    return np.asarray(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# Primitive-level differentials
# ---------------------------------------------------------------------------


@given(decks=index_decks, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_copy_primitives_match(decks, seed):
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(N)
    dense = {
        name: (np.zeros(N), np.zeros(N, dtype=bool), np.zeros(N, dtype=bool))
        for name in KERNELS
    }
    sparse = {name: ({}, set()) for name in KERNELS}
    for deck in decks:
        idx = _idx(deck)
        new_values = rng.standard_normal(len(idx))
        outs = {}
        for name, impl in KERNELS.items():
            values, have, written = dense[name]
            value_map, written_set = sparse[name]
            out_d = impl.copy_in_dense(values, have, shared, idx)
            impl.store_dense(values, have, written, idx[::2], new_values[::2])
            out_s = impl.copy_in_sparse(value_map, shared, idx)
            impl.store_sparse(value_map, written_set, idx[::2], new_values[::2])
            outs[name] = (out_d, out_s)
        (vd, vs), (sd, ss) = outs["vector"], outs["scalar"]
        assert np.array_equal(vd[0], sd[0]) and vd[1] == sd[1]
        assert np.array_equal(vs[0], ss[0]) and vs[1] == ss[1]
    v_out = vector.copy_out_dense(dense["vector"][0], dense["vector"][2])
    s_out = scalar.copy_out_dense(dense["scalar"][0], dense["scalar"][2])
    assert all(np.array_equal(v, s) for v, s in zip(v_out, s_out))
    v_out = vector.copy_out_sparse(*sparse["vector"], shared.dtype)
    s_out = scalar.copy_out_sparse(*sparse["scalar"], shared.dtype)
    assert all(np.array_equal(v, s) for v, s in zip(v_out, s_out))


@given(
    a=st.lists(st.integers(min_value=0, max_value=4 * N), max_size=64),
    b=st.lists(st.integers(min_value=0, max_value=4 * N), max_size=64),
)
@settings(max_examples=60, deadline=None)
def test_reduction_primitives_match(a, b):
    assert np.array_equal(
        vector.intersect_indices(_idx(a), _idx(b)),
        scalar.intersect_indices(_idx(a), _idx(b)),
    )
    assert np.array_equal(
        vector.unique_indices(_idx(a)), scalar.unique_indices(_idx(a))
    )
    assert np.array_equal(vector.unique_indices(_idx(a)), np.unique(_idx(a)))


def test_intersect_falls_back_outside_table_span():
    a = _idx([0, 7, 1 << 40])
    b = _idx([7, 1 << 40, 9])
    assert np.array_equal(
        vector.intersect_indices(a, b), scalar.intersect_indices(a, b)
    )


#: Iteration-ordered access traces: runs of (kind, array, index) accesses,
#: each run a gap of 0-3 after the previous one (0 = the same iteration
#: again, so one iteration can repeat an access), over several arrays and
#: small negative or duplicate indices.
trace_decks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.lists(
            st.tuples(
                st.sampled_from("rwu"),
                st.sampled_from(["A", "B", "C"]),
                st.integers(min_value=-3, max_value=5),
            ),
            max_size=6,
        ),
    ),
    max_size=14,
)


def _trace_records(deck) -> list[AccessRecord]:
    records, iteration = [], 0
    for gap, accesses in deck:
        iteration += gap
        records.extend(AccessRecord(iteration, *access) for access in accesses)
    return records


@given(deck=trace_decks)
@example(deck=[])
@example(deck=[(0, [("w", "A", 0), ("r", "A", 0), ("u", "B", -1)])])
@example(deck=[(0, [("w", "A", 0)]), (1, [("r", "A", 0), ("w", "A", 0)]),
               (1, [("r", "A", 0), ("r", "A", 0)])])
@settings(max_examples=200, deadline=None)
def test_trace_dependence_kernels_match(deck):
    records = _trace_records(deck)
    codes = {"A": 0, "B": 1, "C": 2}
    columns = [
        _idx([r.iteration for r in records]),
        _idx(["rwu".index(r.kind) for r in records]),
        _idx([codes[r.array] for r in records]),
        _idx([r.index for r in records]),
    ]
    assert vector.trace_dependences(*columns) == scalar.trace_dependences(
        *columns
    )
    summaries = {}
    for name in KERNELS:
        with use_kernels(name):
            summaries[name] = trace_dependences(records)
    assert summaries["vector"] == summaries["scalar"]
    assert summaries["vector"].flow_edges == summaries["scalar"].flow_edges


def test_trace_dependence_kernels_on_a_chain():
    # w0; r1 w1; r2 w2 ... with each read repeated: edges deduplicate and
    # the chain covers every iteration.
    records = [AccessRecord(0, "w", "A", 0)]
    for i in range(1, 6):
        records += [AccessRecord(i, "r", "A", 0)] * 2
        records.append(AccessRecord(i, "w", "A", 0))
    for name in KERNELS:
        with use_kernels(name):
            deps = trace_dependences(records)
        assert deps.flow_edges == [(i, i + 1) for i in range(5)]
        assert (deps.critical_path, deps.max_distance) == (6, 1)
        assert (deps.conflicts, deps.sink_iterations) == (1, 5)


#: A stage's concatenated logs: per position, a run of signed entries, each
#: possibly a reduction update instead (then logged as ``i``).
grouped_logs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=9), st.sampled_from("rwu")),
            max_size=8,
        ),
    ),
    max_size=6,
)


def _grouped_columns(deck, with_updates):
    positions, entries, updates, pos = [], [], [], 0
    for gap, accesses in deck:
        pos += gap
        for index, kind in accesses:
            if kind == "u" and not with_updates:
                kind = "r"
            positions.append(pos)
            entries.append(~index if kind == "w" else index)
            updates.append(kind == "u")
    return _idx(positions), _idx(entries), (np.array(updates, dtype=bool) if with_updates else None)


@given(deck=grouped_logs, with_updates=st.booleans())
@example(deck=[], with_updates=False)
@example(deck=[(0, [(3, "u"), (3, "r"), (3, "w")]), (1, [(3, "w"), (3, "r")])], with_updates=True)
@example(deck=[(0, [(2, "w"), (2, "w"), (2, "r")]), (0, [(5, "r")])], with_updates=False)
@settings(max_examples=200, deadline=None)
def test_group_access_log_kernels_match(deck, with_updates):
    columns = _grouped_columns(deck, with_updates)
    got_vector = vector.group_access_logs(*columns)
    got_scalar = scalar.group_access_logs(*columns)
    for v, s in zip(got_vector, got_scalar):
        assert v.dtype == s.dtype
        assert np.array_equal(v, s)
    # One row per (element, position) pair, in that order; the first read
    # or write decides exposure, updates never do.
    positions, entries, updates = columns
    rows: dict = {}
    for k, (pos, entry) in enumerate(zip(positions.tolist(), entries.tolist())):
        update = updates is not None and bool(updates[k])
        row = rows.setdefault((~entry if entry < 0 else entry, pos), [None, False, False, False])
        if update:
            row[3] = True
        else:
            if row[0] is None:
                row[0] = entry >= 0
            row[1 if entry < 0 else 2] = True
    keys = sorted(rows)
    assert got_scalar[0].tolist() == [e for e, _ in keys]
    assert got_scalar[1].tolist() == [p for _, p in keys]
    for column, k in zip(got_scalar[2:], range(4)):
        assert column.tolist() == [bool(rows[key][k]) for key in keys]


#: Hand-worked group_access_logs cases: ``(positions, entries, updates)``
#: and the expected rows ``(element, position, first_read, written, read,
#: updated)`` in element, then position order.
GROUPED_CASES = {
    "empty": (([], [], None), []),
    "read_first_is_exposed": (([0, 0], [3, ~3], None), [(3, 0, True, True, True, False)]),
    "write_first_covers": (([0, 0], [~3, 3], None), [(3, 0, False, True, True, False)]),
    "duplicates_fold": (([0, 0, 0], [5, 5, 5], None), [(5, 0, True, False, True, False)]),
    "element_zero_write": (([0, 0], [~0, 0], None), [(0, 0, False, True, True, False)]),
    "positions_kept_apart": (
        ([0, 1], [~4, 4], None),
        [(4, 0, False, True, False, False), (4, 1, True, False, True, False)],
    ),
    "element_then_position_order": (
        ([0, 0, 1], [9, ~1, 1], None),
        [(1, 0, False, True, False, False), (1, 1, True, False, True, False),
         (9, 0, True, False, True, False)],
    ),
    "update_does_not_decide_exposure": (
        ([0, 0], [2, 2], [True, False]), [(2, 0, True, False, True, True)]
    ),
    "update_only": (([2], [7], [True]), [(7, 2, False, False, False, True)]),
}


@pytest.mark.parametrize("impl_name", sorted(KERNELS))
@pytest.mark.parametrize("case", sorted(GROUPED_CASES))
def test_group_access_logs_cases(case, impl_name):
    (positions, entries, updates), expected = GROUPED_CASES[case]
    columns = KERNELS[impl_name].group_access_logs(
        _idx(positions), _idx(entries),
        None if updates is None else np.array(updates, dtype=bool),
    )
    assert [c.dtype for c in columns] == [np.int64] * 2 + [np.dtype(bool)] * 4
    assert list(zip(*(c.tolist() for c in columns))) == expected


# ---------------------------------------------------------------------------
# Structure-level differentials (shadows and private views)
# ---------------------------------------------------------------------------


@given(decks=op_decks)
@settings(max_examples=40, deadline=None)
def test_shadow_marking_matches(decks):
    # Bulk reads, writes and updates recorded as block logs resolve to the
    # marks per-access set marking leaves, under both kernel modes.
    reference = SetShadow(N)
    for kind, ids in decks:
        mark = {"r": reference.mark_read, "w": reference.mark_write,
                "u": reference.mark_update}[kind]
        for index in ids:
            mark(index)
    for name in sorted(KERNELS):
        with use_kernels(name):
            shadow = ShadowArray(N)
            for kind, ids in decks:
                idx = _idx(ids)
                if kind == "r":
                    shadow.record(idx)
                elif kind == "w":
                    shadow.record(~idx)
                else:
                    shadow.record_updates(idx)
            assert planes(shadow) == planes(reference), name
            assert shadow.distinct_refs() == reference.distinct_refs()


@pytest.mark.parametrize("sparse", [False, True])
@given(decks=op_decks, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=40, deadline=None)
def test_private_view_copies_match(sparse, decks, seed):
    rng = np.random.default_rng(seed)
    shared_data = rng.standard_normal(N)
    prints = {}
    for name in sorted(KERNELS):
        with use_kernels(name):
            view = make_private_view(SharedArray("A", shared_data), sparse=sparse)
            loads = []
            value_rng = np.random.default_rng(seed + 1)
            for kind, ids in decks:
                idx = _idx(ids)
                if kind == "w":
                    view.store_many(idx, value_rng.standard_normal(len(idx)))
                else:
                    values, copied = view.load_many(idx)
                    loads.append((values.tobytes(), copied))
            indices, values = view.written_arrays()
            prints[name] = (loads, indices.tobytes(), values.tobytes(), view.n_written())
    assert prints["vector"] == prints["scalar"]


# ---------------------------------------------------------------------------
# End-to-end differential and selection plumbing
# ---------------------------------------------------------------------------


def _run_fingerprint(kernels: str):
    loop = random_dependence_loop(128, density=0.08, max_distance=8, seed=11)
    result = parallelize(loop, 4, RuntimeConfig.adaptive(kernels=kernels))
    return (
        {name: data.tobytes() for name, data in sorted(result.memory.snapshot().items())},
        repr(result.total_time),
        result.n_stages,
        result.kernels,
    )


def test_run_bit_identical_across_kernels():
    v = _run_fingerprint("vector")
    s = _run_fingerprint("scalar")
    assert v[:3] == s[:3]
    assert (v[3], s[3]) == ("vector", "scalar")


def test_result_reports_kernels_mode():
    loop = random_dependence_loop(64, density=0.1, max_distance=4, seed=2)
    result = parallelize(loop, 2, RuntimeConfig.adaptive(kernels="scalar"))
    assert result.kernels == "scalar"
    assert result.summary()["kernels"] == "scalar"


def test_config_rejects_unknown_kernels():
    with pytest.raises(ConfigurationError, match="unknown kernels"):
        RuntimeConfig(kernels="simd")


def test_registry_and_scoping():
    assert kernel_names() == sorted(KERNELS)
    default = get_default_kernels()
    with use_kernels("scalar"):
        assert get_kernels() is scalar
        with use_kernels("vector"):
            assert get_kernels() is vector
        assert get_kernels() is scalar
    assert get_default_kernels() == default


def test_cli_flag_selects_kernels(capsys):
    from repro.cli import main

    assert main(["run", "random-deps", "-p", "2", "--kernels", "scalar"]) == 0
    assert "kernels scalar" in capsys.readouterr().out


_NO_NUMPY_MA = """
import sys

import numpy as np

from repro.kernels import vector
from repro.loopir.symbolic import AffineSite, affine_dependences

wide = np.array([5, 1 << 40, 0, 5], dtype=np.int64)
assert vector.intersect_indices(wide, np.array([1 << 40, 5])).tolist() == [5, 1 << 40]
chain = [AffineSite(0, "w", "A", 1, 0), AffineSite(1, "r", "A", 1, -1)]
assert affine_dependences(chain, 8).flow_edges == [(k, k + 1) for k in range(7)]
assert "numpy.ma" not in sys.modules
"""


def test_set_paths_do_not_import_numpy_ma():
    # np.unique and np.intersect1d import numpy.ma (~50 ms) on first use;
    # the wide-span intersection and the affine test must not call them.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    subprocess.run([sys.executable, "-c", _NO_NUMPY_MA], env=env, check=True)
