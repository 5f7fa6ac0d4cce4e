"""The hot-path kernels layer: vector and scalar must be bit-identical.

The numpy-vectorized kernels (:mod:`repro.kernels.vector`) are the
production default; the pure-Python loops (:mod:`repro.kernels.scalar`)
are the semantic reference.  These tests drive both implementations with
the same seeded random index/value decks -- duplicates and aliasing
included, since ``bitwise_or.at``-style unbuffered ufuncs are exactly
where vectorization bugs hide -- and demand identical results at three
levels: raw primitives, the shadow/view/checkpoint structures built on
them, and a full speculative run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from repro.shadow.dense import DenseShadow
from repro.shadow.sparse import SparseShadow
from repro.workloads.synthetic import random_dependence_loop

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


@given(decks=index_decks)
@settings(max_examples=60, deadline=None)
def test_bit_plane_primitives_match(decks):
    n_words = (N + 63) // 64
    planes = {
        name: [np.zeros(n_words, dtype=np.uint64) for _ in range(3)]
        for name in KERNELS
    }
    for deck in decks:
        idx = _idx(deck)
        for name, impl in KERNELS.items():
            write, exposed, any_read = planes[name]
            impl.set_bits(write, N, idx[::2])
            impl.mark_reads_bits(write, exposed, any_read, N, idx)
    v_planes, s_planes = planes["vector"], planes["scalar"]
    for v, s in zip(v_planes, s_planes):
        assert np.array_equal(v, s)
        assert vector.popcount(v) == scalar.popcount(s)
        assert np.array_equal(
            vector.bits_to_indices(v, N), scalar.bits_to_indices(s, N)
        )
    assert vector.words_intersect(*v_planes[:2]) == scalar.words_intersect(
        *s_planes[:2]
    )
    assert np.array_equal(
        vector.and_words_indices(v_planes[0], v_planes[2], N),
        scalar.and_words_indices(s_planes[0], s_planes[2], N),
    )


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
    if a:
        assert vector.reduce_min_max(_idx(a)) == scalar.reduce_min_max(_idx(a))


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


#: Signed access logs: a read of ``i`` is ``i``, a write is ``~i``.
access_logs = st.lists(
    st.integers(min_value=0, max_value=15).flatmap(
        lambda i: st.sampled_from([i, ~i])
    ),
    max_size=40,
)


@given(log=access_logs)
@example(log=[])
@example(log=[3, ~3, 3, ~5, 5, 5, 7])
@example(log=[~2, ~2, 2])
@settings(max_examples=200, deadline=None)
def test_access_log_kernels_match(log):
    entries = _idx(log)
    got_vector = vector.resolve_access_log(entries)
    got_scalar = scalar.resolve_access_log(entries)
    for v, s in zip(got_vector, got_scalar):
        assert v.dtype == s.dtype == np.int64
        assert np.array_equal(v, s)
    # An element is an open read when its first access is a read, a
    # covered read when it is read but written first.
    open_reads, writes, covered = got_scalar
    first = {}
    for e in log:
        first.setdefault(e if e >= 0 else ~e, e >= 0)
    reads = {e for e in log if e >= 0}
    assert set(open_reads.tolist()) == {i for i, r in first.items() if r}
    assert set(writes.tolist()) == {~e for e in log if e < 0}
    assert set(covered.tolist()) == {i for i in reads if not first[i]}


@given(log=access_logs, premarked=st.lists(st.integers(0, 15), max_size=6))
@settings(max_examples=100, deadline=None)
def test_set_log_marking_kernels_match(log, premarked):
    planes = {}
    for name, impl in KERNELS.items():
        write, exposed, any_read = set(premarked), set(), set()
        impl.mark_log_set(write, exposed, any_read, 16, _idx(log))
        planes[name] = (write, exposed, any_read)
    assert planes["vector"] == planes["scalar"]


@pytest.mark.parametrize("shadow_cls", [DenseShadow, SparseShadow])
@given(log=access_logs, premarked=st.lists(st.integers(0, 15), max_size=6))
@settings(max_examples=60, deadline=None)
def test_apply_log_matches_per_access_marking(shadow_cls, log, premarked):
    # The block-end log pass leaves exactly the planes per-access marking
    # leaves, on top of write marks set by earlier blocks.
    reference = shadow_cls(16)
    for index in premarked:
        reference.mark_write(index)
    for entry in log:
        if entry < 0:
            reference.mark_write(~entry)
        else:
            reference.mark_read(entry)
    for name in sorted(KERNELS):
        with use_kernels(name):
            shadow = shadow_cls(16)
            shadow.mark_write_many(_idx(premarked))
            shadow.apply_log(_idx(log))
        assert _shadow_fingerprint(shadow) == _shadow_fingerprint(reference)


@pytest.mark.parametrize("impl_name", sorted(KERNELS))
def test_primitive_bounds_errors(impl_name):
    impl = KERNELS[impl_name]
    words = np.zeros(4, dtype=np.uint64)
    with pytest.raises(IndexError, match=r"element 200 out of range \[0, 100\)"):
        impl.set_bits(words, 100, _idx([3, 200]))
    with pytest.raises(IndexError):
        impl.mark_reads_bits(words, words.copy(), words.copy(), 100, _idx([-1]))
    with pytest.raises(IndexError):
        impl.mark_writes_set(set(), 100, _idx([100]))
    with pytest.raises(IndexError, match=r"element 100 out of range \[0, 100\)"):
        impl.mark_log_set(set(), set(), set(), 100, _idx([3, ~100]))
    with pytest.raises(IndexError, match=r"element 100 out of range"):
        impl.mark_log_set(set(), set(), set(), 100, _idx([100]))


# ---------------------------------------------------------------------------
# Structure-level differentials (shadows and private views)
# ---------------------------------------------------------------------------


def _shadow_fingerprint(shadow):
    return (
        shadow.write_set(),
        shadow.exposed_read_set(),
        shadow.any_read_set(),
        shadow.update_set(),
        shadow.distinct_refs(),
    )


@pytest.mark.parametrize("shadow_cls", [DenseShadow, SparseShadow])
@given(decks=op_decks)
@settings(max_examples=40, deadline=None)
def test_shadow_marking_matches(shadow_cls, decks):
    prints = {}
    for name in sorted(KERNELS):
        with use_kernels(name):
            shadow = shadow_cls(N)
            for kind, ids in decks:
                idx = _idx(ids)
                if kind == "r":
                    shadow.mark_read_many(idx)
                elif kind == "w":
                    shadow.mark_write_many(idx)
                else:
                    shadow.mark_update_many(idx)
            prints[name] = _shadow_fingerprint(shadow)
    assert prints["vector"] == prints["scalar"]


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
