"""The typed array-frame codec and the shm backend's pickle-free data plane.

Round-trip tests cover every section kind of :mod:`repro.core.frames`
(named index/value arrays, sparse and dense shadow planes, reduction
partials, the self-check access log, inductions, fault strings, mark
lists) plus the deliberate pickle fallback for unframeable values and the
presence semantics of empty containers.

The steady-state guard then runs the sparse SPICE workload under the shm
backend with ``pickle`` replaced by a tripwire in both frame-touching
modules *before the workers fork*, proving the data plane moves sparse
residue as struct-packed frames with zero pickle -- while still matching
the serial backend bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core import frames
from repro.core import shm as shm_mod
from repro.core.backend import use_backend
from repro.core.runner import parallelize
from repro.shadow.dense import DenseShadow
from repro.shadow.marklist import MarkList
from repro.shadow.sparse import SparseShadow
from repro.util.bitset import BitSet
from repro.workloads.spice import make_dcdcmp15_loop


def _roundtrip(residue: dict) -> dict:
    blob = frames.pack_residue(residue)
    # Decode from a nonzero offset inside a larger buffer, the way the
    # shm reply parser consumes frames embedded in a pipe message.
    payload = b"\xaa\xbb" + blob + b"\xcc"
    return frames.unpack_residue(payload, 2, len(blob))


def test_empty_residue_is_empty_frame():
    assert frames.pack_residue({}) == b""
    assert frames.unpack_residue(b"", 0, 0) == {}


def test_named_arrays_roundtrip():
    residue = {
        "views": {
            "A": (np.array([3, 9, 11], dtype=np.int64), np.array([0.5, -1.25, 3.0])),
            "B": (np.array([], dtype=np.int64), np.array([], dtype=np.float32)),
        },
        "untested": {
            "C": (np.array([0], dtype=np.int64), np.array([7], dtype=np.int32)),
        },
    }
    out = _roundtrip(residue)
    assert sorted(out) == ["untested", "views"]
    for key in residue:
        assert sorted(out[key]) == sorted(residue[key])
        for name, (idx, vals) in residue[key].items():
            got_idx, got_vals = out[key][name]
            assert np.array_equal(got_idx, idx) and got_idx.dtype == idx.dtype
            assert np.array_equal(got_vals, vals) and got_vals.dtype == vals.dtype


def test_sparse_shadow_marks_roundtrip():
    shadow = SparseShadow(64)
    shadow.mark_write_many(np.array([4, 9], dtype=np.int64))
    shadow.mark_read_many(np.array([4, 17], dtype=np.int64))
    shadow.mark_update_many(np.array([30], dtype=np.int64))
    out = _roundtrip({"shadows": {"V": shadow.export_marks()}})
    rebuilt = SparseShadow(64)
    rebuilt.absorb_marks(out["shadows"]["V"])
    assert rebuilt.write_set() == shadow.write_set()
    assert rebuilt.exposed_read_set() == shadow.exposed_read_set()
    assert rebuilt.any_read_set() == shadow.any_read_set()
    assert rebuilt.update_set() == shadow.update_set()


def test_dense_shadow_marks_roundtrip():
    shadow = DenseShadow(130)
    shadow.mark_write_many(np.array([0, 63, 64, 129], dtype=np.int64))
    shadow.mark_read_many(np.array([63, 65], dtype=np.int64))
    out = _roundtrip({"shadows": {"D": shadow.export_marks()}})
    planes = out["shadows"]["D"]
    assert all(isinstance(p, BitSet) and p.size == 130 for p in planes)
    rebuilt = DenseShadow(130)
    rebuilt.absorb_marks(planes)
    assert rebuilt.write_set() == shadow.write_set()
    assert rebuilt.exposed_read_set() == shadow.exposed_read_set()
    assert rebuilt.any_read_set() == shadow.any_read_set()


def test_partials_preserve_value_dtype():
    residue = {
        "partials": {
            "sum64": {3: 1.5, 11: -2.25},
            "sum32": {0: np.float32(0.1), 5: np.float32(7.5)},
            "count": {2: 4, 9: 12},
        }
    }
    out = _roundtrip(residue)
    for name, partial in residue["partials"].items():
        got = out["partials"][name]
        assert sorted(got) == sorted(partial)
        for index, value in partial.items():
            assert got[index] == value
            assert np.asarray(got[index]).dtype == np.asarray(value).dtype


def test_pair_lists_rebuild_sorted():
    pairs = sorted([("A", 7), ("A", 1), ("B", 3), ("A", 7)])
    out = _roundtrip({"untested_reads": pairs, "untested_writes": []})
    assert out["untested_reads"] == pairs
    assert out["untested_writes"] == []


def test_empty_dicts_keep_presence():
    out = _roundtrip({"inductions": {}, "views": {}, "partials": {}})
    assert out == {"inductions": {}, "views": {}, "partials": {}}


def test_inductions_and_fault_roundtrip():
    out = _roundtrip({"inductions": {"k": 42, "m": -3}, "fault": "boom: stage 2"})
    assert out == {"inductions": {"k": 42, "m": -3}, "fault": "boom: stage 2"}


def test_marklists_roundtrip():
    ml = MarkList("A", proc=2, log_values=True)
    level = ml.open_level(5)
    level.writes.update([3, 9])
    level.exposed_reads.add(4)
    level.values.update({3: 1.5, 9: -2.0})
    level = ml.open_level(6)
    level.updates.add(11)
    out = _roundtrip({"marklists": {"A:2": ml}})
    got = out["marklists"]["A:2"]
    assert (got.array, got.proc, got.log_values) == ("A", 2, True)
    want_levels = ml.levels
    got_levels = got.levels
    assert len(got_levels) == len(want_levels)
    for want, got_level in zip(want_levels, got_levels):
        assert got_level.iteration == want.iteration
        assert got_level.writes == want.writes
        assert got_level.exposed_reads == want.exposed_reads
        assert got_level.updates == want.updates
        assert got_level.values == want.values


def test_unframeable_values_fall_back_to_pickle():
    residue = {
        "views": {"A": (np.array([1], dtype=np.int64), np.array([0.5]))},
        "partials": {"weird": {0: 1 << 200}},     # int64 overflow
        "metrics": {"counters": {"x": 1}},          # unknown key
    }
    out = _roundtrip(residue)
    assert np.array_equal(out["views"]["A"][0], residue["views"]["A"][0])
    assert out["partials"] == residue["partials"]
    assert out["metrics"] == residue["metrics"]


def test_truncated_frame_is_rejected():
    blob = frames.pack_residue({"inductions": {"k": 1}})
    with pytest.raises(ValueError, match="residue frame"):
        frames.unpack_residue(blob + b"\x00\x00", 0, len(blob) + 2)


# ---------------------------------------------------------------------------
# Steady state: zero pickle on the shm data plane
# ---------------------------------------------------------------------------


class _PickleTripwire:
    """Stand-in for the ``pickle`` module that fails loudly on any use.

    Installed on :mod:`repro.core.frames` and :mod:`repro.core.shm`
    before the worker pool forks, so worker processes inherit it too: a
    worker-side pickle call surfaces as a worker fault, a parent-side one
    raises straight into the test.
    """

    def __getattr__(self, name):
        raise AssertionError(
            f"pickle.{name} used on the shm data plane during a "
            "steady-state sparse run"
        )


def _summary(result):
    return (
        {name: data.tobytes() for name, data in sorted(result.memory.snapshot().items())},
        repr(result.total_time),
        result.n_stages,
    )


@pytest.mark.usefixtures("always_dispatch")
def test_shm_sparse_steady_state_moves_no_pickle(monkeypatch):
    make_loop = lambda: make_dcdcmp15_loop("perfect-up")  # noqa: E731
    config = RuntimeConfig.adaptive(backend="serial")
    want = _summary(parallelize(make_loop(), 4, config))

    monkeypatch.setattr(frames, "pickle", _PickleTripwire())
    monkeypatch.setattr(shm_mod, "pickle", _PickleTripwire())
    with use_backend("shm"):
        got = parallelize(make_loop(), 4, RuntimeConfig.adaptive(backend="shm"))
    assert _summary(got) == want
