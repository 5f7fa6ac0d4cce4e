"""Unit tests for shared memory and private (speculative) views."""

import numpy as np
import pytest

from repro.machine.memory import (
    DensePrivateView,
    MemoryImage,
    SharedArray,
    SparsePrivateView,
    make_private_view,
)


class TestSharedArray:
    def test_copies_initial_data(self):
        src = np.arange(4.0)
        arr = SharedArray("A", src)
        src[0] = 99
        assert arr.data[0] == 0.0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            SharedArray("A", np.zeros((2, 2)))

    def test_len(self):
        assert len(SharedArray("A", np.zeros(7))) == 7


class TestMemoryImage:
    def test_lookup(self):
        mem = MemoryImage([SharedArray("A", np.zeros(3))])
        assert len(mem["A"]) == 3
        assert "A" in mem and "B" not in mem

    def test_unknown_name_lists_known(self):
        mem = MemoryImage([SharedArray("A", np.zeros(3))])
        with pytest.raises(KeyError, match="A"):
            mem["B"]

    def test_duplicate_rejected(self):
        mem = MemoryImage([SharedArray("A", np.zeros(3))])
        with pytest.raises(ValueError):
            mem.add(SharedArray("A", np.zeros(3)))

    def test_snapshot_restore_roundtrip(self):
        mem = MemoryImage([SharedArray("A", np.arange(4.0))])
        snap = mem.snapshot()
        mem["A"].data[:] = -1
        mem.restore(snap)
        assert np.array_equal(mem["A"].data, np.arange(4.0))

    def test_snapshot_is_deep(self):
        mem = MemoryImage([SharedArray("A", np.zeros(3))])
        snap = mem.snapshot()
        mem["A"].data[0] = 5
        assert snap["A"][0] == 0

    def test_equals(self):
        mem = MemoryImage([SharedArray("A", np.arange(3.0))])
        assert mem.equals({"A": np.arange(3.0)})
        assert not mem.equals({"A": np.zeros(3)})
        assert not mem.equals({})

    def test_allclose_tolerates_fp_noise(self):
        mem = MemoryImage([SharedArray("A", np.array([1.0]))])
        assert mem.allclose({"A": np.array([1.0 + 1e-13])})
        assert not mem.allclose({"A": np.array([1.1])})


@pytest.mark.parametrize("view_cls", [DensePrivateView, SparsePrivateView])
class TestPrivateViews:
    def make(self, view_cls, data=None):
        shared = SharedArray("A", data if data is not None else np.arange(8.0))
        return shared, view_cls(shared)

    def test_first_load_copies_in(self, view_cls):
        _, view = self.make(view_cls)
        value, copied = view.load(3)
        assert value == 3.0 and copied

    def test_second_load_is_local(self, view_cls):
        _, view = self.make(view_cls)
        view.load(3)
        _, copied = view.load(3)
        assert not copied

    def test_store_then_load_returns_private(self, view_cls):
        shared, view = self.make(view_cls)
        view.store(2, 42.0)
        value, copied = view.load(2)
        assert value == 42.0 and not copied
        assert shared.data[2] == 2.0  # shared untouched

    def test_load_after_store_not_copyin(self, view_cls):
        _, view = self.make(view_cls)
        view.store(0, 1.0)
        _, copied = view.load(0)
        assert not copied

    def test_written_items_last_value(self, view_cls):
        _, view = self.make(view_cls)
        view.store(1, 10.0)
        view.store(1, 20.0)
        view.store(5, 50.0)
        assert dict(view.written_items()) == {1: 20.0, 5: 50.0}

    def test_n_written_counts_distinct(self, view_cls):
        _, view = self.make(view_cls)
        view.store(1, 1.0)
        view.store(1, 2.0)
        assert view.n_written() == 1

    def test_reads_do_not_count_as_written(self, view_cls):
        _, view = self.make(view_cls)
        view.load(4)
        assert view.n_written() == 0
        assert dict(view.written_items()) == {}

    def test_reset_discards_everything(self, view_cls):
        shared, view = self.make(view_cls)
        view.store(0, 99.0)
        view.reset()
        assert view.n_written() == 0
        value, copied = view.load(0)
        assert value == 0.0 and copied

    def test_has_local(self, view_cls):
        _, view = self.make(view_cls)
        assert not view.has_local(2)
        view.load(2)
        assert view.has_local(2)

    def test_copy_in_sees_current_shared_value(self, view_cls):
        # Copy-in must read shared memory at access time, not at view
        # creation: this is how flow dependences from committed stages are
        # satisfied during re-execution.
        shared, view = self.make(view_cls)
        shared.data[6] = 66.0
        value, _ = view.load(6)
        assert value == 66.0

    def test_load_many_counts_distinct_copy_ins(self, view_cls):
        _, view = self.make(view_cls)
        view.store(1, 9.0)
        values, copied = view.load_many(np.array([1, 2, 2, 3]))
        assert values.tolist() == [9.0, 2.0, 2.0, 3.0]
        assert copied == 2  # 2 and 3; 1 was already private
        assert view.n_written() == 1

    def test_store_many_matches_scalar_stores(self, view_cls):
        _, bulk = self.make(view_cls)
        _, scalar = self.make(view_cls)
        indices, values = np.array([6, 0, 6]), np.array([1.0, 2.0, 3.0])
        bulk.store_many(indices, values)
        for i, v in zip(indices, values):
            scalar.store(int(i), v)
        assert dict(bulk.written_items()) == dict(scalar.written_items())
        assert dict(bulk.written_items()) == {0: 2.0, 6: 3.0}

    def test_preload_copies_in_only_for_dense_views(self, view_cls):
        shared, view = self.make(view_cls)
        dense = view_cls is DensePrivateView
        assert view.preload() == (len(shared) if dense else 0)
        _, copied = view.load(5)
        assert copied is not dense


class TestViewSelection:
    def test_small_array_dense(self):
        shared = SharedArray("A", np.zeros(16))
        assert isinstance(make_private_view(shared), DensePrivateView)

    def test_forced_sparse(self):
        shared = SharedArray("A", np.zeros(16))
        assert isinstance(make_private_view(shared, sparse=True), SparsePrivateView)

    def test_forced_dense(self):
        shared = SharedArray("A", np.zeros(16))
        assert isinstance(make_private_view(shared, sparse=False), DensePrivateView)
