"""Unit tests for the shadow structures (the access-log shadow, mark lists,
tables)."""

import numpy as np
import pytest

from repro.machine.memory import SharedArray, make_private_view
from repro.shadow import ShadowArray, make_shadow
from repro.shadow.edges import DependenceEdge, EdgeKind, InvertedEdgeTable
from repro.shadow.lastref import LastReferenceTable
from repro.shadow.marklist import IterationMarks, MarkList, written_values


@pytest.mark.usefixtures("kernel_mode")
class TestShadowMarking:
    """The paper's marking semantics, resolved from the access log under
    each kernels implementation."""

    def test_fresh_shadow_clear(self):
        sh = ShadowArray(16)
        assert sh.is_clear()
        assert sh.distinct_refs() == 0

    def test_read_first_is_exposed(self):
        sh = ShadowArray(16)
        sh.mark_read(3)
        assert 3 in sh.exposed_read_set()
        assert 3 in sh.any_read_set()

    def test_write_then_read_not_exposed(self):
        """If the Write occurs first, subsequent Reads do not set the read
        bit (paper, Section 2)."""
        sh = ShadowArray(16)
        sh.mark_write(3)
        sh.mark_read(3)
        assert 3 not in sh.exposed_read_set()
        assert 3 in sh.any_read_set()

    def test_read_then_write_stays_exposed(self):
        """If the Read occurs before the Write, both bits remain set --
        the element is not privatizable on this processor."""
        sh = ShadowArray(16)
        sh.mark_read(3)
        sh.mark_write(3)
        assert 3 in sh.exposed_read_set()
        assert 3 in sh.write_set()

    def test_repeated_marks_idempotent(self):
        sh = ShadowArray(16)
        for _ in range(3):
            sh.mark_write(5)
            sh.mark_read(5)
        assert sh.distinct_refs() == 1

    def test_update_separate_plane(self):
        sh = ShadowArray(16)
        sh.mark_update(7)
        assert 7 in sh.update_set()
        assert 7 not in sh.write_set()
        assert 7 not in sh.any_read_set()

    def test_distinct_refs_unions_planes(self):
        sh = ShadowArray(16)
        sh.mark_read(1)
        sh.mark_write(2)
        sh.mark_update(3)
        sh.mark_write(1)  # overlaps the read
        assert sh.distinct_refs() == 3

    def test_reset(self):
        sh = ShadowArray(16)
        sh.mark_read(0)
        sh.mark_write(1)
        sh.mark_update(2)
        sh.reset()
        assert sh.is_clear()

    def test_out_of_range(self):
        sh = ShadowArray(4)
        with pytest.raises(IndexError):
            sh.mark_read(4)
        with pytest.raises(IndexError):
            sh.mark_write(-1)
        with pytest.raises(IndexError):
            sh.mark_update(4)
        assert sh.is_clear()

    def test_write_and_update_marks_are_separate(self):
        # A reduction update and an ordinary write of one element: the
        # element is in both sets (a mixed element) and counted once.
        sh = ShadowArray(16)
        sh.mark_update(6)
        sh.mark_write(6)
        sh.mark_read(6)
        assert sh.write_set() == sh.update_set() == {6}
        assert sh.exposed_read_set() == set()
        assert sh.distinct_refs() == 1

    def test_noted_distinct_count_holds_until_the_next_record(self):
        sh = ShadowArray(16)
        sh.mark_read(1)
        sh.mark_write(2)
        sh.note_distinct(5)  # the stage analysis' count wins while unchanged
        assert sh.distinct_refs() == 5
        sh.mark_read(9)
        assert sh.distinct_refs() == 3

    def test_reset_shadow_is_reusable(self):
        sh = ShadowArray(16)
        sh.mark_write(4)
        sh.reset()
        sh.mark_read(4)  # no write survives the reset to cover it
        assert sh.exposed_read_set() == {4}
        assert sh.write_set() == set()
        assert sh.distinct_refs() == 1

    def test_absorbed_log_follows_own_log(self):
        # A shipped log is appended after the shadow's own accesses: its
        # read of 2 is covered by the local write, its write of 3 does not
        # cover the local read before it.
        src = ShadowArray(16)
        src.mark_read(2)
        src.mark_write(3)
        sh = ShadowArray(16)
        sh.mark_write(2)
        sh.mark_read(3)
        sh.absorb_marks(src.export_marks())
        assert sh.exposed_read_set() == {3}
        assert sh.write_set() == {2, 3}
        assert sh.any_read_set() == {2, 3}


class TestMakeShadow:
    """One shadow class for every tested array, dense or sparse: its size
    is the array's, its memory the log's."""

    @pytest.mark.parametrize("n", [100, 1 << 20])
    def test_one_representation(self, n):
        shadow = make_shadow(n)
        assert type(shadow) is ShadowArray
        assert shadow.n_elements == n and shadow.is_clear()

    def test_large_shadow_holds_only_its_log(self):
        shadow = make_shadow(1 << 20)
        shadow.mark_write((1 << 20) - 1)
        shadow.mark_read(7)
        assert sum(log.nbytes for log in shadow.logs) == 16
        assert shadow.write_set() == {(1 << 20) - 1}
        assert shadow.exposed_read_set() == {7}

    def test_two_blocks_resolve_as_one_log(self):
        # A read in a later block is covered by an earlier block's write.
        shadow = make_shadow(16)
        shadow.record(np.array([~4, 5], dtype=np.int64))
        shadow.record(np.array([4, 5, ~5], dtype=np.int64))
        assert shadow.exposed_read_set() == {5}
        assert shadow.write_set() == {4, 5}
        assert shadow.distinct_refs() == 2


def _record(ml, iteration, entries, reduction=False, view=None):
    """Append one iteration's level to ``ml`` from its log slice, the way
    the executor records a one-iteration block."""
    values = None
    if ml.log_values and view is not None:
        values = [written_values(view, entries)]
    ml.record_block(
        [iteration], [0, len(entries)], np.array(entries, dtype=np.int64),
        reduction, values,
    )
    return ml.level(len(ml) - 1)


class TestMarkList:
    """Levels are read off one iteration's slice of an array's signed
    access log: reads ``i``, writes ``~i``, in execution order."""

    def test_levels_in_iteration_order(self):
        ml = MarkList("A", proc=2)
        _record(ml, 4, [~0])
        _record(ml, 5, [0])
        assert len(ml) == 2
        assert ml.level(0).iteration == 4
        assert ml.level(1).iteration == 5

    def test_non_increasing_iteration_rejected(self):
        ml = MarkList("A", proc=0)
        _record(ml, 4, [])
        with pytest.raises(ValueError):
            _record(ml, 4, [])

    def test_iteration_marks_intra_iteration_cover(self):
        marks = _record(MarkList("A", proc=0), 0, [~3, 3])  # read covered by the write
        assert 3 not in marks.exposed_reads

    def test_iteration_marks_exposed(self):
        marks = _record(MarkList("A", proc=0), 0, [3, ~3])
        assert 3 in marks.exposed_reads

    def test_distinct_refs(self):
        ml = MarkList("A", proc=0)
        _record(ml, 0, [1, ~2])
        _record(ml, 1, [3], reduction=True)
        assert ml.distinct_refs() == 3

    def test_reset(self):
        ml = MarkList("A", proc=0)
        _record(ml, 0, [])
        ml.reset()
        assert len(ml) == 0

    @pytest.mark.parametrize("reduction", [False, True])
    def test_a_block_resolves_like_its_iterations(self, reduction):
        # One pass over the block's log, grouped by iteration, gives every
        # level the iteration's own slice gives (an empty one included).
        entries = [3, ~3, ~4, 4, 4, ~2, 5, 5] if not reduction else [3, 3, 4, 4, 2, 5, 5, 1]
        bounds = [0, 2, 2, 5, 8]
        block = MarkList("A", proc=0)
        block.record_block([10, 11, 12, 13], bounds, np.array(entries), reduction)
        single = MarkList("A", proc=0)
        for it, a, b in zip([10, 11, 12, 13], bounds, bounds[1:]):
            _record(single, it, entries[a:b], reduction)
        assert block.levels == single.levels
        assert block.level(1) == IterationMarks(11)

    def test_a_reduction_slice_is_all_updates(self):
        marks = _record(MarkList("A", proc=0), 0, [5, 2, 5], reduction=True)
        assert (marks.updates, marks.writes, marks.exposed_reads) == ({2, 5}, set(), set())

    @pytest.mark.parametrize("sparse", [False, True])
    def test_logged_values_come_from_the_view(self, sparse):
        view = make_private_view(SharedArray("A", np.zeros(8)), sparse=sparse)
        view.store(2, 1.0)
        view.store(2, 4.0)  # the iteration's last write wins
        view.store(6, 7.0)
        entries = [~2, 2, ~2, ~6]
        logged = _record(MarkList("A", proc=0, log_values=True), 0, entries, view=view)
        assert logged.values == {2: 4.0, 6: 7.0}
        assert (logged.writes, logged.exposed_reads) == ({2, 6}, set())
        plain = _record(MarkList("A", proc=0), 0, entries, view=view)
        assert plain.values == {}


class TestLastReferenceTable:
    def test_records_latest_write(self):
        t = LastReferenceTable()
        t.record_write("A", 3, 10)
        t.record_write("A", 3, 5)  # older, must not regress
        assert t.last_write("A", 3) == 10

    def test_unknown_returns_none(self):
        t = LastReferenceTable()
        assert t.last_write("A", 0) is None
        assert t.readers_since_write("A", 0) == frozenset()

    def test_all_readers_since_write_kept(self):
        """Regression for a hypothesis-found bug: a write must see *every*
        reader since the previous write, not only the latest one, or anti
        dependences are dropped."""
        t = LastReferenceTable()
        t.record_read("A", 1, 2)
        t.record_read("A", 1, 3)
        assert t.readers_since_write("A", 1) == frozenset({2, 3})

    def test_write_clears_reader_set(self):
        t = LastReferenceTable()
        t.record_read("A", 1, 2)
        t.record_write("A", 1, 4)
        assert t.readers_since_write("A", 1) == frozenset()
        t.record_read("A", 1, 5)
        assert t.readers_since_write("A", 1) == frozenset({5})

    def test_reads_do_not_create_write_entries(self):
        t = LastReferenceTable()
        t.record_read("A", 1, 7)
        assert t.last_write("A", 1) is None

    def test_len_counts_written_addresses(self):
        t = LastReferenceTable()
        t.record_write("A", 0, 1)
        t.record_write("B", 0, 1)
        t.record_write("A", 0, 2)
        assert len(t) == 2

    def test_reset(self):
        t = LastReferenceTable()
        t.record_write("A", 0, 1)
        t.record_read("A", 0, 2)
        t.reset()
        assert len(t) == 0
        assert t.readers_since_write("A", 0) == frozenset()


class TestInvertedEdgeTable:
    def test_edges_deduplicate(self):
        table = InvertedEdgeTable()
        e = DependenceEdge(1, 2, EdgeKind.FLOW, "A", 0)
        table.log(e)
        table.log(DependenceEdge(1, 2, EdgeKind.FLOW, "A", 0))
        assert len(table) == 1

    def test_backward_edge_rejected(self):
        with pytest.raises(ValueError):
            DependenceEdge(2, 1, EdgeKind.FLOW, "A", 0)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            DependenceEdge(2, 2, EdgeKind.FLOW, "A", 0)

    def test_distance(self):
        assert DependenceEdge(1, 5, EdgeKind.ANTI, "A", 0).distance == 4

    def test_kind_filter(self):
        table = InvertedEdgeTable()
        table.log(DependenceEdge(1, 2, EdgeKind.FLOW, "A", 0))
        table.log(DependenceEdge(1, 3, EdgeKind.ANTI, "A", 0))
        assert len(table.edges(EdgeKind.FLOW)) == 1
        assert table.iteration_pairs([EdgeKind.ANTI]) == {(1, 3)}

    def test_to_graph_collapses_kinds(self):
        table = InvertedEdgeTable()
        table.log(DependenceEdge(1, 2, EdgeKind.FLOW, "A", 0))
        table.log(DependenceEdge(1, 2, EdgeKind.OUTPUT, "A", 1))
        g = table.to_graph(4)
        assert g.number_of_edges() == 1
        assert g[1][2]["kinds"] == {EdgeKind.FLOW, EdgeKind.OUTPUT}
        assert g.number_of_nodes() == 4

    def test_iteration_order_sorted(self):
        table = InvertedEdgeTable()
        table.log(DependenceEdge(5, 6, EdgeKind.FLOW, "A", 0))
        table.log(DependenceEdge(1, 2, EdgeKind.FLOW, "A", 0))
        assert [e.src for e in table] == [1, 5]
