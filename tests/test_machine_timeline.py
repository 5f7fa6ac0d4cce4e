"""Unit tests for the virtual-clock timeline."""

import pytest

from repro.machine.timeline import GLOBAL, Category, StageRecord, Timeline


class TestStageRecord:
    def test_span_is_max_over_procs(self):
        r = StageRecord(0)
        r.charge(0, Category.WORK, 10.0)
        r.charge(1, Category.WORK, 4.0)
        assert r.span() == 10.0

    def test_global_charges_add_to_span(self):
        r = StageRecord(0)
        r.charge(0, Category.WORK, 10.0)
        r.charge(GLOBAL, Category.SYNC, 3.0)
        assert r.span() == 13.0

    def test_charges_accumulate_per_proc(self):
        r = StageRecord(0)
        r.charge(0, Category.WORK, 1.0)
        r.charge(0, Category.MARK, 2.0)
        assert r.proc_time(0) == 3.0

    def test_negative_charge_rejected(self):
        r = StageRecord(0)
        with pytest.raises(ValueError):
            r.charge(0, Category.WORK, -1.0)

    def test_category_total_sums_all_procs(self):
        r = StageRecord(0)
        r.charge(0, Category.WORK, 2.0)
        r.charge(1, Category.WORK, 3.0)
        assert r.category_total(Category.WORK) == 5.0

    def test_category_span_is_parallel(self):
        r = StageRecord(0)
        r.charge(0, Category.WORK, 2.0)
        r.charge(1, Category.WORK, 3.0)
        assert r.category_span(Category.WORK) == 3.0

    def test_commit_and_restore_overlap(self):
        # Commit on committing procs, restore on failed procs: the stage
        # span reflects the slower of the two groups, not the sum.
        r = StageRecord(0)
        r.charge(0, Category.COMMIT, 5.0)
        r.charge(1, Category.RESTORE, 3.0)
        assert r.span() == 5.0

    def test_breakdown_only_nonzero(self):
        r = StageRecord(0)
        r.charge(0, Category.WORK, 1.0)
        bd = r.breakdown()
        assert Category.WORK in bd
        assert Category.COMMIT not in bd

    def test_empty_stage_span_zero(self):
        assert StageRecord(0).span() == 0.0


class TestTimeline:
    def test_stages_sum(self):
        tl = Timeline()
        r1 = tl.begin_stage()
        r1.charge(0, Category.WORK, 5.0)
        r2 = tl.begin_stage()
        r2.charge(0, Category.WORK, 7.0)
        assert tl.total_time() == 12.0
        assert tl.n_stages() == 2

    def test_cumulative_spans(self):
        tl = Timeline()
        tl.begin_stage().charge(0, Category.WORK, 5.0)
        tl.begin_stage().charge(0, Category.WORK, 7.0)
        assert tl.cumulative_spans() == [5.0, 12.0]

    def test_overhead_excludes_work(self):
        tl = Timeline()
        r = tl.begin_stage()
        r.charge(0, Category.WORK, 10.0)
        r.charge(GLOBAL, Category.SYNC, 4.0)
        assert tl.overhead_time() == pytest.approx(4.0)

    def test_current_requires_stage(self):
        with pytest.raises(RuntimeError):
            Timeline().current

    def test_total_category_across_stages(self):
        tl = Timeline()
        tl.begin_stage().charge(0, Category.MARK, 1.0)
        tl.begin_stage().charge(1, Category.MARK, 2.0)
        assert tl.total_category(Category.MARK) == 3.0

    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.total_time() == 0.0
        assert tl.cumulative_spans() == []
