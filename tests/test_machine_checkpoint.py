"""Unit tests for checkpoint/restore of untested state."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.machine.checkpoint import CHUNK, CheckpointManager, verify_untested_isolation
from repro.machine.memory import MemoryImage, SharedArray


def make_memory(n=8):
    return MemoryImage([SharedArray("B", np.arange(float(n)))])


class TestFullCheckpoint:
    def test_begin_copies_everything(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        assert ckpt.begin_stage() == 8

    def test_restore_failed_rolls_back(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        ckpt.begin_stage()
        ckpt.note_write(2, "B", 5)
        mem["B"].data[5] = -1.0
        restored = ckpt.restore_failed([2])
        assert restored == 1
        assert mem["B"].data[5] == 5.0

    def test_committed_procs_not_rolled_back(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 1)
        mem["B"].data[1] = 100.0
        ckpt.restore_failed([3])  # proc 3 wrote nothing
        assert mem["B"].data[1] == 100.0


class TestOnDemandCheckpoint:
    def test_begin_copies_nothing(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        assert ckpt.begin_stage() == 0

    def test_first_touch_saves(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        assert ckpt.note_write(0, "B", 3) == 1
        assert ckpt.note_write(0, "B", 3) == 0  # second touch is free

    def test_first_touch_saves_old_value(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 4)
        mem["B"].data[4] = -7.0
        mem["B"].data[4] = -8.0  # overwritten twice
        ckpt.restore_failed([1])
        assert mem["B"].data[4] == 4.0

    def test_restore_is_dirty_only_and_counts_bytes(self):
        # Restoration touches exactly the failed processors' dirty indices;
        # last_restored_bytes reports the traffic of the most recent call.
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 2)
        ckpt.note_write(1, "B", 5)
        ckpt.note_write(0, "B", 6)  # survives: proc 0 is not restored
        mem["B"].data[[2, 5, 6]] = -1.0
        assert ckpt.restore_failed([1]) == 2
        assert ckpt.last_restored_bytes == 2 * mem["B"].data.dtype.itemsize
        assert mem["B"].data[2] == 2.0 and mem["B"].data[5] == 5.0
        assert mem["B"].data[6] == -1.0
        assert ckpt.restore_failed([1]) == 0
        assert ckpt.last_restored_bytes == 0

    def test_elements_checkpointed_counter(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 0)
        ckpt.note_write(0, "B", 1)
        ckpt.note_write(1, "B", 2)
        assert ckpt.elements_checkpointed == 3


class TestContractEnforcement:
    def test_cross_group_write_detected(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 3)  # committing proc
        ckpt.note_write(5, "B", 3)  # failed proc, same element
        with pytest.raises(CheckpointError):
            ckpt.restore_failed([5])

    def test_unknown_array_rejected(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        with pytest.raises(CheckpointError):
            ckpt.note_write(0, "C", 0)

    @pytest.mark.parametrize("on_demand", [True, False])
    def test_write_before_begin_stage_rejected(self, on_demand):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=on_demand)
        with pytest.raises(CheckpointError, match="begin_stage"):
            ckpt.note_write(0, "B", 3)

    def test_begin_stage_opens_the_epoch(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        assert ckpt.note_write(0, "B", 3) == 1  # no lifecycle error

    def test_restore_clears_failed_logs(self):
        # After restoration the failed processors re-execute and re-write;
        # their old logs must not leak into the next stage's restore.
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(2, "B", 6)
        mem["B"].data[6] = -1.0
        ckpt.restore_failed([2])
        assert ckpt.restore_failed([2]) == 0  # nothing left to restore

    def test_modified_by(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 2)
        ckpt.note_write(3, "B", 7)
        assert ckpt.modified_by([1]) == {"B": [2]}
        assert ckpt.modified_by([1, 3]) == {"B": [2, 7]}


class TestWriterColumns:
    def test_capture_checkpoint_saves_without_charging(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True, charge_saves=False)
        ckpt.begin_stage()
        assert ckpt.note_write(0, "B", 3) == 0
        assert ckpt.note_write_many(0, "B", np.array([3, 4, 4])) == 0
        mem["B"].data[[3, 4]] = -1.0
        assert ckpt.restore_failed([0]) == 2
        assert mem["B"].data.tolist() == list(np.arange(8.0))

    def test_export_writes_gathers_current_values(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write_many(1, "B", np.array([6, 2, 6]))
        ckpt.note_write(0, "B", 5)
        mem["B"].data[[2, 5, 6]] = [-2.0, -5.0, -6.0]
        (idx, values), = ckpt.export_writes(1).values()
        assert idx.tolist() == [2, 6] and values.tolist() == [-2.0, -6.0]
        assert ckpt.export_writes(3) == {}

    def test_full_mode_restores_from_the_stage_copy(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=False)
        ckpt.begin_stage()
        ckpt.note_write_many(2, "B", np.array([1, 7]))
        mem["B"].data[[1, 7]] = -1.0
        assert ckpt.restore_failed([2]) == 2
        assert mem["B"].data[1] == 1.0 and mem["B"].data[7] == 7.0
        assert ckpt.elements_checkpointed == 8

    def test_rolled_back_element_rechecks_its_first_touch(self):
        # A restored element's save is dropped, so a later write in the
        # same stage is a first touch again (and is counted again).
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(1, "B", 4)
        ckpt.restore_failed([1])
        assert ckpt.note_write(1, "B", 4) == 1
        assert ckpt.elements_checkpointed == 2

    def test_write_handles_need_an_open_stage(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        with pytest.raises(CheckpointError, match="begin_stage"):
            ckpt.write_handles(0)

    def test_clash_names_both_processor_groups(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write_many(0, "B", np.array([6, 3]))
        ckpt.note_write(4, "B", 3)
        ckpt.note_write(5, "B", 3)
        with pytest.raises(CheckpointError, match=r"element 3 .*\[0\].*\[4, 5\]"):
            ckpt.restore_failed([4, 5])


class TestFirstTouchChunks:
    """On-demand old values live in chunk copies taken on a chunk's first
    write; flags say which elements were first-touched."""

    def test_later_first_touch_in_a_copied_chunk_restores(self, kernel_mode):
        mem = make_memory(CHUNK + 5)
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        assert ckpt.note_write(1, "B", 2) == 1
        mem["B"].data[2] = -2.0
        assert ckpt.note_write(1, "B", 3) == 1  # its chunk is already copied
        mem["B"].data[3] = -3.0
        assert ckpt.restore_failed([1]) == 2
        assert mem["B"].data.tolist() == list(np.arange(CHUNK + 5.0))

    def test_restore_spans_chunks_and_the_partial_last_one(self, kernel_mode):
        mem = make_memory(CHUNK + 5)
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        written = [CHUNK - 1, CHUNK, CHUNK + 4]
        assert ckpt.note_write_many(2, "B", np.array(written[:2])) == 2
        assert ckpt.note_write(2, "B", CHUNK + 4) == 1
        assert ckpt.note_write(0, "B", 0) == 1  # a committing proc's element
        mem["B"].data[written + [0]] = -1.0
        assert ckpt.restore_failed([2]) == 3
        assert mem["B"].data[written].tolist() == [float(i) for i in written]
        assert mem["B"].data[0] == -1.0
        assert ckpt.elements_checkpointed == 4

    def test_negative_index_names_the_element_from_the_end(self, kernel_mode):
        mem = make_memory(CHUNK + 1)
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        assert ckpt.note_write(1, "B", -2) == 1
        assert ckpt.note_write(1, "B", CHUNK - 1) == 0  # the same element
        mem["B"].data[-2] = -1.0
        assert ckpt.modified_by([1]) == {"B": [CHUNK - 1]}
        assert ckpt.restore_failed([1]) == 1
        assert mem["B"].data[CHUNK - 1] == CHUNK - 1.0

    def test_out_of_range_batch_records_nothing(self):
        ckpt = CheckpointManager(make_memory(), ["B"], on_demand=True)
        ckpt.begin_stage()
        with pytest.raises(IndexError, match="element 8 out of range"):
            ckpt.note_write_many(1, "B", np.array([3, 8]))
        with pytest.raises(IndexError):
            ckpt.note_write(1, "B", 8)
        assert ckpt.modified_by([1]) == {"B": []}
        assert ckpt.elements_checkpointed == 0

    def test_a_new_stage_forgets_flags_and_chunk_copies(self):
        mem = make_memory()
        ckpt = CheckpointManager(mem, ["B"], on_demand=True)
        ckpt.begin_stage()
        ckpt.note_write(0, "B", 3)
        mem["B"].data[3] = 30.0  # committed: no restore
        ckpt.begin_stage()
        assert ckpt.elements_checkpointed == 0
        assert ckpt.note_write(1, "B", 3) == 1  # a first touch again
        mem["B"].data[3] = -1.0
        ckpt.restore_failed([1])
        assert mem["B"].data[3] == 30.0  # this stage's old value

    def test_state_follows_the_writes_not_the_array(self):
        # A 1 Mi-element array written at ~100 scattered elements per
        # stage: one long-lived manager over several failing stages and a
        # fresh manager per stage (as a fork worker builds one per task)
        # allocate flags and chunk copies, never a copy of the array.
        n = 1 << 20
        mem = MemoryImage([SharedArray("U", np.zeros(n))])
        idx = (np.arange(100, dtype=np.int64) * 2654435761) % n
        kept = CheckpointManager(mem, ["U"], on_demand=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for stage in range(4):
                for ckpt in (kept, CheckpointManager(mem, ["U"], on_demand=True)):
                    ckpt.begin_stage()
                    assert ckpt.note_write_many(1, "U", idx + stage) == 100
                    assert ckpt.note_write(2, "U", int(idx[0]) + 7) == 1
                    mem["U"].data[idx + stage] = 1.0
                    mem["U"].data[int(idx[0]) + 7] = 2.0
                    assert ckpt.restore_failed([1, 2]) == 101
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not mem["U"].data.any()
        # Two managers' flags (one byte per element) and chunk tables;
        # one copy of the array alone is 8 MiB.
        assert peak - base <= 3 << 20


class TestIsolationValidator:
    def test_clean_pattern_passes(self):
        reads = {"B": {3: {0}}}
        writes = {"B": {3: {0}}}
        assert verify_untested_isolation(reads, writes) == []

    def test_cross_proc_raw_flagged(self):
        reads = {"B": {3: {2}}}
        writes = {"B": {3: {0}}}
        problems = verify_untested_isolation(reads, writes)
        assert len(problems) == 1
        assert "B[3]" in problems[0]

    def test_read_only_element_ok(self):
        reads = {"B": {3: {0, 1, 2}}}
        writes = {"B": {}}
        assert verify_untested_isolation(reads, writes) == []
