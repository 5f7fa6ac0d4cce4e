"""Unit tests for iteration-block arithmetic."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.util.blocks import (
    Block,
    partition_even,
    partition_weighted,
    validate_blocks,
)


class TestBlock:
    def test_length_and_contains(self):
        b = Block(0, 10, 20)
        assert len(b) == 10
        assert 10 in b and 19 in b
        assert 9 not in b and 20 not in b

    def test_empty_block(self):
        b = Block(3, 5, 5)
        assert len(b) == 0
        assert list(b.iterations()) == []

    def test_inverted_block_rejected(self):
        with pytest.raises(ScheduleError):
            Block(0, 10, 9)

    def test_negative_proc_rejected(self):
        with pytest.raises(ScheduleError):
            Block(-1, 0, 1)

    def test_iterations_range(self):
        assert list(Block(0, 2, 5).iterations()) == [2, 3, 4]


class TestPartitionEven:
    def test_exact_division(self):
        blocks = partition_even(0, 16, [0, 1, 2, 3])
        assert [len(b) for b in blocks] == [4, 4, 4, 4]
        assert blocks[0].start == 0 and blocks[-1].stop == 16

    def test_remainder_goes_to_first_procs(self):
        blocks = partition_even(0, 10, [0, 1, 2, 3])
        assert [len(b) for b in blocks] == [3, 3, 2, 2]

    def test_fewer_iterations_than_procs(self):
        blocks = partition_even(0, 2, [0, 1, 2, 3])
        assert [len(b) for b in blocks] == [1, 1, 0, 0]

    def test_nonzero_start(self):
        blocks = partition_even(100, 108, [0, 1])
        assert blocks[0].start == 100 and blocks[1].stop == 108

    def test_empty_range(self):
        blocks = partition_even(5, 5, [0, 1])
        assert all(len(b) == 0 for b in blocks)

    def test_sparse_proc_ids_preserved(self):
        blocks = partition_even(0, 9, [2, 5, 7])
        assert [b.proc for b in blocks] == [2, 5, 7]

    def test_unsorted_procs_rejected(self):
        with pytest.raises(ScheduleError):
            partition_even(0, 10, [1, 0])

    def test_no_procs_rejected(self):
        with pytest.raises(ScheduleError):
            partition_even(0, 10, [])

    def test_blocks_tile_range(self):
        blocks = partition_even(3, 77, list(range(5)))
        validate_blocks(blocks, 3, 77)  # should not raise


class TestPartitionWeighted:
    def test_uniform_weights_match_even(self):
        weights = np.ones(16)
        blocks = partition_weighted(0, 16, [0, 1, 2, 3], weights)
        assert [len(b) for b in blocks] == [4, 4, 4, 4]

    def test_skewed_weights_shift_boundaries(self):
        # All the cost in the last quarter: it should get its own processors.
        weights = np.zeros(100)
        weights[75:] = 1.0
        blocks = partition_weighted(0, 100, [0, 1, 2, 3], weights)
        per_block = [weights[b.start : b.stop].sum() for b in blocks]
        assert max(per_block) <= 13  # ~25/4 + granularity slack

    def test_weighted_partition_balances_ramp(self):
        n, p = 1000, 4
        weights = np.linspace(0.1, 2.0, n)
        blocks = partition_weighted(0, n, list(range(p)), weights)
        sums = [weights[b.start : b.stop].sum() for b in blocks]
        ideal = weights.sum() / p
        assert max(sums) < 1.1 * ideal

    def test_zero_total_falls_back_to_even(self):
        blocks = partition_weighted(0, 8, [0, 1], np.zeros(8))
        assert [len(b) for b in blocks] == [4, 4]

    def test_wrong_length_rejected(self):
        with pytest.raises(ScheduleError):
            partition_weighted(0, 8, [0, 1], np.ones(7))

    def test_negative_weights_rejected(self):
        w = np.ones(8)
        w[3] = -1
        with pytest.raises(ScheduleError):
            partition_weighted(0, 8, [0, 1], w)

    def test_covers_range(self):
        rng = np.random.default_rng(0)
        weights = rng.random(57)
        blocks = partition_weighted(10, 67, [0, 1, 2], weights)
        validate_blocks(blocks, 10, 67)


class TestValidation:
    def test_gap_detected(self):
        blocks = [Block(0, 0, 4), Block(1, 5, 8)]
        with pytest.raises(ScheduleError):
            validate_blocks(blocks, 0, 8)

    def test_overlap_detected(self):
        blocks = [Block(0, 0, 5), Block(1, 4, 8)]
        with pytest.raises(ScheduleError):
            validate_blocks(blocks, 0, 8)

    def test_wrong_proc_order_detected(self):
        blocks = [Block(1, 0, 4), Block(0, 4, 8)]
        with pytest.raises(ScheduleError):
            validate_blocks(blocks, 0, 8)

    def test_incomplete_coverage_detected(self):
        blocks = [Block(0, 0, 4)]
        with pytest.raises(ScheduleError):
            validate_blocks(blocks, 0, 8)

    def test_empty_blocks_skipped(self):
        blocks = [Block(0, 0, 4), Block(1, 4, 4), Block(2, 4, 8)]
        validate_blocks(blocks, 0, 8)
