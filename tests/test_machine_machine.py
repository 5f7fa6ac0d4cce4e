"""Unit tests for the Machine facade."""

import numpy as np
import pytest

from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage, SharedArray
from repro.machine.timeline import Category


class TestConstruction:
    def test_defaults(self):
        m = Machine(4)
        assert m.n_procs == 4
        assert isinstance(m.costs, CostModel)
        assert m.memory.names() == []
        assert m.topology is None

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            Machine(0)

    def test_custom_memory(self):
        mem = MemoryImage([SharedArray("A", np.zeros(3))])
        m = Machine(2, memory=mem)
        assert "A" in m.memory


class TestCharging:
    def test_charge_requires_stage(self):
        m = Machine(2)
        with pytest.raises(RuntimeError):
            m.charge(0, Category.WORK, 1.0)

    def test_charge_to_proc(self):
        m = Machine(2)
        m.begin_stage()
        m.charge(1, Category.WORK, 3.0)
        assert m.timeline.current.proc_time(1) == 3.0

    def test_zero_charge_is_noop(self):
        m = Machine(2)
        m.begin_stage()
        m.charge(0, Category.WORK, 0.0)
        assert m.timeline.current.span() == 0.0

    def test_barrier_charges_sync(self):
        costs = CostModel(sync=7.0)
        m = Machine(2, costs=costs)
        m.begin_stage()
        m.barrier()
        assert m.timeline.current.category_total(Category.SYNC) == 7.0
        assert m.timeline.current.span() == 7.0  # globally serialized

    def test_charge_global_serializes(self):
        m = Machine(2)
        m.begin_stage()
        m.charge(0, Category.WORK, 5.0)
        m.charge(1, Category.WORK, 5.0)
        m.charge_global(Category.ANALYSIS, 2.0)
        assert m.timeline.current.span() == 7.0  # max(5,5) + 2
