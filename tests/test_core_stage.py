"""Unit tests for the shared stage helpers."""

import numpy as np
import pytest

from repro.core.analysis import analyze_stage
from repro.core.stage import (
    charge_analysis,
    charge_checkpoint_begin,
    charge_redistribution,
    charge_redistribution_topo,
)
from repro.machine.checkpoint import CheckpointManager
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage, SharedArray
from repro.machine.timeline import Category
from repro.machine.topology import Topology
from repro.shadow import ShadowArray
from repro.util.blocks import Block


def machine_with_stage(p=4, topology=None, **costs):
    m = Machine(
        p,
        costs=CostModel(**costs) if costs else None,
        memory=MemoryImage([SharedArray("B", np.arange(8.0))]),
        topology=topology,
    )
    m.begin_stage()
    return m


class TestCheckpointCharge:
    def test_full_checkpoint_parallelized(self):
        m = machine_with_stage(p=4, checkpoint_per_elem=1.0)
        ckpt = CheckpointManager(m.memory, ["B"], on_demand=False)
        charged = charge_checkpoint_begin(m, ckpt)
        assert charged == 8
        assert m.timeline.current.category_total(Category.CHECKPOINT) == (
            pytest.approx(8 / 4)
        )

    def test_on_demand_charges_nothing_up_front(self):
        m = machine_with_stage()
        ckpt = CheckpointManager(m.memory, ["B"], on_demand=True)
        assert charge_checkpoint_begin(m, ckpt) == 0
        assert m.timeline.current.span() == 0.0

    def test_none_manager(self):
        m = machine_with_stage()
        assert charge_checkpoint_begin(m, None) == 0


class TestAnalysisCharge:
    def test_per_group_charges(self):
        m = machine_with_stage(p=2, analysis_per_ref=1.0)
        sh0, sh1 = ShadowArray(8), ShadowArray(8)
        sh0.mark_write(0)
        sh0.mark_write(1)
        sh1.mark_read(2)
        analysis = analyze_stage([(0, {"A": sh0}), (1, {"A": sh1})])
        charge_analysis(m, analysis, [0, 1])
        # 2 groups -> log2(2) = 1; proc 0 has 2 refs, proc 1 has 1.
        assert m.timeline.current.proc_time(0) == pytest.approx(2.0)
        assert m.timeline.current.proc_time(1) == pytest.approx(1.0)


class TestRedistributionCharges:
    def test_flat_per_iteration(self):
        m = machine_with_stage(p=2)
        migrated = charge_redistribution(m, [(0, 3), (1, 5)], ell=2.0)
        assert migrated == 8
        assert m.timeline.current.proc_time(1) == 10.0

    def test_topo_skips_resident_iterations(self):
        topo = Topology.ring(4, remote_factor=1.0)
        m = machine_with_stage(p=4, topology=topo, ell=1.0)
        owner = np.array([0, 0, 1, 1])
        blocks = [Block(0, 0, 2), Block(2, 2, 4)]  # proc 0 keeps, proc 2 takes
        migrated, distance = charge_redistribution_topo(m, blocks, owner)
        assert migrated == 2  # only iterations 2,3 moved (1 -> 2)
        assert distance == 2.0
        assert m.timeline.current.proc_time(0) == 0.0
        assert m.timeline.current.proc_time(2) == pytest.approx(2 * (1 + 1))

    def test_topo_first_touch_free(self):
        m = machine_with_stage(p=2, topology=Topology.ring(2))
        owner = np.array([-1, -1])
        migrated, distance = charge_redistribution_topo(
            m, [Block(0, 0, 2)], owner
        )
        assert migrated == 0
        assert distance == 0.0

    def test_topo_none_machine_flat_cost(self):
        m = machine_with_stage(p=2, ell=1.0)  # no topology attached
        owner = np.array([1, 1])
        migrated, distance = charge_redistribution_topo(
            m, [Block(0, 0, 2)], owner
        )
        assert migrated == 2
        assert distance == 0.0
        assert m.timeline.current.proc_time(0) == pytest.approx(2.0)
