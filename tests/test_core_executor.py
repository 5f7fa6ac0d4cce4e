"""Unit tests for speculative block execution and virtual-time charging."""

import numpy as np
import pytest

from repro.core.backend import BlockTask, _run_worker_task, _WorkerContext
from repro.core.executor import (
    execute_block,
    make_processor_state,
)
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.loopir.reductions import ReductionOp
from repro.machine.checkpoint import CheckpointManager
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.timeline import Category, StageRecord
from repro.util.blocks import Block


def make_loop(body, n=8, tested=("A",), untested=(), reductions=None):
    arrays = [ArraySpec(name, np.arange(16.0), tested=True) for name in tested]
    arrays += [ArraySpec(name, np.arange(16.0), tested=False) for name in untested]
    return SpeculativeLoop(
        "t", n, body, arrays=arrays, reductions=reductions or {}
    )


def setup(loop, n_procs=2):
    machine = Machine(n_procs, memory=loop.materialize())
    machine.begin_stage()
    states = {p: make_processor_state(machine, loop, p) for p in range(n_procs)}
    return machine, states


class TestSpeculativeContext:
    def test_tested_store_stays_private(self):
        loop = make_loop(lambda ctx, i: ctx.store("A", i, -1.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert machine.memory["A"].data[0] == 0.0  # shared untouched
        assert dict(states[0].views["A"].written_items())[0] == -1.0

    def test_untested_store_writes_through(self):
        loop = make_loop(
            lambda ctx, i: ctx.store("B", i, -1.0), tested=(), untested=("B",)
        )
        machine, states = setup(loop)
        ckpt = CheckpointManager(machine.memory, ["B"], on_demand=True)
        ckpt.begin_stage()
        execute_block(machine, loop, states[0], Block(0, 0, 4), ckpt)
        assert machine.memory["B"].data[0] == -1.0

    def test_untested_write_checkpoints_first_touch(self):
        loop = make_loop(
            lambda ctx, i: ctx.store("B", 0, float(i)),
            tested=(), untested=("B",),
        )
        machine, states = setup(loop)
        ckpt = CheckpointManager(machine.memory, ["B"], on_demand=True)
        ckpt.begin_stage()
        execute_block(machine, loop, states[0], Block(0, 0, 4), ckpt)
        assert ckpt.elements_checkpointed == 1  # one element, many writes

    def test_marking_charged_per_reference(self):
        loop = make_loop(lambda ctx, i: ctx.store("A", i, 0.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert machine.timeline.current.category_total(Category.MARK) == (
            pytest.approx(4 * machine.costs.mark)
        )

    def test_copyin_charged_once_per_element(self):
        def body(ctx, i):
            ctx.load("A", 0)
            ctx.load("A", 0)

        loop = make_loop(body)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        # Only the very first load of element 0 copies in.
        assert machine.timeline.current.category_total(Category.COPY_IN) == (
            pytest.approx(machine.costs.copy_in)
        )

    def test_base_work_charged(self):
        loop = make_loop(lambda ctx, i: None)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert machine.timeline.current.category_total(Category.WORK) == (
            pytest.approx(4 * machine.costs.omega)
        )

    def test_extra_work_charged(self):
        loop = make_loop(lambda ctx, i: ctx.work(2.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 1), None)
        assert machine.timeline.current.category_total(Category.WORK) == (
            pytest.approx(3.0 * machine.costs.omega)
        )

    def test_iter_times_recorded(self):
        loop = make_loop(lambda ctx, i: None)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 2, 5), None)
        assert set(states[0].iter_times) == {2, 3, 4}
        assert states[0].iter_work[2] == pytest.approx(machine.costs.omega)

    def test_reduction_update_accumulates_partial(self):
        loop = make_loop(
            lambda ctx, i: ctx.update("A", 3, 1.0),
            reductions={"A": ReductionOp.SUM},
        )
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert states[0].partials["A"][3] == 4.0
        assert machine.memory["A"].data[3] == 3.0  # shared untouched

    def test_load_of_reduction_array_rejected(self):
        loop = make_loop(
            lambda ctx, i: ctx.load("A", 0),
            reductions={"A": ReductionOp.SUM},
        )
        machine, states = setup(loop)
        with pytest.raises(ValueError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)

    def test_update_without_operator_rejected(self):
        loop = make_loop(lambda ctx, i: ctx.update("A", 0, 1.0))
        machine, states = setup(loop)
        with pytest.raises(ValueError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)

    def test_bump_uninitialized_rejected(self):
        loop = make_loop(lambda ctx, i: ctx.bump("k"))
        machine, states = setup(loop)
        with pytest.raises(KeyError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)

    def test_bump_with_offsets(self):
        seen = []
        loop = make_loop(lambda ctx, i: seen.append(ctx.bump("k")))
        machine, states = setup(loop)
        ctx = execute_block(
            machine, loop, states[0], Block(0, 0, 3), None, inductions={"k": 10}
        )
        assert seen == [10, 11, 12]
        assert ctx.induction_values() == {"k": 13}

    def test_shadow_marks_reads_and_writes(self):
        def body(ctx, i):
            ctx.load("A", i)
            ctx.store("A", i + 8, 0.0)

        loop = make_loop(body)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        sh = states[0].shadows["A"]
        assert sh.exposed_read_set() == {0, 1, 2, 3}
        assert sh.write_set() == {8, 9, 10, 11}


class TestProcessorState:
    def test_distinct_refs_and_written(self):
        def body(ctx, i):
            ctx.load("A", i)
            ctx.store("A", i, 1.0)

        loop = make_loop(body)
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        assert states[0].distinct_refs() == 4
        assert states[0].n_written() == 4

    def test_reset_keeps_iter_times(self):
        loop = make_loop(lambda ctx, i: ctx.store("A", i, 1.0))
        machine, states = setup(loop)
        execute_block(machine, loop, states[0], Block(0, 0, 4), None)
        states[0].reset()
        assert states[0].n_written() == 0
        assert states[0].shadows["A"].is_clear()
        assert len(states[0].iter_times) == 4  # measurements persist


# -- the charge fold: one settle per block, identical on every backend -------------


def _fold_loop(n=12):
    """Touches every execution-phase category: WORK (base + extra), MARK,
    COPY_IN from a sparse view that survives the preload, CHECKPOINT from
    on-demand first touches of an untested array."""

    def body(ctx, i):
        ctx.load("S", (3 * i) % 32)
        ctx.store("A", i, ctx.load("A", (i + 1) % 16) * 0.5)
        ctx.store("U", i % 5, float(i))
        ctx.work(0.3)

    return SpeculativeLoop(
        "fold", n, body,
        arrays=[
            ArraySpec("A", np.arange(16.0), tested=True, sparse=False),
            ArraySpec("S", np.arange(32.0), tested=True, sparse=True),
            ArraySpec("U", np.arange(8.0), tested=False),
        ],
        iter_work=lambda i: 1.0 + 0.1 * i,
    )


def _serial_charges(loop, block, costs, slowdown, count=None):
    machine = Machine(4, costs=costs, memory=loop.materialize())
    machine.begin_stage()
    state = make_processor_state(machine, loop, block.proc)
    ckpt = CheckpointManager(machine.memory, ["U"], on_demand=True)
    ckpt.begin_stage()
    state.preload(machine)  # pre_initialize, as the serial backend does
    if count is not None:
        count.clear()
    execute_block(machine, loop, state, block, ckpt, slowdown=slowdown)
    return list(machine.timeline.current.per_proc[block.proc].items())


def _worker_charges(loop, block, costs, slowdown):
    wctx = _WorkerContext(
        loop, costs, loop.materialize(), ["U"], True, frozenset()
    )
    task = BlockTask(stage=0, pos=0, block=block, preload=True, slowdown=slowdown)
    delta = _run_worker_task(wctx, task)
    # Replay exactly as the fork backend's merge does.
    machine = Machine(4, costs=costs, memory=loop.materialize())
    machine.begin_stage()
    for category, amount in delta.charges:
        machine.charge(block.proc, category, amount)
    return list(machine.timeline.current.per_proc[block.proc].items())


class TestChargeFold:
    def test_serial_and_worker_fold_identically(self):
        loop = _fold_loop()
        block = Block(2, 0, 12)
        costs = CostModel(mark=0.013, copy_in=0.029, checkpoint_per_elem=0.017)
        serial = _serial_charges(loop, block, costs, slowdown=1.7)
        worker = _worker_charges(loop, block, costs, slowdown=1.7)
        assert [c for c, _ in serial] == [
            Category.COPY_IN, Category.WORK, Category.MARK, Category.CHECKPOINT,
        ]
        assert [(c, repr(v)) for c, v in serial] == [(c, repr(v)) for c, v in worker]

    def test_zero_amount_charges_insert_no_key(self):
        loop = _fold_loop()
        block = Block(1, 0, 6)
        costs = CostModel(mark=0.0, copy_in=0.0, bulk_copy_per_elem=0.0)
        for charges in (
            _serial_charges(loop, block, costs, slowdown=1.0),
            _worker_charges(loop, block, costs, slowdown=1.0),
        ):
            assert [c for c, _ in charges] == [Category.WORK, Category.CHECKPOINT]

    def test_timeline_written_once_per_block_not_per_access(self, monkeypatch):
        calls = []
        original = StageRecord.charge

        def counting(self, proc, category, amount):
            calls.append(category)
            original(self, proc, category, amount)

        monkeypatch.setattr(StageRecord, "charge", counting)
        loop = _fold_loop()
        _serial_charges(loop, Block(0, 0, 12), CostModel(), 1.0, count=calls)
        # 12 iterations make 77 charges: folding bounds timeline writes
        # by the number of categories, whatever the access count.
        assert len(calls) <= len(Category)
