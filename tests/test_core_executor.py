"""Unit tests for speculative block execution and virtual-time charging."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.sequential import run_sequential
from repro.config import RuntimeConfig
from repro.core.backend import BlockTask, _run_worker_task, _WorkerContext
from repro.core.executor import (
    SpeculativeContext,
    execute_block,
    make_plain_state,
    make_processor_state,
)
from repro.core.runner import parallelize
from repro.errors import BackendError, CheckpointError, SelfCheckError
from repro.faults.selfcheck import UntestedAccessLog
from repro.kernels import kernel_names, use_kernels
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.loopir.reductions import ReductionOp
from repro.machine.checkpoint import CHUNK, CheckpointManager
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.timeline import Category, StageRecord
from repro.shadow.marklist import MarkList
from repro.util.blocks import Block
from tests.shadow_model import SetShadow, planes


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
        loop, costs, loop.materialize(), ["U"], True, frozenset(), preload=True
    )
    task = BlockTask(stage=0, pos=0, block=block, slowdown=slowdown)
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


# -- bulk untested access and eager bounds checks ----------------------------------


def _int_loop(body, sparse=False):
    return SpeculativeLoop(
        "ints", 4, body,
        arrays=[
            ArraySpec("A", np.arange(8, dtype=np.int32), tested=True, sparse=sparse),
            ArraySpec("U", np.arange(8, dtype=np.int32), tested=False),
        ],
    )


class TestBulkUntestedAccess:
    @pytest.mark.parametrize("indices", [[], [3], [1, 1, 7]])
    @pytest.mark.parametrize("name", ["A", "U"])
    def test_load_many_keeps_the_shared_dtype(self, name, indices):
        loop = _int_loop(lambda ctx, i: None)
        machine, states = setup(loop, n_procs=1)
        ctx = SpeculativeContext(machine, loop, states[0], None)
        values = ctx.load_many(name, np.asarray(indices, dtype=np.int64))
        assert values.dtype == np.int32
        assert values.tolist() == indices

    def test_untested_load_many_notes_each_read(self):
        loop = _int_loop(lambda ctx, i: None)
        machine, states = setup(loop, n_procs=1)
        log = UntestedAccessLog()
        ctx = SpeculativeContext(machine, loop, states[0], None, untested_log=log)
        ctx.load_many("U", np.array([2, 5, 2], dtype=np.int64))
        assert log.reads == {"U": {2: {0}, 5: {0}}}

    @pytest.mark.parametrize("on_demand", [True, False])
    def test_untested_store_many_matches_elementwise_stores(self, on_demand):
        idx = np.array([4, 1, 4, 6, 1], dtype=np.int64)
        vals = np.array([10, 11, 12, 13, 14], dtype=np.int32)

        def run(bulk):
            def body(ctx, i):
                if bulk:
                    ctx.store_many("U", idx, vals)
                else:
                    for j, v in zip(idx.tolist(), vals.tolist()):
                        ctx.store("U", j, v)

            loop = _int_loop(body)
            machine, states = setup(loop, n_procs=1)
            ckpt = CheckpointManager(machine.memory, ["U"], on_demand=on_demand)
            ckpt.begin_stage()
            execute_block(machine, loop, states[0], Block(0, 0, 1), ckpt, slowdown=1.3)
            charges = list(machine.timeline.current.per_proc[0].items())
            return machine.memory["U"].data.copy(), ckpt, charges

        bulk_data, bulk_ckpt, bulk_charges = run(True)
        loop_data, loop_ckpt, loop_charges = run(False)
        assert bulk_data[[1, 4, 6]].tolist() == [14, 12, 13]  # later duplicates win
        assert np.array_equal(bulk_data, loop_data)
        assert [(c, repr(v)) for c, v in bulk_charges] == [
            (c, repr(v)) for c, v in loop_charges
        ]
        assert bulk_ckpt.modified_by([0]) == loop_ckpt.modified_by([0]) == {"U": [1, 4, 6]}
        assert bulk_ckpt.elements_checkpointed == loop_ckpt.elements_checkpointed
        assert bulk_ckpt.restore_failed([0]) == 3
        assert np.array_equal(
            bulk_ckpt._memory["U"].data, np.arange(8, dtype=np.int32)
        )


class TestEagerBoundsCheck:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("access", ["load", "store", "load_many", "store_many"])
    @pytest.mark.parametrize("index", [-1, 8])
    def test_out_of_range_index_leaves_private_state_untouched(
        self, sparse, access, index
    ):
        def body(ctx, i):
            if access == "load":
                ctx.load("A", index)
            elif access == "store":
                ctx.store("A", index, 5)
            elif access == "load_many":
                ctx.load_many("A", np.array([0, index], dtype=np.int64))
            else:
                ctx.store_many("A", np.array([0, index], dtype=np.int64), np.array([5, 5]))

        loop = _int_loop(body, sparse=sparse)
        machine, states = setup(loop, n_procs=1)
        with pytest.raises(IndexError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)
        view = states[0].views["A"]
        assert not any(view.has_local(i) for i in range(8))
        assert view.n_written() == 0
        assert states[0].shadows["A"].is_clear()
        if not sparse:
            assert not view._have[-1] and not view._written[-1]
        else:
            assert -1 not in view._values

    def test_out_of_range_update_leaves_partials_untouched(self):
        loop = make_loop(
            lambda ctx, i: ctx.update("A", -1, 1.0),
            reductions={"A": ReductionOp.SUM},
        )
        machine, states = setup(loop, n_procs=1)
        with pytest.raises(IndexError):
            execute_block(machine, loop, states[0], Block(0, 0, 1), None)
        assert not states[0].partials.get("A")


# -- the columnar recorder against per-access marking ------------------------------

#: Element range of the recorder decks: small, so accesses collide.
REC_N = 6
REC_PROCS = 3
REC_COSTS = CostModel(mark=0.013, copy_in=0.029, checkpoint_per_elem=0.017)
#: The untested array ``U`` is longer: op index ``k`` names its element
#: ``REC_U_BASE + k``, so indices 0-2 and 3-5 sit on either side of an
#: on-demand chunk boundary, and the second chunk is a partial one.
REC_U_BASE = CHUNK - REC_N // 2
REC_U_N = REC_U_BASE + REC_N

_rec_index = st.integers(min_value=0, max_value=REC_N - 1)
_rec_op = st.one_of(
    st.tuples(st.sampled_from(["load", "store"]), st.sampled_from("DSU"), _rec_index),
    st.tuples(st.just("update"), st.just("R"), _rec_index),
    st.tuples(
        st.sampled_from(["load_many", "store_many"]),
        st.sampled_from("DSU"),
        st.lists(_rec_index, max_size=3),
    ),
    st.tuples(st.just("work"), st.none(), st.sampled_from([0, 0.25, 1.5])),
)
#: Blocks of one stage, in order: ``(proc, slowdown, ops per iteration)``.
#: Processors repeat, as a sliding window runs several blocks on one.
_rec_blocks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=REC_PROCS - 1),
        st.sampled_from([1.0, 1.7]),
        st.lists(st.lists(_rec_op, max_size=4), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=5,
)


def _rec_value(i: int, k: int) -> float:
    return float(100 * i + k)


def _rec_loop(program, zero_work=frozenset()):
    """The loop that replays ``program``; iterations in ``zero_work`` have
    no base work, so another fold slot can appear before WORK."""

    def body(ctx, i):
        for k, (op, name, arg) in enumerate(program[i]):
            if name == "U":
                arg = REC_U_BASE + (np.asarray(arg, dtype=np.int64) if isinstance(arg, list) else arg)
            if op == "work":
                ctx.work(arg)
            elif op == "load":
                ctx.load(name, arg)
            elif op == "store":
                ctx.store(name, arg, _rec_value(i, k))
            elif op == "update":
                ctx.update(name, arg, 1.0)
            elif op == "load_many":
                ctx.load_many(name, np.asarray(arg, dtype=np.int64))
            else:
                ctx.store_many(
                    name, np.asarray(arg, dtype=np.int64),
                    np.full(len(arg), _rec_value(i, k)) + np.arange(len(arg)),
                )

    return SpeculativeLoop(
        "recorder", len(program), body,
        arrays=[
            ArraySpec("D", np.arange(float(REC_N)), tested=True, sparse=False),
            ArraySpec("S", np.arange(float(REC_N)), tested=True, sparse=True),
            ArraySpec("R", np.zeros(REC_N), tested=True, sparse=False),
            ArraySpec("U", np.arange(float(REC_U_N)) + 50.0, tested=False),
        ],
        reductions={"R": ReductionOp.SUM},
        iter_work=lambda i: 0.0 if i in zero_work else 1.0 + 0.1 * i,
    )


class _PerAccessReference:
    """The access path as it was before columnar recording: every access
    marks a per-access set shadow (:class:`tests.shadow_model.SetShadow`), every untested
    write logs ``index -> writer set`` and saves ``(proc, old value)`` on
    first touch, and every charge is one fold addition, in access order.
    Each iteration also keeps its own marks per tested array, as DDG
    extraction's mark lists were filled per access: ``(writes, exposed
    reads, updates, last value written per element)``."""

    def __init__(self, loop, on_demand):
        self.loop = loop
        self.on_demand = on_demand
        self.shadows = {
            p: {name: SetShadow(REC_N) for name in "DSR"}
            for p in range(REC_PROCS)
        }
        self.have = {p: {"D": set(), "S": set()} for p in range(REC_PROCS)}
        self.untested = np.arange(float(REC_U_N)) + 50.0
        self.full = self.untested.copy()
        self.saved: dict[int, tuple[int, float]] = {}
        self.writers: dict[int, set[int]] = {}
        self.fold = {p: {} for p in range(REC_PROCS)}
        self.iter_times = {p: {} for p in range(REC_PROCS)}
        self.iter_work = {p: {} for p in range(REC_PROCS)}
        self.block_times: list[float] = []
        self.levels: list[dict] = []

    def _charge(self, category, amount):
        charged = amount * self.slowdown
        self.iter_time += charged
        if charged:
            fold = self.fold[self.proc]
            fold[category] = fold.get(category, 0.0) + charged
            self.block_time += charged

    def _write_untested(self, index, value):
        self.writers.setdefault(index, set()).add(self.proc)
        if index not in self.saved:
            source = self.untested if self.on_demand else self.full
            self.saved[index] = (self.proc, float(source[index]))
            if self.on_demand:
                self._charge(Category.CHECKPOINT, REC_COSTS.checkpoint_per_elem)
        self.untested[index] = value

    def _read(self, name, indices, bulk):
        shadows, have = self.shadows[self.proc], self.have[self.proc]
        writes, exposed = self.marks[name][:2]
        copied = 0
        for index in indices:
            shadows[name].mark_read(index)
            if index not in writes:
                exposed.add(index)
            if index not in have[name]:
                have[name].add(index)
                copied += 1
                if not bulk:
                    self._charge(Category.MARK, REC_COSTS.mark)
                    self._charge(Category.COPY_IN, REC_COSTS.copy_in)
                    continue
            if not bulk:
                self._charge(Category.MARK, REC_COSTS.mark)
        if bulk:
            self._charge(Category.MARK, REC_COSTS.mark * len(indices))
            if copied:
                self._charge(Category.COPY_IN, REC_COSTS.copy_in * copied)

    def run_block(self, proc, slowdown, iterations, start):
        self.proc, self.slowdown, self.block_time = proc, slowdown, 0.0
        for i in range(start, start + len(iterations)):
            self.iter_time = 0.0
            self.marks = {name: (set(), set(), set(), {}) for name in "DSR"}
            self.levels.append(self.marks)
            base = self.loop.work_of(i) * REC_COSTS.omega
            self._charge(Category.WORK, base)
            work = base
            for k, (op, name, arg) in enumerate(iterations[i - start]):
                value = _rec_value(i, k)
                if op == "work":
                    # iter_work stays nominal under a straggler slowdown.
                    self._charge(Category.WORK, arg * REC_COSTS.omega)
                    work += arg * REC_COSTS.omega
                elif name == "U":
                    if op == "store":
                        self._write_untested(REC_U_BASE + arg, value)
                    elif op == "store_many":
                        for j, index in enumerate(arg):
                            self._write_untested(REC_U_BASE + index, value + j)
                elif op == "load":
                    self._read(name, [arg], bulk=False)
                elif op == "load_many":
                    self._read(name, arg, bulk=True)
                elif op == "update":
                    self.shadows[proc][name].mark_update(arg)
                    self.marks[name][2].add(arg)
                    self._charge(Category.MARK, REC_COSTS.mark)
                else:
                    indices = [arg] if op == "store" else arg
                    for j, index in enumerate(indices):
                        self.marks[name][0].add(index)
                        self.marks[name][3][index] = value + j
                        self.have[proc][name].add(index)
                        self.shadows[proc][name].mark_write(index)
                    if op == "store":
                        self._charge(Category.MARK, REC_COSTS.mark)
                    else:
                        self._charge(Category.MARK, REC_COSTS.mark * len(arg))
            self.iter_times[proc][i] = self.iter_time
            self.iter_work[proc][i] = work
        self.block_times.append(self.block_time)

    def restore_failed(self, failed):
        dirty = []
        for index, writers in self.writers.items():
            if not writers & failed:
                continue
            if writers - failed:
                raise CheckpointError(f"element {index}")
            dirty.append(index)
        for index in dirty:
            self.untested[index] = self.saved.pop(index)[1]
            del self.writers[index]
        return len(dirty)


class TestColumnarRecorder:
    @pytest.mark.parametrize("kernels", kernel_names())
    @given(
        blocks=_rec_blocks,
        on_demand=st.booleans(),
        failed=st.sets(st.integers(min_value=0, max_value=REC_PROCS - 1)),
        zero_work=st.frozensets(st.integers(min_value=0, max_value=19)),
        marks=st.sampled_from([None, False, True]),
    )
    @example(  # same-index read-after-write, then write-after-read, in one block
        blocks=[(0, 1.0, [[("load", "D", 2), ("store", "D", 2), ("load", "D", 2)],
                          [("store", "S", 1), ("load", "S", 1), ("load", "S", 3)]])],
        on_demand=True, failed={0}, zero_work=frozenset(), marks=True,
    )
    @example(  # two blocks on one processor; a committing/failed clash on U
        blocks=[(1, 1.7, [[("store", "U", 4), ("load", "D", 0)]]),
                (2, 1.0, [[("store_many", "U", [4, 5, 4])]]),
                (1, 1.0, [[("store", "D", 0), ("load_many", "D", [0, 1, 0])]])],
        on_demand=True, failed={2}, zero_work=frozenset(), marks=False,
    )
    @example(  # no base work: a zero-unit ctx.work adds no fold slot, so MARK
        # or CHECKPOINT opens the fold and ctx.work charges interleave with
        # marks under a slowdown; processor 2 is charged nothing at all
        blocks=[(0, 1.7, [[("work", None, 0), ("load", "D", 1), ("work", None, 0.25),
                           ("store", "S", 2), ("work", None, 1.5)],
                          [("work", None, 0.25), ("update", "R", 3)]]),
                (1, 1.0, [[("work", None, 0)], [("store", "U", 0), ("work", None, 1.5)]]),
                (2, 1.7, [[("work", None, 0)]])],
        on_demand=True, failed=set(), zero_work=frozenset({0, 2, 3, 4}), marks=None,
    )
    @example(  # iteration marks of bulk accesses with duplicate indices
        blocks=[(0, 1.0, [[("store_many", "D", [1, 2, 1]), ("load_many", "D", [2, 3, 3]),
                           ("load_many", "S", [4, 4]), ("store_many", "S", [4, 0, 4])],
                          [("load_many", "D", [1, 1]), ("store", "D", 1), ("update", "R", 2),
                           ("update", "R", 2), ("store_many", "S", [5])]]),
                (1, 1.7, [[("load", "S", 5), ("store_many", "D", [0]), ("load", "D", 0)]])],
        on_demand=False, failed=set(), zero_work=frozenset(), marks=True,
    )
    @example(  # on-demand writes on both sides of a chunk boundary (U 2 | U 3),
        # rolled back from both chunks while proc 1's stay
        blocks=[(0, 1.0, [[("store", "U", 2), ("store", "U", 3)]]),
                (1, 1.0, [[("store_many", "U", [1, 4, 4]), ("store", "U", 5)]]),
                (0, 1.7, [[("store", "U", 2), ("store_many", "U", [3, 0])]])],
        on_demand=True, failed={0}, zero_work=frozenset(), marks=None,
    )
    @example(  # the first untested store comes before any tested access and
        # there is no base work, so CHECKPOINT opens the fold before MARK
        blocks=[(0, 1.0, [[("store", "U", 0), ("load", "D", 1), ("work", None, 0.25)]]),
                (1, 1.7, [[("store_many", "U", [5, 5]), ("store", "S", 2)]])],
        on_demand=True, failed={1}, zero_work=frozenset({0, 1}), marks=None,
    )
    @example(  # a full-mode clash: a committing and a failed proc both write U 3
        blocks=[(0, 1.0, [[("store", "U", 3)]]),
                (1, 1.0, [[("store_many", "U", [4, 3])]])],
        on_demand=False, failed={1}, zero_work=frozenset(), marks=None,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_access_marking(
        self, kernels, blocks, on_demand, failed, zero_work, marks
    ):
        program = [ops for _, _, iterations in blocks for ops in iterations]
        loop = _rec_loop(program, zero_work)
        reference = _PerAccessReference(loop, on_demand)

        def run(observe):
            machine = Machine(REC_PROCS, costs=REC_COSTS, memory=loop.materialize())
            machine.begin_stage()
            states = {p: make_processor_state(machine, loop, p) for p in range(REC_PROCS)}
            ckpt = CheckpointManager(machine.memory, ["U"], on_demand=on_demand)
            ckpt.begin_stage()
            start = 0
            for proc, slowdown, iterations in blocks:
                block = Block(proc, start, start + len(iterations))
                marklists = None if marks is None else {
                    name: MarkList(name, proc, log_values=marks) for name in "DSR"
                }
                ctx = execute_block(
                    machine, loop, states[proc], block, ckpt,
                    marklists=marklists, slowdown=slowdown,
                )
                observe(ctx, block, marklists, iterations, slowdown)
                start = block.stop
            return machine, states, ckpt

        with use_kernels(kernels):
            block_times, levels = [], []

            def observe(ctx, block, marklists, iterations, slowdown):
                block_times.append(ctx.block_time)
                reference.run_block(block.proc, slowdown, iterations, block.start)
                if marklists is not None:
                    assert all(len(ml) == len(block) for ml in marklists.values())
                    levels.extend(
                        {name: ml.level(k) for name, ml in marklists.items()}
                        for k in range(len(block))
                    )

            machine, states, ckpt = run(observe)

            assert [repr(t) for t in block_times] == [repr(t) for t in reference.block_times]
            if marks is not None:
                assert len(levels) == len(reference.levels)
                for i, (got, want) in enumerate(zip(levels, reference.levels)):
                    for name, (writes, exposed, updates, values) in want.items():
                        level = got[name]
                        assert level.iteration == i
                        assert (level.writes, level.exposed_reads, level.updates) == (
                            writes, exposed, updates,
                        ), (i, name)
                        assert level.values == (values if marks else {}), (i, name)
            for p in range(REC_PROCS):
                state = states[p]
                for name, shadow in reference.shadows[p].items():
                    assert planes(state.shadows[name]) == planes(shadow), (p, name)
                assert state.iter_times == reference.iter_times[p]
                assert state.iter_work == reference.iter_work[p]
                settled = machine.timeline.current.per_proc.get(p, {})
                assert [(c, repr(v)) for c, v in settled.items()] == [
                    (c, repr(v)) for c, v in reference.fold[p].items()
                ]
                written = set(ckpt.modified_by([p])["U"])
                assert written == {i for i, w in reference.writers.items() if p in w}
            if on_demand:
                assert ckpt.elements_checkpointed == len(reference.saved)
            u = machine.memory["U"].data
            assert np.array_equal(u, reference.untested)
            # The saved old values: a twin run that rolls back every writer
            # restores each written element to the value its first touch
            # saved, here the stage-begin one.
            twin_machine, _, twin_ckpt = run(lambda *_: None)
            assert twin_ckpt.restore_failed(range(REC_PROCS)) == len(reference.saved)
            assert np.array_equal(twin_machine.memory["U"].data, reference.full)
            assert reference.saved == {
                i: (p, reference.full[i]) for i, (p, _) in reference.saved.items()
            }

            try:
                expected = reference.restore_failed(failed)
            except CheckpointError:
                with pytest.raises(CheckpointError):
                    ckpt.restore_failed(failed)
                return
            assert ckpt.restore_failed(failed) == expected
            assert ckpt.last_restored_bytes == expected * u.itemsize
            assert np.array_equal(u, reference.untested)
            for p in failed:
                assert ckpt.modified_by([p])["U"] == []


# -- routed tested access against the private views' reference semantics ----------

_VIEW_N = 8
_view_value = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.booleans(),
)
_view_op = st.tuples(
    st.sampled_from(["load", "store"]),
    st.integers(min_value=0, max_value=_VIEW_N - 1),
    _view_value,
)


def _written(view):
    return [(i, type(v), repr(v)) for i, v in view.written_items()]


class TestRoutedAccessMatchesViews:
    """``ctx.load``/``ctx.store`` inline the private view's ``load`` and
    ``store`` through its buffers; the view's own methods stay the
    reference semantics."""

    @given(
        sparse=st.booleans(),
        dtype=st.sampled_from([np.float64, np.int64]),
        preload=st.booleans(),
        ops=st.lists(_view_op, max_size=30),
    )
    @example(  # copy-in, private hit, store, re-store, load of a stored value
        sparse=True, dtype=np.int64, preload=False,
        ops=[("load", 2, 0), ("load", 2, 0), ("store", 2, 1.5), ("store", 5, True),
             ("load", 5, 0), ("store", 5, -0.0), ("load", 5, 0)],
    )
    @settings(max_examples=80, deadline=None)
    def test_routed_access_matches_the_view(self, sparse, dtype, preload, ops):
        costs = CostModel(mark=0.013, copy_in=0.029)
        initial = (np.arange(_VIEW_N) * 3 - 5).astype(dtype)
        loop = SpeculativeLoop(
            "routes", 1, lambda ctx, i: None,
            arrays=[ArraySpec("A", initial, tested=True, sparse=sparse)],
        )
        machine = Machine(1, costs=costs, memory=loop.materialize())
        machine.begin_stage()
        state = make_processor_state(machine, loop, 0)
        view = state.views["A"]
        reference = type(view)(machine.memory["A"])
        if preload:
            assert view.preload() == reference.preload()
        ctx = SpeculativeContext(machine, loop, state, None)
        log = []
        for op, index, value in ops:
            expected = ctx.block_time + costs.mark
            if op == "load":
                got = ctx.load("A", index)
                want, copied_in = reference.load(index)
                assert (type(got), repr(got)) == (type(want), repr(want))
                if copied_in:
                    expected += costs.copy_in
                log.append(index)
            else:
                ctx.store("A", index, value)
                reference.store(index, value)
                log.append(~index)
            # The charges show the copy-in flag: a copy-in adds COPY_IN.
            assert ctx.block_time == expected
            assert [view.has_local(i) for i in range(_VIEW_N)] == [
                reference.has_local(i) for i in range(_VIEW_N)
            ]
            assert _written(view) == _written(reference)
            assert view.n_written() == reference.n_written()
        logs = ctx.flush_marks()
        assert (logs["A"].tolist() if "A" in logs else []) == log
        assert [(i, repr(v)) for i, v in zip(*view.written_arrays())] == [
            (i, repr(v)) for i, v in zip(*reference.written_arrays())
        ]


# -- a large, sparsely written untested array stays cheap ---------------------------

_LARGE_U = 1 << 20
_LARGE_N = 400


def _large_untested_loop():
    """Each iteration writes one scattered element of a 1 Mi-element
    untested array; the tested chain ``A[i] -> A[i + 100]`` fails every
    stage but the last, so about 100-300 untested writes are rolled back
    per stage."""

    def body(ctx, i):
        ctx.store("A", (i + 100) % _LARGE_N, ctx.load("A", i) + 1.0)
        ctx.store("U", (i * 2654435761) % _LARGE_U, float(i))

    return SpeculativeLoop(
        "large-untested", _LARGE_N, body,
        arrays=[
            ArraySpec("A", np.zeros(_LARGE_N)),
            ArraySpec("U", np.zeros(_LARGE_U), tested=False),
        ],
    )


class TestLargeSparseUntestedState:
    #: Whole copies of the shared image a run legitimately holds in the
    #: parent: the machine's own, plus the fork pool's last broadcast.
    IMAGES = {"serial": 1, "fork": 2}
    #: What the run may allocate beyond them; one more copy of ``U``
    #: alone is 8 MiB.
    SLACK = 4 << 20

    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_no_whole_array_copy_per_stage_or_task(self, backend, request):
        if backend == "fork":
            request.getfixturevalue("always_dispatch")
        loop = _large_untested_loop()
        expected = run_sequential(loop).memory.snapshot()
        config = RuntimeConfig(certify="off", backend=backend, on_demand_checkpoint=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = parallelize(loop, 4, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        failed = [stage for stage in result.stages if stage.failed]
        assert len(failed) >= 3
        assert all(stage.restored_elements >= 50 for stage in failed)
        if backend == "fork":
            assert result.supervision["supervise.dispatched_stages"] == result.n_stages
        assert result.memory.equals(expected)
        nbytes = expected["U"].nbytes
        assert peak - base <= self.IMAGES[backend] * nbytes + self.SLACK


# -- the routed access's error paths, in the parent and in a fork worker -----------

_IDX = np.array([1, 2], dtype=np.int64)
_VALS = np.array([3.0, 4.0])
_REDUCTION_MSG = "array 'R' is declared a reduction; use update() only"
_NO_OPERATOR_MSG = "array {!r} has no declared reduction operator"


def _err_loop(access=None, iter_work=None, n=8):
    """Every iteration first does a little of everything; iteration 5 then
    runs ``access(ctx)``, so the error strikes mid-block on warm routes."""

    def body(ctx, i):
        ctx.store("D", i % 4, ctx.load("S", i % 4) + ctx.load("U", i % 4))
        ctx.update("R", i % 4, 1.0)
        ctx.store("U", 4 + i % 4, 1.0)
        if i == 5 and access is not None:
            access(ctx)

    return SpeculativeLoop(
        "errors", n, body,
        arrays=[
            ArraySpec("D", np.arange(8.0), tested=True, sparse=False),
            ArraySpec("S", np.arange(8.0), tested=True, sparse=True),
            ArraySpec("R", np.zeros(8), tested=True),
            ArraySpec("U", np.arange(8.0), tested=False),
        ],
        reductions={"R": ReductionOp.SUM},
        iter_work=iter_work,
    )


_MISUSE = {
    "load-reduction": (lambda ctx: ctx.load("R", 1), ValueError, _REDUCTION_MSG),
    "store-reduction": (lambda ctx: ctx.store("R", 1, 2.0), ValueError, _REDUCTION_MSG),
    "load_many-reduction": (lambda ctx: ctx.load_many("R", _IDX), ValueError, _REDUCTION_MSG),
    "store_many-reduction": (
        lambda ctx: ctx.store_many("R", _IDX, _VALS), ValueError, _REDUCTION_MSG,
    ),
    "update-tested": (
        lambda ctx: ctx.update("D", 1, 2.0), ValueError, _NO_OPERATOR_MSG.format("D"),
    ),
    "update-untested": (
        lambda ctx: ctx.update("U", 1, 2.0), ValueError, _NO_OPERATOR_MSG.format("U"),
    ),
    "load-unknown": (lambda ctx: ctx.load("Z", 1), KeyError, "no shared array 'Z'"),
    "store-unknown": (lambda ctx: ctx.store("Z", 1, 2.0), KeyError, "no shared array 'Z'"),
    "load_many-unknown": (lambda ctx: ctx.load_many("Z", _IDX), KeyError, "no shared array 'Z'"),
    "store_many-unknown": (
        lambda ctx: ctx.store_many("Z", _IDX, _VALS), KeyError, "no shared array 'Z'",
    ),
}


def _negative_work(i):
    return -1.0 if i == 6 else 1.0


@pytest.fixture(params=["serial", "fork"])
def error_backend(request, always_dispatch):
    """Runs a loop on ``serial`` or on the fork pool with every stage
    dispatched, and returns what it raised as ``(type, message)``: a
    worker's exception reaches the parent as itself, chained from a
    :class:`BackendError` that carries the worker's traceback."""

    def run(loop):
        config = RuntimeConfig.nrd(backend=request.param)
        with pytest.raises((ValueError, KeyError)) as info:
            parallelize(loop, 2, config)
        if request.param == "fork":
            cause = info.value.__cause__
            assert isinstance(cause, BackendError)
            assert f"{type(info.value).__name__}: " in str(cause)
        return type(info.value), str(info.value)

    return run


class TestRoutedAccessErrors:
    @pytest.mark.parametrize("case", sorted(_MISUSE))
    def test_misuse_raises_the_same_error(self, error_backend, case):
        access, error, message = _MISUSE[case]
        raised, text = error_backend(_err_loop(access))
        assert raised is error
        assert message in text

    def test_unknown_name_lists_the_declared_arrays(self, error_backend):
        _, text = error_backend(_err_loop(lambda ctx: ctx.load("Z", 0)))
        assert "declared: ['D', 'R', 'S', 'U']" in text

    def test_negative_iter_work_names_the_iteration(self, error_backend):
        raised, text = error_backend(_err_loop(iter_work=_negative_work))
        assert raised is ValueError
        assert "iter_work(6) returned negative cost -1.0" in text


def _logged_loop(plain):
    """Touches the untested ``U`` through every access method; on a plain
    state (the certified fast path) ``D`` is untested traffic too."""

    def body(ctx, i):
        ctx.load("U", 1)
        ctx.store("U", 2, 5.0)
        ctx.load_many("U", np.array([3, 4, 3], dtype=np.int64))
        ctx.store_many("U", np.array([5, 2], dtype=np.int64), np.array([6.0, 7.0]))
        ctx.store("D", 1, ctx.load("D", 0))
        if not plain:
            ctx.update("R", 0, 1.0)

    return SpeculativeLoop(
        "logged", 2, body,
        arrays=[
            ArraySpec("D", np.arange(8.0), tested=True),
            ArraySpec("R", np.zeros(8), tested=True),
            ArraySpec("U", np.arange(8.0), tested=False),
        ],
        reductions={} if plain else {"R": ReductionOp.SUM},
    )


def _expected_untested(plain):
    reads = [("U", 1), ("U", 3), ("U", 4)] + ([("D", 0)] if plain else [])
    writes = [("U", 2), ("U", 5)] + ([("D", 1)] if plain else [])
    return sorted(reads), sorted(writes)


class TestUntestedLog:
    """With the self-check on, every untested read and write is recorded,
    on plain states too, where every array takes the untested route."""

    @pytest.mark.parametrize("plain", [False, True])
    def test_serial_executor_records_every_untested_access(self, plain):
        loop = _logged_loop(plain)
        machine = Machine(2, memory=loop.materialize())
        machine.begin_stage()
        state = make_plain_state(1) if plain else make_processor_state(machine, loop, 1)
        ckpt = CheckpointManager(machine.memory, ["U"], on_demand=True)
        ckpt.begin_stage()
        log = UntestedAccessLog()
        execute_block(machine, loop, state, Block(1, 0, 2), ckpt, untested_log=log)
        noted = [
            sorted((name, i) for name, by in traffic.items() for i in by)
            for traffic in (log.reads, log.writes)
        ]
        assert noted == list(_expected_untested(plain))
        for traffic in (log.reads, log.writes):
            assert all(procs == {1} for by in traffic.values() for procs in by.values())

    @pytest.mark.parametrize("plain", [False, True])
    def test_fork_worker_records_every_untested_access(self, plain):
        loop = _logged_loop(plain)
        wctx = _WorkerContext(
            loop, CostModel(), loop.materialize(), ["U"], True,
            frozenset(loop.reductions), plain=plain, log_untested=True,
        )
        task = BlockTask(stage=0, pos=0, block=Block(1, 0, 2))
        delta = _run_worker_task(wctx, task)
        assert (delta.untested_reads, delta.untested_writes) == _expected_untested(plain)

    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_self_check_sees_a_cross_processor_untested_read(self, backend, always_dispatch):
        def body(ctx, i):
            if i == 0:
                ctx.store("U", 0, 1.0)
            elif i == 7:
                ctx.load("U", 0)

        loop = SpeculativeLoop(
            "shared-untested", 8, body,
            arrays=[ArraySpec("A", np.zeros(8)), ArraySpec("U", np.zeros(8), tested=False)],
        )
        config = RuntimeConfig.nrd(backend=backend, self_check=True)
        with pytest.raises(SelfCheckError, match="untested-array isolation violated"):
            parallelize(loop, 2, config)
