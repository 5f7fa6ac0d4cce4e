"""The execution-backend layer: registry, fork guards, bulk hot paths.

Bit-exact serial/fork parity over the full strategy matrix lives in
``test_engine_parity.py``; this file covers the backend machinery itself
-- selection, defaults, the doall LRPD baseline and DDG extraction on
every backend -- and the
vectorized view/shadow/context operations the backends and the commit
phase rely on.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.config import RuntimeConfig
from repro.core import backend as backend_mod
from repro.core.analysis import _mixed_sets
from repro.core.backend import (
    BlockTask,
    backend_names,
    get_default_backend,
    make_backend,
    resolve_backend_name,
    set_default_backend,
    use_backend,
)
from repro.core.ddg import extract_ddg
from repro.core.executor import execute_block, make_processor_state
from repro.core.lrpd import run_doall_lrpd
from repro.core.runner import parallelize
from repro.core.supervise import SupervisionStats, supervision_acted
from repro.errors import ConfigurationError
from repro.faults import random_plan
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.machine.machine import Machine
from repro.machine.memory import (
    DensePrivateView,
    SharedArray,
    SparsePrivateView,
)
from repro.shadow import make_shadow
from repro.util.blocks import Block
from repro.workloads.synthetic import (
    chain_loop,
    fully_parallel_loop,
    geometric_chain_targets,
    random_dependence_loop,
)
from tests.conftest import assert_matches_sequential


# -- registry and defaults --------------------------------------------------------


class TestBackendSelection:
    def test_known_backends(self):
        assert backend_names() == ["fork", "serial", "shm", "threads"]

    def test_serial_is_the_default(self):
        assert get_default_backend() == "serial"
        assert resolve_backend_name(RuntimeConfig.nrd()) == "serial"

    def test_config_overrides_default(self):
        assert resolve_backend_name(RuntimeConfig.nrd(backend="fork")) == "fork"

    def test_use_backend_scopes_the_default(self):
        with use_backend("fork"):
            assert resolve_backend_name(RuntimeConfig.nrd()) == "fork"
            # An explicit config setting still wins.
            assert (
                resolve_backend_name(RuntimeConfig.nrd(backend="serial"))
                == "serial"
            )
        assert get_default_backend() == "serial"

    def test_unknown_default_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            set_default_backend("gpu")

    def test_unknown_config_backend_fails_at_engine_construction(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            parallelize(
                fully_parallel_loop(64), 4, RuntimeConfig.nrd(backend="gpu")
            )

    def test_backend_workers_validated(self):
        with pytest.raises(ConfigurationError, match="backend_workers"):
            RuntimeConfig.nrd(backend_workers=0)

    def test_make_backend_resolves_config(self):
        class _Eng:
            config = RuntimeConfig.nrd(backend="serial")

        assert make_backend(_Eng()).name == "serial"


@pytest.mark.usefixtures("always_dispatch")
class TestForkRuns:
    def test_fork_run_matches_serial(self):
        serial = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="serial")
        )
        fork = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="fork")
        )
        assert fork.memory.equals(serial.memory.snapshot())
        assert repr(fork.total_time) == repr(serial.total_time)
        assert fork.n_stages == serial.n_stages

    def test_backend_workers_bound_respected(self):
        result = parallelize(
            fully_parallel_loop(64), 4,
            RuntimeConfig.adaptive(backend="fork", backend_workers=1),
        )
        expected = np.arange(64, dtype=np.float64) * 2.0 + 1.0
        assert np.array_equal(result.memory["A"].data, expected)


# -- the shared-memory backend ----------------------------------------------------


@pytest.mark.usefixtures("always_dispatch")
class TestShmRuns:
    def test_shm_run_matches_serial_dense(self):
        serial = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="serial")
        )
        shm = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="shm")
        )
        assert shm.memory.equals(serial.memory.snapshot())
        assert repr(shm.total_time) == repr(serial.total_time)
        assert shm.n_stages == serial.n_stages

    def test_shm_run_matches_serial_multi_stage(self):
        # A dependence-bearing loop drives restores, redistribution and the
        # residue (sparse/untested) paths across many stages.
        from repro.workloads.synthetic import (
            chain_loop,
            geometric_chain_targets,
        )

        loop = lambda: chain_loop(128, geometric_chain_targets(128, 0.5))  # noqa: E731
        serial = parallelize(loop(), 4, RuntimeConfig.adaptive(backend="serial"))
        shm = parallelize(loop(), 4, RuntimeConfig.adaptive(backend="shm"))
        assert shm.memory.equals(serial.memory.snapshot())
        assert repr(shm.total_time) == repr(serial.total_time)
        assert shm.n_stages == serial.n_stages

    def test_shm_backend_workers_bound_respected(self):
        result = parallelize(
            fully_parallel_loop(64), 4,
            RuntimeConfig.adaptive(backend="shm", backend_workers=2),
        )
        expected = np.arange(64, dtype=np.float64) * 2.0 + 1.0
        assert np.array_equal(result.memory["A"].data, expected)

    def test_shm_residue_fallback_matches_serial(self, monkeypatch):
        # Force every array down the pickled-residue path (as if no dtype
        # were shm-able): parity must not depend on the zero-copy plane.
        import repro.core.shm as shm_mod

        monkeypatch.setattr(shm_mod, "_shmable", lambda data: False)
        serial = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="serial")
        )
        shm = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="shm")
        )
        assert shm.memory.equals(serial.memory.snapshot())
        assert repr(shm.total_time) == repr(serial.total_time)


# -- the in-process threads backend ------------------------------------------------


class TestThreadsRuns:
    def test_threads_run_matches_serial(self):
        serial = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="serial")
        )
        threads = parallelize(
            fully_parallel_loop(128), 4, RuntimeConfig.adaptive(backend="threads")
        )
        assert threads.memory.equals(serial.memory.snapshot())
        assert repr(threads.total_time) == repr(serial.total_time)
        assert threads.n_stages == serial.n_stages

    def test_threads_run_matches_serial_multi_stage(self):
        # Dependence-bearing loop: restores, redistribution and the
        # untested-array protocol across many stages.
        from repro.workloads.synthetic import (
            chain_loop,
            geometric_chain_targets,
        )

        loop = lambda: chain_loop(128, geometric_chain_targets(128, 0.5))  # noqa: E731
        serial = parallelize(loop(), 4, RuntimeConfig.adaptive(backend="serial"))
        threads = parallelize(loop(), 4, RuntimeConfig.adaptive(backend="threads"))
        assert threads.memory.equals(serial.memory.snapshot())
        assert repr(threads.total_time) == repr(serial.total_time)
        assert threads.n_stages == serial.n_stages

    def test_threads_backend_workers_bound_respected(self):
        result = parallelize(
            fully_parallel_loop(64), 4,
            RuntimeConfig.adaptive(backend="threads", backend_workers=1),
        )
        expected = np.arange(64, dtype=np.float64) * 2.0 + 1.0
        assert np.array_equal(result.memory["A"].data, expected)

    def test_threads_surfaces_backend_and_gil_mode(self):
        import sys

        result = parallelize(
            fully_parallel_loop(64), 4, RuntimeConfig.adaptive(backend="threads")
        )
        assert result.backend == "threads"
        probe = getattr(sys, "_is_gil_enabled", None)
        expected_mode = (
            "free-threaded" if probe is not None and not probe() else "gil"
        )
        assert result.thread_mode == expected_mode
        summary = result.summary()
        assert summary["backend"] == "threads"
        assert summary["thread_mode"] == expected_mode
        # Serial runs keep their summaries unchanged (no backend keys).
        serial = parallelize(
            fully_parallel_loop(64), 4, RuntimeConfig.adaptive(backend="serial")
        )
        assert "backend" not in serial.summary()
        assert "thread_mode" not in serial.summary()

    def test_threads_rejects_os_chaos(self):
        from repro.faults.os_chaos import OsChaosPlan

        with pytest.raises(ConfigurationError, match="threads"):
            parallelize(
                fully_parallel_loop(64), 4,
                RuntimeConfig.adaptive(
                    backend="threads",
                    os_chaos=OsChaosPlan.kill_workers(0, [1]),
                ),
            )

    def test_threads_pool_reused_across_stages(self):
        # The pool is persistent: a multi-stage run must not spawn a
        # fresh set of worker threads per stage.
        import repro.core.threads as threads_mod

        started = []
        orig = threads_mod.ThreadsBackend._start_worker

        def counting(self, worker):
            started.append(worker.slot)
            return orig(self, worker)

        from repro.workloads.synthetic import (
            chain_loop,
            geometric_chain_targets,
        )

        threads_mod.ThreadsBackend._start_worker = counting
        try:
            result = parallelize(
                chain_loop(128, geometric_chain_targets(128, 0.5)), 4,
                RuntimeConfig.adaptive(backend="threads", backend_workers=2),
            )
        finally:
            threads_mod.ThreadsBackend._start_worker = orig
        assert result.n_stages > 1
        assert len(started) == 2


@pytest.mark.usefixtures("always_dispatch")
class TestShmSegmentLifecycle:
    # The test intentionally holds a numpy view across release(): unlink
    # must win even when the mapping cannot close yet.  CPython's
    # SharedMemory.__del__ then complains about the exported pointer at GC
    # time; that is the scenario under test, not a leak.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnraisableExceptionWarning"
    )
    def test_release_is_idempotent_and_names_vanish(self):
        from multiprocessing import shared_memory

        from repro.core.shm import ShmArena

        arena = ShmArena()
        view = arena.alloc((16,), np.float64)
        view[:] = 3.0
        seg = arena.new_segment(256)
        names = arena.segment_names()
        assert len(names) == 2
        arena.drop_segment(seg)  # early unlink (scratch resize path)
        arena.release()
        arena.release()  # idempotent
        assert arena.released
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_worker_crash_degrades_and_leaves_no_leaked_segments(self, monkeypatch):
        # A body that SIGKILLs every worker it reaches is a poison block:
        # the supervisor degrades shm -> fork -> serial, the run still
        # completes with the serial answer, and nothing is left behind in
        # /dev/shm -- every arena segment is unlinked even though workers
        # never replied.
        import os
        import signal
        from multiprocessing import shared_memory

        import repro.core.shm as shm_mod
        from repro.loopir.loop import ArraySpec, SpeculativeLoop

        created: list[str] = []
        orig_new = shm_mod.ShmArena._new_shm

        def spying_new(self, nbytes):
            seg = orig_new(self, nbytes)
            created.append(seg.name)
            return seg

        monkeypatch.setattr(shm_mod.ShmArena, "_new_shm", spying_new)

        parent_pid = os.getpid()

        def body(ctx, i):
            if os.getpid() != parent_pid:  # only in a forked worker
                os.kill(os.getpid(), signal.SIGKILL)
            ctx.load("A", i)
            ctx.store("A", i, float(i))
            ctx.work(1.0)

        def make_loop():
            return SpeculativeLoop(
                name="crash-mid-stage",
                n_iterations=32,
                body=body,
                arrays=[ArraySpec("A", np.zeros(32, dtype=np.float64))],
            )

        result = parallelize(make_loop(), 4, RuntimeConfig.nrd(backend="shm"))
        chain = [
            (d["from"], d["to"])
            for d in result.supervision["supervise.degradations"]
        ]
        assert chain == [("shm", "fork"), ("fork", "serial")]
        serial = parallelize(make_loop(), 4, RuntimeConfig.nrd(backend="serial"))
        assert result.memory.equals(serial.memory.snapshot())
        assert repr(result.total_time) == repr(serial.total_time)
        assert created, "the shm backend allocated no segments?"
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# -- dispatch only when it pays ----------------------------------------------------


def _rule_backend(*, workers=2, os_chaos=None):
    """A fork backend over a stub engine (the figures start empty)."""
    eng = SimpleNamespace(
        os_chaos=os_chaos, loop=fully_parallel_loop(64), n_procs=4,
        config=SimpleNamespace(backend_workers=workers),
    )
    return backend_mod.ForkBackend(eng)


def _tasks(n_blocks, size=16):
    return [
        BlockTask(stage=0, pos=k, block=Block(k, k * size, (k + 1) * size))
        for k in range(n_blocks)
    ]


def _per_iter(backend):
    return backend._costs.per_iter.setdefault(
        backend_mod._body_key(backend.eng.loop), backend_mod._Figure()
    )


def _measured(backend, *, per_iter, stage=None, pool_open=0.0, pool_close=0.0):
    """Record one sample of each figure the rule reads (no steady
    dispatch sample when ``stage`` is None)."""
    costs = backend._costs
    _per_iter(backend).add(per_iter)
    if stage is not None:
        costs.stage.add(stage)
    costs.pool_open.add(pool_open)
    costs.pool_close.add(pool_close)


class TestDispatchRule:
    def test_no_per_iteration_figure_runs_inline(self):
        backend = _rule_backend()
        assert not backend.dispatch_pays(_tasks(4))

    def test_no_dispatch_cost_dispatches_once_to_measure_it(self):
        backend = _rule_backend()
        _per_iter(backend).add(1e-6)
        assert backend.dispatch_pays(_tasks(4))  # no pool cost yet
        backend._workers = [object(), object()]
        assert backend.dispatch_pays(_tasks(4))  # no stage cost yet

    def test_os_chaos_always_dispatches(self):
        backend = _rule_backend(os_chaos=object())
        assert backend.dispatch_pays(_tasks(1))

    def test_one_block_never_pays(self):
        backend = _rule_backend()
        _measured(backend, per_iter=1.0, stage=0.0)
        assert not backend.dispatch_pays(_tasks(1))

    def test_one_worker_never_pays(self):
        backend = _rule_backend(workers=1)
        _measured(backend, per_iter=1.0, stage=0.0)
        assert not backend.dispatch_pays(_tasks(4))

    def test_pool_cost_counts_only_while_no_pool_runs(self):
        backend = _rule_backend()
        # 4 blocks x 16 iterations x 1 ms at w=2 saves 32 ms: more than a
        # 10 ms dispatch, less than a 10 ms opening dispatch + 50 ms close.
        _measured(backend, per_iter=1e-3, stage=0.010, pool_open=0.010,
                  pool_close=0.050)
        assert not backend.dispatch_pays(_tasks(4))
        backend._workers = [object(), object()]
        assert backend.dispatch_pays(_tasks(4))

    def test_saving_must_beat_the_stage_cost(self):
        backend = _rule_backend()
        backend._workers = [object(), object()]
        _measured(backend, per_iter=1e-3, stage=0.040)
        assert not backend.dispatch_pays(_tasks(4))  # saves 32 ms
        assert backend.dispatch_pays(_tasks(4, size=64))  # saves 128 ms

    def test_inline_stages_buy_a_probe_with_doubling_prices(self):
        # 32 ms saved per stage against a 100 ms pool: inline, until the
        # savings at stake pass 100 ms (4th stage), then 200 ms (7th more).
        backend = _rule_backend()
        _measured(backend, per_iter=1e-3, pool_open=0.090, pool_close=0.010)
        decisions = [backend.dispatch_pays(_tasks(4)) for _ in range(11)]
        assert decisions == [False] * 3 + [True] + [False] * 6 + [True]
        assert backend._costs.probes == 2

    def test_dispatched_stages_buy_an_inline_probe(self):
        # 128 ms saved per stage against a 40 ms dispatch: the overheads
        # at stake pass 128 ms on the 4th stage, which runs inline.
        backend = _rule_backend()
        backend._workers = [object(), object()]
        _measured(backend, per_iter=1e-3, stage=0.040)
        decisions = [backend.dispatch_pays(_tasks(4, size=64)) for _ in range(4)]
        assert decisions == [True] * 3 + [False]

    def test_an_inflated_pool_sample_cannot_keep_the_pool_off(self):
        # A cold first pool measured 10 s; the true cost is 10 ms, which a
        # 32 ms saving repays.  Every probe re-measures the true cost.
        backend = _rule_backend()
        _measured(backend, per_iter=1e-3, pool_open=10.0, pool_close=0.0)
        decisions = []
        for _ in range(5000):
            decisions.append(backend.dispatch_pays(_tasks(4)))
            if decisions[-1]:
                backend._costs.pool_open.add(0.010)
        assert decisions[0] is False
        assert all(decisions[-10:])

    def test_an_inflated_per_iteration_sample_cannot_keep_dispatching(self):
        # A cold first inline stage measured 100 us per iteration; the true
        # 10 us saves 20 ms on 4,000 iterations, short of a 30 ms dispatch.
        # Every inline probe re-measures the true figure.
        backend = _rule_backend()
        backend._workers = [object(), object()]
        _measured(backend, per_iter=1e-4, stage=0.030)
        decisions = []
        for _ in range(300):
            decisions.append(backend.dispatch_pays(_tasks(4, size=1000)))
            if not decisions[-1]:
                _per_iter(backend).add(4000 * 1e-5, 4000)
        assert decisions[0] is True
        assert decisions[-100:].count(True) <= 2  # probes at most

    def test_a_figure_follows_its_recent_samples(self):
        figure = backend_mod._Figure()
        assert figure.value is None
        figure.add(1.0)
        figure.add(0.0)
        assert figure.value == pytest.approx(1 / 3)
        for _ in range(20):
            figure.add(0.0)
        assert figure.value < 1e-6

    @pytest.mark.parametrize("backend", ["fork", "shm"])
    def test_dispatch_overhead_is_never_negative(self, backend, always_dispatch):
        # A per-iteration figure far above the truth makes every dispatch
        # look faster than its compute share: the overhead reads 0.
        backend_names()  # registers the shm backend
        costs = backend_mod._DISPATCH_COSTS.setdefault(
            backend_mod.BACKENDS[backend], backend_mod.DispatchCosts()
        )
        loop = chain_loop(96, geometric_chain_targets(96, 0.5))
        costs.per_iter[backend_mod._body_key(loop)] = figure = backend_mod._Figure()
        figure.add(1.0)
        result = parallelize(
            loop, 4, RuntimeConfig.adaptive(backend=backend, backend_workers=2)
        )
        assert result.n_stages >= 2
        assert costs.pool_open.value == 0.0
        assert costs.stage.value == 0.0
        assert costs.pool_close.value > 0.0

    def test_bootstrap_on_a_real_run(self):
        # Fresh figures: the first stage runs inline (and measures the
        # body), the next dispatches (and measures the pool); every stage
        # is accounted for, and the result is serial's.
        n = 96
        loop = lambda: chain_loop(n, geometric_chain_targets(n, 0.5))  # noqa: E731
        serial = parallelize(loop(), 4, RuntimeConfig.adaptive(certify="off"))
        fork = parallelize(loop(), 4, RuntimeConfig.adaptive(
            backend="fork", backend_workers=2, certify="off",
        ))
        assert fork.memory.equals(serial.memory.snapshot())
        assert repr(fork.total_time) == repr(serial.total_time)
        sup = fork.supervision
        assert sup["supervise.inline_stages"] >= 1
        assert sup["supervise.dispatched_stages"] >= 1
        assert sup["supervise.pools_started"] == 1
        assert (
            sup["supervise.inline_stages"] + sup["supervise.dispatched_stages"]
            == fork.n_stages
        )
        assert not supervision_acted(sup)


class TestInlineShareStaysOnTheHostPlane:
    """Stages alternating between the parent and the pool leave the
    deterministic plane exactly as serial leaves it; the counts reach
    only ``RunResult.supervision`` and the oplog."""

    @pytest.mark.parametrize("backend", ["fork", "shm"])
    def test_alternating_run_writes_serials_trace(
        self, backend, monkeypatch, tmp_path
    ):
        def alternate(self, tasks):
            self.turn = not getattr(self, "turn", True)
            return self.turn

        monkeypatch.setattr(backend_mod.ForkBackend, "dispatch_pays", alternate)
        monkeypatch.setenv("REPRO_OPLOG", str(tmp_path / "ops.jsonl"))
        n = 96
        runs = {}
        for name in ("serial", backend):
            runs[name] = parallelize(
                chain_loop(n, geometric_chain_targets(n, 0.5)), 4,
                RuntimeConfig.adaptive(
                    backend=name, backend_workers=2, metrics=True,
                    trace_path=str(tmp_path / f"{name}.jsonl"),
                ),
            )
        mixed = runs[backend]
        assert mixed.n_stages >= 3
        assert (tmp_path / f"{backend}.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()
        assert mixed.metrics == runs["serial"].metrics
        assert runs["serial"].supervision == {}
        sup = mixed.supervision
        assert sup["supervise.inline_stages"] >= 1
        assert sup["supervise.dispatched_stages"] >= 1
        assert sup["supervise.pools_started"] == 1
        ends = [
            json.loads(line)
            for line in (tmp_path / "ops.jsonl").read_text().splitlines()
            if '"run-end"' in line
        ]
        assert [r["backend"] for r in ends] == ["serial", backend]
        assert ends[0]["inline_stages"] == ends[0]["dispatched_stages"] == 0
        assert ends[1]["inline_stages"] == sup["supervise.inline_stages"]
        assert ends[1]["dispatched_stages"] == sup["supervise.dispatched_stages"]
        assert ends[1]["pools_started"] == 1

    def test_undisturbed_cli_output_matches_serial(self, capsys):
        outs = {}
        for backend in ("serial", "fork"):
            argv = ["run", "random-deps", "-p", "8", "--backend", backend]
            assert cli_main(argv) == 0
            outs[backend] = capsys.readouterr().out
        assert "worker supervision" not in outs["fork"]
        # Only the title's backend annotation differs.
        assert outs["fork"].replace(", backend fork", "") == outs["serial"]

    def test_supervision_acted_ignores_dispatch_counts(self):
        stats = SupervisionStats(inline_stages=3, dispatched_stages=1)
        assert stats.reported and not stats.active
        assert not supervision_acted(stats.snapshot())
        stats.respawns = 1
        assert supervision_acted(stats.snapshot())


# -- the doall LRPD baseline and DDG extraction run on every backend ------------


def _dep_loop():
    return random_dependence_loop(96, density=0.2, max_distance=6, seed=5)


def _untested_loop(n: int = 48) -> SpeculativeLoop:
    """Disjoint untested writes beside a tested flow chain."""

    def body(ctx, i):
        ctx.work(1.0)
        x = ctx.load("A", max(0, i - 9))
        ctx.store("A", i, x + 1.0)
        ctx.store("B", i, float(i) + 1.0)

    return SpeculativeLoop(
        "untested", n, body,
        arrays=[
            ArraySpec("A", np.zeros(n)),
            ArraySpec("B", np.zeros(n), tested=False),
        ],
    )


@pytest.mark.usefixtures("always_dispatch")
class TestBaselinesOnEveryBackend:
    def test_doall_lrpd_runs_on_fork(self):
        fork = run_doall_lrpd(_dep_loop(), 4, RuntimeConfig.nrd(backend="fork"))
        serial = run_doall_lrpd(_dep_loop(), 4, RuntimeConfig.nrd(backend="serial"))
        assert fork.backend == "fork"
        assert fork.memory.equals(serial.memory.snapshot())
        assert repr(fork.total_time) == repr(serial.total_time)

    def test_ddg_extraction_runs_on_fork(self):
        fork = extract_ddg(
            _dep_loop(), 4, RuntimeConfig.sw(window_size=8, backend="fork")
        )
        serial = extract_ddg(
            _dep_loop(), 4, RuntimeConfig.sw(window_size=8, backend="serial")
        )
        assert fork.extraction.backend == "fork"
        assert list(fork.edges) == list(serial.edges)
        assert repr(fork.extraction.total_time) == repr(
            serial.extraction.total_time
        )

    def test_scoped_default_backend_applies(self):
        with use_backend("fork"):
            result = run_doall_lrpd(fully_parallel_loop(64), 4, RuntimeConfig.nrd())
        assert result.backend == "fork"

    def test_serial_still_accepted(self):
        result = run_doall_lrpd(
            fully_parallel_loop(64), 4, RuntimeConfig.nrd(backend="serial")
        )
        assert result.n_stages == 1

    @pytest.mark.parametrize("backend", backend_names())
    def test_doall_lrpd_faults_and_self_check(self, backend):
        # Seed 10 loses processor 0's block and the checkpoint copy of the
        # speculative stage.
        result = run_doall_lrpd(_untested_loop(), 4, RuntimeConfig.nrd(
            backend=backend, fault_plan=random_plan(10, n_procs=4), self_check=True,
        ))
        assert result.fault_counts == {"fail-stop": 1, "checkpoint": 1}
        assert [s.failed for s in result.stages] == [True, False]
        assert result.stages[0].restored_elements > 0
        assert_matches_sequential(result, _untested_loop())

    @pytest.mark.parametrize("backend", backend_names())
    def test_ddg_extraction_faults_and_self_check(self, backend):
        config = RuntimeConfig.sw(
            window_size=8, backend=backend, self_check=True,
            fault_plan=random_plan(11, n_procs=4),
        )
        result = extract_ddg(_untested_loop(), 4, config)
        clean = extract_ddg(_untested_loop(), 4, RuntimeConfig.sw(window_size=8))
        assert result.extraction.faults_survived > 0
        assert list(result.edges) == list(clean.edges)
        assert_matches_sequential(result.extraction, _untested_loop())


# -- vectorized private-view operations -------------------------------------------


class TestBulkViews:
    @pytest.mark.parametrize("cls", [DensePrivateView, SparsePrivateView])
    def test_written_arrays_matches_written_items(self, cls):
        view = cls(SharedArray("A", np.arange(16, dtype=np.float64)))
        for index, value in [(3, 1.5), (11, -2.0), (3, 4.25), (7, 0.5)]:
            view.store(index, value)
        indices, values = view.written_arrays()
        assert list(indices) == sorted(dict(view.written_items()))
        assert dict(zip(indices.tolist(), values.tolist())) == dict(
            view.written_items()
        )

    @pytest.mark.parametrize("cls", [DensePrivateView, SparsePrivateView])
    def test_export_absorb_written_round_trip(self, cls):
        shared = SharedArray("A", np.arange(16, dtype=np.float64))
        src, dst = cls(shared), cls(shared)
        for index, value in [(0, 9.0), (5, -1.25), (15, 3.5)]:
            src.store(index, value)
        dst.absorb_written(src.export_written())
        assert dict(dst.written_items()) == dict(src.written_items())
        # Absorbed writes behave like local ones: loads see them.
        assert dst.load(5)[0] == -1.25

    @pytest.mark.parametrize("cls", [DensePrivateView, SparsePrivateView])
    def test_store_many_last_value_wins(self, cls):
        view = cls(SharedArray("A", np.zeros(8, dtype=np.float64)))
        view.store_many(
            np.array([2, 5, 2], dtype=np.int64), np.array([1.0, 2.0, 3.0])
        )
        assert dict(view.written_items()) == {2: 3.0, 5: 2.0}

    @pytest.mark.parametrize("cls", [DensePrivateView, SparsePrivateView])
    def test_load_many_counts_distinct_copy_ins(self, cls):
        view = cls(SharedArray("A", np.arange(8, dtype=np.float64)))
        values, copied = view.load_many(np.array([1, 3, 1, 3], dtype=np.int64))
        assert list(values) == [1.0, 3.0, 1.0, 3.0]
        assert copied == 2
        _, copied_again = view.load_many(np.array([1, 3], dtype=np.int64))
        assert copied_again == 0


class TestBulkShadows:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_bulk_marks_match_scalar(self, sparse):
        bulk = make_shadow(32, sparse=sparse)
        scalar = make_shadow(32, sparse=sparse)
        reads = np.array([4, 9, 4], dtype=np.int64)
        writes = np.array([9, 17], dtype=np.int64)
        updates = np.array([21], dtype=np.int64)
        bulk.mark_write_many(writes)
        bulk.mark_read_many(reads)
        bulk.mark_update_many(updates)
        for i in writes.tolist():
            scalar.mark_write(i)
        for i in reads.tolist():
            scalar.mark_read(i)
        for i in updates.tolist():
            scalar.mark_update(i)
        assert bulk.write_set() == scalar.write_set()
        assert bulk.exposed_read_set() == scalar.exposed_read_set()
        assert bulk.update_set() == scalar.update_set()
        assert bulk.has_updates() and scalar.has_updates()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_bulk_read_is_one_snapshot(self, sparse):
        # A bulk read sees prior writes but none of its own batch: index 4
        # was written before, so it is covered; 9 was not, so it is exposed
        # even though the same batch "reads it twice".
        shadow = make_shadow(32, sparse=sparse)
        shadow.mark_write_many(np.array([4], dtype=np.int64))
        shadow.mark_read_many(np.array([4, 9, 9], dtype=np.int64))
        assert shadow.exposed_read_set() == {9}

    @pytest.mark.parametrize("sparse", [False, True])
    def test_export_absorb_marks_round_trip(self, sparse):
        src = make_shadow(32, sparse=sparse)
        src.mark_write(3)
        src.mark_read(7)
        src.mark_update(11)
        dst = make_shadow(32, sparse=sparse)
        dst.mark_read(1)
        dst.absorb_marks(src.export_marks())
        assert dst.write_set() == {3}
        assert dst.exposed_read_set() == {1, 7}
        assert dst.update_set() == {11}


class TestMixedSetsEarlyOut:
    def test_no_updates_short_circuits(self):
        shadow = make_shadow(16, sparse=False)
        shadow.mark_write(2)
        shadow.mark_read(5)
        assert _mixed_sets([(0, {"A": shadow})]) == {}

    def test_mixed_elements_found(self):
        a = make_shadow(16, sparse=False)
        a.mark_update(3)
        a.mark_update(8)
        b = make_shadow(16, sparse=True)
        b.mark_write(3)
        assert _mixed_sets([(0, {"A": a}), (1, {"A": b})]) == {"A": {3}}

    def test_pure_reductions_not_mixed(self):
        a = make_shadow(16, sparse=False)
        a.mark_update(3)
        b = make_shadow(16, sparse=False)
        b.mark_update(3)
        assert _mixed_sets([(0, {"A": a}), (1, {"A": b})]) == {}


# -- bulk SpeculativeContext access ------------------------------------------------


def _bulk_pair(n: int) -> tuple[SpeculativeLoop, SpeculativeLoop]:
    """The same gather/scale loop written element-wise and vectorized."""

    def scalar_body(ctx, i):
        total = ctx.load("A", i) + ctx.load("A", (i + 1) % n)
        ctx.store("B", i, total)
        ctx.store("B", (i + n // 2) % n, total * 0.5)
        ctx.work(1.0)

    def bulk_body(ctx, i):
        values = ctx.load_many("A", np.array([i, (i + 1) % n], dtype=np.int64))
        total = float(values[0] + values[1])
        ctx.store_many(
            "B",
            np.array([i, (i + n // 2) % n], dtype=np.int64),
            np.array([total, total * 0.5]),
        )
        ctx.work(1.0)

    def make(body, name):
        return SpeculativeLoop(
            name=name,
            n_iterations=n,
            body=body,
            arrays=[
                ArraySpec("A", np.arange(n, dtype=np.float64)),
                ArraySpec("B", np.zeros(n, dtype=np.float64)),
            ],
        )

    return make(scalar_body, "bulk-scalar"), make(bulk_body, "bulk-vector")


class TestContextBulkOps:
    def test_bulk_body_matches_scalar_body(self):
        scalar_loop, bulk_loop = _bulk_pair(64)
        scalar = parallelize(scalar_loop, 4, RuntimeConfig.nrd())
        bulk = parallelize(bulk_loop, 4, RuntimeConfig.nrd())
        assert bulk.memory.equals(scalar.memory.snapshot())
        assert bulk.n_stages == scalar.n_stages
        assert bulk.total_time == pytest.approx(scalar.total_time)

    def test_bulk_charges_match_scalar(self):
        scalar_loop, bulk_loop = _bulk_pair(16)

        def run(loop):
            machine = Machine(1, memory=loop.materialize())
            machine.begin_stage()
            state = make_processor_state(machine, loop, 0)
            execute_block(machine, loop, state, Block(0, 0, 16), None)
            return machine.timeline.total_time()

        assert run(bulk_loop) == pytest.approx(run(scalar_loop))

    def test_bulk_access_rejects_reduction_arrays(self):
        from repro.core.executor import SpeculativeContext
        from repro.workloads.synthetic import reduction_loop

        loop = reduction_loop(16)
        machine = Machine(1, memory=loop.materialize())
        state = make_processor_state(machine, loop, 0)
        ctx = SpeculativeContext(machine, loop, state, None)
        ctx.begin_iteration(0)
        indices = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="reduction"):
            ctx.load_many("H", indices)
        with pytest.raises(ValueError, match="reduction"):
            ctx.store_many("H", indices, np.array([1.0, 2.0]))


# -- CLI ---------------------------------------------------------------------------


class TestCliBackend:
    def test_run_with_fork_backend(self, capsys):
        assert cli_main(["run", "doall", "-p", "4", "--backend", "fork"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out.lower() or out

    def test_run_with_shm_backend(self, capsys):
        assert cli_main(["run", "doall", "-p", "4", "--backend", "shm"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out.lower() or out

    def test_run_with_threads_backend(self, capsys):
        assert cli_main(["run", "doall", "-p", "4", "--backend", "threads"]) == 0
        out = capsys.readouterr().out
        # The stage-trace title names the backend and its GIL mode.
        assert "backend threads" in out

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "doall", "-p", "4", "--backend", "gpu"])
