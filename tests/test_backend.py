"""The execution-backend layer: registry, fork guards, bulk hot paths.

Bit-exact serial/fork parity over the full strategy matrix lives in
``test_engine_parity.py``; this file covers the backend machinery itself
-- selection, defaults, the doall LRPD baseline and DDG extraction on
every backend -- and the
vectorized view/shadow/context operations the backends and the commit
phase rely on.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.sequential import run_sequential
from repro.cli import main as cli_main
from repro.config import RuntimeConfig
from repro.core import backend as backend_mod
from repro.core.analysis import analyze_stage
from repro.core.backend import (
    BlockTask,
    backend_names,
    make_backend,
    resolve_backend_name,
    use_backend,
)
from repro.core.ddg import extract_ddg
from repro.core.fastpath import CertifiedDoall
from repro.core.executor import execute_block, make_processor_state
from repro.core.lrpd import run_doall_lrpd
from repro.core.runner import parallelize
from repro.core.supervise import SupervisionStats, supervision_acted
from repro.core.wavefront import execute_wavefront, wavefront_schedule
from repro.errors import BackendError, ConfigurationError
from repro.faults import random_plan
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.machine.machine import Machine
from repro.machine.memory import (
    DensePrivateView,
    SharedArray,
    SparsePrivateView,
)
from repro.obs.events import SpanClosed
from repro.obs.oplog import ENV_PATH
from repro.obs.sinks import RecordingSink
from repro.shadow import make_shadow
from repro.util.blocks import Block
from repro.workloads.synthetic import (
    chain_loop,
    fully_parallel_loop,
    geometric_chain_targets,
    random_dependence_loop,
)
from repro.workloads.track_nlfilt import make_nlfilt_loop
from tests.conftest import assert_matches_sequential


# -- registry and defaults --------------------------------------------------------


class TestBackendSelection:
    def test_known_backends(self):
        assert backend_names() == ["fork", "serial", "shm", "threads"]

    def test_serial_is_the_default(self):
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
        assert resolve_backend_name(RuntimeConfig.nrd()) == "serial"

    def test_unknown_default_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            with use_backend("gpu"):
                pass

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


# -- shm: a synonym for the fork pool ---------------------------------------------


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
        # sparse memory-update broadcast across many stages.
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


@pytest.mark.usefixtures("always_dispatch")
class TestShmSynonym:
    def test_worker_crash_is_bit_identical_and_degrades_straight_to_serial(self):
        # A body that SIGKILLs every worker it reaches is a poison block:
        # the supervisor gives up on the pool, the run degrades straight
        # to serial (shm is the fork pool; there is no second process
        # plane to try) and completes with serial's answer.
        import os
        import signal

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

        # An explicit CertifiedDoall executes the body (a certified run
        # replays its probe in the parent, where the poison never fires).
        result = parallelize(
            make_loop(), 4, RuntimeConfig.nrd(backend="shm"),
            strategy=CertifiedDoall(),
        )
        chain = [
            (d["from"], d["to"])
            for d in result.supervision["supervise.degradations"]
        ]
        assert chain == [("shm", "serial")]
        serial = parallelize(make_loop(), 4, RuntimeConfig.nrd(backend="serial"))
        assert result.memory.equals(serial.memory.snapshot())
        assert repr(result.total_time) == repr(serial.total_time)
        assert result.n_stages == serial.n_stages


# -- threads: a synonym for serial -----------------------------------------------


class TestThreadsSynonym:
    def test_multi_stage_run_is_serials_on_the_calling_thread(
        self, tmp_path, monkeypatch
    ):
        # threads is the serial block loop under another name: the run,
        # its trace and its virtual time are serial's, no pool starts and
        # the loop body sees no thread serial's run does not have.
        import threading

        monkeypatch.setenv("REPRO_OPLOG", str(tmp_path / "ops.jsonl"))
        n = 96
        targets = frozenset(geometric_chain_targets(n, 0.5))

        def run(backend):
            seen = {"idents": set(), "threads": 0}

            def body(ctx, i):
                seen["idents"].add(threading.get_ident())
                seen["threads"] = max(seen["threads"], threading.active_count())
                value = float(i)
                if i in targets:
                    value += ctx.load("A", i - 1)
                ctx.store("A", i, value)

            loop = SpeculativeLoop(
                "chain", n, body, arrays=[ArraySpec("A", np.zeros(n))]
            )
            result = parallelize(loop, 4, RuntimeConfig.adaptive(
                backend=backend, backend_workers=2, certify="off",
                trace_path=str(tmp_path / f"{backend}.jsonl"),
            ))
            return result, seen

        serial, serial_seen = run("serial")
        threads, threads_seen = run("threads")
        assert serial.n_stages > 1
        assert threads.memory.equals(serial.memory.snapshot())
        assert repr(threads.total_time) == repr(serial.total_time)
        assert threads.n_stages == serial.n_stages
        assert (tmp_path / "threads.jsonl").read_bytes() == (
            tmp_path / "serial.jsonl"
        ).read_bytes()
        assert threads.backend == "threads"
        assert threads.supervision == {}
        ops = (tmp_path / "ops.jsonl").read_text()
        assert '"pool-started"' not in ops
        assert threads_seen["idents"] == {threading.get_ident()}
        assert threads_seen["threads"] == serial_seen["threads"]


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


# -- dispatch only when it pays ----------------------------------------------------

#: The backends that decide stage by stage between the pool and the parent.
POOLED = ["fork", "shm"]


def _rule_backend(name="fork", *, workers=2, os_chaos=None):
    """A pooled backend over a stub engine (the figures start empty)."""
    backend_names()  # registers shm
    loop = fully_parallel_loop(64)
    eng = SimpleNamespace(
        os_chaos=os_chaos, loop=loop, body_loop=loop, n_procs=4,
        config=SimpleNamespace(backend_workers=workers),
        supervision=SupervisionStats(),
    )
    return backend_mod.BACKENDS[name](eng)


def _tasks(n_blocks, size=16):
    return [
        BlockTask(stage=0, pos=k, block=Block(k, k * size, (k + 1) * size))
        for k in range(n_blocks)
    ]


def _figure(backend, path):
    """The per-iteration figure of ``path`` ("inline" or "dispatch")."""
    return getattr(backend._costs, path).setdefault(
        backend_mod._body_key(backend.eng.loop), backend_mod._Figure()
    )


def _measured(backend, *, inline, dispatch=None, pool_open=0.0, pool_close=0.0):
    """Record one sample of each figure the rule reads (no dispatch
    sample when ``dispatch`` is None); per-iteration seconds."""
    costs = backend._costs
    _figure(backend, "inline").add(inline)
    if dispatch is not None:
        _figure(backend, "dispatch").add(dispatch)
    costs.pool_open.add(pool_open)
    costs.pool_close.add(pool_close)


class _PathClock:
    """The host clock ``run_blocks`` reads, advanced only by the stubbed
    paths of :func:`_stub_paths`, so every recorded figure is exact."""

    def __init__(self) -> None:
        self.now = 0.0
        self.paths: list[str] = []

    def perf_counter(self) -> float:
        return self.now


def _stub_paths(monkeypatch, backend, *, inline, dispatch, pool_open, pool_close):
    """Replace the backend's paths by stubs that take the given host
    seconds: ``inline(k)`` per iteration of the ``k``-th inline stage,
    ``dispatch`` per iteration of a dispatched one.  ``run_blocks`` and
    ``close`` then record their samples as on a real run."""
    clock = _PathClock()
    monkeypatch.setattr(backend_mod, "time", clock)

    def take(path, seconds):
        clock.now += seconds
        clock.paths.append(path)
        return []

    def run_inline(tasks):
        per_iter = inline(clock.paths.count("inline"))
        return take("inline", per_iter * backend_mod._iterations(tasks))

    def dispatch_stage(tasks):
        return take("dispatch", dispatch * backend_mod._iterations(tasks))

    def ensure_workers():
        clock.now += pool_open
        backend._workers = [None] * backend._pool_size()

    def shutdown_pool(workers):
        clock.now += pool_close

    for name, stub in (
        ("_run_inline", run_inline),
        ("_dispatch_stage", dispatch_stage),
        ("_ensure_workers", ensure_workers),
    ):
        monkeypatch.setattr(backend, name, stub)
    monkeypatch.setattr(backend_mod, "_shutdown_pool", shutdown_pool)
    return clock


@pytest.fixture(params=POOLED)
def pooled(request):
    """Each pooled backend's name, for the rule they all share."""
    return request.param


class TestDispatchRule:
    def test_no_inline_figure_runs_inline(self, pooled):
        backend = _rule_backend(pooled)
        assert not backend.dispatch_pays(_tasks(4))

    def test_no_dispatch_figure_dispatches_once_to_measure_it(self, pooled):
        backend = _rule_backend(pooled)
        _figure(backend, "inline").add(1e-6)
        assert backend.dispatch_pays(_tasks(4))  # no dispatch figure yet
        _figure(backend, "dispatch").add(1.0)
        assert backend.dispatch_pays(_tasks(4))  # no pool figures yet
        backend._workers = [object(), object()]
        assert not backend.dispatch_pays(_tasks(4))

    def test_os_chaos_always_dispatches(self):
        backend = _rule_backend(os_chaos=object())
        assert backend.dispatch_pays(_tasks(1))

    def test_one_block_never_pays(self, pooled):
        backend = _rule_backend(pooled)
        _measured(backend, inline=1.0, dispatch=1e-9)
        assert not backend.dispatch_pays(_tasks(1))

    def test_one_worker_never_pays(self, pooled):
        backend = _rule_backend(pooled, workers=1)
        _measured(backend, inline=1.0, dispatch=1e-9)
        assert not backend.dispatch_pays(_tasks(4))

    def test_pool_cost_counts_only_while_no_pool_runs(self, pooled):
        # 64 iterations: 64 ms inline against a 48 ms dispatch, which a
        # 10 ms pool start and 50 ms close would push past inline.
        backend = _rule_backend(pooled)
        _measured(backend, inline=1e-3, dispatch=0.75e-3, pool_open=0.010,
                  pool_close=0.050)
        assert not backend.dispatch_pays(_tasks(4))
        backend._workers = [object(), object()]
        assert backend.dispatch_pays(_tasks(4))

    @pytest.mark.parametrize("dispatch, pays", [(1.2e-3, False), (0.8e-3, True)])
    def test_the_cheaper_path_wins(self, pooled, dispatch, pays):
        backend = _rule_backend(pooled)
        backend._workers = [object(), object()]
        _measured(backend, inline=1e-3, dispatch=dispatch)
        assert backend.dispatch_pays(_tasks(4, size=64)) is pays

    def test_inline_stages_buy_a_probe_with_doubling_prices(self, pooled):
        # 32 ms inline per stage against a 16 ms dispatch plus an 84 ms
        # pool: inline, until the stake passes 100 ms (4th stage), then
        # 200 ms (7th more).
        backend = _rule_backend(pooled)
        _measured(backend, inline=0.5e-3, dispatch=0.25e-3, pool_open=0.074,
                  pool_close=0.010)
        decisions = [backend.dispatch_pays(_tasks(4)) for _ in range(11)]
        assert decisions == [False] * 3 + [True] + [False] * 6 + [True]
        assert backend._costs.probes == 2

    def test_dispatched_stages_buy_an_inline_probe(self, pooled):
        # 40 ms dispatched per stage against 128 ms inline: the stake
        # passes 128 ms on the 4th stage, which runs inline.
        backend = _rule_backend(pooled)
        backend._workers = [object(), object()]
        _measured(backend, inline=2e-3, dispatch=0.625e-3)
        decisions = [backend.dispatch_pays(_tasks(4)) for _ in range(4)]
        assert decisions == [True] * 3 + [False]

    def test_every_decision_stakes_a_positive_amount(self, pooled):
        backend = _rule_backend(pooled)
        backend._workers = [object(), object()]
        _measured(backend, inline=1e-3, dispatch=1e-12)
        stakes = []
        for _ in range(5):
            backend.dispatch_pays(_tasks(4))
            stakes.append(backend._costs.stake)
        assert all(b > a > 0.0 for a, b in zip(stakes, stakes[1:]))

    def test_an_inflated_pool_sample_cannot_keep_the_pool_off(self, pooled):
        # A cold first pool start measured 10 s; the true 10 ms start
        # makes dispatch cheaper than inline.  Every probe re-measures it.
        backend = _rule_backend(pooled)
        _measured(backend, inline=1e-3, dispatch=0.25e-3, pool_open=10.0)
        decisions = []
        for _ in range(5000):
            decisions.append(backend.dispatch_pays(_tasks(4)))
            if decisions[-1]:
                backend._costs.pool_open.add(0.010)
        assert decisions[0] is False
        assert all(decisions[-10:])

    @pytest.mark.parametrize("name, pool_close", [("fork", 0.030), ("fork", 1e-4)])
    def test_an_inflated_inline_sample_cannot_keep_dispatching(
        self, monkeypatch, name, pool_close
    ):
        # A cold first inline stage takes 164 us per iteration; every later
        # one takes the true 30 us, below the dispatch's 35 us.  Five calls
        # of 37 stages, 96 iterations each, the figures carried across
        # calls.  The inline probes re-measure the body, so inline wins
        # back the stages whatever the pool's close costs.
        backend = _rule_backend(name)
        clock = _stub_paths(
            monkeypatch, backend,
            inline=lambda k: 164e-6 if k == 0 else 30e-6,
            dispatch=35e-6, pool_open=1e-4, pool_close=pool_close,
        )
        for _ in range(5):
            for _ in range(37):
                backend.run_blocks(_tasks(4, size=24))
            backend.close()
        sup = backend.eng.supervision
        assert sup.inline_stages + sup.dispatched_stages == 185
        assert clock.paths[:2] == ["inline", "dispatch"]
        assert clock.paths[-100:].count("dispatch") <= 3  # probes at most

    def test_the_dispatch_figure_does_not_depend_on_the_inline_one(
        self, monkeypatch, pooled
    ):
        # The same dispatched stages under a wildly high and a tiny inline
        # figure record the same dispatch and pool figures, to the bit.
        figures = []
        for inline in (1.0, 1e-9):
            backend = _rule_backend(pooled)
            monkeypatch.setattr(backend_mod, "_DISPATCH_COSTS", {})
            monkeypatch.setattr(backend, "dispatch_pays", lambda tasks, n=None: True)
            _figure(backend, "inline").add(inline)
            _stub_paths(monkeypatch, backend, inline=lambda k: 0.0,
                        dispatch=35e-6, pool_open=1e-4, pool_close=1e-4)
            for _ in range(3):
                backend.run_blocks(_tasks(4))
            backend.close()
            costs = backend._costs
            figures.append((
                _figure(backend, "dispatch").value,
                costs.pool_open.value, costs.pool_close.value,
            ))
        assert figures[0] == figures[1]
        assert figures[0][0] == pytest.approx(35e-6)
        assert figures[0][1:] == pytest.approx((1e-4, 1e-4))

    # -- the pool-cost bound ---------------------------------------------------
    # 64 iterations at 2**-10 s inline on two workers save at best
    # 2**-5 s: exactly a pool measured at 2**-6 s to start and 2**-6 s to
    # stop, twice each.

    @staticmethod
    def _two_pool_samples(backend, *, opened=2**-6, closed=2**-6):
        for _ in range(2):
            backend._costs.pool_open.add(opened)
            backend._costs.pool_close.add(closed)

    @pytest.mark.parametrize("size", [16, 8], ids=["at", "below"])
    @pytest.mark.parametrize(
        "dispatch", [None, 1e-9, 2**-10], ids=["bootstrap", "decision", "probe"]
    )
    def test_a_stage_within_the_pool_bound_never_starts_one(
        self, pooled, size, dispatch
    ):
        # Without the bound: no dispatch figure bootstraps, a free dispatch
        # beats inline once the pool is paid, and an equal one is probed
        # on the second stage.
        backend = _rule_backend(pooled)
        self._two_pool_samples(backend)
        _figure(backend, "inline").add(2**-10)
        if dispatch is not None:
            _figure(backend, "dispatch").add(dispatch)
        assert backend._costs.pool_floor() == 2**-5
        decisions = [backend.dispatch_pays(_tasks(4, size)) for _ in range(50)]
        assert not any(decisions)
        assert (backend._costs.stake, backend._costs.probes) == (0.0, 0)

    def test_a_lone_pool_sample_sets_no_bound(self, pooled):
        # The only sample may be the process's cold first fork.
        backend = _rule_backend(pooled)
        _measured(backend, inline=2**-10, pool_open=2**-6, pool_close=2**-6)
        assert backend._costs.pool_floor() is None
        assert backend.dispatch_pays(_tasks(4))

    def test_just_above_the_bound_bootstraps_and_probes(self, pooled):
        # A 30 ms cheapest pool against a 31.25 ms best-case saving.  Then
        # 62.5 ms inline per stage against 62.5 ms dispatched plus a
        # 30 ms pool: inline, probing once the stake passes 92.5 ms, then
        # 185 ms, then 370 ms.
        backend = _rule_backend(pooled)
        self._two_pool_samples(backend, opened=0.015, closed=0.015)
        _figure(backend, "inline").add(2**-10)
        assert backend._costs.pool_floor() < 2**-5
        assert backend.dispatch_pays(_tasks(4))  # no dispatch figure yet
        _figure(backend, "dispatch").add(2**-10)
        decisions = [backend.dispatch_pays(_tasks(4)) for _ in range(11)]
        assert decisions == [False, True] + [False] * 2 + [True] + [False] * 5 + [True]
        assert backend._costs.probes == 3

    def test_a_running_pool_lifts_the_bound(self, pooled):
        backend = _rule_backend(pooled)
        self._two_pool_samples(backend)
        _figure(backend, "inline").add(2**-10)
        _figure(backend, "dispatch").add(1e-9)
        assert not backend.dispatch_pays(_tasks(4))
        backend._workers = [object(), object()]
        assert backend.dispatch_pays(_tasks(4))
        backend._workers = None
        assert not backend.dispatch_pays(_tasks(4))

    def test_a_track_shaped_run_stops_starting_pools(self, monkeypatch):
        # Five calls of 37 stages, 96 iterations each: 19.2 ms inline,
        # 14.4 ms on a running pool, whose start and close take 30 ms.  The
        # best case saves 9.6 ms, so once the pool is measured twice no
        # call starts one; without the bound a probe starts a third.
        backend = _rule_backend("fork")
        _stub_paths(monkeypatch, backend, inline=lambda k: 200e-6,
                    dispatch=150e-6, pool_open=0.025, pool_close=0.005)
        sup, starts = backend.eng.supervision, []
        for _ in range(5):
            before = sup.pools_started
            for _ in range(37):
                backend.run_blocks(_tasks(4, size=24))
            backend.close()
            starts.append(sup.pools_started - before)
        costs = backend._costs
        assert starts == [1, 1, 0, 0, 0]
        assert (costs.pool_open.samples, costs.pool_close.samples) == (2, 2)
        assert costs.pool_floor() == pytest.approx(0.030)

    def test_a_figure_follows_its_recent_samples(self):
        figure = backend_mod._Figure()
        assert figure.value is None
        figure.add(1.0)
        figure.add(0.0)
        assert figure.value == pytest.approx(1 / 3)
        for _ in range(20):
            figure.add(0.0)
        assert figure.value < 1e-6

    @pytest.mark.parametrize("backend", ["fork"])
    def test_bootstrap_on_a_real_run(self, backend):
        # Fresh figures: the first stage runs inline (and measures the
        # body), the next dispatches (and measures the pool); every stage
        # is accounted for, and the result is serial's.
        n = 96
        loop = lambda: chain_loop(n, geometric_chain_targets(n, 0.5))  # noqa: E731
        serial = parallelize(loop(), 4, RuntimeConfig.adaptive(certify="off"))
        pooled = parallelize(loop(), 4, RuntimeConfig.adaptive(
            backend=backend, backend_workers=2, certify="off",
        ))
        assert pooled.memory.equals(serial.memory.snapshot())
        assert repr(pooled.total_time) == repr(serial.total_time)
        sup = pooled.supervision
        assert sup["supervise.inline_stages"] >= 1
        assert sup["supervise.dispatched_stages"] >= 1
        assert sup["supervise.pools_started"] == 1
        assert (
            sup["supervise.inline_stages"] + sup["supervise.dispatched_stages"]
            == pooled.n_stages
        )
        assert not supervision_acted(sup)


class TestInlineShareStaysOnTheHostPlane:
    """Stages alternating between the parent and the pool leave the
    deterministic plane exactly as serial leaves it; the counts reach
    only ``RunResult.supervision`` and the oplog."""

    @pytest.mark.parametrize("backend", POOLED)
    def test_alternating_run_writes_serials_trace(
        self, backend, monkeypatch, tmp_path
    ):
        def alternate(self, tasks, n=None):
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


@pytest.mark.usefixtures("kernel_mode")
class TestBulkShadows:
    def test_bulk_marks_match_scalar(self):
        bulk = make_shadow(32)
        scalar = make_shadow(32)
        reads = np.array([4, 9, 4], dtype=np.int64)
        writes = np.array([9, 17], dtype=np.int64)
        updates = np.array([21], dtype=np.int64)
        bulk.record(~writes)
        bulk.record(reads)
        bulk.record_updates(updates)
        for i in writes.tolist():
            scalar.mark_write(i)
        for i in reads.tolist():
            scalar.mark_read(i)
        for i in updates.tolist():
            scalar.mark_update(i)
        assert bulk.write_set() == scalar.write_set()
        assert bulk.exposed_read_set() == scalar.exposed_read_set()
        assert bulk.update_set() == scalar.update_set() == {21}

    def test_bulk_read_is_one_snapshot(self):
        # A bulk read sees prior writes but none of its own batch: index 4
        # was written before, so it is covered; 9 was not, so it is exposed
        # even though the same batch "reads it twice".
        shadow = make_shadow(32)
        shadow.record(np.array([~4], dtype=np.int64))
        shadow.record(np.array([4, 9, 9], dtype=np.int64))
        assert shadow.exposed_read_set() == {9}

    def test_export_absorb_marks_round_trip(self):
        src = make_shadow(32)
        src.mark_write(3)
        src.mark_read(7)
        src.mark_update(11)
        dst = make_shadow(32)
        dst.mark_read(1)
        dst.absorb_marks(src.export_marks())
        assert dst.write_set() == {3}
        assert dst.exposed_read_set() == {1, 7}
        assert dst.update_set() == {11}


@pytest.mark.usefixtures("kernel_mode")
class TestMixedReductionElements:
    def test_no_updates_no_mixing(self):
        shadow = make_shadow(16)
        shadow.mark_write(2)
        shadow.mark_read(5)
        assert analyze_stage([(0, {"A": shadow})]).mixed_reduction_elements == 0

    def test_mixed_elements_found(self):
        a = make_shadow(16)
        a.mark_update(3)
        a.mark_update(8)
        b = make_shadow(16)
        b.mark_write(3)
        analysis = analyze_stage([(0, {"A": a}), (1, {"A": b})])
        assert analysis.mixed_reduction_elements == 1

    def test_pure_reductions_not_mixed(self):
        a = make_shadow(16)
        a.mark_update(3)
        b = make_shadow(16)
        b.mark_update(3)
        analysis = analyze_stage([(0, {"A": a}), (1, {"A": b})])
        assert analysis.mixed_reduction_elements == 0


# -- bulk SpeculativeContext access ------------------------------------------------


def _bulk_pair(n: int, chain: int = 0) -> tuple[SpeculativeLoop, SpeculativeLoop]:
    """The same gather/scale loop written element-wise and vectorized.

    With ``chain > 0`` iteration ``i`` also reads ``B[i - chain]``: a flow
    dependence that fails a doall and gives a wavefront ``chain`` levels.
    """

    def scalar_body(ctx, i):
        total = ctx.load("A", i) + ctx.load("A", (i + 1) % n)
        if chain:
            total += ctx.load("B", (i - chain) % n)
        ctx.store("B", i, total * 2.0)
        ctx.store("B", (i + n // 2) % n, total * 0.5)
        ctx.store("B", i, total)
        ctx.work(1.0)

    def bulk_body(ctx, i):
        values = ctx.load_many("A", np.array([i, (i + 1) % n], dtype=np.int64))
        total = float(values[0] + values[1])
        if chain:
            total += float(ctx.load_many("B", [(i - chain) % n])[0])
        # The duplicate index: the later value wins, as in scalar_body.
        ctx.store_many(
            "B",
            np.array([i, (i + n // 2) % n, i], dtype=np.int64),
            np.array([total * 2.0, total * 0.5, total]),
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

    # Every in-order path outside the engine runs bulk bodies too, to the
    # element-wise twin's memory bit for bit.

    def _twins_agree(self, run, chain: int = 0):
        scalar_loop, bulk_loop = _bulk_pair(64, chain)
        scalar, bulk = run(scalar_loop), run(bulk_loop)
        assert bulk.memory.equals(scalar.memory.snapshot())
        return scalar, bulk

    def test_sequential_oracle_runs_bulk_bodies(self):
        self._twins_agree(run_sequential)

    def test_self_check_replays_bulk_bodies(self):
        self._twins_agree(
            lambda loop: parallelize(loop, 4, RuntimeConfig(self_check=True))
        )

    def test_doall_fallback_runs_bulk_bodies(self):
        scalar, bulk = self._twins_agree(
            lambda loop: run_doall_lrpd(loop, 4), chain=4
        )
        # The doall failed and the sequential fallback stage ran.
        assert bulk.n_stages == scalar.n_stages == 2

    def test_wavefront_runs_bulk_bodies(self):
        ddg = extract_ddg(_bulk_pair(64, 4)[0], 4, RuntimeConfig.sw(window_size=16))
        schedule = wavefront_schedule(ddg.graph(), 64)
        assert schedule.critical_path > 1
        self._twins_agree(lambda loop: execute_wavefront(loop, schedule, 4), chain=4)

    def test_bulk_access_rejects_reduction_arrays(self):
        from repro.core.executor import SpeculativeContext
        from repro.workloads.synthetic import reduction_loop

        loop = reduction_loop(16)
        machine = Machine(1, memory=loop.materialize())
        state = make_processor_state(machine, loop, 0)
        ctx = SpeculativeContext(machine, loop, state, None)
        indices = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="reduction"):
            ctx.load_many("H", indices)
        with pytest.raises(ValueError, match="reduction"):
            ctx.store_many("H", indices, np.array([1.0, 2.0]))


# -- one block runner for every backend -------------------------------------------


def _block_spans(loop, backend):
    sink = RecordingSink()
    config = RuntimeConfig(backend=backend, certify="off", spans=True)
    parallelize(loop, 4, config, sinks=[sink])
    return [e for e in sink.events if isinstance(e, SpanClosed) and e.cat == "block"]


@pytest.mark.usefixtures("always_dispatch")
class TestBlockSpanParity:
    """Every backend reports a block's span from the same run of the same
    block: its virtual duration is ``ctx.block_time`` on serial and in a
    fork worker alike, bit for bit."""

    @pytest.mark.parametrize("make", [
        lambda: make_nlfilt_loop("15-250"),
        lambda: random_dependence_loop(400, 0.05, 30, seed=3),
    ], ids=["nlfilt-15-250", "random-deps"])
    def test_fork_block_spans_match_serial(self, make):
        serial = _block_spans(make(), "serial")
        fork = _block_spans(make(), "fork")
        assert serial
        assert [(s.stage, s.proc, repr(s.virt_start), repr(s.virt_dur)) for s in fork] == [
            (s.stage, s.proc, repr(s.virt_start), repr(s.virt_dur)) for s in serial
        ]


class TwoArgError(Exception):
    """Pickles (its args are the message) but cannot be rebuilt from it."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _failing_loop(failures):
    """``fully_parallel_loop(64)`` whose body raises ``failures[i]`` at
    iteration ``i``."""
    base = fully_parallel_loop(64)

    def body(ctx, i):
        if i in failures:
            raise failures[i]
        base.body(ctx, i)

    return dataclasses.replace(base, body=body)


def _raised(loop, backend):
    config = RuntimeConfig(backend=backend, certify="off", backend_workers=2)
    with pytest.raises(BaseException) as info:
        parallelize(loop, 4, config)
    return info.value


@pytest.mark.usefixtures("always_dispatch")
class TestExceptionParity:
    """A loop body's exception reaches the caller as itself on every
    backend, wherever its stage ran; from a fork worker it is chained
    from a :class:`BackendError` that carries the worker's traceback."""

    def test_a_dispatched_body_raises_its_own_error(self, tmp_path, monkeypatch):
        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        loop = _failing_loop({40: FileNotFoundError("input 40 is missing")})
        serial = _raised(loop, "serial")
        fork = _raised(loop, "fork")
        assert type(serial) is type(fork) is FileNotFoundError
        assert str(fork) == str(serial) == "input 40 is missing"
        assert isinstance(fork.__cause__, BackendError)
        assert "FileNotFoundError: input 40 is missing" in str(fork.__cause__)
        records = [json.loads(line) for line in open(path, encoding="utf-8")]
        events = {r["event"] for r in records}
        assert "pool-started" in events
        assert not events & {"worker-died", "worker-respawned", "pool-degraded"}

    def test_the_lowest_failing_block_wins_across_workers(self):
        # Blocks of 16 on two workers: block 1 (worker 1) fails before
        # block 2 (worker 0) in block order, as a serial run meets them.
        loop = _failing_loop({
            20: KeyError("block one"), 40: ValueError("block two"),
        })
        serial = _raised(loop, "serial")
        fork = _raised(loop, "fork")
        assert type(serial) is type(fork) is KeyError
        assert str(fork) == str(serial)

    def test_an_error_that_does_not_unpickle_stays_a_backend_error(self):
        loop = _failing_loop({40: TwoArgError("bad input", 40)})
        assert type(_raised(loop, "serial")) is TwoArgError
        fork = _raised(loop, "fork")
        assert type(fork) is BackendError
        assert "TwoArgError: bad input at 40" in str(fork)

    def test_an_error_that_does_not_pickle_stays_a_backend_error(self):
        class LocalError(Exception):
            pass

        loop = _failing_loop({40: LocalError("local")})
        assert type(_raised(loop, "serial")) is LocalError
        fork = _raised(loop, "fork")
        assert type(fork) is BackendError
        assert "LocalError: local" in str(fork)


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
