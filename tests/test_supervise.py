"""Worker-pool supervision: real SIGKILL/SIGSTOP chaos against fork/shm.

The logical fault injector simulates processor deaths inside healthy OS
processes; these tests break the processes for real.  The acceptance bar
throughout is *bit-identical recovery*: a run whose workers are killed or
stopped mid-stage must produce exactly the serial backend's results,
events and virtual time, with the disturbance visible only in
``RunResult.supervision`` / ``StageResult.redispatched_procs`` and the
operational supervisor log.
"""

import json
import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.backend import _shutdown_pool
from repro.core.runner import parallelize
from repro.errors import BackendError
from repro.faults.os_chaos import OsChaosPlan
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.obs.events import validate_events
from repro.obs.report import load_trace
from repro.workloads.synthetic import chain_loop, geometric_chain_targets
from tests.engine_parity_cases import summarize

P = 4
CHAOS_BACKENDS = ["fork", "shm"]

# Every stage goes to the pool (os_chaos runs dispatch anyway; the
# self-killing and raising bodies below need workers to act on).
pytestmark = [
    pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="worker pools need the fork start method",
    ),
    pytest.mark.usefixtures("always_dispatch"),
]


def _chain():
    return chain_loop(96, geometric_chain_targets(96, 0.5))


def _slow_doall(n: int = 32) -> SpeculativeLoop:
    """A doall whose host time per iteration is long enough that a chaos
    kill delivered right after dispatch lands mid-execution.  The sleep
    affects only wall-clock time; virtual time comes from ``ctx.work``."""

    def body(ctx, i):
        time.sleep(0.005)
        ctx.work(1.0)
        ctx.store("A", i, float(i) * 2.0)

    return SpeculativeLoop(
        "slow_doall", n, body, arrays=[ArraySpec("A", np.zeros(n))]
    )


def _config(backend, **overrides):
    return RuntimeConfig.adaptive(
        backend=backend, backend_workers=P, **overrides
    )


# -- bit-identical recovery from SIGKILL ------------------------------------------


class TestKillRecovery:
    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_killed_worker_is_respawned_bit_identically(self, backend):
        serial = summarize(parallelize(_chain(), P, RuntimeConfig.adaptive()))
        result = parallelize(
            _chain(), P,
            _config(backend, os_chaos=OsChaosPlan.kill_workers(0, [1])),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.respawns"] >= 1
        assert result.supervision["supervise.redispatched_blocks"] >= 1
        assert result.supervision["supervise.degradations"] == []

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_killing_all_but_one_worker_stays_bit_identical(self, backend):
        # k = workers - 1 simultaneous kills: the pool survives on one
        # worker while three replacements fork, and nothing observable
        # changes.
        serial = summarize(parallelize(_chain(), P, RuntimeConfig.adaptive()))
        result = parallelize(
            _chain(), P,
            _config(
                backend, max_worker_respawns=8,
                os_chaos=OsChaosPlan.kill_workers(0, [0, 1, 2]),
            ),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.respawns"] >= 3
        assert result.supervision["supervise.degradations"] == []

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_disturbed_event_trace_is_byte_identical(self, backend, tmp_path):
        # Supervision stays out of the deterministic streams: the JSONL
        # trace of a kill-disturbed run equals the undisturbed serial
        # trace byte for byte.
        serial_trace = tmp_path / "serial.jsonl"
        chaos_trace = tmp_path / "chaos.jsonl"
        parallelize(
            _chain(), P, RuntimeConfig.adaptive(trace_path=str(serial_trace))
        )
        result = parallelize(
            _chain(), P,
            _config(
                backend, trace_path=str(chaos_trace),
                os_chaos=OsChaosPlan.kill_workers(0, [2]),
            ),
        )
        assert result.supervision["supervise.respawns"] >= 1
        assert chaos_trace.read_bytes() == serial_trace.read_bytes()

    def test_mid_execution_kill_redispatches_and_leaks_nothing(
        self, monkeypatch
    ):
        # A shm worker killed while its block is executing: the lost
        # blocks re-dispatch (recorded on the StageResult), the result is
        # bit-identical to serial, and /dev/shm ends the run empty.
        import repro.core.shm as shm_mod
        from multiprocessing import shared_memory

        created: list[str] = []
        orig_new = shm_mod.ShmArena._new_shm

        def spying_new(self, nbytes):
            seg = orig_new(self, nbytes)
            created.append(seg.name)
            return seg

        monkeypatch.setattr(shm_mod.ShmArena, "_new_shm", spying_new)

        # certify="off" keeps the baseline on the same speculative pipeline
        # as the chaos run (os_chaos disables certification dispatch).
        serial = summarize(
            parallelize(_slow_doall(), P, RuntimeConfig.nrd(certify="off"))
        )
        result = parallelize(
            _slow_doall(), P,
            RuntimeConfig.nrd(
                backend="shm", backend_workers=P,
                os_chaos=OsChaosPlan.kill_workers(0, [1]),
            ),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.redispatched_blocks"] >= 1
        assert result.stages[0].redispatched_procs  # non-empty
        assert created, "the shm backend allocated no segments?"
        for name in created:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_shm_untested_dirt_is_rolled_back(self, tmp_path):
        # Shm workers write untested elements straight into shared
        # memory.  A worker that dies between its untested write and its
        # reply leaves dirt behind; the supervisor's dispatch-snapshot
        # restore must erase it, or the replayed read-modify-write
        # doubles up.
        marker = str(tmp_path / "killed-once")
        parent_pid = os.getpid()
        n = 32

        def body(ctx, i):
            ctx.work(1.0)
            ctx.store("A", i, float(i))
            b = ctx.load("B", i)
            ctx.store("B", i, b + i + 1.0)  # RMW: dirt would double it
            if os.getpid() != parent_pid:
                try:
                    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return  # replacement worker: run the block normally
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)

        def make_loop():
            return SpeculativeLoop(
                "untested_selfkill", n, body,
                arrays=[
                    ArraySpec("A", np.zeros(n)),
                    ArraySpec("B", np.zeros(n), tested=False),
                ],
            )

        serial = summarize(parallelize(make_loop(), P, RuntimeConfig.nrd()))
        result = parallelize(
            make_loop(), P,
            RuntimeConfig.nrd(backend="shm", backend_workers=P),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.respawns"] >= 1


# -- hang detection (SIGSTOP stragglers) ------------------------------------------


class TestHangDetection:
    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_stopped_worker_trips_deadline_and_is_reaped(
        self, backend, tmp_path, monkeypatch
    ):
        # A SIGSTOPped worker never replies and never dies on its own:
        # only the supervisor's deadline can save the run.  The stopped
        # process must end up SIGKILLed (not a zombie), its blocks
        # re-dispatched, the results bit-identical.
        log_path = tmp_path / "supervise.jsonl"
        # REPRO_OPLOG (set by CI) would take precedence over the alias.
        monkeypatch.delenv("REPRO_OPLOG", raising=False)
        monkeypatch.setenv("REPRO_SUPERVISE_LOG", str(log_path))
        serial = summarize(parallelize(_chain(), P, RuntimeConfig.adaptive()))
        result = parallelize(
            _chain(), P,
            _config(
                backend, worker_timeout=0.5,
                os_chaos=OsChaosPlan.stop_workers(0, [1]),
            ),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.overdue"] >= 1
        assert result.supervision["supervise.kills"] >= 1
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        events = [r["event"] for r in records]
        assert "chaos-stop" in events
        assert "worker-overdue" in events
        assert "worker-respawned" in events
        assert "blocks-redispatched" in events
        stopped_pid = next(
            r["pid"] for r in records if r["event"] == "chaos-stop"
        )
        with pytest.raises(ProcessLookupError):
            os.kill(stopped_pid, 0)  # reaped, not stopped-forever


# -- graceful degradation ---------------------------------------------------------


class TestDegradation:
    def test_respawn_budget_exhaustion_degrades_not_errors(self, tmp_path):
        # With a zero respawn budget, the first kill is unrecoverable for
        # the shm pool -- but the run must complete via fork instead of
        # raising, the trace must validate, and the typed BackendDegraded
        # event must round-trip through JSONL.
        trace = tmp_path / "trace.jsonl"
        serial = summarize(parallelize(_chain(), P, RuntimeConfig.adaptive()))
        result = parallelize(
            _chain(), P,
            _config(
                "shm", max_worker_respawns=0, trace_path=str(trace),
                os_chaos=OsChaosPlan.kill_workers(0, [1]),
            ),
        )
        assert summarize(result) == serial
        chain = [
            (d["from"], d["to"])
            for d in result.supervision["supervise.degradations"]
        ]
        assert chain == [("shm", "fork")]
        events = load_trace(str(trace))
        validate_events(events)
        degraded = [e for e in events if e.kind == "backend_degraded"]
        assert len(degraded) == 1
        assert degraded[0].from_backend == "shm"
        assert degraded[0].to_backend == "fork"
        assert "respawn budget exhausted" in degraded[0].reason


# -- threads backend: cooperative cancellation ------------------------------------


class TestThreadsCancellation:
    """The threads backend cannot SIGKILL its workers; hang recovery is a
    cooperative cancellation flag honoured at iteration boundaries, with
    the same supervision counters, operational log and degradation path
    as the process pools."""

    def _stall_loop(self, stalls: dict, n: int = 16, delay: float = 0.6):
        # Block on proc 1 covers iterations [4, 8) under NRD at P=4; make
        # iteration 5 stall long enough to trip a small worker_timeout.
        # ``stalls["left"]`` controls how many executions stall, so a
        # transient hang (1) recovers on redispatch while a poison block
        # (inf) keeps stalling until quarantined.  Sleeps change host
        # time only; virtual time comes from ``ctx.work``.
        def body(ctx, i):
            if i == 5 and stalls["left"] > 0:
                stalls["left"] -= 1
                time.sleep(delay)
            ctx.work(1.0)
            ctx.store("A", i, float(i) * 2.0)

        return SpeculativeLoop(
            "stall_doall", n, body, arrays=[ArraySpec("A", np.zeros(n))]
        )

    def test_threads_hang_is_cancelled_and_redispatched(
        self, tmp_path, monkeypatch
    ):
        log_path = tmp_path / "supervise.jsonl"
        # REPRO_OPLOG (set by CI) would take precedence over the alias.
        monkeypatch.delenv("REPRO_OPLOG", raising=False)
        monkeypatch.setenv("REPRO_SUPERVISE_LOG", str(log_path))
        serial = summarize(
            parallelize(
                self._stall_loop({"left": 0}), P,
                RuntimeConfig.nrd(certify="off"),
            )
        )
        result = parallelize(
            self._stall_loop({"left": 1}), P,
            RuntimeConfig.nrd(
                backend="threads", backend_workers=P, worker_timeout=0.15,
                certify="off",
            ),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.overdue"] >= 1
        assert result.supervision["supervise.redispatched_blocks"] >= 1
        assert result.supervision["supervise.degradations"] == []
        assert result.stages[0].redispatched_procs  # non-empty
        events = [
            json.loads(line)["event"]
            for line in log_path.read_text().splitlines()
        ]
        assert "worker-overdue" in events
        assert "blocks-redispatched" in events

    def test_threads_poison_block_degrades_to_serial(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        serial = summarize(
            parallelize(
                self._stall_loop({"left": 0}), P,
                RuntimeConfig.nrd(certify="off"),
            )
        )
        result = parallelize(
            self._stall_loop({"left": 10**9}), P,
            RuntimeConfig.nrd(
                backend="threads", backend_workers=P, worker_timeout=0.15,
                max_worker_respawns=8, trace_path=str(trace), certify="off",
            ),
        )
        assert summarize(result) == serial
        chain = [
            (d["from"], d["to"])
            for d in result.supervision["supervise.degradations"]
        ]
        assert chain == [("threads", "serial")]
        assert result.supervision["supervise.quarantined_blocks"] >= 1
        events = load_trace(str(trace))
        validate_events(events)
        degraded = [e for e in events if e.kind == "backend_degraded"]
        assert len(degraded) == 1
        assert degraded[0].from_backend == "threads"
        assert degraded[0].to_backend == "serial"
        assert "poison block" in degraded[0].reason

    def test_threads_recovery_budget_exhaustion_degrades(self, tmp_path):
        log_path = tmp_path / "supervise.jsonl"
        serial = summarize(
            parallelize(
                self._stall_loop({"left": 0}), P,
                RuntimeConfig.nrd(certify="off"),
            )
        )
        import pytest as _pytest

        with _pytest.MonkeyPatch.context() as mp_ctx:
            mp_ctx.delenv("REPRO_OPLOG", raising=False)
            mp_ctx.setenv("REPRO_SUPERVISE_LOG", str(log_path))
            result = parallelize(
                self._stall_loop({"left": 10**9}), P,
                RuntimeConfig.nrd(
                    backend="threads", backend_workers=P,
                    worker_timeout=0.15, max_worker_respawns=0,
                    certify="off",
                ),
            )
        assert summarize(result) == serial
        chain = [
            (d["from"], d["to"])
            for d in result.supervision["supervise.degradations"]
        ]
        assert chain == [("threads", "serial")]
        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        events = [r["event"] for r in records]
        assert "worker-overdue" in events
        assert "pool-degraded" in events
        degraded = next(r for r in records if r["event"] == "pool-degraded")
        assert "recovery budget exhausted" in degraded["reason"]

    def test_threads_disturbed_trace_is_byte_identical(self, tmp_path):
        # Cancellation recovery stays out of the deterministic streams,
        # exactly like the process supervisor's kills.
        serial_trace = tmp_path / "serial.jsonl"
        chaos_trace = tmp_path / "chaos.jsonl"
        parallelize(
            self._stall_loop({"left": 0}), P,
            RuntimeConfig.nrd(trace_path=str(serial_trace), certify="off"),
        )
        result = parallelize(
            self._stall_loop({"left": 1}), P,
            RuntimeConfig.nrd(
                backend="threads", backend_workers=P, worker_timeout=0.15,
                trace_path=str(chaos_trace), certify="off",
            ),
        )
        assert result.supervision["supervise.overdue"] >= 1
        assert chaos_trace.read_bytes() == serial_trace.read_bytes()


# -- pool shutdown escalation -----------------------------------------------------


def _stop_self(conn):  # pragma: no cover - child process
    os.kill(os.getpid(), signal.SIGSTOP)


class TestShutdownEscalation:
    def test_shutdown_pool_sigkills_a_stopped_worker(self):
        # A SIGSTOPped worker ignores both the farewell message and
        # SIGTERM; _shutdown_pool must escalate to SIGKILL so close()
        # never leaves a zombie holding /dev/shm mappings.
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_stop_self, args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:  # wait until it is actually stopped
            with open(f"/proc/{process.pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
            if state == "T":
                break
            time.sleep(0.01)
        assert state == "T", "child never reached the stopped state"
        _shutdown_pool([(process, parent_conn)], lambda conn: conn.send(None))
        assert process.exitcode == -signal.SIGKILL


# -- worker-raised exceptions carry full context ----------------------------------


class TestWorkerExceptionContext:
    def test_backend_error_names_worker_pid_and_blocks(self):
        # A deterministic bug in the loop body is not a survivable fault:
        # it surfaces as BackendError identifying exactly which worker
        # (slot and pid) was executing which blocks of which stage.
        parent_pid = os.getpid()

        def body(ctx, i):
            ctx.store("A", i, float(i))
            if os.getpid() != parent_pid:
                raise ValueError("intentional worker bug")

        loop = SpeculativeLoop(
            "worker_bug", 32, body,
            arrays=[ArraySpec("A", np.zeros(32))],
        )
        with pytest.raises(
            BackendError,
            match=r"fork backend worker \d+ \(pid \d+\) executing "
                  r"stage 0 blocks \[\d+\] \(procs \[\d+\]\) raised",
        ):
            parallelize(
                loop, P, RuntimeConfig.nrd(backend="fork", backend_workers=P)
            )
