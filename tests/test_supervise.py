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
    """A doall whose blocks take measurable host time.  The sleep affects
    only wall-clock time; virtual time comes from ``ctx.work``."""

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

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_kill_redispatch_is_recorded_on_the_stage(self, backend):
        # A killed worker's blocks re-dispatch, the StageResult records
        # their processors, and the result is bit-identical to serial.
        # (A worker dying mid-block is the self-killing body below.)
        # certify="off" keeps the baseline on the same speculative pipeline
        # as the chaos run (os_chaos disables certification dispatch).
        serial = summarize(
            parallelize(_slow_doall(), P, RuntimeConfig.nrd(certify="off"))
        )
        result = parallelize(
            _slow_doall(), P,
            RuntimeConfig.nrd(
                backend=backend, backend_workers=P,
                os_chaos=OsChaosPlan.kill_workers(0, [1]),
            ),
        )
        assert summarize(result) == serial
        assert result.supervision["supervise.redispatched_blocks"] >= 1
        assert result.stages[0].redispatched_procs  # non-empty

    @pytest.mark.parametrize("backend", CHAOS_BACKENDS)
    def test_untested_writes_of_a_killed_worker_never_reach_the_parent(
        self, backend, tmp_path
    ):
        # A worker that dies between its untested write and its reply
        # must leave no trace: were its write to reach the parent's
        # image, the replayed read-modify-write would double up.
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
            RuntimeConfig.nrd(backend=backend, backend_workers=P),
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
        monkeypatch.setenv("REPRO_OPLOG", str(log_path))
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
        # the fork pool -- but the run must complete on serial instead of
        # raising, the trace must validate, and the typed BackendDegraded
        # event must round-trip through JSONL.
        trace = tmp_path / "trace.jsonl"
        serial = summarize(parallelize(_chain(), P, RuntimeConfig.adaptive()))
        result = parallelize(
            _chain(), P,
            _config(
                "fork", max_worker_respawns=0, trace_path=str(trace),
                os_chaos=OsChaosPlan.kill_workers(0, [1]),
            ),
        )
        assert summarize(result) == serial
        chain = [
            (d["from"], d["to"])
            for d in result.supervision["supervise.degradations"]
        ]
        assert chain == [("fork", "serial")]
        events = load_trace(str(trace))
        validate_events(events)
        degraded = [e for e in events if e.kind == "backend_degraded"]
        assert len(degraded) == 1
        assert degraded[0].from_backend == "fork"
        assert degraded[0].to_backend == "serial"
        assert "respawn budget exhausted" in degraded[0].reason


# -- pool shutdown escalation -----------------------------------------------------


def _stop_self(conn):  # pragma: no cover - child process
    os.kill(os.getpid(), signal.SIGSTOP)


class TestShutdownEscalation:
    def test_shutdown_pool_sigkills_a_stopped_worker(self):
        # A SIGSTOPped worker ignores both the farewell message and
        # SIGTERM; _shutdown_pool must escalate to SIGKILL so close()
        # never leaves a zombie behind.
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
        _shutdown_pool([(process, parent_conn)])
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
