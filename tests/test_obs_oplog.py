"""The unified operational logger (:mod:`repro.obs.oplog`).

Covers the envelope, env-var path resolution (``REPRO_OPLOG`` plus the
deprecated ``REPRO_SUPERVISE_LOG`` alias), size rotation, taps, and the
adoption by the engine and both worker supervisors -- the two previously
divergent ``REPRO_SUPERVISE_LOG`` JSONL writers now share one sink.
"""

import json

import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.obs.oplog import ENV_ALIAS, ENV_MAX_BYTES, ENV_PATH, OpLog, get_oplog
from repro.workloads.synthetic import chain_loop, geometric_chain_targets


def _records(path):
    return [json.loads(line) for line in open(path, encoding="utf-8")]


class TestOpLog:
    def test_log_writes_envelope_and_fields(self, tmp_path, monkeypatch):
        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        log = OpLog()
        log.log("engine", "run-begin", loop="x", n_procs=4)
        [record] = _records(path)
        assert record["component"] == "engine"
        assert record["event"] == "run-begin"
        assert record["severity"] == "info"
        assert record["loop"] == "x"
        assert record["n_procs"] == 4
        assert isinstance(record["ts"], float)
        assert isinstance(record["t"], float)

    def test_caller_fields_override_envelope(self, tmp_path, monkeypatch):
        # The supervisors keep their run-relative ``t``; a caller-supplied
        # field must win over the envelope default.
        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        OpLog().log("supervise", "worker-died", t=1.25)
        [record] = _records(path)
        assert record["t"] == 1.25

    def test_no_path_means_no_write_but_taps_fire(self, monkeypatch):
        monkeypatch.delenv(ENV_PATH, raising=False)
        monkeypatch.delenv(ENV_ALIAS, raising=False)
        log = OpLog()
        seen = []
        log.add_tap(seen.append)
        log.log("engine", "run-begin")
        assert [r["event"] for r in seen] == ["run-begin"]

    def test_remove_tap(self, monkeypatch):
        monkeypatch.delenv(ENV_PATH, raising=False)
        log = OpLog()
        seen = []
        log.add_tap(seen.append)
        log.remove_tap(seen.append)
        log.log("engine", "run-begin")
        assert seen == []

    def test_failing_tap_does_not_break_logging(self, monkeypatch):
        monkeypatch.delenv(ENV_PATH, raising=False)
        log = OpLog()
        seen = []
        log.add_tap(lambda record: 1 / 0)
        log.add_tap(seen.append)
        log.log("engine", "run-begin")
        assert len(seen) == 1

    def test_deprecated_alias_still_works_and_warns_once(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "legacy.jsonl"
        monkeypatch.delenv(ENV_PATH, raising=False)
        monkeypatch.setenv(ENV_ALIAS, str(path))
        log = OpLog()
        log.log("supervise", "worker-died")
        log.log("supervise", "worker-respawned")
        records = _records(path)
        deprecations = [
            r for r in records if r["event"] == "deprecated-env-alias"
        ]
        assert len(deprecations) == 1
        assert deprecations[0]["severity"] == "warn"
        assert ENV_PATH in deprecations[0]["use"]
        assert [r["event"] for r in records if r["component"] == "supervise"] \
            == ["worker-died", "worker-respawned"]

    def test_explicit_path_beats_alias(self, tmp_path, monkeypatch):
        new = tmp_path / "new.jsonl"
        old = tmp_path / "old.jsonl"
        monkeypatch.setenv(ENV_PATH, str(new))
        monkeypatch.setenv(ENV_ALIAS, str(old))
        OpLog().log("engine", "run-begin")
        assert new.exists()
        assert not old.exists()

    def test_rotation_at_max_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        monkeypatch.setenv(ENV_MAX_BYTES, "400")
        log = OpLog()
        for i in range(40):
            log.log("engine", "tick", i=i, pad="x" * 40)
        rotated = tmp_path / "ops.jsonl.1"
        assert rotated.exists()
        assert path.stat().st_size <= 800
        # Every rotated line is still valid JSONL.
        for record in _records(rotated):
            assert record["event"] == "tick"

    def test_unwritable_path_never_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_PATH, str(tmp_path / "no" / "such" / "dir" / "x"))
        OpLog().log("engine", "run-begin")  # must not raise

    def test_get_oplog_is_a_singleton(self):
        assert get_oplog() is get_oplog()


@pytest.mark.usefixtures("always_dispatch")
class TestAdoption:
    """Engine + supervisors write through the same oplog file."""

    def _run_with_chaos(self, backend, tmp_path, monkeypatch, env=ENV_PATH):
        from repro.faults.os_chaos import OsChaosPlan

        path = tmp_path / "ops.jsonl"
        monkeypatch.delenv(ENV_PATH, raising=False)
        monkeypatch.delenv(ENV_ALIAS, raising=False)
        monkeypatch.setenv(env, str(path))
        n = 96
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        parallelize(loop, 4, RuntimeConfig.adaptive(
            backend=backend, backend_workers=4,
            os_chaos=OsChaosPlan.kill_workers(0, [1]),
        ))
        return _records(path)

    def test_fork_supervision_records_flow_through_oplog(
        self, tmp_path, monkeypatch
    ):
        records = self._run_with_chaos("fork", tmp_path, monkeypatch)
        events = [r["event"] for r in records]
        assert "run-begin" in events
        assert "run-end" in events
        assert "pool-started" in events
        assert "worker-respawned" in events
        respawn = next(r for r in records if r["event"] == "worker-respawned")
        # Legacy supervision record shape is preserved on the new sink.
        assert respawn["component"] == "supervise"
        assert respawn["backend"] == "fork"
        assert isinstance(respawn["pid"], int)
        assert isinstance(respawn["blocks"], list)

    def test_legacy_alias_env_still_collects_supervision(
        self, tmp_path, monkeypatch
    ):
        records = self._run_with_chaos(
            "fork", tmp_path, monkeypatch, env=ENV_ALIAS
        )
        assert "worker-respawned" in [r["event"] for r in records]

    def test_threads_supervision_records_flow_through_oplog(
        self, tmp_path, monkeypatch
    ):
        import time as _time

        import numpy as np

        from repro.loopir.loop import ArraySpec, SpeculativeLoop

        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        stalls = {"left": 1}

        def body(ctx, i):
            if i == 5 and stalls["left"] > 0:
                stalls["left"] -= 1
                _time.sleep(0.6)
            ctx.work(1.0)
            ctx.store("A", i, float(i) * 2.0)

        loop = SpeculativeLoop(
            "stall_doall", 16, body, arrays=[ArraySpec("A", np.zeros(16))]
        )
        # certify="off": the stall closure is stateful, so a certification
        # probe would both consume the stall and hide the supervision path
        # under test.
        parallelize(loop, 4, RuntimeConfig.nrd(
            backend="threads", backend_workers=4, worker_timeout=0.15,
            certify="off",
        ))
        records = _records(path)
        by_component = {r["component"] for r in records}
        assert {"engine", "backend", "supervise"} <= by_component
        overdue = [r for r in records if r["event"] == "worker-overdue"]
        assert overdue and overdue[0]["severity"] == "warn"
        # pid carries the worker's native thread id on this backend.
        assert isinstance(overdue[0]["pid"], int)

    def test_shm_arena_lifecycle_is_logged(self, tmp_path, monkeypatch):
        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        n = 64
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        parallelize(loop, 4, RuntimeConfig.adaptive(backend="shm"))
        events = [r["event"] for r in _records(path)]
        assert "arena-created" in events
        assert "arena-released" in events
        created = next(
            r for r in _records(path) if r["event"] == "arena-created"
        )
        assert created["component"] == "shm"
        assert created["bytes"] > 0

    def test_run_failed_record_on_uncaught_error(self, tmp_path, monkeypatch):
        from repro.errors import SpeculationError

        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
        n = 96
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        with pytest.raises(SpeculationError):
            parallelize(loop, 4, RuntimeConfig.adaptive(max_stages=1))
        failed = [r for r in _records(path) if r["event"] == "run-failed"]
        assert len(failed) == 1
        assert failed[0]["severity"] == "error"
        assert "SpeculationError" in failed[0]["error"]
