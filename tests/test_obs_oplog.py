"""The unified operational logger (:mod:`repro.obs.oplog`).

Covers the envelope, env-var path resolution (``REPRO_OPLOG``), size
rotation, taps, and the adoption by the engine and both worker
supervisors, which share one sink.
"""

import json

import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.obs.oplog import ENV_MAX_BYTES, ENV_PATH, OpLog, get_oplog
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

    def _run_with_chaos(self, backend, tmp_path, monkeypatch):
        from repro.faults.os_chaos import OsChaosPlan

        path = tmp_path / "ops.jsonl"
        monkeypatch.setenv(ENV_PATH, str(path))
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
