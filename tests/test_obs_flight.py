"""The crash flight recorder (:mod:`repro.obs.flight`).

Ring-buffer behaviour, bundle write/read round-trip, the rendered
report, crash-dir resolution -- and the headline end-to-end scenario:
a fork worker SIGKILL'd mid-run whose SpeculationError leaves behind a
bundle that ``repro report --bundle`` renders.
"""

import os

import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.errors import SpeculationError
from repro.obs.flight import (
    ENV_CRASH_DIR,
    FLIGHT_EVENTS,
    FlightRecorder,
    dump_bundle,
    load_bundle,
    render_bundle,
    resolve_crash_dir,
)
from repro.workloads.synthetic import chain_loop, geometric_chain_targets


class TestFlightRecorder:
    def test_rings_are_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.note_oplog({"event": f"e{i}"})
        assert [r["event"] for r in recorder.oplog_records] \
            == ["e6", "e7", "e8", "e9"]

    def test_emit_keeps_events_and_snapshot_serializes_them(self):
        from repro.obs.events import RunBegin

        recorder = FlightRecorder()
        begin = RunBegin(loop="x", strategy="nrd", n_procs=2, n_iterations=8)
        recorder.emit(begin)
        assert list(recorder.events) == [begin]
        [event] = recorder.snapshot()["events"]
        assert event["event"] == "run_begin"
        assert event["loop"] == "x"

    def test_snapshot_returns_plain_lists(self):
        recorder = FlightRecorder()
        recorder.note_oplog({"event": "a"})
        recorder.note_resources({"t": 0.0, "rss_bytes": 1})
        snap = recorder.snapshot()
        assert snap["oplog"] == [{"event": "a"}]
        assert snap["resources"] == [{"t": 0.0, "rss_bytes": 1}]
        assert snap["events"] == []

    def test_default_capacity_is_the_module_constant(self):
        recorder = FlightRecorder()
        assert recorder.capacity == FLIGHT_EVENTS
        for i in range(FLIGHT_EVENTS + 10):
            recorder.note_oplog({"event": f"e{i}"})
        assert len(recorder.oplog_records) == FLIGHT_EVENTS
        assert recorder.oplog_records[0]["event"] == "e10"

    def test_capacity_keeps_at_least_one_record(self):
        recorder = FlightRecorder(capacity=0)
        recorder.note_oplog({"event": "a"})
        recorder.note_oplog({"event": "b"})
        assert list(recorder.oplog_records) == [{"event": "b"}]


class TestCrashDirResolution:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_CRASH_DIR, raising=False)
        assert resolve_crash_dir(RuntimeConfig()) is None

    def test_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_CRASH_DIR, "/tmp/envdir")
        assert resolve_crash_dir(
            RuntimeConfig(crash_dir="/tmp/confdir")
        ) == "/tmp/confdir"

    def test_environment_default(self, monkeypatch):
        monkeypatch.setenv(ENV_CRASH_DIR, "/tmp/envdir")
        assert resolve_crash_dir(RuntimeConfig()) == "/tmp/envdir"


def _stocked_recorder():
    recorder = FlightRecorder(capacity=8)
    recorder.note_oplog({
        "t": 0.1, "component": "supervise", "severity": "warn",
        "event": "worker-died", "backend": "fork",
    })
    recorder.note_resources({
        "t": 0.2, "rss_bytes": 50_000_000, "worker_rss_bytes": 10_000_000,
        "cpu_s": 1.5, "gil": "gil",
    })
    return recorder


class TestBundleRoundTrip:
    def test_dump_and_load(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAKE", "1")
        try:
            raise SpeculationError("boom: exceeded max_stages=2")
        except SpeculationError as exc:
            path = dump_bundle(
                _stocked_recorder(), str(tmp_path), error=exc,
                config=RuntimeConfig.adaptive(),
                state={"backend": "fork", "stage": 1},
            )
        assert path.startswith(str(tmp_path))
        bundle = load_bundle(path)
        assert bundle["manifest"]["error"]["type"] == "SpeculationError"
        assert "boom" in bundle["manifest"]["error"]["message"]
        assert bundle["manifest"]["state"] == {"backend": "fork", "stage": 1}
        assert bundle["manifest"]["counts"] == {
            "events": 0, "oplog": 1, "resources": 1,
        }
        assert bundle["config"]["strategy"] is not None
        assert bundle["env"]["REPRO_FAKE"] == "1"
        assert bundle["oplog"][0]["event"] == "worker-died"
        assert bundle["resources"][0]["rss_bytes"] == 50_000_000

    def test_colliding_bundle_names_get_suffixes(self, tmp_path):
        first = dump_bundle(_stocked_recorder(), str(tmp_path))
        second = dump_bundle(_stocked_recorder(), str(tmp_path))
        assert first != second
        assert os.path.isdir(first) and os.path.isdir(second)

    def test_dump_never_raises_on_unwritable_dir(self, tmp_path):
        # A crash dir that is a plain file: makedirs fails with an
        # OSError on every platform (chmod tricks don't work as root).
        target = tmp_path / "not-a-dir"
        target.write_text("")
        assert dump_bundle(_stocked_recorder(), str(target)) == ""

    def test_render_bundle_tables(self, tmp_path):
        try:
            raise SpeculationError("boom")
        except SpeculationError as exc:
            path = dump_bundle(
                _stocked_recorder(), str(tmp_path), error=exc,
                config=RuntimeConfig.adaptive(),
                state={"backend": "fork"},
            )
        text = render_bundle(path)
        assert "crash" in text
        assert "SpeculationError: boom" in text
        assert "worker-died" in text
        assert "peak rss (MB)" in text
        assert "50.0" in text
        assert "traceback" in text

    def test_load_bundle_rejects_non_directory(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle(str(tmp_path / "nope"))


class TestLazyEventTail:
    def test_bundle_event_tail_is_byte_identical(self, tmp_path):
        """The recorder keeps event objects and serializes them only when
        a bundle is written; the bundle's event tail is byte for byte the
        one eager serialization wrote (tests/data/flight_trace_tail.jsonl,
        recorded before the change)."""
        import pathlib

        n = 96
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        with pytest.raises(SpeculationError, match="max_stages"):
            parallelize(loop, 4, RuntimeConfig.adaptive(
                backend="serial", max_stages=2, metrics=True,
                crash_dir=str(tmp_path),
            ))
        [bundle] = list(tmp_path.iterdir())
        golden = pathlib.Path(__file__).parent / "data" / "flight_trace_tail.jsonl"
        assert (bundle / "trace_tail.jsonl").read_bytes() == golden.read_bytes()


@pytest.mark.usefixtures("always_dispatch")
class TestCrashBundleEndToEnd:
    """A SIGKILL'd fork worker escalates to an uncaught SpeculationError;
    the run leaves a crash bundle that the CLI renders."""

    def _crash(self, crash_dir):
        from repro.faults.os_chaos import OsChaosPlan

        n = 96
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        with pytest.raises(SpeculationError, match="max_stages"):
            parallelize(loop, 4, RuntimeConfig.adaptive(
                backend="fork", backend_workers=4,
                os_chaos=OsChaosPlan.kill_workers(0, [1]),
                max_worker_respawns=0, max_stages=2,
                crash_dir=str(crash_dir),
            ))

    def test_sigkilled_worker_leaves_a_bundle(self, tmp_path):
        self._crash(tmp_path)
        bundles = [p for p in tmp_path.iterdir() if p.name.startswith("crash-")]
        assert len(bundles) == 1
        bundle = load_bundle(str(bundles[0]))
        manifest = bundle["manifest"]
        assert manifest["error"]["type"] == "SpeculationError"
        state = manifest["state"]
        assert state["backend"] == "serial"  # degraded from fork
        degradations = [
            r for r in bundle["oplog"] if r["event"] == "pool-degraded"
        ]
        assert degradations, "supervisor degradation missing from oplog tail"
        events = {r["event"] for r in bundle["oplog"]}
        assert "worker-died" in events or "worker-found-dead" in events
        assert "run-failed" in events
        # Deterministic tail made it in too.
        assert any(e["event"] == "run_begin" for e in bundle["events"])

    def test_cli_renders_the_bundle(self, tmp_path, capsys):
        from repro.cli import main

        self._crash(tmp_path)
        [bundle] = [p for p in tmp_path.iterdir() if p.name.startswith("crash-")]
        assert main(["report", "--bundle", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "SpeculationError" in out
        assert "pool-degraded" in out
        assert "traceback" in out

    def test_no_crash_dir_means_no_bundle(self, tmp_path, monkeypatch):
        from repro.faults.os_chaos import OsChaosPlan

        monkeypatch.delenv(ENV_CRASH_DIR, raising=False)
        monkeypatch.chdir(tmp_path)
        n = 96
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        with pytest.raises(SpeculationError):
            parallelize(loop, 4, RuntimeConfig.adaptive(
                backend="fork", backend_workers=4,
                os_chaos=OsChaosPlan.kill_workers(0, [1]),
                max_worker_respawns=0, max_stages=2,
            ))
        assert not [p for p in tmp_path.iterdir() if "crash" in p.name]

    def test_cli_report_bundle_rejects_missing_dir(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "--bundle", str(tmp_path / "nope")])
