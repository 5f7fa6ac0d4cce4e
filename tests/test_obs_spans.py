"""Unit tests for dual-clock span tracing and the Perfetto exporter.

:class:`SpanTracker` is exercised with fake clocks so both the host and
virtual durations are exact; :func:`chrome_trace` output is checked
against the Chrome trace-event format Perfetto actually parses (complete
``"X"`` slices on two synthetic processes, ``"M"`` metadata, ``"C"``
counter tracks).
"""

import io
import json

import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.obs.events import MetricsSnapshot, SpanClosed
from repro.obs.spans import (
    ENGINE_TID,
    HOST_PID,
    VIRT_PID,
    PerfettoTraceSink,
    SpanTracker,
    chrome_trace,
)
from repro.workloads.synthetic import chain_loop, geometric_chain_targets


class _Clocks:
    """Manually advanced host/virtual clocks for exact span arithmetic."""

    def __init__(self) -> None:
        self.host = 0.0
        self.virt = 0.0

    def tracker(self, emitted):
        return SpanTracker(emitted.append, lambda: self.host, lambda: self.virt)


class TestSpanTracker:
    def test_begin_end_records_both_clocks(self):
        clocks, out = _Clocks(), []
        tracker = clocks.tracker(out)
        span = tracker.begin("execute", "phase", stage=3)
        clocks.host += 0.5
        clocks.virt += 128.0
        tracker.end(span)
        [event] = out
        assert isinstance(event, SpanClosed)
        assert (event.name, event.cat, event.stage, event.proc) == (
            "execute", "phase", 3, None
        )
        assert (event.host_start, event.host_dur) == (0.0, 0.5)
        assert (event.virt_start, event.virt_dur) == (0.0, 128.0)

    def test_phase_context_manager_closes_on_exit(self):
        clocks, out = _Clocks(), []
        tracker = clocks.tracker(out)
        with tracker.phase("analyze", stage=1):
            clocks.virt += 7.0
        assert out[0].name == "analyze" and out[0].virt_dur == 7.0

    def test_phase_closes_even_on_exception(self):
        clocks, out = _Clocks(), []
        tracker = clocks.tracker(out)
        with pytest.raises(RuntimeError):
            with tracker.phase("commit", stage=0):
                raise RuntimeError("mid-phase")
        assert [e.name for e in out] == ["commit"]

    def test_block_span_passes_backend_timings_through(self):
        out = []
        tracker = _Clocks().tracker(out)
        tracker.block_span(2, 5, host_start=0.25, host_dur=0.5,
                           virt_start=100.0, virt_dur=64.0)
        [event] = out
        assert (event.stage, event.proc) == (2, 5)
        assert (event.host_start, event.host_dur) == (0.25, 0.5)
        assert (event.virt_start, event.virt_dur) == (100.0, 64.0)


def _span(name, cat, stage=None, proc=None, **kw):
    defaults = dict(host_start=0.0, host_dur=1.0, virt_start=0.0, virt_dur=2.0)
    defaults.update(kw)
    return SpanClosed(name=name, cat=cat, stage=stage, proc=proc, **defaults)


class TestChromeTrace:
    def test_each_span_lands_on_both_clock_processes(self):
        trace = chrome_trace([_span("run", "run")])["traceEvents"]
        slices = [e for e in trace if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {HOST_PID, VIRT_PID}
        host = next(e for e in slices if e["pid"] == HOST_PID)
        virt = next(e for e in slices if e["pid"] == VIRT_PID)
        # Host seconds scale to microseconds; virtual units pass through.
        assert (host["ts"], host["dur"]) == (0.0, 1e6)
        assert (virt["ts"], virt["dur"]) == (0.0, 2.0)

    def test_engine_vs_processor_tracks(self):
        trace = chrome_trace([
            _span("execute", "phase", stage=0),
            _span("block", "block", stage=0, proc=3),
        ])["traceEvents"]
        slices = [e for e in trace if e["ph"] == "X"]
        assert {e["tid"] for e in slices} == {ENGINE_TID, 4}
        names = {e["args"]["name"] for e in trace
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"engine", "proc 3"} <= names

    def test_stage_suffix_in_labels(self):
        trace = chrome_trace([_span("stage", "stage", stage=7)])["traceEvents"]
        labels = {e["name"] for e in trace if e["ph"] == "X"}
        assert labels == {"stage s7"}

    def test_stage_metrics_become_counter_tracks(self):
        snap = MetricsSnapshot(scope="stage", stage=0, virt_time=50.0,
                               counters={"shadow.marks": 12}, gauges={},
                               histograms={})
        trace = chrome_trace([snap])["traceEvents"]
        [counter] = [e for e in trace if e["ph"] == "C"]
        assert counter["name"] == "shadow.marks"
        assert counter["pid"] == VIRT_PID and counter["ts"] == 50.0
        assert counter["args"]["value"] == 12

    def test_run_scope_metrics_are_not_counters(self):
        snap = MetricsSnapshot(scope="run", stage=None, virt_time=50.0,
                               counters={"c": 1}, gauges={}, histograms={})
        trace = chrome_trace([snap])["traceEvents"]
        assert not [e for e in trace if e["ph"] == "C"]

    def test_payload_is_json_serializable(self):
        payload = chrome_trace([_span("run", "run")])
        assert payload["displayTimeUnit"] == "ms"
        json.dumps(payload)


class TestPerfettoTraceSink:
    def test_buffers_only_observability_events(self):
        from repro.obs.events import RunBegin

        sink = PerfettoTraceSink(io.StringIO())
        sink.emit(RunBegin(loop="l", strategy="s", n_procs=1, n_iterations=1))
        sink.emit(_span("run", "run"))
        assert len(sink._events) == 1

    def test_borrowed_stream_written_on_close(self):
        buf = io.StringIO()
        sink = PerfettoTraceSink(buf)
        sink.emit(_span("run", "run"))
        sink.close()
        payload = json.loads(buf.getvalue())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_engine_writes_perfetto_file(self, tmp_path):
        n = 64
        loop = chain_loop(n, geometric_chain_targets(n, 0.5))
        path = tmp_path / "trace.perfetto.json"
        result = parallelize(
            loop, 4,
            RuntimeConfig.adaptive(metrics=True, perfetto_path=str(path)),
        )
        payload = json.loads(path.read_text())
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {HOST_PID, VIRT_PID}
        stage_labels = {e["name"] for e in slices if e["name"].startswith("stage")}
        assert len(stage_labels) == result.n_stages
        # perfetto_path implies spans even though `spans` was left None.
        assert [e for e in payload["traceEvents"] if e["ph"] == "C"]
