"""The host resource profiler (:mod:`repro.obs.resources`).

Sampler lifecycle, sample shape per backend, the ``/proc`` reader and
its ``getrusage`` fallback for hosts without procfs, enable resolution
(config beats status-path beats environment), and the Perfetto
counter-track merge staying strictly outside the deterministic stream.
"""

import json
import os

import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.obs.resources import (
    ENV_ENABLE,
    HAVE_PROC,
    ResourceSampler,
    gil_mode,
    read_process,
    read_self_rusage,
    resolve_resources_enabled,
)
from repro.workloads.synthetic import chain_loop, geometric_chain_targets


def _loop(n=64):
    return chain_loop(n, geometric_chain_targets(n, 0.5))


class TestEnableResolution:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        assert not resolve_resources_enabled(RuntimeConfig())

    def test_explicit_config_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        assert not resolve_resources_enabled(RuntimeConfig(resources=False))
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        assert resolve_resources_enabled(RuntimeConfig(resources=True))

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("on", True), ("TRUE", True), ("yes", True),
        ("0", False), ("off", False), ("", False),
    ])
    def test_environment_default(self, monkeypatch, value, expected):
        monkeypatch.setenv(ENV_ENABLE, value)
        assert resolve_resources_enabled(RuntimeConfig()) is expected


class TestProcReaders:
    @pytest.mark.skipif(not HAVE_PROC, reason="host has no /proc")
    def test_read_own_process(self):
        stat = read_process(os.getpid())
        assert stat["pid"] == os.getpid()
        assert stat["rss_bytes"] > 1 << 20  # a python process is > 1 MB
        assert stat["cpu_s"] >= 0.0

    @pytest.mark.skipif(not HAVE_PROC, reason="host has no /proc")
    def test_read_vanished_process_returns_none(self):
        # Max pid is bounded well below 2**30 on practical hosts.
        assert read_process(2**30) is None

    def test_rusage_fallback_works_everywhere(self):
        """The no-/proc path: ``getrusage`` numbers for the engine
        process.  Runs on every platform, so the macOS fallback is
        exercised by CI even though CI itself has procfs."""
        stat = read_self_rusage()
        assert stat["pid"] == os.getpid()
        assert stat["rss_bytes"] > 1 << 20
        assert stat["cpu_s"] > 0.0

    def test_sampler_survives_a_procless_host(self, monkeypatch):
        """Force the fallback: with HAVE_PROC patched off, samples must
        still carry RSS/CPU, tagged ``source: rusage``."""
        import repro.obs.resources as resources

        monkeypatch.setattr(resources, "HAVE_PROC", False)
        sampler = ResourceSampler(eng=None, interval=0.01)
        sample = sampler.sample_now()
        assert sample["source"] == "rusage"
        assert sample["rss_bytes"] > 0
        assert "error" not in sample


class TestSampler:
    def test_samples_collected_and_consumers_fed(self):
        seen = []
        sampler = ResourceSampler(eng=None, interval=0.005)
        sampler.add_consumer(seen.append)
        sampler.start()
        import time
        time.sleep(0.05)
        sampler.stop()
        assert len(sampler.samples) >= 2  # periodic + the final stop sample
        assert seen == sampler.samples
        for sample in sampler.samples:
            assert {"t", "ts", "rss_bytes", "cpu_s"} <= set(sample)

    def test_stop_takes_a_final_sample(self):
        sampler = ResourceSampler(eng=None, interval=60.0)
        sampler.start()
        sampler.stop()
        assert len(sampler.samples) == 1

    def test_failing_consumer_is_swallowed(self):
        sampler = ResourceSampler(eng=None, interval=0.01)
        sampler.add_consumer(lambda sample: 1 / 0)
        sample = sampler.sample_now()
        assert "rss_bytes" in sample

    def test_stop_without_start_is_safe(self):
        ResourceSampler(eng=None).stop()


def _sampled_run(backend, consumer, n=96):
    """One engine run with the sampler on, feeding ``consumer`` every
    sample.  The stop-time final sample fires before ``backend.close()``,
    so at least one sample always sees the live pool."""
    from repro.core.engine import StageEngine, strategy_for_config

    config = RuntimeConfig.adaptive(
        backend=backend, backend_workers=4,
        resources=True, resource_interval=0.002,
    )
    loop = _loop(n)
    eng = StageEngine(loop, 4, strategy_for_config(loop, config), config)
    eng.sampler.add_consumer(consumer)
    eng.run()


@pytest.mark.usefixtures("always_dispatch")
class TestBackendResourceInfo:
    """Per-backend ``resource_info()`` content, observed through a live
    sampled engine run (poking a closed backend directly is brittle)."""

    @pytest.mark.skipif(not HAVE_PROC, reason="worker stats need /proc")
    @pytest.mark.parametrize("backend", ["fork", "shm"])
    def test_process_pools_report_worker_pids(self, backend):
        status = []
        _sampled_run(backend, status.append)
        with_workers = [s for s in status if s.get("workers")]
        assert with_workers, "no sample saw the worker pool"
        worker = with_workers[-1]["workers"][0]
        assert worker["pid"] != os.getpid()
        assert worker["rss_bytes"] > 0
        assert {s["gil"] for s in status} == {gil_mode()}

    def test_serial_backend_base_info(self):
        from repro.core.backend import SerialBackend

        info = SerialBackend(eng=None).resource_info()
        assert info == {"worker_pids": [], "inflight": 0}


class TestDeterminismWithSamplerOn:
    def test_trace_is_byte_identical_with_sampler_on(self, tmp_path):
        """The operational plane must never leak into the deterministic
        stream: the JSONL trace of a sampled run equals the unsampled
        one byte for byte."""
        off = tmp_path / "off.jsonl"
        on = tmp_path / "on.jsonl"
        parallelize(_loop(), 4, RuntimeConfig.adaptive(trace_path=str(off)))
        parallelize(_loop(), 4, RuntimeConfig.adaptive(
            trace_path=str(on), resources=True, resource_interval=0.001,
        ))
        assert on.read_bytes() == off.read_bytes()

    def test_perfetto_counters_live_on_host_timeline_only(self, tmp_path):
        from repro.obs.spans import HOST_PID, VIRT_PID

        out = tmp_path / "trace.perfetto.json"
        parallelize(_loop(), 4, RuntimeConfig.adaptive(
            perfetto_path=str(out), resources=True, resource_interval=0.001,
        ))
        trace = json.loads(out.read_text())
        resource_counters = [
            e for e in trace["traceEvents"]
            if e["ph"] == "C" and "rss" in e["name"]
        ]
        assert resource_counters
        assert all(e["pid"] == HOST_PID for e in resource_counters)
        assert not any(
            e["pid"] == VIRT_PID and "rss" in e["name"]
            for e in trace["traceEvents"]
        )

    def test_perfetto_without_sampler_has_no_resource_tracks(self, tmp_path):
        out = tmp_path / "trace.perfetto.json"
        parallelize(_loop(), 4, RuntimeConfig.adaptive(
            perfetto_path=str(out), spans=True,
        ))
        trace = json.loads(out.read_text())
        assert not any(
            "rss" in e["name"] for e in trace["traceEvents"] if e["ph"] == "C"
        )
