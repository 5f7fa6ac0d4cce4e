"""Golden-file tests for ``repro report`` and the Perfetto exporter.

``tests/data/report_fixture.jsonl`` is a small recorded trace (chain loop,
p=2, NRD, metrics + spans on); the committed goldens are the exact report
text and Chrome trace-event JSON folded from it.  The fixture is static,
so the fold is deterministic even though the recorded host times were
not.  Regenerate all three files after an intentional format change::

    PYTHONPATH=src:. python tests/test_obs_report.py --regen
"""

import json
import pathlib

import pytest

from repro.obs.report import load_trace, run_report, write_perfetto

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE = DATA / "report_fixture.jsonl"
GOLDEN_REPORT = DATA / "report_fixture_report.txt"
GOLDEN_PERFETTO = DATA / "report_fixture.perfetto.json"
FIXTURE_THREADS = DATA / "report_fixture_threads.jsonl"
GOLDEN_REPORT_THREADS = DATA / "report_fixture_threads_report.txt"
GOLDEN_PERFETTO_THREADS = DATA / "report_fixture_threads.perfetto.json"


def _record_fixture(path=FIXTURE, backend=None):
    from repro.config import RuntimeConfig
    from repro.core.runner import parallelize
    from repro.workloads.synthetic import chain_loop, geometric_chain_targets

    n = 24
    loop = chain_loop(n, geometric_chain_targets(n, 0.5))
    overrides = {"backend": backend} if backend else {}
    parallelize(loop, 2, RuntimeConfig.nrd(
        metrics=True, spans=True, trace_path=str(path), **overrides
    ))


class TestReportGolden:
    def test_report_matches_golden(self):
        events = load_trace(str(FIXTURE))
        assert run_report(events) == GOLDEN_REPORT.read_text().rstrip("\n")

    def test_perfetto_export_matches_golden(self, tmp_path):
        events = load_trace(str(FIXTURE))
        out = tmp_path / "trace.perfetto.json"
        written = write_perfetto(events, str(out))
        golden = json.loads(GOLDEN_PERFETTO.read_text())
        assert json.loads(out.read_text()) == golden
        assert written == len(golden["traceEvents"])

    def test_fixture_round_trips_through_jsonl(self):
        from repro.obs.events import validate_events

        events = load_trace(str(FIXTURE))
        validate_events(events)
        lines = FIXTURE.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == [
            e.to_dict() for e in events
        ]


class TestReportGoldenThreads:
    """The same fold, from a trace recorded under the threads backend.

    The fixture was recorded while ``threads`` still ran blocks on an
    in-process thread pool (the name is now a synonym for serial); the
    recorded deterministic stream must fold to the same report shape,
    and the committed goldens pin it exactly.
    """

    def test_report_matches_golden(self):
        events = load_trace(str(FIXTURE_THREADS))
        expected = GOLDEN_REPORT_THREADS.read_text().rstrip("\n")
        assert run_report(events) == expected

    def test_perfetto_export_matches_golden(self, tmp_path):
        events = load_trace(str(FIXTURE_THREADS))
        out = tmp_path / "trace.perfetto.json"
        written = write_perfetto(events, str(out))
        golden = json.loads(GOLDEN_PERFETTO_THREADS.read_text())
        assert json.loads(out.read_text()) == golden
        assert written == len(golden["traceEvents"])

    def test_virtual_plane_matches_serial_fixture(self):
        """Virtual-clock content is backend-invariant: everything except
        the non-deterministic host timings matches the serial fixture.
        Span virtual durations were summed worker-side by the thread pool
        that recorded the fixture, so they agree to float tolerance, not
        bitwise."""
        def virtual_view(path):
            events = []
            for e in load_trace(str(path)):
                d = e.to_dict()
                for key in ("host_start", "host_dur", "total_time"):
                    d.pop(key, None)
                for key in ("virt_start", "virt_dur"):
                    if isinstance(d.get(key), float):
                        d[key] = round(d[key], 9)
                events.append(d)
            return events

        assert virtual_view(FIXTURE_THREADS) == virtual_view(FIXTURE)


class TestReportContent:
    @pytest.fixture(scope="class")
    def report(self):
        return run_report(load_trace(str(FIXTURE)))

    def test_has_every_section(self, report):
        for title in ("run", "stages", "virtual phase breakdown",
                      "host phase breakdown", "metrics"):
            assert f"{title}\n" in report

    def test_run_table_fields(self, report):
        for field in ("loop", "strategy", "processors", "success ratio",
                      "PR", "T_seq (virtual)", "T_par (virtual)", "speedup"):
            assert field in report

    def test_virtual_breakdown_names_work_phase(self, report):
        assert "work" in report

    def test_metrics_section_lists_shadow_marks(self, report):
        assert "shadow.marks" in report


class TestReportCli:
    def test_cli_report_prints_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli.perfetto.json"
        assert main(["report", str(FIXTURE), "--perfetto", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "success ratio" in printed
        assert f"wrote {len(json.loads(out.read_text())['traceEvents'])}" in printed

    def test_cli_report_rejects_missing_file(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", str(tmp_path / "nope.jsonl")])

    def test_cli_report_rejects_empty_trace(self, tmp_path):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="empty trace"):
            main(["report", str(empty)])


def _regen() -> None:
    _record_fixture()
    events = load_trace(str(FIXTURE))
    GOLDEN_REPORT.write_text(run_report(events) + "\n")
    write_perfetto(events, str(GOLDEN_PERFETTO))
    print(f"regenerated {FIXTURE}, {GOLDEN_REPORT}, {GOLDEN_PERFETTO}")
    _record_fixture(FIXTURE_THREADS, backend="threads")
    events = load_trace(str(FIXTURE_THREADS))
    GOLDEN_REPORT_THREADS.write_text(run_report(events) + "\n")
    write_perfetto(events, str(GOLDEN_PERFETTO_THREADS))
    print(f"regenerated {FIXTURE_THREADS}, {GOLDEN_REPORT_THREADS}, "
          f"{GOLDEN_PERFETTO_THREADS}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        raise SystemExit(pytest.main([__file__, "-q"]))
