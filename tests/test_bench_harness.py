"""Tests for the experiment registry and report generation."""

import pytest

from repro.bench import ExperimentResult, list_experiments, run_experiment
from repro.bench.report import generate_report


EXPECTED_IDS = {
    "fig01", "fig02", "fig04", "fig05", "fig06", "fig07", "fig08",
    "fig09", "fig10", "fig11", "fig12a", "fig12b", "sec4",
    "ablation_copyin", "ablation_baselines",
}


class TestRegistry:
    def test_every_paper_figure_registered(self):
        assert EXPECTED_IDS <= set(list_experiments())

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        from repro.bench.harness import register

        with pytest.raises(ValueError):
            register("fig01")(lambda quick: None)

    def test_quick_experiments_return_consistent_ids(self):
        for exp_id in ("fig01", "fig02"):
            result = run_experiment(exp_id, quick=True)
            assert result.exp_id == exp_id
            assert result.table
            assert result.expectation


class TestRendering:
    def test_render_contains_table_and_expectation(self):
        result = ExperimentResult("x", "Title", "a  b\n1  2", "it holds")
        out = result.render()
        assert "## x: Title" in out
        assert "it holds" in out
        assert "```" in out

    def test_report_selected_ids(self):
        report = generate_report(quick=True, ids=["fig01"])
        assert "fig01" in report
        assert "fig02" not in report

    def test_cli_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out

    def test_cli_single_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["fig01", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "worked example" in out

    def test_cli_writes_report(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        target = tmp_path / "report.md"
        # Only one experiment would be slow; use the full report at quick
        # scale with output redirection.
        assert main(["--quick", "--output", str(target)]) == 0
        assert target.exists()
        text = target.read_text()
        for exp_id in EXPECTED_IDS:
            assert f"## {exp_id}:" in text


class TestJsonExport:
    def test_export_single_experiment(self, tmp_path):
        import json

        from repro.bench.export import export_experiments

        written = export_experiments(tmp_path, ids=["fig01"], quick=True)
        files = {p.name for p in written}
        assert files == {"fig01.json", "index.json"}
        payload = json.loads((tmp_path / "fig01.json").read_text())
        assert payload["id"] == "fig01"
        assert "rows" in payload["data"]
        assert payload["quick"] is True

    def test_index_manifest(self, tmp_path):
        import json

        from repro.bench.export import export_experiments

        export_experiments(tmp_path, ids=["fig01", "fig02"], quick=True)
        manifest = json.loads((tmp_path / "index.json").read_text())
        assert set(manifest) == {"fig01", "fig02"}
        assert manifest["fig01"]["file"] == "fig01.json"

    def test_data_is_json_round_trippable(self, tmp_path):
        import json

        from repro.bench.export import export_experiments

        (path, _) = export_experiments(tmp_path, ids=["fig04"], quick=True)
        payload = json.loads(path.read_text())
        assert "cumulative" in payload["data"]
        # All series values are plain floats after conversion.
        for series in payload["data"]["cumulative"].values():
            assert all(isinstance(v, float) for v in series)

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["fig01", "--quick", "--json", str(tmp_path)]) == 0
        assert (tmp_path / "fig01.json").exists()


class TestHostPerfInlineShare:
    """The backend sweep reports how many of a process backend's stages
    ran in the parent, so a speedup is not read as parallel when it is
    serial execution."""

    def test_share_from_the_dispatch_counts(self):
        from types import SimpleNamespace

        from repro.bench.hostperf import _inline_share, inline_note

        def result(supervision):
            return SimpleNamespace(supervision=supervision)

        assert _inline_share(result({})) is None
        share = _inline_share(result({
            "supervise.inline_stages": 3, "supervise.dispatched_stages": 1,
        }))
        assert share == 0.75
        entry = {
            "inline_share": {"fork": share, "threads": None},
            "pools_started": {"fork": 1, "threads": None},
        }
        assert inline_note(entry, "fork") == ", 75% inline, pools started: 1"
        assert inline_note(entry, "threads") == ""
