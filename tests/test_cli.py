"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import WORKLOADS, main, resolve_workload


class TestResolve:
    def test_family_default_deck(self):
        loop = resolve_workload("nlfilt")
        assert "16-400" in loop.name

    def test_family_with_deck(self):
        loop = resolve_workload("extend:heavy-deps")
        assert "heavy-deps" in loop.name

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            resolve_workload("nope")

    def test_unknown_deck(self):
        with pytest.raises(SystemExit):
            resolve_workload("nlfilt:nope")

    def test_deck_on_plain_workload_rejected(self):
        with pytest.raises(SystemExit):
            resolve_workload("doall:whatever")

    def test_every_registered_workload_resolves(self):
        for family, factory in WORKLOADS.items():
            decks = getattr(factory, "decks", [])
            spec = f"{family}:{decks[0]}" if decks else family
            loop = resolve_workload(spec)
            assert loop.n_iterations > 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "nlfilt" in out and "pointer-chase" in out

    def test_run_blocked(self, capsys):
        assert main(["run", "doall", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_run_sliding_window(self, capsys):
        assert main(["run", "random-deps", "-p", "4", "--strategy", "sw",
                     "--window", "16"]) == 0
        out = capsys.readouterr().out
        assert "SW(w=16)" in out

    def test_default_run_takes_certified_fast_path(self, capsys):
        assert main(["run", "doall", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "certificate: DOALL" in out
        assert "certified-doall" in out

    def test_explicit_strategy_disables_certification(self, capsys):
        # --strategy means "run exactly this": the certifiable doall must
        # run under NRD, with no certificate line rerouting it.
        assert main(["run", "doall", "-p", "4", "--strategy", "nrd"]) == 0
        out = capsys.readouterr().out
        assert "under NRD" in out
        assert "certificate" not in out

    def test_explicit_certify_overrides_explicit_strategy(self, capsys):
        assert main(["run", "doall", "-p", "4", "--strategy", "nrd",
                     "--certify", "hint"]) == 0
        out = capsys.readouterr().out
        assert "certified-doall" in out

    def test_run_breakdown(self, capsys):
        assert main(["run", "doall", "-p", "2", "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "breakdown" in out

    def test_certify_ok(self, capsys):
        assert main(["certify", "gather", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out

    def test_certify_tolerant_bjt(self, capsys):
        assert main(["certify", "bjt", "-p", "2", "--tolerant"]) == 0

    def test_ddg(self, capsys):
        assert main(["ddg", "forest", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out

    @staticmethod
    def _ddg_matches_serial(capsys, backend):
        outs = {}
        for name in ("serial", backend):
            argv = ["ddg", "spice15:adder.128", "-p", "8", "--backend", name]
            assert main(argv) == 0
            outs[name] = capsys.readouterr().out
        assert "5657 edges" in outs["serial"]
        assert outs[backend] == outs["serial"]

    def test_ddg_on_fork_matches_serial(self, capsys, always_dispatch):
        self._ddg_matches_serial(capsys, "fork")

    def test_ddg_on_shm_matches_serial(self, capsys, always_dispatch):
        # shm is a synonym for the fork pool and must print the same graph.
        self._ddg_matches_serial(capsys, "shm")

    def test_run_induction_workload(self, capsys):
        assert main(["run", "extend:clean", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "induction" in out

    def test_run_with_faults_reports_survival(self, capsys):
        # Seed 1 is known (and pinned by determinism) to fire faults on
        # this workload within the first stages.
        assert main(["run", "random-deps", "-p", "8", "--strategy", "sw",
                     "--faults", "1", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "faults survived:" in out
        assert "fault retries:" in out

    def test_run_self_check_alone(self, capsys):
        assert main(["run", "scatter", "-p", "4", "--self-check"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "faults survived" not in out  # fault-free machine


class TestEngineCli:
    """Registry-resolved strategies and the stage-event trace flags."""

    def test_strategy_choices_come_from_registry(self):
        from repro.core.engine import strategy_names

        assert {"nrd", "rd", "adaptive", "sw", "iterwise", "induction"} <= set(
            strategy_names()
        )

    def test_run_iterwise_strategy(self, capsys):
        assert main(["run", "random-deps", "-p", "4",
                     "--strategy", "iterwise"]) == 0
        out = capsys.readouterr().out
        assert "iterwise" in out

    def test_run_explicit_induction_strategy(self, capsys):
        assert main(["run", "extend:clean", "-p", "4",
                     "--strategy", "induction"]) == 0
        out = capsys.readouterr().out
        assert "induction" in out

    def test_induction_strategy_on_plain_loop_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "doall", "-p", "2", "--strategy", "induction"])

    def test_run_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs.events import event_from_dict, validate_events

        path = tmp_path / "run.jsonl"
        assert main(["run", "random-deps", "-p", "4",
                     "--trace", str(path)]) == 0
        events = [
            event_from_dict(json.loads(line))
            for line in path.read_text().strip().splitlines()
        ]
        validate_events(events)

    def test_run_progress_narrates_stages(self, capsys):
        assert main(["run", "doall", "-p", "2", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "stage 0:" in out and "done:" in out


class TestRetiredSurface:
    """Live narration is ``run --progress``; post-hoc reading is ``repro
    report``, ``--bundle`` and the ``REPRO_OPLOG`` file.  There is no
    live status stream and no dashboard over it."""

    def test_top_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["top", "status.jsonl"])
        assert exited.value.code == 2
        assert "invalid choice: 'top'" in capsys.readouterr().err

    def test_run_has_no_status_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["run", "doall", "--status", str(tmp_path / "s.jsonl")])
        assert exited.value.code == 2
        assert "--status" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    def test_progress_run_leaves_its_oplog_records(
        self, tmp_path, monkeypatch, capsys
    ):
        oplog = tmp_path / "ops.jsonl"
        monkeypatch.setenv("REPRO_OPLOG", str(oplog))
        assert main(["run", "doall", "-p", "2", "--progress"]) == 0
        assert "done:" in capsys.readouterr().out
        events = [json.loads(line)["event"]
                  for line in oplog.read_text().splitlines()]
        assert events[0] == "run-begin" and events[-1] == "run-end"
