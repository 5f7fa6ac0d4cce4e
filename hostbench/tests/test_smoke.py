"""Smoke tests of the benchmark at tiny size.

Run from the repository root with ``python -m pytest hostbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import layers
import schema
from workloads import BACKENDS, WORKLOADS, SequentialTrack, digest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"


def _run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cli_output_shape(workload, trace):
    out = _run_cli(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # A traced run makes one untraced and one traced pass.
    assert result["attempted"] == 2 * len(BACKENDS) * (1 + trace)
    units = schema.declared(SPEC, bool(trace))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        calls = result["metrics"]["core.fastpath.calls"]["value"]
        assert (calls > 0) == WORKLOADS[workload].fastpath


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, "fma3d-quad", 0)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_cli_leaves_no_child_process():
    # The shm backend starts multiprocessing's resource tracker; main must
    # reap it and every worker before it returns.
    script = (
        "import os, sys; sys.path.insert(0, 'hostbench'); import run\n"
        "rc = run.main(['--workload', 'fma3d-quad', '--seed', '3',"
        " '--seconds', '0.5', '--trace', '0'])\n"
        "me = os.getpid()\n"
        "kids = open(f'/proc/{me}/task/{me}/children').read().split()\n"
        "print('CHILDREN', rc, len(kids))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "CHILDREN 0 0"


def test_oracle_mismatch_counts_as_failed():
    workload = WORKLOADS["fma3d-quad"]
    plan = workload.oracle(workload.build(seed=5, n_units=2), 2)
    plan.expected[1] = "0" * 32
    ledger = measure.Ledger()
    measure.timed_pass(workload, plan, ledger)
    assert ledger.attempted == 2 * len(BACKENDS)
    assert sorted(ledger.failures) == [(0, 1, b) for b in sorted(BACKENDS)]


def test_sequential_track_twin_matches_the_program():
    workload = WORKLOADS["track-program"]
    plan = workload.oracle(workload.build(seed=9, n_units=3), 3)
    runner = workload.runner(plan, measure.config_for("serial", traced=False))
    for k in range(3):
        _, memory = runner.call(k)
        assert digest(memory) == plan.expected[k]
    # The twin never runs the engine: TrackSimulation.step records every
    # parallelize result, the twin's run_sequential steps record none.
    twin = SequentialTrack(plan.inputs)
    twin.step()
    assert twin.sim.step_index == 1 and twin.sim.runs == []


def test_tracer_restores_every_original():
    import repro.core.engine as engine_mod
    import repro.core.runner as runner_mod
    from repro.core.shm import ShmBackend

    before = (
        engine_mod.analyze_stage, runner_mod.certify_loop,
        engine_mod.StageEngine.run, ShmBackend.run_blocks,
    )
    with layers.LayerTracer():
        assert engine_mod.analyze_stage is not before[0]
        assert "run_blocks" in vars(ShmBackend)
    after = (
        engine_mod.analyze_stage, runner_mod.certify_loop,
        engine_mod.StageEngine.run, ShmBackend.run_blocks,
    )
    assert after == before
    assert "run_blocks" not in vars(ShmBackend)


@pytest.mark.parametrize(
    "metrics, problem",
    [
        ({}, "declared but not reported"),
        ({"a": {"value": 1.0, "unit": "s"}, "b": {"value": 1, "unit": "s"}},
         "reported but not declared"),
        ({"a": {"value": 1.0, "unit": "ms"}}, "unit"),
        ({"a": {"value": float("nan"), "unit": "s"}}, "finite"),
    ],
)
def test_schema_check_rejects(metrics, problem):
    with pytest.raises(schema.OutputError, match=problem):
        schema.check({"a": "s"}, metrics)
