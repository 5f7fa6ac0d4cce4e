"""Tests for the classic doall LRPD baseline."""

import pytest

from repro.config import RuntimeConfig, TestCondition
from repro.core.lrpd import run_doall_lrpd
from repro.errors import ConfigurationError
from repro.loopir.induction import InductionSpec
from repro.loopir.loop import SpeculativeLoop
from repro.workloads.synthetic import (
    chain_loop,
    copyin_loop,
    fully_parallel_loop,
    privatizable_loop,
    random_dependence_loop,
    reduction_loop,
)
from tests.conftest import assert_matches_sequential


class TestPassingLoops:
    def test_fully_parallel_commits(self):
        loop = fully_parallel_loop(256)
        res = run_doall_lrpd(loop, 8)
        assert res.n_stages == 1
        assert res.n_restarts == 0
        assert res.speedup > 5.0
        assert_matches_sequential(res, loop)

    def test_privatizable_passes(self):
        loop = privatizable_loop(64)
        res = run_doall_lrpd(loop, 8)
        assert res.n_restarts == 0
        assert_matches_sequential(res, loop)

    def test_reduction_passes(self):
        loop = reduction_loop(64, n_bins=4, seed=0)
        res = run_doall_lrpd(loop, 4)
        assert res.n_restarts == 0
        assert_matches_sequential(res, loop)


class TestFailingLoops:
    def test_single_dependence_forces_serial_rerun(self):
        """The R-LRPD motivation: one cross-processor flow dependence makes
        the doall test re-execute everything sequentially."""
        loop = chain_loop(64, targets=[32])
        res = run_doall_lrpd(loop, 8)
        assert res.n_stages == 2
        assert res.n_restarts == 1
        assert res.speedup < 1.0  # speculation + serial = slowdown
        assert_matches_sequential(res, loop)

    def test_failed_run_restores_untested_state(self):
        import numpy as np

        from repro.loopir.loop import ArraySpec

        def body(ctx, i):
            x = ctx.load("A", max(0, i - 1))
            ctx.store("A", i, x + 1.0)
            ctx.store("B", i, float(i))

        loop = SpeculativeLoop(
            "mix", 16, body,
            arrays=[
                ArraySpec("A", np.zeros(16), tested=True),
                ArraySpec("B", np.zeros(16), tested=False),
            ],
        )
        res = run_doall_lrpd(loop, 4)
        assert res.n_restarts == 1
        assert_matches_sequential(res, loop)

    def test_pr_half_on_failure(self):
        loop = chain_loop(64, targets=[32])
        res = run_doall_lrpd(loop, 8)
        assert res.parallelism_ratio == pytest.approx(0.5)


class TestConditions:
    def test_copyin_qualifies_more_loops(self):
        loop = copyin_loop(64)
        relaxed = run_doall_lrpd(
            loop, 8, RuntimeConfig.nrd(condition=TestCondition.COPY_IN)
        )
        strict = run_doall_lrpd(
            copyin_loop(64), 8,
            RuntimeConfig.nrd(condition=TestCondition.PRIVATIZATION),
        )
        assert relaxed.n_restarts == 0
        assert strict.n_restarts == 1
        # Both still produce correct state.
        assert_matches_sequential(relaxed, loop)
        assert_matches_sequential(strict, copyin_loop(64))

    def test_copy_in_verdict_reuses_the_stage_analysis(self, monkeypatch):
        # One speculative stage, one analysis pass: the copy-in verdict is
        # the engine's own analysis, not a second analyze_stage call.
        from repro.core import analysis, engine

        calls = []

        def counted(groups):
            calls.append(len(groups))
            return real(groups)

        real = analysis.analyze_stage
        monkeypatch.setattr(engine, "analyze_stage", counted)
        monkeypatch.setattr(analysis, "analyze_stage", counted)
        loop = random_dependence_loop(200, 0.05, 10, seed=1)
        res = run_doall_lrpd(loop, 4, RuntimeConfig.nrd(condition=TestCondition.COPY_IN))
        assert len(calls) == 1
        assert (res.n_stages, res.n_restarts) == (2, 1)  # failed, re-ran serially
        assert_matches_sequential(res, loop)


class TestValidation:
    def test_rejects_induction_loops(self):
        loop = SpeculativeLoop(
            "ind", 4, lambda ctx, i: ctx.bump("k"), arrays=[],
            inductions=[InductionSpec("k")],
        )
        with pytest.raises(ConfigurationError):
            run_doall_lrpd(loop, 2)

    def test_strategy_label(self):
        res = run_doall_lrpd(fully_parallel_loop(8), 2)
        assert "LRPD-doall" in res.strategy
