"""Tests for RuntimeConfig and the result types."""

import dataclasses

import pytest

from repro.config import (
    RedistributionPolicy,
    RuntimeConfig,
    Strategy,
    TestCondition,
)
from repro.core.results import ProgramResult
from repro.core.rlrpd import run_blocked
from repro.core.runner import run_program
from repro.errors import ConfigurationError
from repro.workloads.synthetic import chain_loop, fully_parallel_loop


class TestRuntimeConfig:
    def test_nrd_constructor(self):
        cfg = RuntimeConfig.nrd()
        assert cfg.strategy is Strategy.BLOCKED
        assert cfg.redistribution is RedistributionPolicy.NEVER
        assert cfg.label() == "NRD"

    def test_rd_constructor(self):
        assert RuntimeConfig.rd().label() == "RD"

    def test_adaptive_constructor(self):
        assert RuntimeConfig.adaptive().label() == "RD-adaptive"

    def test_sw_constructor(self):
        cfg = RuntimeConfig.sw(32)
        assert cfg.strategy is Strategy.SLIDING_WINDOW
        assert cfg.window_size == 32
        assert cfg.label() == "SW(w=32)"

    def test_sw_auto_label(self):
        assert RuntimeConfig.sw().label() == "SW(w=auto)"

    def test_sw_defaults_to_never_redistribution(self):
        cfg = RuntimeConfig(strategy=Strategy.SLIDING_WINDOW, window_size=8)
        assert cfg.redistribution is RedistributionPolicy.NEVER

    def test_sw_explicit_never_is_accepted(self):
        cfg = RuntimeConfig(
            strategy=Strategy.SLIDING_WINDOW,
            redistribution=RedistributionPolicy.NEVER,
            window_size=8,
        )
        assert cfg.redistribution is RedistributionPolicy.NEVER

    @pytest.mark.parametrize(
        "policy", [RedistributionPolicy.ALWAYS, RedistributionPolicy.ADAPTIVE]
    )
    def test_sw_rejects_explicit_redistribution(self, policy):
        with pytest.raises(ConfigurationError, match="sliding-window"):
            RuntimeConfig(
                strategy=Strategy.SLIDING_WINDOW,
                redistribution=policy,
                window_size=8,
            )

    def test_blocked_defaults_to_adaptive_redistribution(self):
        assert RuntimeConfig().redistribution is RedistributionPolicy.ADAPTIVE

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig.sw(0)

    def test_invalid_max_stages_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(max_stages=0)

    def test_with_options(self):
        cfg = RuntimeConfig.adaptive().with_options(feedback_balancing=True)
        assert cfg.feedback_balancing
        assert cfg.redistribution is RedistributionPolicy.ADAPTIVE

    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.condition is TestCondition.COPY_IN
        assert cfg.on_demand_checkpoint


class TestValidation:
    @pytest.mark.parametrize("overrides, message", [
        ({"certify": "always"}, "unknown certify mode"),
        ({"max_fault_retries": -1}, "max_fault_retries"),
        ({"worker_timeout": 0.0}, "worker_timeout"),
        ({"max_worker_respawns": -1}, "max_worker_respawns"),
        ({"resource_interval": 0.0}, "resource_interval"),
    ], ids=["certify", "max_fault_retries", "worker_timeout",
            "max_worker_respawns", "resource_interval"])
    def test_out_of_range_value_rejected(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            RuntimeConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"max_fault_retries": 0},
        {"worker_timeout": 1e-3},
        {"max_worker_respawns": 0},
    ], ids=["max_fault_retries", "worker_timeout", "max_worker_respawns"])
    def test_boundary_value_accepted(self, overrides):
        cfg = RuntimeConfig(**overrides)
        (name, value), = overrides.items()
        assert getattr(cfg, name) == value

    @pytest.mark.parametrize(
        "name", ["status_path", "worker_timeout_factor", "flight_events"]
    )
    def test_retired_field_is_not_an_option(self, name):
        # The live status stream is gone; the supervisor's deadline factor
        # and the flight recorder's ring size are module constants.
        with pytest.raises(TypeError):
            RuntimeConfig(**{name: 1})

    def test_field_count(self):
        assert len(dataclasses.fields(RuntimeConfig)) == 26


class TestProgramResult:
    def test_pr_formula(self):
        """PR = instantiations / (restarts + instantiations), Section 5.2."""
        prog = run_program(
            [chain_loop(64, targets=[32]) for _ in range(3)],
            4,
            RuntimeConfig.nrd(),
        )
        assert prog.n_instantiations == 3
        assert prog.n_restarts == 3  # one failed stage per instantiation
        assert prog.parallelism_ratio == pytest.approx(3 / 6)

    def test_fully_parallel_pr_one(self):
        prog = run_program(
            [fully_parallel_loop(32) for _ in range(2)], 4, RuntimeConfig.nrd()
        )
        assert prog.parallelism_ratio == 1.0

    def test_aggregate_times(self):
        runs = [fully_parallel_loop(32) for _ in range(2)]
        prog = run_program(runs, 4, RuntimeConfig.nrd())
        assert prog.total_time == pytest.approx(
            sum(r.total_time for r in prog.runs)
        )
        assert prog.sequential_work == pytest.approx(64.0)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            run_program([], 4)

    def test_empty_programresult_degenerate(self):
        prog = ProgramResult("x", "NRD", 4)
        assert prog.parallelism_ratio == 1.0
        assert prog.speedup == 1.0

    def test_summary(self):
        prog = run_program([fully_parallel_loop(16)], 2, RuntimeConfig.nrd())
        s = prog.summary()
        assert s["instantiations"] == 1
        assert s["PR"] == 1.0


class TestRunResultMetrics:
    def test_pr_single_run(self):
        res = run_blocked(chain_loop(64, targets=[32]), 4, RuntimeConfig.nrd())
        assert res.parallelism_ratio == pytest.approx(0.5)

    def test_stage_spans_sum_to_total(self):
        res = run_blocked(chain_loop(64, targets=[32]), 4, RuntimeConfig.nrd())
        assert sum(res.stage_spans()) == pytest.approx(res.total_time)

    def test_overhead_plus_work_consistency(self):
        res = run_blocked(fully_parallel_loop(64), 4, RuntimeConfig.nrd())
        from repro.machine.timeline import Category

        work_span = res.timeline.total_category(Category.WORK)
        assert res.overhead_time == pytest.approx(res.total_time - work_span)
