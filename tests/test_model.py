"""Tests for the Section 4 analytic model and loop classification."""

import math

import pytest

from repro.config import RuntimeConfig
from repro.core.rlrpd import run_blocked
from repro.machine.costs import CostModel
from repro.model.analytic import (
    k_d_geometric,
    k_s_geometric,
    k_s_linear,
    remaining_after,
    t_dyn_geometric,
    t_static,
    total_time_geometric,
)
from repro.model.classify import classify_loop, estimate_alpha, estimate_beta
from repro.workloads.synthetic import (
    chain_loop,
    fully_parallel_loop,
    geometric_rd_targets,
    linear_chain_targets,
)


class TestKs:
    def test_fully_parallel_one_step(self):
        assert k_s_geometric(0.0, 8) == 1.0

    def test_alpha_half_log2p(self):
        """alpha = 1/2: k_s = log2 p (paper's worked example)."""
        assert k_s_geometric(0.5, 8) == pytest.approx(3.0)
        assert k_s_geometric(0.5, 16) == pytest.approx(4.0)

    def test_single_proc(self):
        assert k_s_geometric(0.5, 1) == 1.0

    def test_linear_fully_parallel(self):
        assert k_s_linear(0.0) == 1.0

    def test_linear_sequential(self):
        """beta = (p-1)/p: k_s = p (paper's worked example)."""
        p = 8
        assert k_s_linear((p - 1) / p) == pytest.approx(p)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            k_s_geometric(1.0, 8)
        with pytest.raises(ValueError):
            k_s_geometric(-0.1, 8)


class TestTStatic:
    def test_fully_parallel_example(self):
        """T_static = n*omega/p + s for beta = 0 (paper)."""
        assert t_static(100, 2.0, 5.0, 4, k_s=1.0) == pytest.approx(55.0)

    def test_sequential_example(self):
        """T_static = n*omega + p*s for the sequentialized loop (paper)."""
        n, omega, s, p = 100, 2.0, 5.0, 4
        assert t_static(n, omega, s, p, k_s=p) == pytest.approx(
            n * omega + p * s
        )


class TestKd:
    def test_never_pays_when_omega_below_ell(self):
        assert k_d_geometric(1000, 1.0, 2.0, 1.0, 8, 0.5) == 0.0

    def test_small_loop_never_redistributes(self):
        # threshold = p*s/(omega-ell) = 8*10/0.5 = 160 > n
        assert k_d_geometric(100, 1.0, 0.5, 10.0, 8, 0.5) == 0.0

    def test_eq7_value(self):
        """k_d = log_alpha((s/(omega-ell)) * (p/n))."""
        n, omega, ell, s, p, alpha = 4096, 1.0, 0.25, 4.0, 8, 0.5
        expected = math.log((s / (omega - ell)) * (p / n)) / math.log(alpha)
        assert k_d_geometric(n, omega, ell, s, p, alpha) == pytest.approx(expected)

    def test_kd_grows_with_n(self):
        a = k_d_geometric(1 << 10, 1.0, 0.25, 4.0, 8, 0.5)
        b = k_d_geometric(1 << 14, 1.0, 0.25, 4.0, 8, 0.5)
        assert b > a

    def test_remaining_after(self):
        assert remaining_after(1024, 0.5, 3) == 128.0


class TestTotalTime:
    def test_tdyn_includes_barriers(self):
        t = t_dyn_geometric(1024, 1.0, 0.0, 5.0, 8, 0.5, k_d=2.0)
        # steps 0..2: (1024 + 512 + 256)/8 work + 3 barriers
        assert t == pytest.approx(1792 / 8 + 15.0)

    def test_initial_step_pays_no_redistribution(self):
        free = t_dyn_geometric(1024, 1.0, 0.0, 0.0, 8, 0.5, k_d=0.0)
        moved = t_dyn_geometric(1024, 1.0, 10.0, 0.0, 8, 0.5, k_d=0.0)
        assert free == moved  # only step 0 ran: ell never charged

    def test_total_time_monotone_in_alpha(self):
        times = [
            total_time_geometric(4096, 1.0, 0.25, 4.0, 8, a)
            for a in (0.3, 0.5, 0.7)
        ]
        assert times[0] < times[1] < times[2]

    def test_model_tracks_simulation(self):
        """The headline Section 4 claim: the closed form predicts the
        simulated RD execution within the overheads it omits."""
        n, p, alpha = 2048, 8, 0.5
        costs = CostModel(omega=1.0, ell=0.3, sync=20.0)
        loop = chain_loop(n, geometric_rd_targets(n, alpha, p))
        sim = run_blocked(loop, p, RuntimeConfig.adaptive(), costs=costs)
        model = total_time_geometric(n, costs.omega, costs.ell, costs.sync, p, alpha)
        assert sim.total_time == pytest.approx(model, rel=0.40)


class TestLinearModelAndAdvice:
    def test_total_time_linear_examples(self):
        from repro.model.analytic import total_time_linear

        # beta = 0: one step.
        assert total_time_linear(100, 2.0, 5.0, 4, 0.0) == pytest.approx(55.0)
        # beta = (p-1)/p: p steps = sequential + p barriers.
        assert total_time_linear(100, 2.0, 5.0, 4, 0.75) == pytest.approx(220.0)

    def test_speedup_geometric_decreases_with_alpha(self):
        from repro.model.analytic import speedup_geometric

        s = [speedup_geometric(4096, 1.0, 0.25, 4.0, 8, a) for a in (0.2, 0.5, 0.8)]
        assert s[0] > s[1] > s[2]

    def test_speedup_linear_fully_parallel_near_p(self):
        from repro.model.analytic import speedup_linear

        assert speedup_linear(10_000, 1.0, 4.0, 8, 0.0) == pytest.approx(8.0, rel=0.01)

    def test_speedup_linear_sequential_below_one(self):
        from repro.model.analytic import speedup_linear

        assert speedup_linear(100, 1.0, 4.0, 8, 7 / 8) < 1.0

    def test_linear_model_tracks_nrd_simulation(self):
        n, p = 1024, 8
        from repro.model.analytic import total_time_linear

        costs = CostModel(omega=1.0, ell=0.3, sync=20.0)
        loop = chain_loop(n, linear_chain_targets(n, p))
        sim = run_blocked(loop, p, RuntimeConfig.nrd(), costs=costs)
        model = total_time_linear(n, costs.omega, costs.sync, p, (p - 1) / p)
        assert sim.total_time == pytest.approx(model, rel=0.30)


class TestClassification:
    def test_geometric_loop_alpha_estimate(self):
        n, p, alpha = 1024, 8, 0.5
        loop = chain_loop(n, geometric_rd_targets(n, alpha, p))
        res = run_blocked(loop, p, RuntimeConfig.rd())
        est = estimate_alpha(res)
        assert est == pytest.approx(alpha, abs=0.1)

    def test_linear_loop_beta_estimate(self):
        n, p = 512, 8
        loop = chain_loop(n, linear_chain_targets(n, p))
        res = run_blocked(loop, p, RuntimeConfig.nrd())
        est = estimate_beta(res)
        assert est == pytest.approx((p - 1) / p, abs=0.05)

    def test_parallel_loop_unclassifiable(self):
        res = run_blocked(fully_parallel_loop(64), 8, RuntimeConfig.nrd())
        assert estimate_alpha(res) is None
        assert classify_loop(res).kind == "parallel"

    def test_geometric_preferred_for_geometric(self):
        n, p = 1024, 8
        loop = chain_loop(n, geometric_rd_targets(n, 0.5, p))
        res = run_blocked(loop, p, RuntimeConfig.rd())
        verdict = classify_loop(res)
        assert verdict.kind == "geometric"
        assert verdict.geometric_error <= verdict.linear_error

    def test_linear_preferred_for_linear(self):
        n, p = 512, 8
        loop = chain_loop(n, linear_chain_targets(n, p))
        res = run_blocked(loop, p, RuntimeConfig.nrd())
        verdict = classify_loop(res)
        assert verdict.kind == "linear"
