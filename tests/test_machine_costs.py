"""Unit tests for the cost model."""

import math

import pytest

from repro.machine.costs import CostModel


class TestValidation:
    def test_defaults_valid(self):
        CostModel()

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(omega=-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            CostModel(sync=float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            CostModel(ell=float("inf"))

    def test_zero_costs_allowed(self):
        cm = CostModel(mark=0.0, sync=0.0)
        assert cm.mark == 0.0

    def test_frozen(self):
        cm = CostModel()
        with pytest.raises(AttributeError):
            cm.omega = 2.0


class TestAnalysisCost:
    def test_scales_with_refs(self):
        cm = CostModel()
        assert cm.analysis_cost(200, 8) == 2 * cm.analysis_cost(100, 8)

    def test_scales_with_log_procs(self):
        cm = CostModel()
        assert cm.analysis_cost(100, 16) == pytest.approx(
            cm.analysis_cost(100, 4) * 2
        )

    def test_single_proc_floor(self):
        cm = CostModel()
        # log2(1) = 0 would erase the cost; floor at 1.
        assert cm.analysis_cost(100, 1) == pytest.approx(
            cm.analysis_per_ref * 100
        )

    def test_zero_refs_zero_cost(self):
        assert CostModel().analysis_cost(0, 8) == 0.0

    def test_negative_refs_rejected(self):
        with pytest.raises(ValueError):
            CostModel().analysis_cost(-1, 8)


class TestRedistributionRule:
    """Eq. (4): redistribute while n >= p*s / (omega - ell)."""

    def test_large_remainder_redistributes(self):
        cm = CostModel(omega=1.0, ell=0.25, sync=4.0)
        threshold = 8 * 4.0 / 0.75
        assert cm.should_redistribute(int(math.ceil(threshold)) + 1, 8)

    def test_small_remainder_does_not(self):
        cm = CostModel(omega=1.0, ell=0.25, sync=4.0)
        threshold = 8 * 4.0 / 0.75
        assert not cm.should_redistribute(int(threshold) - 1, 8)

    def test_exact_threshold_redistributes(self):
        cm = CostModel(omega=1.0, ell=0.5, sync=1.0)
        # threshold = p * 1 / 0.5 = 2p
        assert cm.should_redistribute(16, 8)

    def test_omega_leq_ell_never_redistributes(self):
        cm = CostModel(omega=1.0, ell=1.0, sync=0.0)
        assert not cm.should_redistribute(10**9, 8)

    def test_free_sync_always_redistributes(self):
        cm = CostModel(omega=1.0, ell=0.0, sync=0.0)
        assert cm.should_redistribute(1, 8)
