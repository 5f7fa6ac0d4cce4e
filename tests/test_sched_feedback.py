"""Tests for the feedback-guided load balancer."""

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.runner import run_program
from repro.sched.feedback import FeedbackBalancer
from repro.util.blocks import partition_weighted
from repro.workloads.synthetic import fully_parallel_loop
from repro.loopir.loop import ArraySpec, SpeculativeLoop


def ramp_loop(n, factor=4.0, name="ramp"):
    """Iteration cost ramps linearly from 1 to `factor`."""

    def body(ctx, i):
        pass

    return SpeculativeLoop(
        name, n, body,
        arrays=[ArraySpec("A", np.zeros(max(1, n)))],
        iter_work=lambda i: 1.0 + (factor - 1.0) * i / max(1, n - 1),
    )


class TestBalancer:
    def test_no_history_predicts_none(self):
        assert FeedbackBalancer().predict("x", 10) is None

    def test_roundtrip_same_size(self):
        b = FeedbackBalancer()
        b.record("x", {0: 1.0, 1: 2.0, 2: 3.0}, 3)
        assert np.allclose(b.predict("x", 3), [1.0, 2.0, 3.0])

    def test_rescaling_preserves_shape(self):
        b = FeedbackBalancer()
        b.record("x", {i: float(i) for i in range(10)}, 10)
        scaled = b.predict("x", 20)
        assert len(scaled) == 20
        assert scaled[0] == pytest.approx(0.0)
        assert scaled[-1] == pytest.approx(9.0)
        assert all(a <= b_ + 1e-12 for a, b_ in zip(scaled, scaled[1:]))

    def test_missing_iterations_filled_with_mean(self):
        b = FeedbackBalancer()
        b.record("x", {0: 2.0, 2: 4.0}, 3)
        w = b.predict("x", 3)
        assert w[1] == pytest.approx(3.0)

    def test_empty_measurements_ignored(self):
        b = FeedbackBalancer()
        b.record("x", {}, 5)
        assert b.predict("x", 5) is None

    def test_per_loop_isolation(self):
        b = FeedbackBalancer()
        b.record("x", {0: 1.0, 1: 1.0}, 2)
        assert b.predict("y", 2) is None


def _cuts(balancer, n, p=2):
    """Block boundaries the balancer's prediction gives ``n`` iterations."""
    blocks = partition_weighted(0, n, list(range(p)), balancer.predict("x", n))
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert (blocks[0].start, blocks[-1].stop) == (0, n)
    return [b.start for b in blocks[1:]]


class TestRescaling:
    """Section 5.1: when the iteration count changes, the measured block
    distribution is scaled accordingly.  The profile is interpolated over
    normalized positions, so the cut moves with the size."""

    @pytest.fixture
    def front_heavy(self):
        b = FeedbackBalancer()
        b.record("x", {i: (3.0 if i < 5 else 1.0) for i in range(10)}, 10)
        return b

    def test_same_size_keeps_the_measured_partition(self, front_heavy):
        measured = np.array([3.0] * 5 + [1.0] * 5)
        direct = partition_weighted(0, 10, [0, 1], measured)
        assert _cuts(front_heavy, 10) == [direct[1].start] == [3]

    def test_doubled_size_keeps_the_relative_cut(self, front_heavy):
        (cut,) = _cuts(front_heavy, 20)
        assert abs(cut - 2 * 3) <= 1

    def test_halved_size_keeps_the_relative_cut(self, front_heavy):
        (cut,) = _cuts(front_heavy, 5)
        assert abs(cut - 3 / 2) <= 1

    def test_shrunk_partition_is_monotone_within_the_new_size(self):
        b = FeedbackBalancer()
        rng = np.random.default_rng(7)
        b.record("x", dict(enumerate(rng.uniform(0.1, 5.0, 9))), 9)
        cuts = _cuts(b, 4, p=4)
        assert cuts == sorted(cuts)
        assert all(0 <= c <= 4 for c in cuts)

    def test_shrunk_profile_keeps_its_endpoints(self):
        b = FeedbackBalancer()
        b.record("x", {i: float(i) for i in range(10)}, 10)
        w = b.predict("x", 4)
        assert len(w) == 4
        assert (w[0], w[-1]) == pytest.approx((0.0, 9.0))

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_iteration_space_predicts_none(self, front_heavy, n):
        assert front_heavy.predict("x", n) is None

    def test_second_order_rescales_both_profiles(self):
        b = FeedbackBalancer(order=2)
        b.record("x", {i: 1.0 for i in range(10)}, 10)
        b.record("x", {i: 2.0 for i in range(10)}, 10)
        assert np.allclose(b.predict("x", 25), 3.0)


class TestEndToEnd:
    def test_feedback_improves_ramp_speedup(self):
        """From the second instantiation on, the measured profile re-blocks
        the ramp and the bottleneck processor shrinks (Section 5.1)."""
        n, p, reps = 1024, 8, 3
        static = run_program(
            (ramp_loop(n) for _ in range(reps)),
            p,
            RuntimeConfig.nrd(feedback_balancing=False),
        )
        balanced = run_program(
            (ramp_loop(n) for _ in range(reps)),
            p,
            RuntimeConfig.nrd(feedback_balancing=True),
        )
        # First instantiations are identical; later ones must improve.
        assert balanced.runs[0].total_time == pytest.approx(
            static.runs[0].total_time, rel=0.01
        )
        assert balanced.runs[-1].total_time < 0.85 * static.runs[-1].total_time

    def test_feedback_handles_size_change(self):
        loops = [ramp_loop(512), ramp_loop(768), ramp_loop(256)]
        prog = run_program(
            loops, 4, RuntimeConfig.nrd(feedback_balancing=True)
        )
        assert prog.n_instantiations == 3  # no crashes on rescale

    def test_feedback_neutral_on_uniform_loop(self):
        prog = run_program(
            (fully_parallel_loop(256) for _ in range(2)),
            4,
            RuntimeConfig.nrd(feedback_balancing=True),
        )
        r0, r1 = prog.runs
        assert r1.total_time == pytest.approx(r0.total_time, rel=0.05)
