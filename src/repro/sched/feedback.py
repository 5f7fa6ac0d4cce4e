"""Feedback-guided load balancing (paper, Section 5.1).

The R-LRPD test requires static block scheduling, which interacts badly with
irregular per-iteration costs.  The paper's fix: instrument the loop with
low-overhead timers, and after each instantiation compute -- from the prefix
sums of the measured per-iteration times -- the block distribution that
*would have* balanced the load perfectly.  That distribution is the
first-order predictor for the next instantiation; when the iteration count
changes, it is scaled accordingly.  A side benefit is locality: block
boundaries move slowly between instantiations.

The balancer stores per-loop measured weights and serves predictions; the
actual cut-point computation is :func:`repro.util.blocks.partition_weighted`
(literally prefix sums + share-boundary search).
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import NULL_REGISTRY


class FeedbackBalancer:
    """Cross-instantiation state of the feedback-guided load balancer.

    ``order=1`` uses the last instantiation's measured times verbatim (the
    paper's first-order predictor).  ``order=2`` implements the announced
    improvement -- *"in the near future we will improve this technique by
    using higher order derivatives to better predict trends"* -- by linearly
    extrapolating each iteration's cost from its last two measurements:
    ``w_pred = w_last + (w_last - w_prev)``, clamped at zero.  On drifting
    workloads (e.g. tracks accreting work every time step) the second-order
    predictor removes the one-instantiation lag of the first-order one.
    """

    def __init__(self, order: int = 1, metrics=NULL_REGISTRY) -> None:
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        self.order = order
        self.metrics = metrics
        self._weights: dict[str, np.ndarray] = {}
        self._previous: dict[str, np.ndarray] = {}

    def record(self, loop_name: str, iteration_times: dict[int, float], n: int) -> None:
        """Store the measured per-iteration times of one instantiation.

        Iterations missing from ``iteration_times`` (possible only for
        degenerate zero-iteration runs) default to the mean measured time.
        """
        if n <= 0:
            return
        weights = np.zeros(n, dtype=np.float64)
        have = np.zeros(n, dtype=bool)
        for i, t in iteration_times.items():
            if 0 <= i < n:
                weights[i] = t
                have[i] = True
        if not have.any():
            return
        if not have.all():
            weights[~have] = weights[have].mean()
        if loop_name in self._weights:
            self._previous[loop_name] = self._weights[loop_name]
        self._weights[loop_name] = weights
        if self.metrics.enabled:
            self.metrics.counter("sched.feedback.recordings").inc()
            self.metrics.counter("sched.feedback.iterations_measured").inc(
                int(have.sum())
            )

    def predict(self, loop_name: str, n: int) -> np.ndarray | None:
        """Predicted per-iteration weights for the next instantiation.

        Returns ``None`` when no history exists (the caller falls back to an
        even partition).  When the iteration space changed size, the stored
        profile is rescaled by linear interpolation over normalized
        iteration positions -- the paper's "scale the block distribution
        accordingly".
        """
        history = self._weights.get(loop_name)
        if history is None or n <= 0:
            return None
        if self.metrics.enabled:
            self.metrics.counter("sched.feedback.predictions").inc()

        def resample(profile: np.ndarray) -> np.ndarray:
            if len(profile) == n:
                return profile.copy()
            old_pos = np.linspace(0.0, 1.0, len(profile))
            new_pos = np.linspace(0.0, 1.0, n)
            return np.interp(new_pos, old_pos, profile)

        last = resample(history)
        if self.order == 2 and loop_name in self._previous:
            prev = resample(self._previous[loop_name])
            return np.maximum(0.0, 2.0 * last - prev)
        return last

    def known_loops(self) -> list[str]:
        return sorted(self._weights)
