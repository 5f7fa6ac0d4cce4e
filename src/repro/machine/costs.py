"""Virtual-time cost model.

Section 4 of the paper models the R-LRPD test with three primary constants:

* ``omega`` -- useful computation per iteration,
* ``ell``   -- cost of redistributing one iteration's data to another
  processor (dominated by remote cache misses on the ccUMA test-bed),
* ``sync``  -- cost of one barrier synchronization ``s``.

The remaining constants price the runtime overheads the paper describes
qualitatively: marking a reference in the shadow structures, the analysis
phase (proportional to distinct marked references per processor and to
``log2 p``), commit (per written element), restoration of checkpointed
state (per element), and checkpointing itself.  All are per-unit costs in
the same arbitrary time unit as ``omega``; the defaults make one iteration
of useful work ~50x a single marking operation, in line with the paper's
measured overheads being a modest fraction of loop time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-unit virtual-time costs for the simulated machine."""

    omega: float = 1.0
    """Default useful work per iteration (workloads may scale per iteration)."""

    ell: float = 0.25
    """Redistribution cost per migrated iteration (remote misses included)."""

    sync: float = 4.0
    """Barrier synchronization cost ``s`` (charged once per stage)."""

    mark: float = 0.02
    """Shadow-marking cost per instrumented reference."""

    copy_in: float = 0.02
    """On-demand copy-in of one shared element into private storage
    (a dependent, effectively random remote read)."""

    bulk_copy_per_elem: float = 0.005
    """Pre-initialization copy of one element (streaming bulk copy:
    cheaper per element than a demand miss, but paid for *every* element
    of the array -- the trade-off behind the paper's preference for
    on-demand copy-in)."""

    analysis_per_ref: float = 0.01
    """Analysis-phase cost per distinct marked reference (x ``log2 p``)."""

    commit_per_elem: float = 0.01
    """Commit (private -> shared last-value copy) cost per element."""

    restore_per_elem: float = 0.01
    """Restoration cost per element copied back from a checkpoint."""

    checkpoint_per_elem: float = 0.01
    """Checkpoint cost per element saved (full or on-demand)."""

    reinit_per_elem: float = 0.002
    """Shadow re-initialization cost per element between stages."""

    schedule_per_iter: float = 0.002
    """Feedback-guided re-blocking (timer reads + parallel prefix) per
    iteration, divided by ``p`` (the prefix routine is parallel)."""

    def __post_init__(self) -> None:
        for field in (
            "omega",
            "ell",
            "sync",
            "mark",
            "copy_in",
            "bulk_copy_per_elem",
            "analysis_per_ref",
            "commit_per_elem",
            "restore_per_elem",
            "checkpoint_per_elem",
            "reinit_per_elem",
            "schedule_per_iter",
        ):
            value = getattr(self, field)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"cost {field}={value!r} must be a finite number")
            if value < 0:
                raise ValueError(f"cost {field}={value} must be non-negative")

    def analysis_cost(self, distinct_refs: int, n_procs: int) -> float:
        """Analysis-phase time for one processor's shadow.

        The paper: *"proportional to the number of distinct memory
        references marked on each processor and to the (logarithm of the)
        number of processors that have participated"* (Section 4).
        """
        if distinct_refs < 0:
            raise ValueError("distinct_refs must be non-negative")
        log_p = max(1.0, math.log2(max(1, n_procs)))
        return self.analysis_per_ref * distinct_refs * log_p

    def should_redistribute(self, remaining_iters: int, n_procs: int) -> bool:
        """The run-time adaptive redistribution test, Eq. (4):

        redistribute while ``n_kd >= p*s / (omega - ell)``; once the
        remaining work drops below that threshold (or redistribution costs
        as much as the work itself, ``omega <= ell``), stop.
        """
        if self.omega <= self.ell:
            return False
        threshold = n_procs * self.sync / (self.omega - self.ell)
        return remaining_iters >= threshold
