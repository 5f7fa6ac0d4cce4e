"""Virtual-clock timeline with per-stage, per-processor, per-category accounting.

The paper's Fig. 4 plots, for every restart of the R-LRPD test, the time
spent in the actual loop versus synchronization and redistribution overhead.
To regenerate that breakdown the simulator records every charge as a
``(stage, proc, category, amount)`` sample and derives stage times with the
correct parallel semantics:

* processors within a stage run concurrently, so a stage's *execution* span
  is the **max** over participating processors of their summed charges;
* the serial phases of a stage (barrier, sequential decisions) are global
  charges attributed to ``proc = GLOBAL``;
* commit and restore run concurrently on the two disjoint processor groups
  (paper, Section 4), which falls out naturally from the max-over-procs rule.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field


GLOBAL = -1
"""Pseudo-processor id for charges serialized across the whole machine."""


class Category(enum.Enum):
    """What a virtual-time charge pays for."""

    WORK = "work"                    # useful iteration computation (omega)
    MARK = "mark"                    # shadow marking per reference
    COPY_IN = "copy_in"              # on-demand copy-in of shared data
    ANALYSIS = "analysis"            # post-loop dependence analysis
    COMMIT = "commit"                # private -> shared last-value copy-out
    RESTORE = "restore"              # checkpoint restoration
    CHECKPOINT = "checkpoint"        # saving untested state
    REINIT = "reinit"                # shadow re-initialization
    REDISTRIBUTION = "redistribution"  # migrating iterations between procs
    SYNC = "sync"                    # barrier synchronization
    SCHEDULE = "schedule"            # feedback-guided re-blocking (prefix sums)

    # Members are singletons, so identity hashing is exact and runs at C
    # speed (Enum's own __hash__ is Python code, called on every charge).
    # Charge dicts keep insertion order, so no sum changes order.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class StageRecord:
    """Accumulated charges for one speculative stage."""

    index: int
    per_proc: dict[int, dict[Category, float]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(float))
    )

    def charge(self, proc: int, category: Category, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"negative charge {amount} for {category}")
        self.per_proc[proc][category] += amount

    def settle(self, proc: int, totals) -> None:
        """Overwrite ``proc``'s running totals with ``(category, total)``
        pairs: a block's charges folded on top of the totals it started
        from, the bulk equivalent of one :meth:`charge` per access (see
        :class:`~repro.core.executor.SpeculativeContext`)."""
        charges = self.per_proc[proc]
        for category, total in totals:
            if total < 0:
                raise ValueError(f"negative total {total} for {category}")
            charges[category] = total

    def proc_time(self, proc: int) -> float:
        return sum(self.per_proc.get(proc, {}).values())

    def span(self) -> float:
        """Wall-clock span of the stage: max concurrent processor time plus
        all globally serialized charges."""
        parallel = max(
            (self.proc_time(p) for p in self.per_proc if p != GLOBAL),
            default=0.0,
        )
        return parallel + self.proc_time(GLOBAL)

    def category_total(self, category: Category) -> float:
        return sum(
            charges.get(category, 0.0) for charges in self.per_proc.values()
        )

    def category_span(self, category: Category) -> float:
        """Wall-clock contribution of one category (max over processors,
        plus the global share)."""
        parallel = max(
            (
                self.per_proc[p].get(category, 0.0)
                for p in self.per_proc
                if p != GLOBAL
            ),
            default=0.0,
        )
        return parallel + self.per_proc.get(GLOBAL, {}).get(category, 0.0)

    def breakdown(self) -> dict[Category, float]:
        """Per-category wall-clock spans for this stage (Fig. 4(a) rows)."""
        return {c: self.category_span(c) for c in Category if self.category_total(c)}


class Timeline:
    """Ordered collection of :class:`StageRecord` with summary queries."""

    def __init__(self) -> None:
        self._stages: list[StageRecord] = []
        # virtual_now() cache: spans of all stages *before* the current one
        # are immutable once the next stage begins, so their sum is cached
        # keyed by the stage count.
        self._closed_span_sum = 0.0
        self._closed_span_count = 0

    # -- recording -----------------------------------------------------------

    def begin_stage(self) -> StageRecord:
        record = StageRecord(index=len(self._stages))
        self._stages.append(record)
        return record

    @property
    def current(self) -> StageRecord:
        if not self._stages:
            raise RuntimeError("no stage has been started")
        return self._stages[-1]

    # -- queries --------------------------------------------------------------

    @property
    def stages(self) -> list[StageRecord]:
        return list(self._stages)

    def n_stages(self) -> int:
        return len(self._stages)

    def total_time(self) -> float:
        """End-to-end virtual time: stages execute back to back."""
        return sum(stage.span() for stage in self._stages)

    def virtual_now(self) -> float:
        """Current virtual time: completed stages back to back plus the
        in-flight stage's span so far.  This is the span layer's second
        clock (:mod:`repro.obs.spans`); deterministic by construction."""
        closed = len(self._stages) - 1
        if closed < 0:
            return 0.0
        if closed != self._closed_span_count:
            self._closed_span_sum = sum(
                stage.span() for stage in self._stages[:closed]
            )
            self._closed_span_count = closed
        return self._closed_span_sum + self._stages[-1].span()

    def total_category(self, category: Category) -> float:
        """Summed wall-clock contribution of a category across stages."""
        return sum(stage.category_span(category) for stage in self._stages)

    def charged_category(self, category: Category) -> float:
        """Total charges of a category across all processors and stages
        (resource consumption, not wall-clock)."""
        return sum(stage.category_total(category) for stage in self._stages)

    def overhead_time(self) -> float:
        """Everything except useful work, in wall-clock terms."""
        return self.total_time() - self.total_category(Category.WORK)

    def cumulative_spans(self) -> list[float]:
        """Running total time after each stage (Fig. 4(b) series)."""
        out: list[float] = []
        acc = 0.0
        for stage in self._stages:
            acc += stage.span()
            out.append(acc)
        return out
