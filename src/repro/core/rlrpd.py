"""The Recursive LRPD test, blocked flavors (NRD / RD / adaptive).

The loop is enclosed in a while loop that repeats speculative
parallelization until all iterations commit (paper, Fig. 1(b)):

1. block-schedule the remaining iterations (policy-dependent);
2. checkpoint untested state; execute all blocks as a doall with
   privatization, on-demand copy-in and shadow marking;
3. analyze: find the earliest sink of any cross-processor flow arc;
4. commit every block before the earliest sink (last value), restore the
   untested state touched by the rest, re-initialize their shadows;
5. recurse on the remaining iterations.

Progress is guaranteed -- the lowest-ranked block of every stage cannot be a
dependence sink -- so the loop finishes in at most ``p`` stages under NRD
and at most ``n`` stages under RD.

The recursion itself lives in :class:`~repro.core.engine.StageEngine`; this
module contributes only the blocked *policy* -- how the remaining
iterations are scheduled and what redistribution costs -- as the
registered strategies ``nrd`` / ``rd`` / ``adaptive``.
"""

from __future__ import annotations

import numpy as np

from repro.config import RedistributionPolicy, RuntimeConfig, Strategy, TestCondition
from repro.core.engine import StageEngine, register_strategy
from repro.core.engine import Strategy as EngineStrategy
from repro.core.results import RunResult
from repro.core.stage import charge_redistribution, charge_redistribution_topo
from repro.errors import ConfigurationError, SpeculationError
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.machine.topology import Topology
from repro.util.blocks import Block, partition_even, partition_weighted


def partition_blocks(
    start: int,
    stop: int,
    procs: list[int],
    weights: np.ndarray | None,
) -> list[Block]:
    """Block ``[start, stop)`` over ``procs``: evenly, or balanced by the
    per-iteration ``weights`` when given."""
    if weights is None:
        return partition_even(start, stop, procs)
    return partition_weighted(start, stop, procs, weights[start:stop])


class BlockedBase(EngineStrategy):
    """Shared blocked policy: one block per processor, redistribution per
    the configured :class:`~repro.config.RedistributionPolicy`."""

    exit_mode = "collect"

    def __init__(self) -> None:
        self.pending: list[Block] = []  # failed blocks awaiting re-execution
        self._redistributing = False
        self._orphan_rebalanced = False

    @classmethod
    def default_config(cls, **overrides) -> RuntimeConfig:
        return RuntimeConfig.adaptive(**overrides)

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        if config.strategy is not Strategy.BLOCKED:
            raise ConfigurationError(f"run_blocked got strategy {config.strategy}")
        if config.condition is not TestCondition.COPY_IN:
            raise ConfigurationError(
                "the recursive test is defined over the copy-in condition; "
                "the privatization condition applies to the doall LRPD baseline"
            )
        if loop.inductions:
            raise ConfigurationError(
                f"loop {loop.name!r} declares induction variables; use "
                "repro.core.runner.parallelize (two-phase induction runner)"
            )

    def setup(self, eng: StageEngine) -> None:
        super().setup(eng)
        self.owner = np.full(eng.n, -1, dtype=np.int64)

    def schedule(self, eng: StageEngine) -> list[Block]:
        if eng.stage_idx == 0:
            blocks = partition_blocks(0, eng.n, eng.alive, eng.weights)
            self._redistributing = False
        else:
            policy = eng.config.redistribution
            if policy is RedistributionPolicy.ALWAYS:
                self._redistributing = True
            elif policy is RedistributionPolicy.ADAPTIVE:
                self._redistributing = eng.machine.costs.should_redistribute(
                    eng.n - eng.committed_upto, len(eng.alive)
                )
            else:
                self._redistributing = False
            if self._redistributing:
                blocks = partition_blocks(eng.committed_upto, eng.n, eng.alive, eng.weights)
            else:
                blocks = self.pending

        nonempty = [b for b in blocks if len(b)]
        self._orphan_rebalanced = False
        if (
            not self._redistributing
            and eng.degraded
            and any(b.proc not in eng.alive for b in nonempty)
        ):
            # NRD keeps failed blocks on their owners -- unless an owner is
            # dead.  The pending range is re-blocked once over the
            # survivors (a block cannot simply be handed to a survivor that
            # already holds one: a processor's shadow marks must form a
            # single analysis group).  Only the iterations that actually
            # moved are charged, below.
            nonempty = [
                b
                for b in partition_blocks(eng.committed_upto, eng.n, eng.alive, eng.weights)
                if len(b)
            ]
            self._orphan_rebalanced = True
        if not nonempty:
            raise SpeculationError(f"{eng.loop.name}: empty schedule with work left")
        return nonempty

    def charge_schedule(
        self, eng: StageEngine, blocks: list[Block]
    ) -> tuple[int, float]:
        machine = eng.machine
        if eng.weights is not None and eng.stage_idx == 0:
            # Timer instrumentation + parallel prefix of the balancer.
            machine.charge_global(
                Category.SCHEDULE,
                machine.costs.schedule_per_iter * eng.n / eng.n_procs,
            )
        redistributed = 0
        migration_distance = 0.0
        if eng.stage_idx > 0 and self._redistributing:
            if eng.topology is None:
                # Flat (ccUMA) machine: the Section 4 model's uniform
                # ell-per-iteration charge.
                redistributed = charge_redistribution(
                    machine,
                    ((b.proc, len(b)) for b in blocks),
                    machine.costs.ell,
                )
            else:
                redistributed, migration_distance = charge_redistribution_topo(
                    machine, blocks, self.owner
                )
        elif self._orphan_rebalanced:
            redistributed, migration_distance = charge_redistribution_topo(
                machine, blocks, self.owner
            )
        return redistributed, migration_distance

    def after_block(self, eng: StageEngine, pos: int, block: Block, ctx) -> None:
        if len(block):
            self.owner[block.start : block.stop] = block.proc

    def after_stage(self, eng, committing, failing, f_pos) -> None:
        self.pending = failing


@register_strategy
class BlockedNRD(BlockedBase):
    """No redistribution: failed processors re-execute their own blocks."""

    name = "nrd"

    @classmethod
    def default_config(cls, **overrides) -> RuntimeConfig:
        return RuntimeConfig.nrd(**overrides)


@register_strategy
class BlockedRD(BlockedBase):
    """Always redistribute: re-block the remainder over all processors."""

    name = "rd"

    @classmethod
    def default_config(cls, **overrides) -> RuntimeConfig:
        return RuntimeConfig.rd(**overrides)


@register_strategy
class AdaptiveBlocked(BlockedBase):
    """Redistribute while Eq. (4)'s payoff condition holds, then NRD."""

    name = "adaptive"


_POLICY_TO_STRATEGY = {
    RedistributionPolicy.NEVER: BlockedNRD,
    RedistributionPolicy.ALWAYS: BlockedRD,
    RedistributionPolicy.ADAPTIVE: AdaptiveBlocked,
}


def run_blocked(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    weights: np.ndarray | None = None,
    memory: MemoryImage | None = None,
    topology: "Topology | None" = None,
) -> RunResult:
    """Run one instantiation of ``loop`` under a blocked R-LRPD strategy.

    Parameters
    ----------
    weights:
        Optional per-iteration predicted times (length ``n_iterations``)
        from the feedback-guided load balancer; ``None`` means an even
        block partition.
    memory:
        Run against an existing shared-memory image instead of a fresh
        :meth:`~repro.loopir.loop.SpeculativeLoop.materialize` (program-level
        drivers thread state across loop invocations this way).
    topology:
        Optional machine topology: redistribution then costs
        ``ell * (1 + remote_factor * distance(previous owner, new proc))``
        per migrated iteration instead of a flat ``ell``, and each stage
        records its total migration distance.

    Returns the full :class:`~repro.core.results.RunResult`; the machine's
    final shared state is observable via ``result.memory``.
    """
    config = config or RuntimeConfig.adaptive()
    strategy = _POLICY_TO_STRATEGY[config.redistribution]()
    return StageEngine(
        loop, n_procs, strategy, config, costs=costs, weights=weights,
        memory=memory, topology=topology,
    ).run()
