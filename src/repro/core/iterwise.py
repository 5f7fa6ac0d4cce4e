"""The iteration-wise Recursive LRPD test.

The paper's processor-wise test commits at *processor* granularity: the
earliest sink processor's whole block re-executes, even its iterations
before the actual dependence sink.  The original LRPD test marks at
iteration granularity; applied recursively, the analysis can advance the
commit point to the exact sink *iteration* -- committing a prefix of the
failing processor's block -- at the price of iteration-level shadow
structures (the N-level mark list with per-write value logs) whose memory
and analysis cost are proportional to the reference trace, which is the
very overhead the processor-wise simplification avoids (Section 2).

This module implements that finer-granularity variant as an extension, so
the trade-off is measurable: fewer re-executed iterations per failure
against higher marking/analysis volume.

Running on :class:`~repro.core.engine.StageEngine` (as the registered
``iterwise`` strategy) gives this variant the full shared lifecycle --
including fault injection, pool shrink on permanent deaths, zero-commit
retry bounds and the ``--self-check`` oracle, none of which the
pre-engine driver had.  When a fault forces the failure point below the
analysis sink, the partial-prefix commit is clamped to the faulted
block's start (a faulted block's value log is untrusted).
"""

from __future__ import annotations

import math

from repro.config import RuntimeConfig, Strategy
from repro.core.commit import commit_states
from repro.core.engine import StageEngine, register_strategy
from repro.core.results import RunResult
from repro.core.rlrpd import BlockedBase
from repro.errors import ConfigurationError
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.shadow.marklist import MarkList
from repro.util.blocks import Block


def _iterwise_analysis(
    blocks: list[Block],
    marklists: dict[int, dict[str, MarkList]],
    skip: frozenset[int] = frozenset(),
) -> tuple[int | None, int]:
    """Earliest sink *iteration* over all cross-processor flow arcs.

    Scans blocks in iteration order, maintaining the earliest writing
    iteration per element; an exposed read on a *different* processor than
    the writer is an arc.  ``skip`` holds faulted block positions, whose
    mark lists are truncated (fail-stop) or untrusted (corrupt write); the
    fault merge forces everything from the first faulted position to
    re-execute, so their marks must not influence the verdict.  Returns
    ``(sink_iteration | None, n_arcs)``.
    """
    writer: dict[tuple[str, int], tuple[int, int]] = {}  # addr -> (iter, proc)
    sink: int | None = None
    n_arcs = 0
    for pos, block in enumerate(blocks):
        if pos in skip:
            continue
        lists = marklists[block.proc]
        for k, i in enumerate(block.iterations()):
            if sink is not None and i >= sink:
                break
            for name, ml in lists.items():
                marks = ml.level(k)
                for index in marks.exposed_reads | marks.updates:
                    hit = writer.get((name, index))
                    if hit is not None and hit[1] != block.proc:
                        n_arcs += 1
                        if sink is None or i < sink:
                            sink = i
            for name, ml in lists.items():
                marks = ml.level(k)
                for index in marks.writes | marks.updates:
                    writer.setdefault((name, index), (i, block.proc))
    return sink, n_arcs


def _commit_prefix(
    machine: Machine,
    loop: SpeculativeLoop,
    block: Block,
    marklists: dict[str, MarkList],
    upto: int,
) -> int:
    """Commit iterations ``[block.start, upto)`` of one block from the
    per-iteration value logs (in order, so last value wins)."""
    n_elems = 0
    for k, i in enumerate(block.iterations()):
        if i >= upto:
            break
        for name, ml in marklists.items():
            marks = ml.level(k)
            data = machine.memory[name].data
            for index, value in marks.values.items():
                data[index] = value
                n_elems += 1
    if n_elems:
        machine.charge(block.proc, Category.COMMIT, machine.costs.commit_per_elem * n_elems)
    return n_elems


@register_strategy
class IterwiseBlocked(BlockedBase):
    """The blocked schedule with iteration-granularity commit."""

    name = "iterwise"
    exit_mode = "reject"
    preloads = False  # per-iteration value logs subsume bulk pre-initialization

    def __init__(self) -> None:
        super().__init__()
        self.marklists: dict[int, dict[str, MarkList]] = {}
        self._sink: int | None = None  # earliest sink iteration this stage
        self._pos: int | None = None  # its block position
        self._partial: Block | None = None

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        if config.strategy is not Strategy.BLOCKED:
            raise ConfigurationError("run_blocked_iterwise needs a blocked strategy")
        if loop.inductions:
            raise ConfigurationError("iteration-wise test does not support inductions")
        if loop.untested_names:
            raise ConfigurationError(
                "iteration-wise commit requires all arrays tested; declare "
                f"{loop.untested_names} tested or use the processor-wise test"
            )
        if loop.reductions:
            raise ConfigurationError(
                "iteration-wise commit does not support reductions yet"
            )

    def run_label(self, eng: StageEngine) -> str:
        return f"R-LRPD-iterwise({eng.config.label()})"

    def charge_schedule(
        self, eng: StageEngine, blocks: list[Block]
    ) -> tuple[int, float]:
        # The iteration-wise cost model never charged re-blocking a dead
        # owner's iterations (the processor-wise NRD charges the moves).
        if self._orphan_rebalanced:
            return 0, 0.0
        return super().charge_schedule(eng, blocks)

    def task_inputs(self, eng: StageEngine, pos: int, block: Block):
        return None, {
            name: MarkList(name, block.proc, log_values=True)
            for name in eng.loop.tested_names
        }

    def after_block(self, eng: StageEngine, pos: int, block: Block, ctx) -> None:
        super().after_block(eng, pos, block, ctx)
        self.marklists[block.proc] = ctx.marklists
        # Iteration-level marking costs an extra pass over the marks.
        extra_refs = sum(m.distinct_refs() for m in ctx.marklists.values())
        eng.machine.charge(
            block.proc, Category.MARK, eng.machine.costs.mark * extra_refs
        )

    def analyze(
        self, eng: StageEngine, blocks: list[Block]
    ) -> tuple[int | None, int]:
        sink, n_arcs = _iterwise_analysis(
            blocks, self.marklists, skip=frozenset(eng.faulted)
        )
        # Iteration-level analysis scans every level, not distinct refs.
        log_p = max(1.0, math.log2(max(1, len(blocks))))
        for block in blocks:
            refs = sum(
                m.distinct_refs() for m in self.marklists[block.proc].values()
            )
            eng.machine.charge(
                block.proc, Category.ANALYSIS,
                eng.machine.costs.analysis_per_ref * refs * log_p,
            )
        self._sink = sink
        # Block-position failure point: first block not entirely before the
        # sink iteration (the engine's commit split works on positions).
        self._pos = None if sink is None else sum(1 for b in blocks if b.stop <= sink)
        return self._pos, n_arcs

    def commit_point(
        self, eng: StageEngine, blocks: list[Block], f_pos: int | None
    ) -> tuple[int | None, int]:
        if f_pos != self._pos:
            # A fault forced the failure point below the analysis sink; the
            # faulted block's value log is untrusted: clamp the commit
            # point to its start (no partial prefix).
            self._sink = blocks[f_pos].start
        # The sink recorded is an iteration, not a block position.
        return self._sink, eng.n if self._sink is None else self._sink

    def commit(
        self, eng: StageEngine, committing: list[Block], failing: list[Block]
    ) -> tuple[int, float]:
        machine, loop = eng.machine, eng.loop
        committed_elements = commit_states(
            machine, loop, [eng.states[b.proc] for b in committing]
        )
        stage_work = 0.0
        for block in committing:
            times = eng.states[block.proc].iter_times
            works = eng.states[block.proc].iter_work
            for i in block.iterations():
                eng.final_iter_times[i] = times[i]
                stage_work += works[i]
        sink = self._sink
        partial = None
        if sink is not None:
            partial = next(
                (b for b in failing if b.start <= sink < b.stop), None
            )
        if partial is not None and sink is not None and sink > partial.start:
            committed_elements += _commit_prefix(
                machine, loop, partial, self.marklists[partial.proc], sink
            )
            times = eng.states[partial.proc].iter_times
            works = eng.states[partial.proc].iter_work
            for i in range(partial.start, sink):
                eng.final_iter_times[i] = times[i]
                stage_work += works[i]
        self._partial = partial
        return committed_elements, stage_work

    def after_stage(self, eng, committing, failing, f_pos) -> None:
        # NRD continuation: the partial block's remainder plus the failing
        # blocks re-execute in place.
        pending: list[Block] = []
        if self._partial is not None:
            pending.append(
                Block(self._partial.proc, eng.committed_upto, self._partial.stop)
            )
        pending.extend(b for b in failing if b is not self._partial)
        self.pending = pending
        self._partial = None


def run_blocked_iterwise(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """Blocked R-LRPD with iteration-granularity commit.

    Like :func:`repro.core.rlrpd.run_blocked`, but the commit point moves
    to the exact earliest sink iteration.  Untested arrays and reductions
    are not supported at iteration granularity (partial-block commit would
    need per-iteration logs for them as well); loops using them should run
    under the processor-wise test.
    """
    config = config or RuntimeConfig.adaptive()
    return StageEngine(
        loop, n_procs, IterwiseBlocked(), config, costs=costs, memory=memory,
    ).run()
