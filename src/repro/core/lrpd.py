"""The classic (non-recursive) LRPD test -- the paper's own baseline.

Speculatively execute the whole loop as a doall; test afterwards; if the
test fails, restore state and re-execute the entire loop sequentially.
Fully parallel loops win big; a loop with even one cross-processor flow
dependence pays the full speculative attempt *plus* a sequential run -- the
slowdown the R-LRPD test was designed to eliminate.

Both test conditions are supported: the original privatization condition
and the weaker copy-in condition (Section 2's overhead-reduction step).

The doall LRPD test is the first stage of the R-LRPD recursion without
the recursion, so it runs on :class:`~repro.core.engine.StageEngine` as an
unregistered strategy: the speculative attempt is an ordinary engine stage
(every backend, fault plans and ``--self-check`` included), and a failed
attempt restores all processors and closes with one sequential stage.
"""

from __future__ import annotations

from repro.config import RuntimeConfig, TestCondition
from repro.core.analysis import doall_valid
from repro.core.engine import StageEngine, Strategy
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.loopir.context import SequentialContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.obs.events import Commit
from repro.util.blocks import Block, partition_even


def run_sequential_fallback(
    machine: Machine,
    loop: SpeculativeLoop,
) -> tuple[float, dict[int, float]]:
    """Execute the loop serially on processor 0, charging its full work.

    Returns ``(work time, per-iteration work times)``.
    """
    ctx = SequentialContext.for_loop(loop, machine.memory)
    iter_times: dict[int, float] = {}
    total = 0.0
    for i, t in ctx.run(loop, range(loop.n_iterations), machine.costs.omega):
        iter_times[i] = t
        total += t
    machine.charge(0, Category.WORK, total)
    return total, iter_times


class DoallLRPD(Strategy):
    """One speculative doall stage; a sequential stage if it fails.

    Not registered: the baseline is reachable through
    :func:`run_doall_lrpd` only, never via ``--strategy``.
    """

    name = "lrpd-doall"
    # The plain doall LRPD predates the premature-exit technique: a loop
    # that exits early fails speculation and re-runs sequentially.
    exit_mode = "ignore"
    saw_exit = False
    sink: int | None = None  # the failed test's earliest sink, as recorded

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        if loop.inductions:
            raise ConfigurationError(
                f"loop {loop.name!r} declares induction variables; the doall "
                "baseline does not support speculative inductions"
            )

    def run_label(self, eng: StageEngine) -> str:
        return f"LRPD-doall({eng.config.condition.value})"

    def schedule(self, eng: StageEngine) -> list[Block]:
        return [b for b in partition_even(0, eng.n, eng.alive) if len(b)]

    def after_block(self, eng: StageEngine, pos: int, block: Block, ctx) -> None:
        self.saw_exit = self.saw_exit or ctx.exit_iteration is not None

    def analyze(self, eng: StageEngine, blocks: list[Block]):
        sink, n_arcs = super().analyze(eng, blocks)
        condition = eng.config.condition
        # Under copy-in the verdict is the analysis' own (no cross-block
        # flow arc); only the privatization condition needs its own pass.
        valid = not (self.saw_exit or eng.faulted) and (
            sink is None if condition is TestCondition.COPY_IN
            else doall_valid(
                [(b.proc, eng.states[b.proc].shadows) for b in blocks], condition
            )
        )
        # All or nothing: a failed test fails every block.
        self.sink = None if valid else sink
        return (None if valid else 0), n_arcs

    def commit_point(self, eng: StageEngine, blocks: list[Block], f_pos):
        return self.sink, eng.n if f_pos is None else eng.committed_upto

    def zero_commit(self, eng: StageEngine, fault_caused: bool) -> bool:
        return False  # no retry: the sequential fallback follows

    def after_stage(self, eng: StageEngine, committing, failing, f_pos) -> None:
        if f_pos is None:
            return
        # Speculation failed: the whole loop re-runs serially, as one stage.
        stage = eng.open_stage([])
        work, eng.final_iter_times = run_sequential_fallback(eng.machine, eng.loop)
        eng.sequential_work += work
        eng.emit(Commit(
            stage=stage, iterations=eng.n, elements=0, work=work,
            committed_upto=eng.n,
        ))
        eng.committed_upto = eng.n
        eng.close_stage([], eng.n, work=work)


def run_doall_lrpd(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """One speculative doall attempt; sequential re-execution on failure.

    Runs on any execution backend and honors fault plans and
    ``--self-check`` like the engine's registered strategies.
    """
    config = config or RuntimeConfig.nrd()
    return StageEngine(
        loop, n_procs, DoallLRPD(), config, costs=costs, memory=memory,
    ).run()
