"""Two-phase speculative parallelization of loops with conditional inductions.

TRACK's EXTEND 400 (and the similar FPTRAK 300) index their arrays with a
counter that is incremented under a loop-variant condition, so no processor
knows its starting counter value in advance.  The paper's recipe
(Section 5.2, "EXTEND 400"):

1. **Range-collection doall** -- every processor speculatively executes its
   block with the counter starting at the shared base value (zero-relative
   offset), entirely in private storage, while the runtime records each
   processor's total increment count and the array reference ranges.
2. A **parallel prefix sum** over the increment counts yields each
   processor's true starting offset.
3. **Re-execution doall** with corrected offsets; the standard processor-
   wise copy-in test then verifies that no read intersects a write from a
   lower processor ("maximum read index < minimum write index" in the
   paper's range formulation); last-value commit follows.

If the test fails at some processor, the R-LRPD recursion applies: the
valid prefix commits and both phases repeat on the remainder (with the
committed counter value as the new base).  A processor whose increment
count differs between the two phases read data whose location depended on
the counter; it is conservatively treated as a dependence sink.

The recursion runs in :class:`~repro.core.engine.StageEngine`; this module
contributes the two-phase policy (range collection as a ``pre_stage``,
offset-corrected re-execution, increment-mismatch sinks), registered as
``induction``.
"""

from __future__ import annotations

from repro.config import RuntimeConfig
from repro.core.backend import BlockTask
from repro.core.engine import StageEngine, register_strategy
from repro.core.engine import Strategy as EngineStrategy
from repro.core.executor import make_processor_state
from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.obs.events import BlockExecuted
from repro.util.blocks import Block, partition_even


@register_strategy
class InductionTwoPhase(EngineStrategy):
    """Range-collection doall + prefix sum + offset-corrected re-execution."""

    name = "induction"
    exit_mode = "ignore"
    preloads = False  # phase B always starts cold: offsets correct the copy-in

    def __init__(self) -> None:
        self.ivar_base: dict[str, int] = {}
        self._increments: dict[int, dict[str, int]] = {}
        self._offsets: dict[int, dict[str, int]] = {}
        self._finals: dict[int, dict[str, int]] = {}

    @classmethod
    def default_config(cls, **overrides) -> RuntimeConfig:
        return RuntimeConfig.rd(**overrides)

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        if not loop.inductions:
            raise ConfigurationError(
                f"loop {loop.name!r} has no induction variables; use run_blocked"
            )

    def setup(self, eng: StageEngine) -> None:
        # Phase B creates fresh states per stage (the surviving pool may
        # have shrunk); nothing persists across stages but the counter base.
        self.ivar_base = eng.loop.initial_inductions()

    def run_label(self, eng: StageEngine) -> str:
        return "R-LRPD+induction"

    def schedule(self, eng: StageEngine) -> list[Block]:
        eng.states = {
            p: make_processor_state(eng.machine, eng.loop, p) for p in eng.alive
        }
        self._finals = {}
        blocks = partition_even(eng.committed_upto, eng.n, eng.alive)
        return [b for b in blocks if len(b)]

    def pre_stage(self, eng: StageEngine, blocks: list[Block]) -> None:
        """Phase A: side-effect-free range collection, its own stage.

        Faults strike phase B only: range collection is a private doall, so
        the interesting failure surface -- speculative state that must be
        rolled back -- exists only in the re-execution.
        """
        stage = eng.open_stage(blocks)
        # Range collection is itself a doall, so it goes through the
        # execution backend like any speculative stage.  ``all_private``
        # states keep even untested writes out of shared memory, and
        # faults out of phase A.
        outcomes = eng.execute_tasks([
            BlockTask(
                stage=stage, pos=pos, block=block,
                inductions=dict(self.ivar_base), all_private=True,
            )
            for pos, block in enumerate(blocks)
        ])
        increments: dict[int, dict[str, int]] = {}
        for outcome in outcomes:
            block = outcome.block
            finals = outcome.induction_values()
            increments[block.proc] = {
                name: finals[name] - self.ivar_base[name] for name in self.ivar_base
            }
            eng.emit(BlockExecuted(
                stage=stage, pos=outcome.pos, proc=block.proc,
                start=block.start, stop=block.stop,
            ))
        eng.machine.barrier()
        # Range collection is a *planned* extra doall, not a failed
        # speculation: it does not count as a restart for PR (the doubled
        # execution time already shows up in the speedup).
        eng.close_stage(blocks, 0)
        self._increments = increments

        # Prefix sums give per-processor starting offsets.
        offsets: dict[int, dict[str, int]] = {}
        running = {name: 0 for name in self.ivar_base}
        for block in blocks:
            offsets[block.proc] = dict(running)
            for name in self.ivar_base:
                running[name] += increments[block.proc][name]
        self._offsets = offsets

    def task_inputs(self, eng: StageEngine, pos: int, block: Block):
        return {
            name: self.ivar_base[name] + self._offsets[block.proc][name]
            for name in self.ivar_base
        }, None

    def after_block(self, eng: StageEngine, pos: int, block: Block, ctx) -> None:
        self._finals[block.proc] = ctx.induction_values()

    def analyze(
        self, eng: StageEngine, blocks: list[Block]
    ) -> tuple[int | None, int]:
        f_pos, n_arcs = super().analyze(eng, blocks)
        # An increment mismatch means the counter's control flow read data
        # whose address depended on the counter -- treat as a sink.  A
        # faulted block's counter is untrusted garbage, not a mismatch; the
        # fault merge already forces its re-execution.
        for pos, block in enumerate(blocks):
            if pos in eng.faulted:
                continue
            expected = {
                name: self.ivar_base[name]
                + self._offsets[block.proc][name]
                + self._increments[block.proc][name]
                for name in self.ivar_base
            }
            if self._finals[block.proc] != expected:
                f_pos = pos if f_pos is None else min(f_pos, pos)
                break
        return f_pos, n_arcs

    def after_stage(self, eng, committing, failing, f_pos) -> None:
        # Advance the committed counter values past the committing prefix.
        for block in committing:
            for name in self.ivar_base:
                self.ivar_base[name] += self._increments[block.proc][name]

    def result_extras(self, eng: StageEngine) -> dict:
        return {"induction_finals": dict(self.ivar_base)}


def run_induction(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """Parallelize a loop with speculative induction variables."""
    config = config or RuntimeConfig.rd()
    return StageEngine(
        loop, n_procs, InductionTwoPhase(), config, costs=costs, memory=memory,
    ).run()
