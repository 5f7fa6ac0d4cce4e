"""The Sliding Window (SW) strategy.

Instead of distributing the whole iteration space at once, the speculative
execution is strip-mined: fixed-size *super-iterations* (contiguous blocks
of ``b`` iterations) are assigned to processors circularly -- block ``j``
runs on processor ``j mod p`` -- and the R-LRPD test is applied to each
window of ``p`` consecutive blocks.  After the analysis phase the commit
point advances past every block before the earliest dependence sink; failed
blocks are re-executed *on their originally assigned processor* (locality),
joined by the next new blocks to refill the window.

Trade-offs faithfully modeled (Section 2): one barrier and one analysis
pass per strip (a fully parallel loop pays ``n / (p*b)`` synchronizations
instead of one), against far fewer re-executed iterations when dependences
are present; elements reused in every iteration are re-analyzed in every
window.

With ``adaptive_window`` the super-iteration size is doubled after a failed
window (many close dependences: bigger blocks internalize short-distance
arcs) -- the paper's history-based block-size adjustment.

The stage lifecycle itself runs in :class:`~repro.core.engine.StageEngine`;
this module contributes only the circular window policy, registered as
``sw``.
"""

from __future__ import annotations

from repro.config import RuntimeConfig, Strategy
from repro.core.engine import StageEngine, register_strategy
from repro.core.engine import Strategy as EngineStrategy
from repro.core.results import RunResult
from repro.errors import ConfigurationError, SpeculationError
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.util.blocks import Block


def default_window(n_procs: int) -> int:
    """Default window: two super-iterations of one iteration per processor
    would be degenerate; use 2 iterations per processor."""
    return 2 * n_procs


@register_strategy
class SlidingWindow(EngineStrategy):
    """Circular super-iteration assignment with in-place re-execution."""

    name = "sw"

    def __init__(self) -> None:
        self.window = 0
        self.b = 1  # super-iteration size
        # Block grid anchor: blocks are [anchor + j*b, anchor + (j+1)*b).
        # The anchor moves only when the adaptive policy re-grids after a
        # failure.
        self.anchor = 0

    @classmethod
    def default_config(cls, **overrides) -> RuntimeConfig:
        return RuntimeConfig.sw(**overrides)

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        if config.strategy is not Strategy.SLIDING_WINDOW:
            raise ConfigurationError(
                f"the sliding-window test got strategy {config.strategy}"
            )
        if loop.inductions:
            raise ConfigurationError(
                f"loop {loop.name!r} declares induction variables, which the "
                "sliding-window test does not support"
            )

    def setup(self, eng: StageEngine) -> None:
        super().setup(eng)
        self.window = eng.config.window_size or default_window(eng.n_procs)
        self.b = max(1, self.window // eng.n_procs)

    def run_label(self, eng: StageEngine) -> str:
        if eng.config.window_size:
            return eng.config.label()
        return f"SW(w={self.window})"

    def _block_at(self, eng: StageEngine, j: int) -> Block:
        # Circular assignment over the *surviving* processors: after a
        # permanent fail-stop the rotation simply skips the dead slots.
        start = min(self.anchor + j * self.b, eng.n)
        stop = min(start + self.b, eng.n)
        return Block(eng.alive[j % len(eng.alive)], start, stop)

    def schedule(self, eng: StageEngine) -> list[Block]:
        j0 = (eng.committed_upto - self.anchor) // self.b
        window_blocks = []
        for j in range(j0, j0 + len(eng.alive)):
            blk = self._block_at(eng, j)
            if len(blk) == 0:
                break
            window_blocks.append(blk)
        if not window_blocks:
            raise SpeculationError(f"{eng.loop.name}: empty window with work left")
        return window_blocks

    def after_stage(self, eng, committing, failing, f_pos) -> None:
        if committing and f_pos is not None and eng.config.adaptive_window:
            # Many close dependences (a stage that committed nothing was
            # wiped out by faults instead): grow the super-iteration so short
            # arcs fall inside one block.  Re-grid from the commit point.
            p_now = len(eng.alive)
            self.b = min(
                self.b * 2,
                max(1, (eng.n - eng.committed_upto + p_now - 1) // p_now or 1),
            )
            self.anchor = eng.committed_upto


def run_sliding_window(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """Run one instantiation of ``loop`` under the sliding-window R-LRPD."""
    config = config or RuntimeConfig.sw()
    return StageEngine(
        loop, n_procs, SlidingWindow(), config, costs=costs, memory=memory,
    ).run()
