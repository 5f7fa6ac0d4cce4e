"""Data-dependence-graph extraction with the sliding-window R-LRPD test.

For loops whose dependence structure makes the plain R-LRPD schedule nearly
sequential (e.g. SPICE's sparse LU factorization, partially parallel with a
short critical path), Section 3 extracts the full iteration DDG instead:

* the shadow is organized as an N-level *mark list* (one level per
  iteration assigned to a processor);
* a *last reference table* maintains the last committed write (and read)
  of each memory address, detecting cross-window dependences;
* every discovered dependence is logged into the *inverted edge table*.

Extraction rides on the normal sliding-window execution: only committed
(provably correct) iterations contribute edges and last-reference entries;
failed blocks are re-executed and their edges re-discovered.  The result is
the exact DDG of the loop *for this input*, which the wavefront scheduler
(:mod:`repro.core.wavefront`) turns into an optimized schedule -- reusable
across instantiations as long as the access pattern (e.g. the circuit
topology) is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.config import RuntimeConfig
from repro.core.engine import StageEngine
from repro.core.results import RunResult
from repro.core.window import SlidingWindow
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.shadow.edges import DependenceEdge, EdgeKind, InvertedEdgeTable
from repro.shadow.lastref import LastReferenceTable
from repro.shadow.marklist import IterationMarks, MarkList
from repro.util.blocks import Block


@dataclass
class DDGResult:
    """Extracted dependence graph plus the run that produced it."""

    loop_name: str
    n_iterations: int
    edges: InvertedEdgeTable
    extraction: RunResult

    def graph(self) -> nx.DiGraph:
        return self.edges.to_graph(self.n_iterations)

    def flow_pairs(self) -> set[tuple[int, int]]:
        return self.edges.iteration_pairs([EdgeKind.FLOW])


def _log_iteration_edges(
    edges: InvertedEdgeTable,
    lastref: LastReferenceTable,
    iteration: int,
    marks_by_array: dict[str, IterationMarks],
) -> None:
    """Log edges ending at ``iteration`` and update the last-reference table.

    Reduction updates are treated conservatively as read-modify-writes for
    graph purposes (commuting them is a scheduling extension, not needed for
    correctness of the wavefront order).
    """
    for name, marks in marks_by_array.items():
        reads = marks.exposed_reads | marks.updates
        writes = marks.writes | marks.updates
        for index in reads:
            w = lastref.last_write(name, index)
            if w is not None and w < iteration:
                edges.log(DependenceEdge(w, iteration, EdgeKind.FLOW, name, index))
        for index in writes:
            for r in lastref.readers_since_write(name, index):
                if r < iteration:
                    edges.log(
                        DependenceEdge(r, iteration, EdgeKind.ANTI, name, index)
                    )
            w = lastref.last_write(name, index)
            if w is not None and w < iteration:
                edges.log(DependenceEdge(w, iteration, EdgeKind.OUTPUT, name, index))
    for name, marks in marks_by_array.items():
        for index in marks.exposed_reads | marks.updates:
            lastref.record_read(name, index, iteration)
        for index in marks.writes | marks.updates:
            lastref.record_write(name, index, iteration)


class DDGExtraction(SlidingWindow):
    """The sliding-window strategy, logging edges as iterations commit.

    Every block executes with one mark list per tested array; the lists
    the backend returns are adopted per block, and after each stage the
    committing blocks' iterations are logged in order.  Not registered:
    reachable through :func:`extract_ddg` only.
    """

    name = "sw-ddg"

    def __init__(self) -> None:
        super().__init__()
        self.edges = InvertedEdgeTable()
        self.lastref = LastReferenceTable()
        self.marklists: dict[int, dict[str, MarkList]] = {}

    def run_label(self, eng: StageEngine) -> str:
        return f"SW-DDG(w={self.window})"

    def task_inputs(self, eng: StageEngine, pos: int, block: Block):
        return None, {
            name: MarkList(name, block.proc) for name in eng.loop.tested_names
        }

    def after_block(self, eng: StageEngine, pos: int, block: Block, ctx) -> None:
        self.marklists[block.proc] = ctx.marklists

    def after_stage(self, eng, committing, failing, f_pos) -> None:
        # Harvest edges from the committed (correct) iterations, in order.
        for block in committing:
            lists = self.marklists[block.proc]
            for k, i in enumerate(block.iterations()):
                marks = {name: ml.level(k) for name, ml in lists.items()}
                _log_iteration_edges(self.edges, self.lastref, i, marks)
        super().after_stage(eng, committing, failing, f_pos)


def extract_ddg(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> DDGResult:
    """Execute ``loop`` under the SW R-LRPD test while extracting its DDG.

    Runs on any execution backend and honors fault plans, ``--self-check``,
    ``pre_initialize`` and ``adaptive_window`` like the ``sw`` strategy.
    """
    config = config or RuntimeConfig.sw()
    strategy = DDGExtraction()
    extraction = StageEngine(
        loop, n_procs, strategy, config, costs=costs, memory=memory,
    ).run()
    return DDGResult(
        loop_name=loop.name,
        n_iterations=loop.n_iterations,
        edges=strategy.edges,
        extraction=extraction,
    )
