"""A persistent SPICE simulation: schedule reuse across Newton iterations.

The paper extracts DCDCMP-15's wavefront schedule once and reuses it "
throughout the remainder of the program execution" because the dependence
structure is the circuit topology, which transient analysis never changes
-- only the matrix *values* change between Newton iterations.  This driver
models that program shape:

* one persistent workspace (the ``VALUE`` array) carries the matrix values
  across iterations;
* every Newton iteration runs the BJT model-evaluation loop (sparse
  reductions refresh the stamps) followed by the LU factorization loop;
* the first iteration pays DDG extraction; every later iteration reuses
  the wavefront schedule at doall-like cost.

:func:`run_spice_program` returns per-iteration results and the aggregate,
so the amortization curve -- the headline of Fig. 6 -- is directly
observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import RuntimeConfig
from repro.core.ddg import extract_ddg
from repro.core.results import RunResult
from repro.core.runner import parallelize
from repro.core.wavefront import WavefrontSchedule, execute_wavefront, wavefront_schedule
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.loopir.reductions import ReductionOp
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage, SharedArray
from repro.util.rng import make_rng
from repro.workloads.spice import SpiceDeck, SPICE_DECKS, _lu_structure


@dataclass
class SpiceIterationResult:
    """One Newton iteration: model evaluation + factorization."""

    index: int
    bjt: RunResult
    lu: RunResult
    extraction_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.bjt.total_time + self.lu.total_time + self.extraction_time

    @property
    def sequential_work(self) -> float:
        return self.bjt.sequential_work + self.lu.sequential_work


@dataclass
class SpiceProgramResult:
    """The whole transient analysis."""

    deck_name: str
    n_procs: int
    schedule: WavefrontSchedule
    iterations: list[SpiceIterationResult] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(it.total_time for it in self.iterations)

    @property
    def sequential_work(self) -> float:
        return sum(it.sequential_work for it in self.iterations)

    @property
    def speedup(self) -> float:
        t = self.total_time
        return self.sequential_work / t if t > 0 else 1.0

    def per_iteration_speedups(self) -> list[float]:
        return [
            it.sequential_work / it.total_time if it.total_time > 0 else 1.0
            for it in self.iterations
        ]


class SpiceSimulation:
    """Persistent workspace + fixed circuit topology across iterations."""

    def __init__(self, deck: SpiceDeck | str) -> None:
        if isinstance(deck, str):
            deck = SPICE_DECKS[deck]
        self.deck = deck
        rng = make_rng(deck.seed, "spice-sim")
        self.preds = _lu_structure(deck)
        self.row_addr = rng.choice(deck.workspace, size=deck.lu_rows, replace=False)
        n_nodes = max(4, deck.devices // 4)
        self.stamps = rng.integers(
            0, n_nodes, size=(deck.devices, deck.updates_per_device)
        )
        self.node_addr = rng.choice(
            np.setdiff1d(np.arange(deck.workspace), self.row_addr, assume_unique=False),
            size=n_nodes,
            replace=False,
        )
        self.params = rng.random(deck.devices)
        self.memory = MemoryImage([SharedArray("VALUE", np.zeros(deck.workspace))])
        self.schedule: WavefrontSchedule | None = None
        self.newton_step = 0

    # -- the two loops of one Newton iteration -----------------------------------

    def _bjt_loop(self) -> SpeculativeLoop:
        deck, stamps, node_addr = self.deck, self.stamps, self.node_addr
        params, step = self.params, self.newton_step
        upd = deck.updates_per_device

        def body(ctx, i):
            g = params[i] * (1.0 + 0.01 * step)
            for k in range(upd):
                ctx.update("VALUE", int(node_addr[stamps[i, k]]), g * (k + 1))
            ctx.work(0.5)

        return SpeculativeLoop(
            f"spice_bjt[{step}]",
            deck.devices,
            body,
            arrays=[
                ArraySpec("VALUE", np.zeros(deck.workspace), tested=True, sparse=True)
            ],
            reductions={"VALUE": ReductionOp.SUM},
        )

    def _lu_loop(self) -> SpeculativeLoop:
        deck, preds, row_addr = self.deck, self.preds, self.row_addr
        step = self.newton_step

        def body(ctx, i):
            acc = float((i + step) % 7) + 1.0
            for j in preds[i]:
                acc += 0.01 * ctx.load("VALUE", int(row_addr[j]))
            ctx.store("VALUE", int(row_addr[i]), acc)
            ctx.work(0.25 * len(preds[i]))

        return SpeculativeLoop(
            f"spice_lu[{step}]",
            deck.lu_rows,
            body,
            arrays=[
                ArraySpec("VALUE", np.zeros(deck.workspace), tested=True, sparse=True)
            ],
        )

    # -- driving -----------------------------------------------------------------

    def newton_iteration(
        self,
        n_procs: int,
        costs: CostModel | None = None,
        window: int | None = None,
    ) -> SpiceIterationResult:
        """Run one model-evaluation + factorization pair."""
        bjt = parallelize(self._bjt_loop(), n_procs, costs=costs, memory=self.memory)

        extraction_time = 0.0
        lu_loop = self._lu_loop()
        if self.schedule is None:
            # First iteration: extract the DDG while executing.
            ddg = extract_ddg(
                lu_loop,
                n_procs,
                RuntimeConfig.sw(window_size=window or 16 * n_procs),
                costs=costs,
                memory=self.memory,
            )
            self.schedule = wavefront_schedule(ddg.graph(), lu_loop.n_iterations)
            lu = ddg.extraction
        else:
            # Topology unchanged: reuse the schedule at doall-like cost.
            lu = execute_wavefront(
                lu_loop, self.schedule, n_procs, costs=costs, memory=self.memory
            )
        result = SpiceIterationResult(
            index=self.newton_step, bjt=bjt, lu=lu, extraction_time=extraction_time
        )
        self.newton_step += 1
        return result


def run_spice_program(
    deck: SpiceDeck | str,
    n_procs: int,
    iterations: int,
    costs: CostModel | None = None,
) -> SpiceProgramResult:
    """Run a transient analysis of ``iterations`` Newton iterations."""
    sim = SpiceSimulation(deck)
    results = [sim.newton_iteration(n_procs, costs) for _ in range(iterations)]
    assert sim.schedule is not None
    return SpiceProgramResult(
        deck_name=sim.deck.name,
        n_procs=n_procs,
        schedule=sim.schedule,
        iterations=results,
    )
