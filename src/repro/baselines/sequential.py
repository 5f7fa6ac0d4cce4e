"""Sequential execution: the correctness oracle and the speedup denominator."""

from __future__ import annotations

import numpy as np

from repro.core.engine import stage_result
from repro.core.results import RunResult
from repro.loopir.context import SequentialContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.util.blocks import Block


def run_sequential(
    loop: SpeculativeLoop,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """Execute the loop in program order on one processor.

    No privatization, no marking, no synchronization: the total time is the
    useful work alone, which is exactly the paper's sequential reference.
    """
    machine = Machine(1, costs=costs, memory=memory or loop.materialize())
    ctx = SequentialContext.for_loop(loop, machine.memory)
    record = machine.begin_stage()
    iter_times: dict[int, float] = {}
    total = 0.0
    for i, t in ctx.run(loop, range(loop.n_iterations), machine.costs.omega):
        iter_times[i] = t
        total += t
    exit_iteration = i if ctx.exited else None
    machine.charge(0, Category.WORK, total)
    n_done = len(iter_times)
    stages = [
        stage_result(0, [Block(0, 0, loop.n_iterations)], record, n_done, 0, work=total)
    ]
    return RunResult(
        loop_name=loop.name,
        strategy="sequential",
        n_procs=1,
        n_iterations=loop.n_iterations,
        stages=stages,
        timeline=machine.timeline,
        sequential_work=total,
        iteration_times=iter_times,
        induction_finals=ctx.induction_values(),
        memory=machine.memory,
        exit_iteration=exit_iteration,
    )


def sequential_reference(loop: SpeculativeLoop) -> dict[str, np.ndarray]:
    """Final shared state of a sequential execution (test oracle)."""
    return run_sequential(loop).memory.snapshot()
