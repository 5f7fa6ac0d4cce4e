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
    ctx = SequentialContext(
        machine.memory,
        reductions=loop.reductions,
        inductions=loop.initial_inductions(),
    )
    record = machine.begin_stage()
    omega = machine.costs.omega
    iter_times: dict[int, float] = {}
    total = 0.0
    exit_iteration = None
    for i in range(loop.n_iterations):
        ctx.iteration = i
        before = ctx.extra_work
        loop.body(ctx, i)
        t = (loop.work_of(i) + (ctx.extra_work - before)) * omega
        iter_times[i] = t
        total += t
        if ctx.exited:
            exit_iteration = i
            break
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
