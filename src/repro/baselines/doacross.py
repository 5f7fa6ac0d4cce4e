"""DOACROSS baseline in the style of Kazi & Lilja (paper, Section 1).

Every iteration runs a *setup phase* that pre-computes all potential
dependence-causing addresses and broadcasts them to all processors; the
addresses set tags for advance/await synchronization; iterations execute in
private storage and commit in order once no further violation is possible.

The paper's criticisms, all modeled here:

* the setup is an inspector *per iteration* -- loops where address and data
  depend on one another are out of reach (we require ``loop.inspector``);
* the per-iteration broadcast costs ``O(p)`` each, paid even by fully
  parallel loops;
* synchronization is pairwise (advance/await), so available parallelism is
  throttled by the true flow dependences *plus* the setup serialization.

Timing is computed by a list-scheduling simulation: iteration ``i`` (on
processor ``i mod p``) starts after its processor is free and after every
flow predecessor has completed (+ one await penalty); its duration is the
setup cost plus its useful work.  State is produced by an in-order
execution, which is what commit-in-order guarantees.
"""

from __future__ import annotations

from repro.core.engine import stage_result
from repro.core.results import RunResult
from repro.errors import InspectorUnavailableError
from repro.loopir.context import SequentialContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.shadow.edges import EdgeKind
from repro.baselines.inspector import dependence_edges_from_trace
from repro.util.blocks import Block


def run_doacross(
    loop: SpeculativeLoop,
    n_procs: int,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
    await_cost: float | None = None,
) -> RunResult:
    """Simulate DOACROSS execution; returns timing plus sequential state."""
    if loop.inspector is None:
        raise InspectorUnavailableError(
            f"loop {loop.name!r}: DOACROSS needs per-iteration address "
            "pre-computation, impossible when address and data are mutually "
            "dependent"
        )
    cost_model = costs or CostModel()
    machine = Machine(n_procs, costs=cost_model, memory=memory or loop.materialize())
    trace = loop.inspector(machine.memory)
    if len(trace) != loop.n_iterations:
        raise InspectorUnavailableError(
            f"inspector returned {len(trace)} records for "
            f"{loop.n_iterations} iterations"
        )
    edges = dependence_edges_from_trace(trace)
    preds: dict[int, list[int]] = {}
    for src, dst in edges.iteration_pairs([EdgeKind.FLOW]):
        preds.setdefault(dst, []).append(src)

    # Execute in order for state and per-iteration work.
    ctx = SequentialContext.for_loop(loop, machine.memory)
    iter_times: dict[int, float] = {}
    total_work = 0.0
    for i, t in ctx.run(loop, range(loop.n_iterations), cost_model.omega):
        if ctx.exited:
            raise InspectorUnavailableError(
                f"{loop.name}: DOACROSS cannot handle premature exits"
            )
        iter_times[i] = t
        total_work += t

    # List-scheduling timing simulation.
    sync = await_cost if await_cost is not None else cost_model.sync / 4.0
    # Setup: pre-compute + broadcast the iteration's addresses to p procs.
    done: dict[int, float] = {}
    proc_free = [0.0] * n_procs
    makespan = 0.0
    for i in range(loop.n_iterations):
        proc = i % n_procs
        n_addrs = len(trace[i][0]) + len(trace[i][1])
        setup = cost_model.mark * n_addrs * n_procs  # broadcast to all procs
        start = proc_free[proc]
        for pred in preds.get(i, ()):
            start = max(start, done[pred] + sync)
        finish = start + setup + iter_times[i]
        done[i] = finish
        proc_free[proc] = finish
        makespan = max(makespan, finish)

    record = machine.begin_stage()
    # Attribute the makespan as a single global span: work portion vs overhead.
    overhead = max(0.0, makespan - total_work / max(1, n_procs))
    record.charge(-1, Category.WORK, makespan - overhead)
    record.charge(-1, Category.SYNC, overhead)

    stages = [stage_result(
        0, [Block(0, 0, loop.n_iterations)], record, loop.n_iterations, 0,
        work=total_work, n_arcs=len(edges.edges(EdgeKind.FLOW)),
    )]
    return RunResult(
        loop_name=loop.name,
        strategy="DOACROSS",
        n_procs=n_procs,
        n_iterations=loop.n_iterations,
        stages=stages,
        timeline=machine.timeline,
        sequential_work=total_work,
        iteration_times=iter_times,
        induction_finals=ctx.induction_values(),
        memory=machine.memory,
    )
