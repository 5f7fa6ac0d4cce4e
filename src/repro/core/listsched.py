"""Critical-path list scheduling from an extracted DDG.

The paper extracts the DDG so it can generate an *'optimal' schedule*
(Section 3).  Wavefront scheduling is the simple instance -- one global
barrier per topological level -- but levels can be ragged: a level with 3
iterations stalls all ``p`` processors until the barrier.  Classic list
scheduling removes the barriers: iterations become ready the moment their
predecessors finish, and are dispatched to the first free processor in
descending *bottom-level* priority (longest dependence chain to any exit),
the standard critical-path heuristic.

Both schedulers consume the same DDG and produce the same final state; the
difference is pure wall-clock, measurable in the
``ablation_ddg_scheduling`` benchmark.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import networkx as nx

from repro.core.engine import stage_result
from repro.core.results import RunResult
from repro.errors import ScheduleError
from repro.loopir.context import SequentialContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.util.blocks import Block


def bottom_levels(graph: nx.DiGraph, n_iterations: int, work: list[float]) -> list[float]:
    """Longest work-weighted path from each iteration to any exit.

    Iteration order is reverse-topological for the forward-edge DDG, so a
    single backward pass suffices.
    """
    levels = [0.0] * n_iterations
    for i in range(n_iterations - 1, -1, -1):
        succ_max = 0.0
        if graph.has_node(i):
            for j in graph.successors(i):
                if not 0 <= j < n_iterations:
                    raise ScheduleError(f"edge target {j} outside iteration space")
                if j <= i:
                    raise ScheduleError(f"non-forward edge {i}->{j}")
                succ_max = max(succ_max, levels[j])
        levels[i] = work[i] + succ_max
    return levels


@dataclass(frozen=True)
class ListSchedule:
    """A dispatch order with per-iteration start times and the makespan."""

    n_iterations: int
    n_procs: int
    order: tuple[int, ...]          # dispatch order (dependence-safe)
    start_times: tuple[float, ...]  # virtual start per iteration
    makespan: float
    critical_path_work: float


def list_schedule(
    graph: nx.DiGraph,
    loop: SpeculativeLoop,
    n_procs: int,
    costs: CostModel | None = None,
) -> ListSchedule:
    """Build the critical-path list schedule for ``loop`` under its DDG."""
    costs = costs or CostModel()
    n = loop.n_iterations
    work = [loop.work_of(i) * costs.omega for i in range(n)]
    priority = bottom_levels(graph, n, work)

    preds: dict[int, list[int]] = {i: [] for i in range(n)}
    n_preds = [0] * n
    for src, dst in graph.edges:
        preds[dst].append(src)
        n_preds[dst] += 1

    finish = [0.0] * n
    start = [0.0] * n
    proc_free = [0.0] * n_procs
    remaining_preds = list(n_preds)
    # Ready heap keyed by (-priority, iteration) for deterministic ties.
    ready = [(-priority[i], i) for i in range(n) if n_preds[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    dispatch_sync = costs.sync / max(4, n_procs)  # per-dispatch handshake

    while ready:
        _, i = heapq.heappop(ready)
        proc = min(range(n_procs), key=lambda q: proc_free[q])
        earliest = max((finish[j] for j in preds[i]), default=0.0)
        begin = max(proc_free[proc], earliest) + dispatch_sync
        start[i] = begin
        finish[i] = begin + work[i]
        proc_free[proc] = finish[i]
        order.append(i)
        for j in (graph.successors(i) if graph.has_node(i) else ()):
            remaining_preds[j] -= 1
            if remaining_preds[j] == 0:
                heapq.heappush(ready, (-priority[j], j))

    if len(order) != n:
        raise ScheduleError(
            f"list scheduler dispatched {len(order)} of {n} iterations; "
            "the DDG has a cycle or disconnected constraint"
        )
    return ListSchedule(
        n_iterations=n,
        n_procs=n_procs,
        order=tuple(order),
        start_times=tuple(start),
        makespan=max(finish, default=0.0),
        critical_path_work=max(priority, default=0.0),
    )


def execute_list_schedule(
    loop: SpeculativeLoop,
    schedule: ListSchedule,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """Execute the loop in dispatch order; report the schedule's makespan.

    Dispatch order respects every DDG edge, so executing iterations in that
    order against shared memory reproduces the sequential state (verified
    by the test suite's oracle comparisons).
    """
    if schedule.n_iterations != loop.n_iterations:
        raise ScheduleError(
            f"schedule is for {schedule.n_iterations} iterations, loop has "
            f"{loop.n_iterations}"
        )
    machine = Machine(
        schedule.n_procs, costs=costs, memory=memory or loop.materialize()
    )
    ctx = SequentialContext.for_loop(loop, machine.memory)
    iter_times: dict[int, float] = {}
    sequential_work = 0.0
    record = machine.begin_stage()
    for i, t in ctx.run(loop, schedule.order, machine.costs.omega):
        if ctx.exited:
            raise ScheduleError(
                f"{loop.name}: premature exits need the blocked runner"
            )
        iter_times[i] = t
        sequential_work += t
    # The timeline carries the modeled makespan: work span plus the
    # dispatch/dependence stalls folded into SYNC.
    work_span = sequential_work / max(1, schedule.n_procs)
    record.charge(-1, Category.WORK, min(schedule.makespan, work_span))
    record.charge(-1, Category.SYNC, max(0.0, schedule.makespan - work_span))

    blocks = [Block(0, 0, loop.n_iterations)] if loop.n_iterations else []
    stages = [stage_result(0, blocks, record, loop.n_iterations, 0, work=sequential_work)]
    return RunResult(
        loop_name=loop.name,
        strategy=f"list-sched(p={schedule.n_procs})",
        n_procs=schedule.n_procs,
        n_iterations=loop.n_iterations,
        stages=stages,
        timeline=machine.timeline,
        sequential_work=sequential_work,
        iteration_times=iter_times,
        induction_finals=ctx.induction_values(),
        memory=machine.memory,
    )
