"""Wavefront scheduling from an extracted DDG.

Given the iteration dependence graph, iterations are grouped into
*wavefronts*: level ``k`` holds every iteration whose longest dependence
chain from any source has length ``k``.  All iterations in one wavefront are
mutually independent and execute as a doall; wavefronts execute in order
with a barrier between them.  The parallel time is bounded below by the
critical path (number of wavefronts) -- for SPICE's ``adder.128`` deck the
paper reports 14337 iterations with a critical path of 334.

The schedule depends only on the access pattern, so it is computed once
(amortizing the extraction run) and reused across loop instantiations,
exactly as the paper reuses the wavefront schedule "throughout the
remainder of the program execution".
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.core.engine import stage_result
from repro.core.results import RunResult, StageResult
from repro.errors import ScheduleError
from repro.loopir.context import SequentialContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.timeline import Category
from repro.util.blocks import Block


@dataclass(frozen=True)
class WavefrontSchedule:
    """Topological levels of the iteration DDG."""

    n_iterations: int
    levels: tuple[tuple[int, ...], ...]

    @property
    def critical_path(self) -> int:
        return len(self.levels)

    @property
    def average_parallelism(self) -> float:
        if not self.levels:
            return 0.0
        return self.n_iterations / len(self.levels)

    def validate(self, graph: nx.DiGraph) -> None:
        """Check every edge crosses levels forward and coverage is exact."""
        level_of: dict[int, int] = {}
        for k, level in enumerate(self.levels):
            for i in level:
                if i in level_of:
                    raise ScheduleError(f"iteration {i} appears in two wavefronts")
                level_of[i] = k
        if len(level_of) != self.n_iterations:
            raise ScheduleError(
                f"schedule covers {len(level_of)} of {self.n_iterations} iterations"
            )
        for src, dst in graph.edges:
            if level_of[src] >= level_of[dst]:
                raise ScheduleError(
                    f"edge {src}->{dst} not respected by wavefront levels"
                )


def wavefront_schedule(graph: nx.DiGraph, n_iterations: int) -> WavefrontSchedule:
    """Longest-path layering of the DDG.

    Iteration order is a topological order (all dependence edges point to
    later iterations), so a single forward pass computes each node's depth.
    """
    depth = [0] * n_iterations
    for src, dst in graph.edges:
        if not (0 <= src < n_iterations and 0 <= dst < n_iterations):
            raise ScheduleError(f"edge {src}->{dst} outside iteration space")
        if src >= dst:
            raise ScheduleError(f"non-forward edge {src}->{dst}; DDG must be a DAG")
    for src in range(n_iterations):
        d = depth[src]
        if graph.has_node(src):
            for dst in graph.successors(src):
                if depth[dst] < d + 1:
                    depth[dst] = d + 1
    n_levels = max(depth, default=-1) + 1
    buckets: list[list[int]] = [[] for _ in range(n_levels)]
    for i in range(n_iterations):
        buckets[depth[i]].append(i)
    return WavefrontSchedule(
        n_iterations=n_iterations,
        levels=tuple(tuple(level) for level in buckets),
    )


def execute_wavefront(
    loop: SpeculativeLoop,
    schedule: WavefrontSchedule,
    n_procs: int,
    costs: CostModel | None = None,
    memory: MemoryImage | None = None,
) -> RunResult:
    """Execute the loop level by level under a precomputed wavefront schedule.

    Iterations within a level are provably independent, so they run with
    direct shared access (no privatization, no marking, no test overhead --
    the payoff of having extracted the DDG once).  Each level is one doall:
    its span is the maximum per-processor work plus one barrier.
    """
    if schedule.n_iterations != loop.n_iterations:
        raise ScheduleError(
            f"schedule is for {schedule.n_iterations} iterations, loop has "
            f"{loop.n_iterations}"
        )
    machine = Machine(n_procs, costs=costs, memory=memory or loop.materialize())
    ctx = SequentialContext.for_loop(loop, machine.memory)
    stage_results: list[StageResult] = []
    sequential_work = 0.0
    iter_times: dict[int, float] = {}

    for k, level in enumerate(schedule.levels):
        record = machine.begin_stage()
        # Round-robin the level's iterations over processors; execute in
        # increasing iteration order (deterministic, dependence-safe).
        proc_time = [0.0] * n_procs
        run = ctx.run(loop, sorted(level), machine.costs.omega)
        for slot, (i, t) in enumerate(run):
            if ctx.exited:
                raise ScheduleError(
                    f"{loop.name}: premature exits need the blocked runner"
                )
            proc_time[slot % n_procs] += t
            iter_times[i] = t
            sequential_work += t
        for proc, t in enumerate(proc_time):
            if t:
                machine.charge(proc, Category.WORK, t)
        machine.barrier()
        stage_results.append(stage_result(
            k, [Block(0, min(level), max(level) + 1)] if level else [], record,
            len(level),
            schedule.n_iterations - sum(len(lv) for lv in schedule.levels[: k + 1]),
            work=sum(iter_times[i] for i in level),
        ))

    return RunResult(
        loop_name=loop.name,
        strategy=f"wavefront(cp={schedule.critical_path})",
        n_procs=n_procs,
        n_iterations=loop.n_iterations,
        stages=stage_results,
        timeline=machine.timeline,
        sequential_work=sequential_work,
        iteration_times=iter_times,
        induction_finals=ctx.induction_values(),
        memory=machine.memory,
    )
