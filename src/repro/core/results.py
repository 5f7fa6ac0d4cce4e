"""Result types: per-stage records, per-run summaries, program aggregates.

The paper's headline metrics all derive from these:

* **speedup** -- sequential useful work over total parallel virtual time
  (all speculation, testing, commit, restore and synchronization overheads
  included, as in the paper's "speedup numbers include all associated
  overheads");
* **parallelism ratio** ``PR = #instantiations / (#restarts +
  #instantiations)`` (Section 5.2), where each failed speculative stage
  counts as one restart;
* per-stage execution-time breakdowns (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.machine.timeline import Category, Timeline
from repro.util.blocks import Block


@dataclass(slots=True)
class StageResult:
    """Summary of one speculative parallelization attempt (one stage)."""

    index: int
    blocks: list[Block]
    failed: bool
    earliest_sink_pos: int | None
    committed_iterations: int
    remaining_after: int
    committed_work: float
    n_arcs: int
    committed_elements: int
    restored_elements: int
    redistributed_iterations: int
    span: float
    migration_distance: float = 0.0
    """Topology distance summed over migrated iterations (0 on flat/ccUMA)."""
    breakdown: dict[Category, float] = field(default_factory=dict)
    faulted_procs: list[int] = field(default_factory=list)
    """Processors whose blocks were lost to an injected fault this stage
    (fail-stop or detected write corruption); empty on clean stages."""
    degraded: bool = False
    """The stage was scheduled on fewer processors than the machine owns
    (an earlier permanent fail-stop shrank the pool)."""
    redispatched_procs: list[int] = field(default_factory=list)
    """Processors whose blocks the worker supervisor re-dispatched after
    their OS worker process died or hung this stage
    (:mod:`repro.core.supervise`).  Host-scheduling noise, not part of the
    deterministic record: excluded from event serialization, so disturbed
    and undisturbed traces stay bit-identical."""

    @property
    def attempted_iterations(self) -> int:
        return sum(len(b) for b in self.blocks)


@dataclass(slots=True)
class RunResult:
    """Outcome of one loop instantiation under one configuration."""

    loop_name: str
    strategy: str
    n_procs: int
    n_iterations: int
    stages: list[StageResult]
    timeline: Timeline
    sequential_work: float
    """Virtual time of the useful work alone = the sequential execution
    time of this instantiation (committed iterations only, final values)."""

    induction_finals: dict[str, int] = field(default_factory=dict)
    iteration_times: dict[int, float] = field(default_factory=dict)
    """Measured per-iteration times (work + marking + copy-in) of the final
    successful execution of each iteration -- the load balancer's input."""

    memory: object = None
    """The machine's final :class:`~repro.machine.memory.MemoryImage`."""

    exit_iteration: int | None = None
    """Iteration at which a premature exit was validated (``None`` = ran
    to completion)."""

    retries: int = 0
    """Stage re-executions forced by injected faults (a stage counts once
    when a fault, not a data dependence, set or advanced its failure
    point)."""

    faults_survived: int = 0
    """Injected faults the run absorbed.  A returned result implies every
    fired fault was recovered, so this equals the fired count; an
    unrecoverable fault raises :class:`~repro.errors.FaultError` instead."""

    fault_counts: dict[str, int] = field(default_factory=dict)
    """Survived faults by class (``fail-stop`` / ``corrupt-write`` /
    ``straggler`` / ``checkpoint``); empty for fault-free machines."""

    degraded_stages: int = 0
    """Stages executed on a shrunken processor pool after permanent
    fail-stop deaths."""

    dead_procs: list[int] = field(default_factory=list)
    """Processors permanently lost to fail-stop faults during the run."""

    metrics: dict = field(default_factory=dict)
    """Final metrics-registry snapshot (:mod:`repro.obs.metrics`) when the
    run collected metrics; empty otherwise.  Deterministic counts only."""

    kernels: str = "vector"
    """Hot-path kernels implementation the run executed under
    (:mod:`repro.kernels`); affects host time only, never results."""

    backend: str = "serial"
    """Execution backend the run finished on (``serial``/``fork``/``shm``/
    ``threads``) -- after any supervisor degradations; affects host time
    only, never results."""

    supervision: dict = field(default_factory=dict)
    """Flat ``supervise.*`` counters (:class:`~repro.core.supervise.
    SupervisionStats`) when the worker supervisor acted this run --
    respawns, re-dispatched blocks, kills, backend degradations -- or a
    pooled backend chose where its stages ran (``inline_stages``,
    ``dispatched_stages``, ``pools_started``); empty on serial runs.  Host-dependent, deliberately outside
    ``metrics``."""

    certificate: object = None
    """:class:`~repro.model.certify.LoopCertificate` attached when the
    certification front-end examined this loop (``certify`` != ``off``
    via :func:`~repro.core.runner.parallelize`): the verdict that either
    selected a fast path (strategy ``certified-doall``/``certified-seq``)
    or merely annotated a SPECULATE run.  Never enters the deterministic
    event stream."""

    # -- derived metrics ---------------------------------------------------------

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def n_restarts(self) -> int:
        """Failed speculative attempts (stages that could not commit fully)."""
        return sum(1 for s in self.stages if s.failed)

    @property
    def total_time(self) -> float:
        return self.timeline.total_time()

    @property
    def overhead_time(self) -> float:
        return self.timeline.overhead_time()

    @property
    def speedup(self) -> float:
        total = self.total_time
        if total <= 0:
            return 1.0
        return self.sequential_work / total

    @property
    def parallelism_ratio(self) -> float:
        """Single-instantiation PR: ``1 / (1 + restarts)``."""
        return 1.0 / (1.0 + self.n_restarts)

    @property
    def wasted_work(self) -> float:
        """Useful-work time spent on iterations that later re-executed
        (total work charged across processors minus the committed work)."""
        return self.timeline.charged_category(Category.WORK) - self.sequential_work

    def stage_spans(self) -> list[float]:
        return [s.span for s in self.stages]

    def summary(self) -> dict[str, float | int | str]:
        """Flat record for benchmark tables."""
        record: dict[str, float | int | str] = {
            "loop": self.loop_name,
            "strategy": self.strategy,
            "p": self.n_procs,
            "stages": self.n_stages,
            "restarts": self.n_restarts,
            "PR": self.parallelism_ratio,
            "T_seq": self.sequential_work,
            "T_par": self.total_time,
            "speedup": self.speedup,
            "overhead": self.overhead_time,
            "kernels": self.kernels,
        }
        if self.backend != "serial":
            record["backend"] = self.backend
        if self.certificate is not None:
            record["certificate"] = self.certificate.verdict
        if self.faults_survived or self.retries:
            record["faults"] = self.faults_survived
            record["fault_retries"] = self.retries
            record["degraded_stages"] = self.degraded_stages
        return record


@dataclass(slots=True)
class ProgramResult:
    """Aggregate over repeated instantiations of a loop (program lifetime)."""

    loop_name: str
    strategy: str
    n_procs: int
    runs: list[RunResult] = field(default_factory=list)

    def add(self, run: RunResult) -> None:
        self.runs.append(run)

    @property
    def n_instantiations(self) -> int:
        return len(self.runs)

    @property
    def n_restarts(self) -> int:
        return sum(run.n_restarts for run in self.runs)

    @property
    def parallelism_ratio(self) -> float:
        """The paper's PR over the life of the program (Section 5.2)."""
        inst = self.n_instantiations
        if inst == 0:
            return 1.0
        return inst / (self.n_restarts + inst)

    @property
    def total_time(self) -> float:
        return sum(run.total_time for run in self.runs)

    @property
    def sequential_work(self) -> float:
        return sum(run.sequential_work for run in self.runs)

    @property
    def speedup(self) -> float:
        total = self.total_time
        if total <= 0:
            return 1.0
        return self.sequential_work / total

    def summary(self) -> dict[str, float | int | str]:
        return {
            "loop": self.loop_name,
            "strategy": self.strategy,
            "p": self.n_procs,
            "instantiations": self.n_instantiations,
            "restarts": self.n_restarts,
            "PR": self.parallelism_ratio,
            "T_seq": self.sequential_work,
            "T_par": self.total_time,
            "speedup": self.speedup,
        }


def committed_work_of(blocks: Sequence[Block], iter_times: dict[int, float]) -> float:
    """Sum the measured work time of all iterations in ``blocks``."""
    return float(
        sum(iter_times[i] for b in blocks for i in b.iterations())
    )
