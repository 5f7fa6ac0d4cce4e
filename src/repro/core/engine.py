"""The StageEngine: one owner for the speculate→analyze→commit lifecycle.

Every R-LRPD flavor is the same recursion -- execute speculatively, find
the earliest cross-processor dependence sink, commit the valid prefix,
restore and retry the rest -- differing only in *policy*: how remaining
iterations are scheduled, where failed work re-executes, what granularity
the commit point moves at, and what pre/post phases wrap a stage.  The
engine implements the recursion exactly once:

* partition/schedule the remaining iterations (delegated to the strategy);
* checkpoint untested state, execute every block through the execution
  backend under fault injection;
* analyze for the earliest sink, merge injected faults into the failure
  point, validate premature exits;
* commit the valid prefix (an exit's prefix included), restore and
  re-initialize the rest, and close every stage through one builder;
* charge every virtual-time cost, enforce ``max_fault_retries`` over
  consecutive zero-commit stages, shrink the processor pool on permanent
  fail-stop deaths, and run the ``--self-check`` oracle.

Strategies are small policy objects subclassing :class:`Strategy`; the
concrete policies live next to their documentation.  Registered by name
(:func:`register_strategy`): ``BlockedNRD``/``BlockedRD``/``AdaptiveBlocked``
in :mod:`repro.core.rlrpd`, ``SlidingWindow`` in :mod:`repro.core.window`,
``InductionTwoPhase`` in :mod:`repro.core.induction_runner`, and
``IterwiseBlocked`` in :mod:`repro.core.iterwise`.  Unregistered, reached
through their runners: the doall LRPD baseline (:mod:`repro.core.lrpd`),
DDG extraction (:mod:`repro.core.ddg`) and the certified fast paths
(:mod:`repro.core.fastpath`).

The engine narrates each run as a typed event stream (:mod:`repro.obs`):
``RunBegin (StageBegin BlockExecuted* FaultInjected* DependenceFound?
(Commit|Retry) Restore? StageEnd)+ RunEnd``.  An
:class:`~repro.obs.sinks.AggregatingSink` subscribed to that stream is
what populates the result's per-stage records, so traces and results can
never disagree; a JSONL trace sink is attached whenever
``config.trace_path`` is set.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.config import (
    RedistributionPolicy,
    RuntimeConfig,
    Strategy as ScheduleKind,
)
from repro.core.analysis import analyze_stage
from repro.core.backend import BlockTask, SerialBackend, make_backend
from repro.core.commit import commit_states, reinit_states
from repro.core.executor import make_processor_state
from repro.core.results import RunResult, StageResult
from repro.core.supervise import PoolDegradation, SupervisionStats
from repro.kernels import resolve_kernels_name, use_kernels
from repro.core.stage import (
    charge_analysis,
    charge_checkpoint_begin,
    charge_checkpoint_fault_recovery,
    perform_restore,
)
from repro.errors import (
    ConfigurationError,
    FaultError,
    NoProgressError,
    SpeculationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.selfcheck import UntestedAccessLog, check_final_state
from repro.loopir.loop import SpeculativeLoop
from repro.machine.checkpoint import CheckpointManager
from repro.machine.costs import CostModel
from repro.machine.machine import Machine
from repro.machine.memory import MemoryImage
from repro.machine.topology import Topology
from repro.obs.events import (
    BackendDegraded,
    BlockExecuted,
    Commit,
    DependenceFound,
    FaultInjected,
    MetricsSnapshot,
    Restore,
    Retry,
    RunBegin,
    RunEnd,
    StageBegin,
    StageEnd,
)
from repro.obs.flight import FlightRecorder, dump_bundle, resolve_crash_dir
from repro.obs.metrics import (
    MetricsRegistry,
    resolve_metrics_enabled,
    resolve_spans_enabled,
)
from repro.obs.oplog import get_oplog
from repro.obs.resources import ResourceSampler, resolve_resources_enabled
from repro.obs.sinks import AggregatingSink, EventBus, EventSink, JsonlTraceSink
from repro.obs.spans import NullTracer, PerfettoTraceSink, SpanTracker
from repro.obs.top import StatusStreamSink
from repro.util.blocks import Block


class Strategy:
    """Policy object supplying what differs between R-LRPD flavors.

    The defaults implement the processor-wise blocked behavior; a strategy
    overrides only the hooks where its policy departs from it.  Hooks are
    invoked by :class:`StageEngine` in a fixed order per stage::

        schedule -> pre_stage -> charge_schedule ->
        (task_inputs -> execute -> after_block)* -> [barrier] -> analyze ->
        commit_point -> (commit | zero_commit) -> after_stage

    Strategies may keep per-run mutable state on ``self``; one instance
    serves exactly one engine run.
    """

    #: Registry key (``register_strategy`` requires it to be non-empty).
    name = ""
    #: How a premature ``ctx.exit_loop()`` is treated: ``"collect"``
    #: validates it against the failure point (blocked drivers),
    #: ``"reject"`` raises ``ConfigurationError``, ``"ignore"`` drops it.
    exit_mode = "reject"
    #: Whether ``config.pre_initialize`` bulk-copies each block's private
    #: views in before the block executes (every backend honors it).
    preloads = True
    #: Certified fast paths set this: blocks run on plain processor
    #: states (no views/shadows/checkpoint) and out-of-process backends
    #: dispatch them as ``plain`` tasks (:mod:`repro.core.fastpath`).
    plain_tasks = False

    # -- lifecycle hooks -------------------------------------------------------

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        """Reject loop/config combinations this strategy cannot run."""

    def setup(self, eng: "StageEngine") -> None:
        """One-time per-run state; default: private state per processor."""
        eng.states = {
            p: make_processor_state(eng.machine, eng.loop, p)
            for p in range(eng.n_procs)
        }

    def run_label(self, eng: "StageEngine") -> str:
        return eng.config.label()

    def schedule(self, eng: "StageEngine") -> list[Block]:
        """Non-empty blocks for this stage (raise SpeculationError if none);
        per-stage private state is refreshed here (default: it persists)."""
        raise NotImplementedError

    def pre_stage(self, eng: "StageEngine", blocks: list[Block]) -> None:
        """Optional extra phase before the speculative stage (e.g. the
        induction recipe's range-collection doall), emitted as its own
        stage."""

    def charge_schedule(
        self, eng: "StageEngine", blocks: list[Block]
    ) -> tuple[int, float]:
        """Charge scheduling/redistribution costs; return
        ``(migrated iterations, migration distance)``."""
        return 0, 0.0

    def task_inputs(
        self, eng: "StageEngine", pos: int, block: Block
    ) -> tuple[dict | None, dict | None]:
        """``(starting induction values, mark lists)`` handed to one
        block's ``execute_block``; ``None`` for either means none."""
        return None, None

    def after_block(self, eng: "StageEngine", pos: int, block: Block, ctx) -> None:
        """Bookkeeping right after one block executed (owner maps, marking
        charges, induction finals, returned mark lists); ``ctx`` is its
        :class:`~repro.core.backend.BlockOutcome`."""

    def analyze(
        self, eng: "StageEngine", blocks: list[Block]
    ) -> tuple[int | None, int]:
        """Run the dependence test; charge it; return
        ``(earliest sink block position | None, n_arcs)``."""
        groups = [(b.proc, eng.states[b.proc].shadows) for b in blocks]
        analysis = analyze_stage(groups)
        charge_analysis(eng.machine, analysis, [b.proc for b in blocks])
        return analysis.earliest_sink_pos, len(analysis.arcs)

    def commit_point(
        self, eng: "StageEngine", blocks: list[Block], f_pos: int | None
    ) -> tuple[int | None, int]:
        """Given the failure point (injected faults merged in), return ``(sink
        recorded for the stage, iteration the commit point moves to)``; a
        stage that leaves the commit point in place committed nothing."""
        if f_pos is None:
            return None, blocks[-1].stop
        return f_pos, blocks[f_pos - 1].stop if f_pos else eng.committed_upto

    def commit(
        self, eng: "StageEngine", committing: list[Block], failing: list[Block]
    ) -> tuple[int, float]:
        """Copy out the valid prefix; return ``(elements, stage work)``."""
        committed_elements = commit_states(
            eng.machine, eng.loop, [eng.states[b.proc] for b in committing]
        )
        stage_work = 0.0  # work-only virtual time of the committed iterations
        for block in committing:
            state = eng.states[block.proc]
            work, times = state.iter_work, state.iter_times
            stage_work += sum(work[i] for i in block.iterations())
            for i in block.iterations():
                eng.final_iter_times[i] = times[i]
        return committed_elements, stage_work

    def zero_commit(self, eng: "StageEngine", fault_caused: bool) -> bool:
        """The stage committed nothing.  Return whether its blocks retry
        (under the fault-retry budget); raise when no fault explains it."""
        if not fault_caused:
            raise NoProgressError(
                f"{eng.loop.name}: {eng.label} stage {eng.stage_idx} "
                "committed nothing"
            )
        return True

    def after_stage(
        self,
        eng: "StageEngine",
        committing: list[Block],
        failing: list[Block],
        f_pos: int | None,
    ) -> None:
        """Policy updates once the stage closed (pending blocks, window
        re-grid, induction base advance, edge harvest)."""

    def result_extras(self, eng: "StageEngine") -> dict:
        """Extra ``RunResult`` constructor fields (e.g. induction finals)."""
        return {}


# -- strategy registry ----------------------------------------------------------

STRATEGIES: dict[str, type[Strategy]] = {}


def register_strategy(cls: type[Strategy]) -> type[Strategy]:
    """Class decorator: make ``cls`` resolvable by its ``name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    STRATEGIES[cls.name] = cls
    return cls


def _ensure_registered() -> None:
    # Strategies live next to their documentation in the driver modules;
    # importing them populates the registry.
    import repro.core.induction_runner  # noqa: F401
    import repro.core.iterwise  # noqa: F401
    import repro.core.rlrpd  # noqa: F401
    import repro.core.window  # noqa: F401


def strategy_names() -> list[str]:
    _ensure_registered()
    return sorted(STRATEGIES)


def resolve_strategy(name: str) -> type[Strategy]:
    """Look a strategy class up by registry name."""
    _ensure_registered()
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; registered: {', '.join(sorted(STRATEGIES))}"
        ) from None


def strategy_for_config(
    loop: SpeculativeLoop, config: RuntimeConfig
) -> Strategy:
    """The strategy a (loop, config) pair dispatches to.

    Loops with induction variables need the two-phase recipe; otherwise the
    configured schedule kind (and, for blocked, redistribution policy)
    selects the registered policy object.
    """
    _ensure_registered()
    if loop.inductions:
        return STRATEGIES["induction"]()
    if config.strategy is ScheduleKind.SLIDING_WINDOW:
        return STRATEGIES["sw"]()
    key = {
        RedistributionPolicy.NEVER: "nrd",
        RedistributionPolicy.ALWAYS: "rd",
        RedistributionPolicy.ADAPTIVE: "adaptive",
    }[config.redistribution]
    return STRATEGIES[key]()


# -- stage results ----------------------------------------------------------------


def stage_result(
    index: int,
    blocks: Sequence[Block],
    record,
    committed: int,
    remaining: int,
    *,
    failed: bool = False,
    sink: int | None = None,
    work: float = 0.0,
    elements: int = 0,
    restored: int = 0,
    n_arcs: int = 0,
    redistributed: int = 0,
    migration: float = 0.0,
    faulted_procs: Sequence[int] = (),
    degraded: bool = False,
    redispatched: Sequence[int] = (),
) -> StageResult:
    """The one :class:`StageResult` builder: span and breakdown come from
    the stage's timeline ``record``, every count not given is zero.  The
    engine closes its stages through it, and the schedule executors
    (wavefront, list schedule, the sequential and DOACROSS baselines)
    record theirs with it."""
    return StageResult(
        index=index,
        blocks=list(blocks),
        failed=failed,
        earliest_sink_pos=sink,
        committed_iterations=committed,
        remaining_after=remaining,
        committed_work=work,
        n_arcs=n_arcs,
        committed_elements=elements,
        restored_elements=restored,
        redistributed_iterations=redistributed,
        span=record.span(),
        migration_distance=migration,
        breakdown=record.breakdown(),
        faulted_procs=list(faulted_procs),
        degraded=degraded,
        redispatched_procs=list(redispatched),
    )


# -- the engine ------------------------------------------------------------------


class StageEngine:
    """Run one loop instantiation under one strategy.

    Owns the machine, the speculative processor states, checkpointing,
    fault injection, the self-check oracle and the event bus; consults the
    strategy only at the policy hooks.  Construct and call :meth:`run`.
    """

    def __init__(
        self,
        loop: SpeculativeLoop,
        n_procs: int,
        strategy: Strategy,
        config: RuntimeConfig,
        costs: CostModel | None = None,
        weights: np.ndarray | None = None,
        memory: MemoryImage | None = None,
        topology: Topology | None = None,
        sinks: Sequence[EventSink] = (),
        certificate=None,
    ) -> None:
        strategy.validate(loop, config)
        self.loop = loop
        #: Certificate that selected (or merely annotated) this run, when
        #: the certification front-end examined the loop (surfaced on the
        #: RunResult; never enters the deterministic event stream).
        self.certificate = certificate
        self.n_procs = n_procs
        self.strategy = strategy
        self.config = config
        self.weights = weights
        self.topology = topology
        self.machine = Machine(
            n_procs, costs=costs, memory=memory or loop.materialize(),
            topology=topology,
        )
        untested = loop.untested_names
        self.ckpt = (
            CheckpointManager(self.machine.memory, untested,
                              config.on_demand_checkpoint)
            if untested else None
        )
        self.injector = (
            FaultInjector(config.fault_plan) if config.fault_plan else None
        )
        self.untested_log = (
            UntestedAccessLog() if (config.self_check and untested) else None
        )
        self.initial_state = (
            self.machine.memory.snapshot() if config.self_check else None
        )

        self.n = loop.n_iterations
        self.alive = list(range(n_procs))
        self.reduction_names = frozenset(loop.reductions)
        self.committed_upto = 0
        self.sequential_work = 0.0
        self.final_iter_times: dict[int, float] = {}
        self.stage_idx = 0
        self.retries = 0
        self.degraded_stages = 0
        self.zero_commit_streak = 0
        self.exit_iteration: int | None = None
        self.degraded = False
        self.faulted: dict[int, str] = {}
        self.states = {}

        self.kernels_name = resolve_kernels_name(config)
        self.metrics_enabled = resolve_metrics_enabled(config)
        self.spans_enabled = resolve_spans_enabled(config)
        if self.metrics_enabled:
            self.machine.metrics = MetricsRegistry()

        strategy.setup(self)
        self.label = strategy.run_label(self)
        self.supervision = SupervisionStats()
        if config.os_chaos is not None:
            from repro.faults.os_chaos import OsChaosInjector

            self.os_chaos = OsChaosInjector(config.os_chaos)
        else:
            self.os_chaos = None
        self.backend = make_backend(self)

        # Operational plane (repro.obs oplog/flight/resources/top): host
        # telemetry that must never enter the deterministic event stream.
        self.oplog = get_oplog()
        self.flight = (
            FlightRecorder(config.flight_events)
            if config.flight_events else None
        )
        self._status = (
            StatusStreamSink(config.status_path)
            if config.status_path else None
        )
        self.sampler = (
            ResourceSampler(self, interval=config.resource_interval)
            if resolve_resources_enabled(config) else None
        )
        self._oplog_taps: list = []

        self._agg = AggregatingSink()
        bus_sinks: list[EventSink] = [self._agg, *sinks]
        if self.flight is not None:
            bus_sinks.append(self.flight)
        if self._status is not None:
            bus_sinks.append(self._status)
        if config.trace_path:
            bus_sinks.append(JsonlTraceSink(config.trace_path))
        self._perfetto = (
            PerfettoTraceSink(config.perfetto_path)
            if config.perfetto_path else None
        )
        if self._perfetto is not None:
            bus_sinks.append(self._perfetto)
        self.bus = EventBus(bus_sinks)

        self._host_t0 = time.perf_counter()
        self.tracer = (
            SpanTracker(
                self.emit, self.host_now, self.machine.timeline.virtual_now
            )
            if self.spans_enabled else NullTracer()
        )
        self._stage_span = None
        self._record = None

    # -- clocks -----------------------------------------------------------------

    def host_now(self) -> float:
        """Host wall-clock seconds since this engine started its run."""
        return time.perf_counter() - self._host_t0

    def rebase_host(self, absolute: float) -> float:
        """Convert an absolute ``perf_counter`` reading (e.g. taken inside a
        fork worker) to the run-relative host clock."""
        return absolute - self._host_t0

    # -- event plumbing ---------------------------------------------------------

    def emit(self, event) -> None:
        self.bus.emit(event)

    def _emit_metrics(self, scope: str, stage: int | None) -> None:
        snap = self.machine.metrics.snapshot()
        self.emit(MetricsSnapshot(
            scope=scope, stage=stage,
            virt_time=self.machine.timeline.virtual_now(),
            counters=snap["counters"], gauges=snap["gauges"],
            histograms=snap["histograms"],
        ))

    def open_stage(self, blocks: list[Block]) -> int:
        """Announce a stage; start its timeline record and span."""
        stage = self.stage_idx
        self.emit(StageBegin(
            stage=stage, blocks=list(blocks),
            remaining=self.n - self.committed_upto, degraded=self.degraded,
        ))
        self._record = self.machine.begin_stage()
        self._stage_span = self.tracer.begin("stage", "stage", stage=stage)
        return stage

    def close_stage(self, blocks: list[Block], committed: int, **counts) -> None:
        """Build the open stage's result (``counts`` as for
        :func:`stage_result`); emit its metrics snapshot, close its span,
        emit StageEnd (the aggregating sink files the result) and advance
        the stage counter."""
        result = stage_result(
            self.stage_idx, blocks, self._record, committed,
            self.n - self.committed_upto, degraded=self.degraded,
            redispatched=self.supervision.take_stage_redispatched(), **counts,
        )
        if self.metrics_enabled:
            self._emit_metrics("stage", result.index)
        self.tracer.end(self._stage_span)
        self._stage_span = None
        self.emit(StageEnd(stage=result.index, result=result))
        self.stage_idx += 1

    # -- supervised execution ---------------------------------------------------

    def execute_tasks(self, tasks):
        """Run one doall's blocks, degrading the backend if its pool dies.

        Nothing is merged until a backend's ``run_blocks`` returns, so on
        :class:`PoolDegradation` the same task list re-runs on the fallback
        backend from identical engine state -- results stay bit-identical,
        only the execution substrate changes.  Every parallel backend
        degrades to serial, which cannot degrade, so this loop always
        terminates.
        """
        while True:
            try:
                return self.backend.run_blocks(tasks)
            except PoolDegradation as degradation:
                self._degrade_backend(degradation)

    def _degrade_backend(self, degradation: PoolDegradation) -> None:
        target = SerialBackend.name
        self.supervision.degradations.append({
            "stage": degradation.stage,
            "from": self.backend.name,
            "to": target,
            "reason": str(degradation),
        })
        stage = self.stage_idx if degradation.stage is None else degradation.stage
        self.emit(BackendDegraded(
            stage=stage,
            from_backend=self.backend.name,
            to_backend=target,
            reason=degradation.reason,
        ))
        self.oplog.log(
            "engine", "backend-degraded", severity="warn",
            loop=self.loop.name, stage=stage,
            from_backend=self.backend.name, to_backend=target,
            reason=degradation.reason,
        )
        old = self.backend
        self.backend = None
        try:
            old.close()
        finally:
            self.backend = SerialBackend(self)

    # -- run --------------------------------------------------------------------

    def run(self) -> RunResult:
        # The kernels scope covers worker forking (workers spawn lazily on
        # the first dispatch), so fork children inherit the run's choice.
        with use_kernels(self.kernels_name):
            return self._run()

    def _run(self) -> RunResult:
        # RunBegin sits inside the try: whatever raises after this point --
        # the emit itself included -- still reaches the finally, so sinks
        # flush a usable partial trace instead of stranding buffered lines.
        self._begin_ops()
        try:
            self._host_t0 = time.perf_counter()
            self.emit(RunBegin(
                loop=self.loop.name, strategy=self.label,
                n_procs=self.n_procs, n_iterations=self.n,
            ))
            run_span = self.tracer.begin("run", "run")
            result = self._run_loop()
            if self.metrics_enabled:
                self._emit_metrics("run", None)
            self.tracer.end(run_span)
            self.emit(RunEnd(
                loop=self.loop.name, strategy=self.label,
                stages=result.n_stages, restarts=result.n_restarts,
                total_time=result.total_time,
                sequential_work=result.sequential_work,
                exit_iteration=result.exit_iteration,
                faults_survived=result.faults_survived,
                retries=result.retries,
            ))
            self.oplog.log(
                "engine", "run-end", loop=self.loop.name,
                backend=self.backend.name, stages=result.n_stages,
                restarts=result.n_restarts,
                host_s=round(self.host_now(), 6),
                **self.supervision.dispatch_counts(),
            )
            return result
        except BaseException as exc:
            # The backend (and its pool state) is still alive here; take
            # the post-mortem before the finally tears anything down.
            self._record_failure(exc)
            raise
        finally:
            self._end_ops()
            try:
                self.bus.close()
            finally:
                self.backend.close()
                # Cut the backend's back-reference: with the engine <->
                # backend cycle gone, a finished run's memory image is freed
                # as soon as the caller drops the result, not at the next
                # cyclic garbage collection.
                self.backend.eng = None

    # -- operational plane -------------------------------------------------------

    def _begin_ops(self) -> None:
        """Open the operational plane: subscribe the flight recorder and
        status stream to the oplog and the resource sampler, start the
        sampler thread, announce the run."""
        for consumer in (self.flight, self._status):
            if consumer is not None:
                self.oplog.add_tap(consumer.note_oplog)
                self._oplog_taps.append(consumer.note_oplog)
                if self.sampler is not None:
                    self.sampler.add_consumer(consumer.note_resources)
        if self.sampler is not None:
            self.sampler.start()
        self.oplog.log(
            "engine", "run-begin", loop=self.loop.name, strategy=self.label,
            backend=self.backend.name, n_procs=self.n_procs,
            n_iterations=self.n, kernels=self.kernels_name,
        )

    def _end_ops(self) -> None:
        """Close the operational plane: stop the sampler, hand its samples
        to the Perfetto exporter (counter tracks merge at close, outside
        the deterministic stream), detach the oplog taps."""
        if self.sampler is not None:
            self.sampler.stop()
            if self._perfetto is not None:
                self._perfetto.set_resource_samples(list(self.sampler.samples))
        for tap in self._oplog_taps:
            self.oplog.remove_tap(tap)
        self._oplog_taps = []

    def _record_failure(self, exc: BaseException) -> None:
        """Operational post-mortem for an uncaught failure: one final
        resource sample, a ``run-failed`` oplog record (which the flight
        recorder's ring captures), and -- when a crash directory is
        configured -- a crash bundle.  Must never mask ``exc``."""
        try:
            if self.sampler is not None:
                self.sampler.sample_now()
            backend = self.backend
            state = {
                "backend": backend.name if backend is not None else None,
                "stage": self.stage_idx,
                "committed_upto": self.committed_upto,
                "n_iterations": self.n,
                "alive_procs": list(self.alive),
            }
            if self.supervision.active:
                state["supervision"] = self.supervision.snapshot()
            self.oplog.log(
                "engine", "run-failed", severity="error",
                loop=self.loop.name,
                error=f"{type(exc).__name__}: {exc}",
                stage=self.stage_idx, committed_upto=self.committed_upto,
            )
            crash_dir = resolve_crash_dir(self.config)
            if self.flight is not None and crash_dir:
                path = dump_bundle(
                    self.flight, crash_dir,
                    error=exc, config=self.config, state=state,
                )
                if path:
                    self.oplog.log("engine", "crash-bundle-written", path=path)
        except Exception:  # pragma: no cover - post-mortem must not mask exc
            pass

    def _run_loop(self) -> RunResult:
        loop, config, machine = self.loop, self.config, self.machine
        strategy, tracer = self.strategy, self.tracer
        n = self.n
        while self.committed_upto < n:
            if self.stage_idx >= config.max_stages:
                raise SpeculationError(
                    f"{loop.name}: exceeded max_stages={config.max_stages}"
                )
            self.degraded = len(self.alive) < self.n_procs
            if self.degraded:
                self.degraded_stages += 1

            blocks = strategy.schedule(self)
            strategy.pre_stage(self, blocks)
            stage = self.open_stage(blocks)

            # -- checkpoint + execute under fault injection ---------------------
            with tracer.phase("checkpoint", stage):
                charge_checkpoint_begin(machine, self.ckpt, self.injector, stage)
                redistributed, migration = strategy.charge_schedule(self, blocks)
            if self.untested_log is not None:
                self.untested_log.reset()
            exits: dict[int, int] = {}  # block position -> exit iteration
            faulted: dict[int, str] = {}  # block position -> fault class
            self.faulted = faulted
            preload = strategy.preloads and config.pre_initialize
            log_untested = self.untested_log is not None
            tasks = []
            for pos, block in enumerate(blocks):
                inductions, marklists = strategy.task_inputs(self, pos, block)
                tasks.append(BlockTask(
                    stage=stage, pos=pos, block=block,
                    inductions=inductions, marklists=marklists,
                    preload=preload, log_untested=log_untested,
                    plain=strategy.plain_tasks,
                ))
            with tracer.phase("execute", stage) as exec_span:
                for outcome in self.execute_tasks(tasks):
                    pos, block = outcome.pos, outcome.block
                    strategy.after_block(self, pos, block, outcome)
                    if outcome.fault is not None:
                        # A faulted block's work (and any exit it signalled)
                        # is untrusted; its processor joins the failed set.
                        faulted[pos] = outcome.fault
                        if outcome.fault_permanent and len(self.alive) > 1:
                            self.alive.remove(block.proc)
                            self.injector.mark_dead(block.proc)
                    elif (
                        self.injector is not None
                        and self.injector.corrupt(
                            stage, block.proc, self.states[block.proc]
                        ) is not None
                    ):
                        # Corrupted speculative write, caught by the stage's
                        # integrity check: discard the block's private state
                        # and re-execute, same as a failed-speculation
                        # processor.
                        faulted[pos] = "corrupt-write"
                    elif outcome.exit_iteration is not None:
                        if strategy.exit_mode == "collect":
                            exits[pos] = outcome.exit_iteration
                        elif strategy.exit_mode == "reject":
                            raise ConfigurationError(
                                f"{loop.name}: premature exits need the "
                                "blocked runner"
                            )
                    self.emit(BlockExecuted(
                        stage=stage, pos=pos, proc=block.proc,
                        start=block.start, stop=block.stop,
                        fault=faulted.get(pos),
                        exit_iteration=outcome.exit_iteration,
                    ))
                    if pos in faulted:
                        self.emit(FaultInjected(
                            stage=stage, proc=block.proc, fault=faulted[pos],
                        ))
                        # Operational echo: faults are deterministic events,
                        # but an operator tailing the oplog should see them
                        # next to the supervisor/backend records they explain.
                        self.oplog.log(
                            "faults", "fault-injected", severity="warn",
                            loop=loop.name, stage=stage, proc=block.proc,
                            fault=faulted[pos],
                        )
                    # Block spans interleave with BlockExecuted in block
                    # order; every block starts at the execute phase's
                    # virtual start (blocks run concurrently in virtual time).
                    tracer.block_span(
                        stage, block.proc,
                        outcome.host_start, outcome.host_dur,
                        exec_span.virt_start, outcome.virt_dur,
                    )
                machine.barrier()
                charge_checkpoint_fault_recovery(
                    machine, self.ckpt, self.injector, stage
                )

            # -- analyze --------------------------------------------------------
            with tracer.phase("analyze", stage):
                f_pos, n_arcs = strategy.analyze(self, blocks)
                if self.untested_log is not None:
                    self.untested_log.verify(loop.name, stage)

            # The effective failure point folds injected faults into the
            # recursion: everything from the first faulted block on
            # re-executes, exactly like blocks past the earliest sink.
            fault_pos = min(faulted) if faulted else None
            fault_forced = fault_pos is not None and (
                f_pos is None or fault_pos < f_pos
            )
            if fault_forced:
                f_pos = fault_pos
                # The fault (not a data dependence) set the failure point,
                # so this stage's re-execution is charged to fault recovery.
                self.retries += 1
                if self.metrics_enabled:
                    machine.metrics.counter("faults.forced_retries").inc()
            sink, upto = strategy.commit_point(self, blocks, f_pos)
            self.emit(DependenceFound(
                stage=stage, earliest_sink_pos=sink,
                n_arcs=n_arcs, fault_forced=fault_forced,
            ))

            # -- premature exit (DCDCMP loop 70 style) --------------------------
            # An exit is trustworthy only if its processor's own work is:
            # its block must lie strictly before the earliest failure point.
            # The earliest valid exit commits every block before it plus its
            # own block up to the exit iteration, and ends the loop.
            pos_e = min(
                (pos for pos in exits if f_pos is None or pos < f_pos), default=None
            )
            if pos_e is not None:
                e = self.exit_iteration = exits[pos_e]
                exit_block = blocks[pos_e]
                committing = blocks[:pos_e] + [
                    Block(exit_block.proc, exit_block.start, e + 1)
                ]
                failing = blocks[pos_e + 1 :]
                f_pos = sink = None
                upto = e + 1
            else:
                committing = blocks if f_pos is None else blocks[:f_pos]
                failing = [] if f_pos is None else blocks[f_pos:]
            failed_procs = [b.proc for b in failing]

            # -- commit / restore / re-init -------------------------------------
            # A stage that commits nothing is provably fault-caused (the
            # lowest-ranked block can never be an analysis sink): roll the
            # failed blocks back and retry, up to the configured bound.
            committed = upto - self.committed_upto
            retry = not committed and strategy.zero_commit(self, fault_pos == 0)
            if retry:
                self.zero_commit_streak += 1
                if self.zero_commit_streak > config.max_fault_retries:
                    raise FaultError(
                        f"gave up after {self.zero_commit_streak} consecutive "
                        "zero-progress stages wiped out by injected faults "
                        f"(max_fault_retries={config.max_fault_retries})",
                        loop=loop.name,
                        stage=stage,
                        proc=blocks[0].proc,
                    )
                self.emit(Retry(stage=stage, streak=self.zero_commit_streak))
                if self.metrics_enabled:
                    machine.metrics.counter("faults.zero_commit_retries").inc()
            elif committed:
                self.zero_commit_streak = 0
            elements, work = 0, 0.0
            with tracer.phase("commit" if committed else "restore", stage):
                if committed:
                    elements, work = strategy.commit(self, committing, failing)
                    self.sequential_work += work
                restored = perform_restore(machine, self.ckpt, failed_procs)
                if committed or retry:
                    reinit_states(machine, [self.states[p] for p in failed_procs])
                for block in committing:
                    self.states[block.proc].reset()  # committed data is shared now
            if committed:
                self.emit(Commit(
                    stage=stage, iterations=committed, elements=elements,
                    work=work, committed_upto=upto,
                ))
                self.committed_upto = n if self.exit_iteration is not None else upto
            if failing:
                self.emit(Restore(
                    stage=stage, elements=restored, procs=failed_procs,
                ))
            self.close_stage(
                blocks, committed, failed=f_pos is not None, sink=sink,
                work=work, elements=elements, restored=restored,
                n_arcs=n_arcs, redistributed=redistributed,
                migration=migration,
                faulted_procs=sorted(blocks[pos].proc for pos in faulted),
            )
            strategy.after_stage(self, committing, failing, f_pos)

        return self._finalize()

    def _finalize(self) -> RunResult:
        if self.config.self_check:
            check_final_state(self.loop, self.machine.memory, self.initial_state)
        result = RunResult(
            loop_name=self.loop.name,
            strategy=self.label,
            n_procs=self.n_procs,
            n_iterations=self.n,
            stages=self._agg.stages,
            timeline=self.machine.timeline,
            sequential_work=self.sequential_work,
            iteration_times=self.final_iter_times,
            memory=self.machine.memory,
            exit_iteration=self.exit_iteration,
            kernels=self.kernels_name,
            backend=self.backend.name,
            certificate=self.certificate,
            **self.strategy.result_extras(self),
        )
        if self.metrics_enabled:
            result.metrics = self.machine.metrics.snapshot()
        if self.supervision.reported:
            result.supervision = self.supervision.snapshot()
        if self.injector is not None:
            result.retries = self.retries
            result.faults_survived = self.injector.total_injected
            result.fault_counts = self.injector.counts()
            result.degraded_stages = self.degraded_stages
            result.dead_procs = sorted(self.injector.dead)
        return result
