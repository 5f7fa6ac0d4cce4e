"""repro -- The R-LRPD Test: speculative parallelization of partially
parallel loops.

A faithful, deterministic reproduction of Dang, Yu & Rauchwerger (IPDPS
2002) on a virtual-time simulated multiprocessor.  Quick start::

    import numpy as np
    from repro import ArraySpec, SpeculativeLoop, RuntimeConfig, parallelize

    def body(ctx, i):
        x = ctx.load("A", i)
        ctx.store("A", (i * 7 + 3) % 64, x + 1.0)

    loop = SpeculativeLoop(
        name="demo", n_iterations=64, body=body,
        arrays=[ArraySpec("A", np.zeros(64))],
    )
    result = parallelize(loop, n_procs=8, config=RuntimeConfig.adaptive())
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro.config import (
    RedistributionPolicy,
    RuntimeConfig,
    Strategy,
    TestCondition,
)
from repro.core import (
    DDGResult,
    EngineStrategy,
    ProgramResult,
    RunResult,
    StageEngine,
    StageResult,
    WavefrontSchedule,
    backend_names,
    execute_wavefront,
    extract_ddg,
    parallelize,
    register_strategy,
    resolve_strategy,
    run_blocked,
    run_blocked_iterwise,
    run_doall_lrpd,
    run_induction,
    run_program,
    run_sliding_window,
    strategy_for_config,
    strategy_names,
    use_backend,
    wavefront_schedule,
)
from repro.obs import (
    AggregatingSink,
    CliProgressSink,
    EventSink,
    JsonlTraceSink,
    MetricsRegistry,
    PerfettoTraceSink,
    RecordingSink,
    chrome_trace,
    event_from_dict,
    load_trace,
    render_metrics,
    run_report,
    use_instrumentation,
    validate_events,
    write_perfetto,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    FaultError,
    InspectorUnavailableError,
    NoProgressError,
    ReproError,
    ScheduleError,
    SelfCheckError,
    SpeculationError,
)
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    random_plan,
)
from repro.loopir import (
    ArraySpec,
    InductionSpec,
    IterationContext,
    ReductionOp,
    SpeculativeLoop,
)
from repro.core import (
    Certificate,
    LinkedListLoop,
    ListSchedule,
    TraversalRunResult,
    certify,
    execute_list_schedule,
    list_schedule,
    run_list_traversal,
)
from repro.machine import CostModel, Machine, MemoryImage, SharedArray, Topology
from repro.baselines import (
    run_doacross,
    run_inspector_executor,
    run_sequential,
    sequential_reference,
)
from repro.core import run_program_predictive
from repro.sched import FeedbackBalancer, StrategyPredictor, WindowPredictor

__version__ = "1.0.0"

__all__ = [
    # configuration
    "RuntimeConfig",
    "Strategy",
    "RedistributionPolicy",
    "TestCondition",
    "CostModel",
    # loop IR
    "SpeculativeLoop",
    "ArraySpec",
    "InductionSpec",
    "IterationContext",
    "ReductionOp",
    # machine
    "Machine",
    "MemoryImage",
    "SharedArray",
    "Topology",
    "ListSchedule",
    "list_schedule",
    "execute_list_schedule",
    "LinkedListLoop",
    "TraversalRunResult",
    "run_list_traversal",
    "certify",
    "Certificate",
    # engine & strategy registry
    "StageEngine",
    "EngineStrategy",
    "register_strategy",
    "resolve_strategy",
    "strategy_for_config",
    "strategy_names",
    "backend_names",
    "use_backend",
    # stage-event observability
    "EventSink",
    "RecordingSink",
    "JsonlTraceSink",
    "CliProgressSink",
    "AggregatingSink",
    "validate_events",
    "event_from_dict",
    # metrics, spans, reports
    "MetricsRegistry",
    "use_instrumentation",
    "render_metrics",
    "PerfettoTraceSink",
    "chrome_trace",
    "load_trace",
    "run_report",
    "write_perfetto",
    # runtime
    "parallelize",
    "run_program",
    "run_blocked",
    "run_blocked_iterwise",
    "run_sliding_window",
    "run_induction",
    "run_doall_lrpd",
    "extract_ddg",
    "wavefront_schedule",
    "execute_wavefront",
    "WavefrontSchedule",
    "DDGResult",
    "RunResult",
    "StageResult",
    "ProgramResult",
    "FeedbackBalancer",
    "StrategyPredictor",
    "WindowPredictor",
    "run_program_predictive",
    # fault injection & self-verification
    "FaultPlan",
    "FaultEvent",
    "FaultKind",
    "FaultInjector",
    "random_plan",
    # baselines
    "run_sequential",
    "sequential_reference",
    "run_inspector_executor",
    "run_doacross",
    # errors
    "ReproError",
    "ConfigurationError",
    "SpeculationError",
    "NoProgressError",
    "InspectorUnavailableError",
    "CheckpointError",
    "ScheduleError",
    "FaultError",
    "SelfCheckError",
]
