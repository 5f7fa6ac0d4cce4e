"""Runtime configuration: strategy selection and optimization toggles.

The paper evaluates three strategies (Section 2) and several orthogonal
optimizations (Section 5).  :class:`RuntimeConfig` captures one combination;
the named constructors build the paper's canonical configurations:

* ``RuntimeConfig.nrd()`` -- blocked schedule, never redistribute.
* ``RuntimeConfig.rd()``  -- blocked schedule, always redistribute.
* ``RuntimeConfig.adaptive()`` -- blocked, redistribute while Eq. (4) holds.
* ``RuntimeConfig.sw(window)`` -- sliding window of ``window`` iterations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.os_chaos import OsChaosPlan
    from repro.faults.plan import FaultPlan


class Strategy(enum.Enum):
    """Top-level iteration-assignment strategy."""

    BLOCKED = "blocked"          # one block per processor (NRD/RD flavors)
    SLIDING_WINDOW = "sliding_window"


class RedistributionPolicy(enum.Enum):
    """When a blocked stage fails, what happens to the remaining iterations."""

    NEVER = "never"        # NRD: failed processors re-run their own blocks
    ALWAYS = "always"      # RD: re-block the remainder over all processors
    ADAPTIVE = "adaptive"  # RD while Eq. (4) holds, then NRD


class TestCondition(enum.Enum):
    """Which run-time condition qualifies a reference pattern (Section 2)."""

    __test__ = False  # not a pytest class, despite the name

    COPY_IN = "copy-in"
    """``(Read* | (Write|Read)*)``: reads may precede writes if private
    storage is initialized from shared data (on-demand copy-in).  Only
    cross-processor *flow* dependences invalidate speculation."""

    PRIVATIZATION = "privatization"
    """``(Write|Read)*``: every read must be covered by an earlier write on
    the same processor.  Stricter; used by the original LRPD baseline."""


@dataclass(frozen=True, slots=True)
class RuntimeConfig:
    """One complete runtime configuration."""

    strategy: Strategy = Strategy.BLOCKED
    redistribution: RedistributionPolicy | None = None
    """Blocked-strategy failure policy.  ``None`` selects the strategy's
    default (``ADAPTIVE`` for blocked, ``NEVER`` for the sliding window,
    whose circular assignment rule admits no other policy); explicitly
    passing a non-``NEVER`` policy together with the sliding window is a
    contradiction and raises :class:`ConfigurationError`."""

    condition: TestCondition = TestCondition.COPY_IN
    window_size: int | None = None
    """Sliding-window width in iterations (``None`` = 2 blocks/processor)."""

    adaptive_window: bool = False
    """Halve the window's super-iteration size after a failed window stage,
    double it back after clean stages (history-based window tuning)."""

    on_demand_checkpoint: bool = True
    """Checkpoint untested elements on first write instead of wholesale."""

    certify: str = "hint"
    """Static certification front-end (:mod:`repro.model.certify`).
    ``"off"`` disables it: every loop goes through the full speculative
    machinery.  ``"hint"`` (default) acts only on *exact* certificates --
    loops small enough for a full sequential probe run the
    zero-speculation fast path when provably DOALL, or a single
    sequential pass when provably cross-iteration dependent; SPECULATE
    certificates only contribute strategy/window hints.  ``"trust"``
    additionally acts on affine-model certificates from a sampled probe
    of large loops -- sound only if the loop really is affine (see
    docs/runtime-semantics.md for the risk model).  Certification never
    applies when an explicit strategy object is passed, or under fault
    injection / OS chaos (the fast path has no rollback machinery)."""

    pre_initialize: bool = False
    """Initialize private copies of the (dense) tested arrays by bulk copy
    before each speculative stage instead of on-demand copy-in (Section
    2's 'before the start of the speculative loop' option).  Cheaper per
    element but paid for every element; sparse arrays always stay
    on-demand."""

    feedback_balancing: bool = False
    """Re-block each instantiation using measured per-iteration times from
    the previous one (Section 5.1)."""

    max_stages: int = 100_000
    """Safety valve against runtime bugs; never hit in correct operation."""

    fault_plan: "FaultPlan | None" = None
    """Deterministic fault-injection schedule for this run (``None`` = a
    fault-free machine).  See :mod:`repro.faults`."""

    self_check: bool = False
    """Continuously verify the runtime's own guarantees: per-stage
    untested-array isolation, plus an end-of-run comparison of final shared
    memory against a sequential replay.  Raises
    :class:`~repro.errors.SelfCheckError` on violation."""

    max_fault_retries: int = 3
    """Consecutive zero-progress stage retries tolerated when injected
    faults (not data dependences) wipe out a whole stage; exceeding the
    bound raises :class:`~repro.errors.FaultError`."""

    trace_path: str | None = None
    """Write a JSONL stage-event trace of the run to this path (``None`` =
    no trace).  Every engine-based run emits the same typed event stream
    (:mod:`repro.obs.events`); this flag attaches the on-disk sink."""

    backend: str | None = None
    """Execution backend running each stage's blocks (``None`` = the
    process-wide default, normally ``"serial"``): ``"serial"`` executes
    blocks in-process one after another, ``"fork"`` dispatches them to a
    persistent pool of forked worker processes, and ``"shm"`` and
    ``"threads"`` are synonyms for ``"fork"`` and ``"serial"`` kept for
    the host-time benchmark (:mod:`repro.core.shm`,
    :mod:`repro.core.threads`).  Results and virtual-time accounting are
    bit-identical across all of them; only host wall-clock time
    changes.  Unknown names fail when the engine
    resolves the backend (:func:`repro.core.backend.make_backend`)."""

    backend_workers: int | None = None
    """Worker processes in the fork pool (``None`` = one per simulated
    processor, capped at the host CPU count)."""

    kernels: str | None = None
    """Hot-path kernels implementation (``None`` = the process-wide default,
    normally ``"vector"``): ``"vector"`` runs the numpy-vectorized batch
    primitives, ``"scalar"`` runs the pure-Python per-element reference
    loops they are differentially tested against (:mod:`repro.kernels`).
    Results, events and virtual-time accounting are bit-identical across
    both; only host wall-clock time changes."""

    worker_timeout: float = 30.0
    """Minimum seconds a worker may hold a dispatched share before the
    supervisor declares it hung, SIGKILLs and re-forks it and
    re-dispatches its blocks (:mod:`repro.core.supervise`).  This is the
    *floor* of an
    adaptive deadline: once blocks have completed, the deadline grows to
    ``worker_timeout_factor`` times the observed per-block maximum, so
    slow-but-alive workers on long blocks are never misread as hangs."""

    worker_timeout_factor: float = 8.0
    """Multiplier over the observed per-block time estimate in the
    supervisor's deadline (see ``worker_timeout``)."""

    max_worker_respawns: int = 3
    """Worker recoveries the fork pool may spend over its lifetime:
    replacement processes forked after worker crashes or hangs.  On
    exhaustion (or a poison block that kills every worker it touches) the
    pool degrades gracefully to serial instead of aborting the run."""

    os_chaos: "OsChaosPlan | None" = None
    """OS-level chaos schedule (:mod:`repro.faults.os_chaos`): SIGKILL or
    SIGSTOP real fork workers at planned (stage, worker) points to
    exercise the supervision layer.  ``None`` = no OS faults.  Composable
    with the logical ``fault_plan``.  Backends without worker
    processes (``serial``, ``threads``) run no chaos."""

    metrics: bool | None = None
    """Collect runtime metrics (:mod:`repro.obs.metrics`): counters and
    histograms over marks, copy-in/commit/checkpoint/restore element and
    byte counts, fault retries, scheduler activity.  ``None`` = the
    process-wide default (:func:`repro.obs.metrics.use_instrumentation`,
    normally off).  Metrics are deterministic and do not perturb results
    or virtual time."""

    spans: bool | None = None
    """Emit hierarchical dual-clock spans (:mod:`repro.obs.spans`):
    run -> stage -> phase -> per-block, each carrying host wall-clock and
    virtual time.  ``None`` = the process-wide default, except that a set
    ``perfetto_path`` implies spans."""

    perfetto_path: str | None = None
    """Also write the span/metric stream as Chrome trace-event JSON to
    this path for https://ui.perfetto.dev (``None`` = no export).
    Implies ``spans`` unless explicitly disabled."""

    resources: bool | None = None
    """Sample host resources (RSS, CPU time, queue depths) on a
    background thread during the run
    (:mod:`repro.obs.resources`).  ``None`` = the process default: on
    when ``status_path`` is set or the ``REPRO_RESOURCES`` environment
    variable is truthy, else off.  Samples live strictly on the
    operational plane -- never in the deterministic event stream."""

    resource_interval: float = 0.05
    """Seconds between host resource samples (must be > 0)."""

    status_path: str | None = None
    """Stream all three observability planes (deterministic events,
    oplog records, resource samples) as line-flushed JSONL to this path
    for live monitoring with ``repro top`` (``None`` = no stream).
    Implies ``resources`` unless explicitly disabled."""

    flight_events: int = 256
    """Ring-buffer capacity of the crash flight recorder
    (:mod:`repro.obs.flight`): how many recent stage events and oplog
    records are kept in memory for a crash bundle.  ``0`` disables the
    recorder entirely."""

    crash_dir: str | None = None
    """Directory receiving a crash bundle (trace tail, oplog tail,
    resource samples, config, env) when the run dies of an uncaught
    error.  ``None`` = the ``REPRO_CRASH_DIR`` environment variable, or
    no bundle when that is unset too."""

    def __post_init__(self) -> None:
        if self.window_size is not None and self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.certify not in ("off", "hint", "trust"):
            raise ConfigurationError(
                f"unknown certify mode {self.certify!r}; "
                "known: off, hint, trust"
            )
        if self.max_stages < 1:
            raise ConfigurationError("max_stages must be >= 1")
        if self.max_fault_retries < 0:
            raise ConfigurationError("max_fault_retries must be >= 0")
        if self.backend_workers is not None and self.backend_workers < 1:
            raise ConfigurationError("backend_workers must be >= 1")
        if self.worker_timeout <= 0:
            raise ConfigurationError("worker_timeout must be > 0")
        if self.worker_timeout_factor < 1:
            raise ConfigurationError("worker_timeout_factor must be >= 1")
        if self.max_worker_respawns < 0:
            raise ConfigurationError("max_worker_respawns must be >= 0")
        if self.resource_interval <= 0:
            raise ConfigurationError("resource_interval must be > 0")
        if self.flight_events < 0:
            raise ConfigurationError("flight_events must be >= 0")
        if self.kernels is not None:
            from repro.kernels import kernel_names

            if self.kernels not in kernel_names():
                raise ConfigurationError(
                    f"unknown kernels implementation {self.kernels!r}; "
                    f"known: {', '.join(kernel_names())}"
                )
        if self.redistribution is None:
            # The sliding window has its own (circular) assignment rule;
            # blocked-redistribution policies do not apply to it.
            default = (
                RedistributionPolicy.NEVER
                if self.strategy is Strategy.SLIDING_WINDOW
                else RedistributionPolicy.ADAPTIVE
            )
            object.__setattr__(self, "redistribution", default)
        elif (
            self.strategy is Strategy.SLIDING_WINDOW
            and self.redistribution is not RedistributionPolicy.NEVER
        ):
            raise ConfigurationError(
                f"redistribution={self.redistribution.value!r} conflicts with "
                "the sliding-window strategy (its circular assignment rule "
                "re-executes failed blocks in place); omit the policy or "
                "pass RedistributionPolicy.NEVER"
            )

    # -- canonical configurations ---------------------------------------------

    @classmethod
    def nrd(cls, **overrides) -> "RuntimeConfig":
        return cls(
            strategy=Strategy.BLOCKED,
            redistribution=RedistributionPolicy.NEVER,
            **overrides,
        )

    @classmethod
    def rd(cls, **overrides) -> "RuntimeConfig":
        return cls(
            strategy=Strategy.BLOCKED,
            redistribution=RedistributionPolicy.ALWAYS,
            **overrides,
        )

    @classmethod
    def adaptive(cls, **overrides) -> "RuntimeConfig":
        return cls(
            strategy=Strategy.BLOCKED,
            redistribution=RedistributionPolicy.ADAPTIVE,
            **overrides,
        )

    @classmethod
    def sw(cls, window_size: int | None = None, **overrides) -> "RuntimeConfig":
        return cls(
            strategy=Strategy.SLIDING_WINDOW,
            window_size=window_size,
            **overrides,
        )

    def label(self) -> str:
        """Short human-readable tag used in benchmark tables."""
        if self.strategy is Strategy.SLIDING_WINDOW:
            w = self.window_size if self.window_size is not None else "auto"
            return f"SW(w={w})"
        return {
            RedistributionPolicy.NEVER: "NRD",
            RedistributionPolicy.ALWAYS: "RD",
            RedistributionPolicy.ADAPTIVE: "RD-adaptive",
        }[self.redistribution]

    def with_options(self, **overrides) -> "RuntimeConfig":
        return replace(self, **overrides)
