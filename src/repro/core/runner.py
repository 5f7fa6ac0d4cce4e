"""Top-level entry points: one instantiation, or a program's worth of them."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.config import RuntimeConfig
from repro.core.engine import StageEngine, strategy_for_config
from repro.core.results import ProgramResult, RunResult
from repro.loopir.loop import SpeculativeLoop
from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.model.certify import certify_loop, fastpath_strategy
from repro.obs.metrics import MetricsRegistry, resolve_metrics_enabled
from repro.sched.feedback import FeedbackBalancer


def parallelize(
    loop: SpeculativeLoop,
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    weights: np.ndarray | None = None,
    memory: MemoryImage | None = None,
    strategy=None,
    sinks=(),
) -> RunResult:
    """Speculatively parallelize one loop instantiation.

    Unless an explicit ``strategy`` object is passed, resolves one through
    the engine registry (:func:`repro.core.engine.strategy_for_config`):

    * loops with speculative induction variables go through the two-phase
      induction strategy;
    * ``Strategy.SLIDING_WINDOW`` selects the SW strategy;
    * otherwise the blocked redistribution policy picks NRD / RD / adaptive.

    ``sinks`` are extra event subscribers (:mod:`repro.obs.sinks`) attached
    alongside the engine's own.  The returned result's final shared state
    always equals a sequential execution of the loop -- the runtime's
    fundamental guarantee.

    With ``config.certify`` at its default ``"hint"`` (or ``"trust"``),
    the certification front-end (:mod:`repro.model.certify`) examines the
    loop first: a certified-DOALL loop runs on the zero-speculation fast
    path, a certified-SEQUENTIAL loop runs in order on one processor, and
    anything else proceeds speculatively with the certificate attached to
    the result.  A fast path whose certificate rests on a full probe
    replays that probe instead of running the loop body a second time
    (:mod:`repro.core.fastpath`); ``memory``, when given, still receives
    the writes in place.  Certification never applies when the caller
    passes an explicit ``strategy`` or injects faults/OS chaos (the fast
    paths drop the checkpoint machinery recovery depends on);
    ``certify="off"`` disables it entirely.
    """
    config = config or RuntimeConfig.adaptive()
    certificate = None
    if (
        strategy is None
        and config.certify != "off"
        and config.fault_plan is None
        and config.os_chaos is None
    ):
        certificate, strategy, memory = _certified(loop, memory, config)
    strategy = strategy or strategy_for_config(loop, config)
    return StageEngine(
        loop, n_procs, strategy, config, costs=costs, weights=weights,
        memory=memory, sinks=sinks, certificate=certificate,
    ).run()


def _certified(loop: SpeculativeLoop, memory: MemoryImage | None, config):
    """Certify ``loop``: its certificate, fast-path strategy (or None) and
    start image.  When the fast path replays the full probe, the start
    image already holds the probe's result; the probe (log and scratch
    image) is freed on return, before the engine is built."""
    probes: list = []
    certificate = certify_loop(loop, memory=memory, evidence=probes)
    # A self-check run executes the body, so the oracle checks it.
    if not probes or config.self_check:
        return certificate, fastpath_strategy(certificate, config), memory
    probe = probes[0]
    if memory is None:
        memory = probe.scratch  # the probe ran on a fresh image: adopt it
    else:
        probe.land(memory)  # in place: callers hold the arrays
    return certificate, fastpath_strategy(certificate, config, probe), memory


def run_program(
    instantiations: Iterable[SpeculativeLoop] | Sequence[SpeculativeLoop],
    n_procs: int,
    config: RuntimeConfig | None = None,
    costs: CostModel | None = None,
    balancer: FeedbackBalancer | None = None,
) -> ProgramResult:
    """Run successive instantiations of a loop over a program's lifetime.

    This is the unit the paper's parallelism ratio is defined over:
    ``PR = #instantiations / (#restarts + #instantiations)``.  With
    ``config.feedback_balancing`` the measured per-iteration times of each
    instantiation re-block the next one (Section 5.1).

    Each instantiation carries its own initial memory image (the generators
    produce per-call input state); programs that thread shared state across
    calls can pass prepared loops whose ``materialize`` reflects it.
    """
    config = config or RuntimeConfig.adaptive()
    if balancer is None:
        # The balancer outlives single runs, so it carries its own
        # program-scoped registry when the config asks for metrics.
        balancer = FeedbackBalancer(
            metrics=MetricsRegistry(enabled=resolve_metrics_enabled(config))
        )
    program: ProgramResult | None = None
    for loop in instantiations:
        weights = None
        if config.feedback_balancing:
            weights = balancer.predict(loop.name, loop.n_iterations)
        result = parallelize(loop, n_procs, config, costs, weights=weights)
        if config.feedback_balancing:
            balancer.record(loop.name, result.iteration_times, loop.n_iterations)
        if program is None:
            program = ProgramResult(
                loop_name=result.loop_name,
                strategy=result.strategy,
                n_procs=n_procs,
            )
        program.add(result)
    if program is None:
        raise ValueError("run_program needs at least one instantiation")
    return program


def run_program_predictive(
    instantiations: Iterable[SpeculativeLoop],
    n_procs: int,
    predictor: "StrategyPredictor",
    costs: CostModel | None = None,
    balancer: FeedbackBalancer | None = None,
) -> ProgramResult:
    """Run a program with per-instantiation strategy selection.

    Each instantiation's configuration comes from the history-based
    :class:`~repro.sched.predictor.StrategyPredictor` (the paper's only
    stated mechanism for choosing between SW and (N)RD); the outcome is fed
    back so later instantiations exploit the best observed strategy.
    Feedback balancing applies whenever the chosen configuration enables it.
    """
    from repro.sched.predictor import StrategyPredictor  # noqa: F401 (doc link)

    balancer = balancer or FeedbackBalancer()
    program: ProgramResult | None = None
    for loop in instantiations:
        config = predictor.choose(loop.name)
        weights = None
        if config.feedback_balancing:
            weights = balancer.predict(loop.name, loop.n_iterations)
        result = parallelize(loop, n_procs, config, costs, weights=weights)
        predictor.record(loop.name, config, result)
        if config.feedback_balancing:
            balancer.record(loop.name, result.iteration_times, loop.n_iterations)
        if program is None:
            program = ProgramResult(
                loop_name=result.loop_name,
                strategy="predictive",
                n_procs=n_procs,
            )
        program.add(result)
    if program is None:
        raise ValueError("run_program_predictive needs at least one instantiation")
    return program
