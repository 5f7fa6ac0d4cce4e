"""The LRPD / R-LRPD runtime itself.

Entry points:

* :func:`repro.core.runner.parallelize` -- run one loop instantiation under a
  :class:`~repro.config.RuntimeConfig` on a virtual machine, returning a
  :class:`~repro.core.results.RunResult`.
* :class:`repro.core.engine.StageEngine` -- the speculate/analyze/commit
  lifecycle itself, parameterized by a registered strategy
  (:func:`~repro.core.engine.resolve_strategy`); every runner above is a
  thin wrapper over it.
* :func:`repro.core.runner.run_program` -- run a sequence of instantiations
  (a loop called repeatedly over a program's life) with feedback-guided load
  balancing and aggregated parallelism-ratio accounting.
* :func:`repro.core.ddg.extract_ddg` -- sliding-window DDG extraction.
* :func:`repro.core.wavefront.wavefront_schedule` /
  :func:`repro.core.wavefront.execute_wavefront` -- optimal scheduling from
  an extracted DDG.
"""

from repro.core.results import RunResult, StageResult, ProgramResult
from repro.core.backend import backend_names, use_backend
from repro.core.engine import (
    StageEngine,
    register_strategy,
    resolve_strategy,
    strategy_for_config,
    strategy_names,
)
from repro.core.engine import Strategy as EngineStrategy
from repro.core.runner import parallelize, run_program, run_program_predictive
from repro.core.lrpd import run_doall_lrpd
from repro.core.rlrpd import run_blocked
from repro.core.iterwise import run_blocked_iterwise
from repro.core.induction_runner import run_induction
from repro.core.window import run_sliding_window
from repro.core.ddg import extract_ddg, DDGResult
from repro.core.wavefront import WavefrontSchedule, wavefront_schedule, execute_wavefront
from repro.core.listsched import ListSchedule, execute_list_schedule, list_schedule
from repro.core.listtraversal import (
    LinkedListLoop,
    TraversalRunResult,
    run_list_traversal,
)
from repro.core.verify import Certificate, StrategyVerdict, certify

__all__ = [
    "RunResult",
    "StageResult",
    "ProgramResult",
    "StageEngine",
    "EngineStrategy",
    "register_strategy",
    "resolve_strategy",
    "strategy_for_config",
    "strategy_names",
    "backend_names",
    "use_backend",
    "run_induction",
    "parallelize",
    "run_program",
    "run_program_predictive",
    "run_doall_lrpd",
    "run_blocked",
    "run_blocked_iterwise",
    "run_sliding_window",
    "extract_ddg",
    "DDGResult",
    "ListSchedule",
    "list_schedule",
    "execute_list_schedule",
    "LinkedListLoop",
    "TraversalRunResult",
    "run_list_traversal",
    "certify",
    "Certificate",
    "StrategyVerdict",
    "WavefrontSchedule",
    "wavefront_schedule",
    "execute_wavefront",
]
