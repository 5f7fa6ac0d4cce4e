"""Exception hierarchy for the R-LRPD runtime.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch runtime-system failures without masking programming errors
(``TypeError``/``ValueError`` raised on misuse are left as built-ins).

Errors carry optional structured context -- the loop, stage and processor
involved -- so a failure deep inside a multi-stage run (or a chaos sweep
over thousands of seeded fault plans) pinpoints itself without string
parsing: ``exc.loop``, ``exc.stage`` and ``exc.proc`` are machine-readable
and are appended to the message when present.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    ``loop`` / ``stage`` / ``proc`` identify where in a run the error arose
    (loop name, driver stage index, processor rank); each is ``None`` when
    not applicable.
    """

    def __init__(
        self,
        message: str = "",
        *,
        loop: str | None = None,
        stage: int | None = None,
        proc: int | None = None,
    ) -> None:
        self.loop = loop
        self.stage = stage
        self.proc = proc
        context = [
            f"{label}={value}"
            for label, value in (("loop", loop), ("stage", stage), ("proc", proc))
            if value is not None
        ]
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class ConfigurationError(ReproError):
    """An invalid :class:`repro.config.RuntimeConfig` combination was given."""


class SpeculationError(ReproError):
    """Speculative execution reached an inconsistent internal state.

    This indicates a bug in the runtime (e.g. a stage failed to make
    progress), never a data dependence in the user's loop: dependences are
    an expected outcome handled by re-execution, not an error.
    """


class NoProgressError(SpeculationError):
    """A recursive stage committed zero processors.

    The R-LRPD invariant guarantees the lowest-ranked processor of every
    stage executes correctly, so a stage that commits nothing means the
    analysis phase or commit logic is broken.  (A stage zeroed by an
    *injected fault* is not an error -- the drivers retry it within the
    configured bound and raise :class:`FaultError` only past the bound.)
    """


class FaultError(ReproError):
    """An injected fault could not be recovered.

    Raised when every processor has permanently fail-stopped, or when
    fault-induced zero-progress retries exceed
    ``RuntimeConfig.max_fault_retries``.  Carries the loop/stage/proc
    context of the unrecoverable fault.
    """


class SelfCheckError(SpeculationError):
    """Runtime self-verification (``RuntimeConfig.self_check``) failed.

    Either a stage violated the untested-array isolation contract, or the
    final shared memory diverged from the sequential oracle -- in both
    cases the run's output cannot be trusted.
    """


class InspectorUnavailableError(ReproError):
    """Raised by the inspector/executor baseline for loops without a proper
    inspector (address computation depends on loop data, so a side-effect
    free inspector cannot be extracted -- the exact limitation the R-LRPD
    test removes)."""


class CheckpointError(ReproError):
    """Checkpoint or restore of untested shared state failed."""


class BackendError(ReproError):
    """An execution backend (:mod:`repro.core.backend`) failed to dispatch
    or merge a stage's blocks: a worker raised an exception, or the
    stage's schedule violated the backend's one-block-per-processor
    contract.  Worker-raised failures identify the worker slot, its pid
    and the in-flight blocks (stage, block positions, processors) in the
    message; a loop body's own exception is raised as itself, chained
    from this error.  Distinct from :class:`ConfigurationError`: the configuration
    was valid, the host-side execution machinery broke.  A worker that
    merely *dies* or hangs no longer raises this -- the supervisor
    (:mod:`repro.core.supervise`) respawns it and re-dispatches the lost
    blocks, degrading to serial if the pool is beyond repair."""


class ScheduleError(ReproError):
    """An iteration schedule (block partition, window, wavefront) is
    malformed: overlapping blocks, gaps, or out-of-order assignment."""
