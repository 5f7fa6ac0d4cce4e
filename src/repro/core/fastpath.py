"""Certified fast paths: zero-speculation execution for certified loops.

When the static certifier (:mod:`repro.model.certify`) proves a loop
independent or provably sequential, the full R-LRPD machinery is pure
overhead.  The two strategies here run the same :class:`StageEngine`
stage loop -- same events, same virtual-time accounting for the work
actually done -- but strip out everything speculation-specific:

* :class:`CertifiedDoall` partitions the iteration space once and runs
  every block on a *plain* processor state (no private views, no shadow
  arrays) with ``eng.ckpt = None``.  Every load and store takes
  :class:`~repro.core.executor.SpeculativeContext`'s direct
  shared-memory path: zero MARK/COPY_IN/CHECKPOINT charges, WORK charged
  as usual.  The analysis phase reports no sinks without charging the
  dependence test, and the commit phase copies nothing out -- the
  writes already landed in committed memory, which is exactly what the
  DOALL certificate licenses.
* :class:`CertifiedSequential` runs the whole loop as one in-order block
  on a single processor, again on a plain state.  A provably sequential
  loop would restart once per iteration under speculation; executing it
  directly skips the doomed stages (and handles premature exits
  naturally, since execution is in loop order).

Neither class is registered in the strategy registry: they are
reachable only through a certificate
(:func:`repro.model.certify.fastpath_strategy`), never via
``--strategy``, because running them on an uncertified loop would
silently compute wrong answers.

Out-of-process backends see these stages as ``plain`` block tasks
(:class:`~repro.core.backend.BlockTask`): workers run on plain states
too, capturing written elements through a charge-free checkpoint so the
direct writes ship home through the same untested-delta protocol the
speculative path uses.
"""

from __future__ import annotations

from repro.config import RuntimeConfig
from repro.core.engine import StageEngine, Strategy
from repro.core.executor import make_plain_state
from repro.core.rlrpd import partition_blocks
from repro.errors import ConfigurationError, SpeculationError
from repro.loopir.loop import SpeculativeLoop
from repro.util.blocks import Block


class _CertifiedBase(Strategy):
    """Shared plain-execution policy for both certified fast paths."""

    #: Backends run this strategy's blocks on plain states (direct
    #: shared-memory access, charge-free worker-side write capture).
    plain_tasks = True
    preloads = False  # no private views to pre-initialize

    def __init__(self, certificate=None) -> None:
        self.certificate = certificate

    def validate(self, loop: SpeculativeLoop, config: RuntimeConfig) -> None:
        # These are certifier bugs if ever hit: certify_loop returns
        # SPECULATE for all of them before a fast path can be resolved.
        if loop.inductions:
            raise ConfigurationError(
                f"loop {loop.name!r} declares induction variables; the "
                "certified fast path cannot run speculative inductions"
            )
        if loop.reductions:
            raise ConfigurationError(
                f"loop {loop.name!r} declares reductions; the certified "
                "fast path has no partials/combine phase"
            )
        # Fault tolerance rests on checkpoint/restore, which the plain
        # fast path removes; the dispatcher never certifies such runs.
        if config.fault_plan is not None:
            raise ConfigurationError(
                "certified fast paths do not support fault injection "
                "(no checkpoint to restore from); use --certify=off"
            )
        if config.os_chaos is not None:
            raise ConfigurationError(
                "certified fast paths do not support OS chaos injection; "
                "use --certify=off"
            )

    def setup(self, eng: StageEngine) -> None:
        # Plain states: every access takes the direct shared-memory path.
        eng.states = {p: make_plain_state(p) for p in range(eng.n_procs)}
        # No checkpoint: stores charge nothing, restores are no-ops.  The
        # certificate guarantees no stage ever rolls back.
        eng.ckpt = None

    def run_label(self, eng: StageEngine) -> str:
        return self.name

    def analyze(self, eng, blocks):
        # The certificate *is* the dependence test; charge nothing.
        return None, 0


class CertifiedDoall(_CertifiedBase):
    """Run a certified-DOALL loop as a plain parallel doall.

    One stage, one block per alive processor, no speculation machinery.
    ``exit_mode="reject"``: the certifier routes loops with observed
    premature exits to SPECULATE, so an exit here means the certificate
    was wrong (possible only for affine-model certificates under
    ``--certify=trust``) -- fail loudly rather than mis-commit.
    """

    name = "certified-doall"
    exit_mode = "reject"

    def schedule(self, eng: StageEngine) -> list[Block]:
        blocks = partition_blocks(eng.committed_upto, eng.n, eng.alive, eng.weights)
        nonempty = [b for b in blocks if len(b)]
        if not nonempty:
            raise SpeculationError(
                f"{eng.loop.name}: empty schedule with work left"
            )
        return nonempty


class CertifiedSequential(_CertifiedBase):
    """Run a certified-SEQUENTIAL loop in order on one processor.

    A single block covering the whole remaining range executes with
    reference semantics (plain state, in loop order), so premature exits
    are simply collected and committed -- execution never passed the
    exit iteration.
    """

    name = "certified-seq"
    exit_mode = "collect"

    def schedule(self, eng: StageEngine) -> list[Block]:
        if not eng.alive:
            raise SpeculationError(f"{eng.loop.name}: no processors alive")
        return [Block(eng.alive[0], eng.committed_upto, eng.n)]
