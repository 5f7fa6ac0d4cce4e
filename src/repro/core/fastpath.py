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

**Replay.**  A certificate that rests on a full probe (``basis="trace"``)
comes with the probe, which already ran every iteration in loop order
with reference semantics on a scratch copy of memory.  Handed that probe,
either class runs the loop once, not twice: its blocks execute a *replay
body* (:func:`replay_body`) that re-issues each iteration's recorded
``ctx.work(units)`` calls, and ``exit_loop()`` where the probe exited,
with no loads or stores.  The run's memory already holds the probe's
result: :func:`repro.core.runner.parallelize` adopts the probe's
scratch image, or lands the probe's writes in the caller's arrays
(:meth:`~repro.loopir.symbolic.ProbeResult.land`), before the engine is
built.  Plain states charge nothing for loads and stores, so every
charge, ``iteration_times``, event and metric is the same float as
executing the body gives.  A replayed stage always runs in the parent.

Otherwise -- affine certificates under ``--certify=trust``, an explicit
``strategy=`` -- the blocks execute the loop body.  Out-of-process
backends see those stages as ``plain`` block tasks
(:class:`~repro.core.backend.BlockTask`): workers run on plain states
too, capturing written elements through a charge-free checkpoint so the
direct writes ship home through the same untested-delta protocol the
speculative path uses.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import RuntimeConfig
from repro.core.engine import StageEngine, Strategy
from repro.core.executor import make_plain_state
from repro.core.rlrpd import partition_blocks
from repro.errors import ConfigurationError, SpeculationError
from repro.loopir.loop import SpeculativeLoop
from repro.loopir.symbolic import ProbeResult
from repro.util.blocks import Block


def replay_body(probe: ProbeResult):
    """The body a replayed run executes: iteration ``i`` re-issues the
    probe's ``ctx.work(units)`` calls of iteration ``i`` in their order,
    then ``ctx.exit_loop()`` if the probe exited there.  It makes no
    loads or stores."""
    log = probe.work_log
    units = log[1::2]
    # A full probe's log is in iteration order: iteration i's calls are
    # units[first[i]:first[i + 1]].
    first = np.searchsorted(log[0::2], np.arange(probe.n + 1)).tolist()
    exit_at = probe.exit_at

    def replay(ctx, i):
        # hot-path: the replayed run's body; one step per recorded call
        for k in range(first[i], first[i + 1]):
            ctx.work(units[k])
        if i == exit_at:
            ctx.exit_loop()

    return replay


class _CertifiedBase(Strategy):
    """Shared plain-execution policy for both certified fast paths."""

    #: Backends run this strategy's blocks on plain states (direct
    #: shared-memory access, charge-free worker-side write capture).
    plain_tasks = True
    preloads = False  # no private views to pre-initialize

    def __init__(self, certificate=None, probe: ProbeResult | None = None) -> None:
        self.certificate = certificate
        #: The body that replays ``probe`` (see the module docstring), or
        #: None to execute the loop's own body.  The probe itself is not
        #: kept.
        self.replay = None if probe is None else replay_body(probe)

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
        if self.replay is not None:
            eng.body_loop = dataclasses.replace(eng.loop, body=self.replay)

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
