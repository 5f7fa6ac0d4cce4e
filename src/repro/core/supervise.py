"""Worker-pool supervision: crash/hang detection and bit-identical recovery.

The fork backend runs each stage's blocks on real OS processes, so it
inherits real OS failure modes the logical fault injector
(:mod:`repro.faults`) never produces: a worker SIGKILLed by the OOM
killer, wedged in uninterruptible sleep, or stopped by SIGSTOP.  Before
this layer existed, a dead worker raised a terminal
:class:`~repro.errors.BackendError` and a hung one blocked the parent
forever in ``conn.recv()``.

:class:`WorkerSupervisor` wraps every dispatch:

* **liveness-aware collection** -- replies are gathered with
  ``multiprocessing.connection.wait`` over each pending worker's pipe
  *and* process sentinel, under a deadline derived from a per-block time
  estimate (floored by ``RuntimeConfig.worker_timeout``), so death and
  hang are both detected without ever blocking indefinitely;
* **bit-identical re-dispatch** -- a lost worker is reaped (SIGKILL, which
  a stopped process cannot ignore), a replacement is forked from the
  parent's current (still pre-merge) state after an exponential backoff,
  and the lost blocks are re-sent.  Workers write only their own
  copy-on-write memory, so a dead worker leaves nothing to roll back.
  Because backends merge deltas only after *all* replies arrive, the
  parent's memory, states, events and timeline are untouched mid-stage;
  the killed attempt is invisible and the replayed blocks produce
  exactly the outcome an undisturbed run would;
* **graceful degradation** -- when the respawn budget
  (``RuntimeConfig.max_worker_respawns``) is exhausted, or one block kills
  its worker repeatedly (a poison block), the supervisor halts the pool
  and raises :class:`PoolDegradation`; the engine catches it, emits a
  ``BackendDegraded`` event and re-runs the same tasks on the serial
  backend for the remainder of the run.

Supervision outcomes deliberately stay **out** of the deterministic event
and metrics streams: a disturbed run must produce a bit-identical trace to
an undisturbed one (the golden acceptance bar).  Counters live on the
engine's :class:`SupervisionStats` (surfaced as ``RunResult.supervision``
and ``StageResult.redispatched_procs``) -- beside the counts of stages a
fork pool ran in the parent or dispatched, which stay out of those
streams for the same reason -- and kill/respawn/redispatch
timings are logged as ``supervise`` records through the unified oplog
(:mod:`repro.obs.oplog`; point ``REPRO_OPLOG`` at a path; CI uploads it
on chaos-job failure).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.obs.oplog import get_oplog

#: Exponential respawn backoff: ``_BACKOFF_BASE * 2**n`` seconds, capped.
_BACKOFF_BASE = 0.01
_BACKOFF_CAP = 0.5

#: Worker deaths tolerated per (stage, block position) before the block is
#: quarantined as poison and the pool degrades.
_MAX_BLOCK_DEATHS = 2

#: Grace period for reaping an already-SIGKILLed process.
_REAP_TIMEOUT = 5.0

#: Oplog severity per supervision event (default ``info``).
_SEVERITIES = {
    "worker-found-dead": "warn",
    "worker-died": "warn",
    "worker-overdue": "warn",
    "pool-degraded": "error",
}


#: :class:`SupervisionStats` counters that record where stages ran, not
#: fault handling.
DISPATCH_COUNTERS = ("inline_stages", "dispatched_stages", "pools_started")


def supervision_acted(snapshot: dict) -> bool:
    """Whether a ``RunResult.supervision`` snapshot records fault handling
    rather than only the dispatch counts."""
    return any(
        value for key, value in snapshot.items()
        if key.removeprefix("supervise.") not in DISPATCH_COUNTERS
    )


@dataclass
class SupervisionStats:
    """Engine-lifetime counters of OS-level fault handling.

    Kept separate from the machine's metrics registry on purpose: these
    counters reflect host scheduling accidents, and folding them into the
    deterministic metrics/event streams would break the bit-identical
    trace guarantee supervised recovery is designed to preserve.
    """

    respawns: int = 0
    """Replacement workers forked (mid-stage and between-stage)."""

    redispatched_blocks: int = 0
    """Blocks re-sent after their original worker was lost."""

    kills: int = 0
    """Processes the supervisor SIGKILLed (overdue or wedged)."""

    overdue: int = 0
    """Workers that exceeded their dispatch deadline (hangs/stops)."""

    found_dead: int = 0
    """Workers found dead at dispatch time (died between stages)."""

    quarantined_blocks: int = 0
    """Blocks that killed their worker ``_MAX_BLOCK_DEATHS`` times."""

    degradations: list[dict] = field(default_factory=list)
    """One record per backend fallback: stage, from, to, reason."""

    stage_redispatched_procs: list[int] = field(default_factory=list)
    """Scratch: processors re-dispatched since the last stage drain."""

    inline_stages: int = 0
    """Fork-pool stages run in the parent: their dispatch would not
    have paid (:meth:`~repro.core.backend.ForkBackend.dispatch_pays`)."""

    dispatched_stages: int = 0
    """Fork-pool stages sent to the worker pool."""

    pools_started: int = 0
    """Worker pools started (lazily, on the first dispatched stage)."""

    @property
    def active(self) -> bool:
        """Whether any supervision action happened this run."""
        return bool(
            self.respawns or self.redispatched_blocks or self.kills
            or self.overdue or self.found_dead or self.quarantined_blocks
            or self.degradations
        )

    @property
    def reported(self) -> bool:
        """Whether ``RunResult.supervision`` carries this run's counters:
        supervision acted, or a fork pool decided where stages run."""
        return self.active or bool(self.inline_stages or self.dispatched_stages)

    def take_stage_redispatched(self) -> list[int]:
        """Drain the per-stage redispatch scratch (engine calls this once
        per :class:`~repro.core.results.StageResult` construction)."""
        procs = sorted(set(self.stage_redispatched_procs))
        self.stage_redispatched_procs.clear()
        return procs

    def snapshot(self) -> dict:
        """Flat ``supervise.*`` counter dict for ``RunResult.supervision``."""
        return {
            "supervise.respawns": self.respawns,
            "supervise.redispatched_blocks": self.redispatched_blocks,
            "supervise.kills": self.kills,
            "supervise.overdue": self.overdue,
            "supervise.found_dead": self.found_dead,
            "supervise.quarantined_blocks": self.quarantined_blocks,
            "supervise.degradations": list(self.degradations),
            **{f"supervise.{k}": v for k, v in self.dispatch_counts().items()},
        }

    def dispatch_counts(self) -> dict:
        """Where the fork pool ran its stages (host plane only)."""
        return {name: getattr(self, name) for name in DISPATCH_COUNTERS}


class PoolDegradation(Exception):
    """Internal control flow: this worker pool is beyond per-worker repair.

    Raised by the supervisor after it has halted the pool; the engine
    catches it and fails over to the serial backend.  Never escapes the
    engine: if even serial were to fail the failure is a real error, and
    serial never raises this.
    """

    def __init__(
        self, backend: str, reason: str, *, stage: int | None = None,
        worker: int | None = None, pid: int | None = None,
        blocks: tuple[int, ...] = (),
    ) -> None:
        self.backend = backend
        self.reason = reason
        self.stage = stage
        self.worker = worker
        self.pid = pid
        self.blocks = list(blocks)
        detail = []
        if worker is not None:
            detail.append(f"worker {worker}")
        if pid is not None:
            detail.append(f"pid {pid}")
        if self.blocks:
            detail.append(f"blocks {self.blocks}")
        suffix = f" ({', '.join(detail)})" if detail else ""
        super().__init__(f"{backend} backend pool degraded: {reason}{suffix}")


class WorkerSupervisor:
    """Supervises one backend's worker pool across its lifetime.

    State machine per worker, per dispatch::

        healthy --reply--> done
        healthy --sentinel fires / EOF--> dead --respawn--> redispatched
        healthy --deadline passes--> overdue --SIGKILL--> dead --> ...
        dead, budget exhausted or poison block --> degraded (PoolDegradation)

    The respawn budget and poison-block counters span the backend
    instance's whole run (not one dispatch), so a flaky host cannot make
    the engine loop forever on respawns.
    """

    def __init__(self, backend) -> None:
        self.backend = backend
        eng = backend.eng
        config = getattr(eng, "config", None)
        self.timeout = float(getattr(config, "worker_timeout", 30.0))
        self.factor = float(getattr(config, "worker_timeout_factor", 8.0))
        self.max_respawns = int(getattr(config, "max_worker_respawns", 3))
        stats = getattr(eng, "supervision", None)
        self.stats = stats if stats is not None else SupervisionStats()
        self.chaos = getattr(eng, "os_chaos", None)
        self.respawns_used = 0
        self._block_deaths: dict[tuple[int, int], int] = {}
        self._per_block_est = 0.0
        self._sent: dict[int, float] = {}
        self._shares: list[list] = []
        self._t0 = time.monotonic()

    # -- dispatch/collect loop ---------------------------------------------------

    def run_shares(self, shares: list[list]) -> list:
        """Send one share per worker, survive losses, return all replies.

        Either returns a reply per share (the undisturbed protocol's
        result, possibly via replacement workers) or raises: a worker
        *exception* propagates as :class:`~repro.errors.BackendError`
        (deterministic bugs are not survivable faults), an unrecoverable
        pool raises :class:`PoolDegradation` after cleanup.
        """
        self._shares = shares
        replies: list = [None] * len(shares)
        pending: dict[int, float] = {}
        for k, share in enumerate(shares):
            self._dispatch(k, share, fresh=False, pending=pending)
        while pending:
            lost = self._collect(pending, replies)
            if lost:
                self._recover(lost, pending)
        # Nothing is in flight between stages; the resource sampler reads
        # ``_sent`` for its inflight gauge, so don't leave stale entries.
        self._sent.clear()
        return replies

    def _dispatch(self, k: int, share: list, fresh: bool, pending: dict) -> None:
        backend = self.backend
        process, _ = backend._workers[k]
        if not process.is_alive():
            # Died between stages (e.g. killed right after its last
            # reply): replace before dispatching.  The replacement forks
            # from the parent's current committed state, so it needs the
            # full-sync ``fresh`` dispatch.
            self.stats.found_dead += 1
            self._log("worker-found-dead", k, share)
            self._reap(k)
            self._respawn_slot(k, share)
            fresh = True
        self._freeze_for_chaos(k, share)
        try:
            backend._send_share(k, share, fresh)
        except (BrokenPipeError, OSError):
            # Lost between the liveness check and the send.
            self.stats.found_dead += 1
            self._log("worker-found-dead", k, share)
            self._reap(k)
            self._respawn_slot(k, share)
            self._freeze_for_chaos(k, share)
            backend._send_share(k, share, fresh=True)
        now = time.monotonic()
        self._sent[k] = now
        pending[k] = now + self._deadline_for(share)
        self._fire_chaos(k, share)

    def _collect(self, pending: dict, replies: list) -> list[int]:
        """Gather replies until every pending worker resolved; return the
        workers lost (dead or overdue) this round."""
        backend = self.backend
        shares = self._shares
        lost: list[int] = []
        while pending:
            now = time.monotonic()
            timeout = max(0.0, min(pending.values()) - now)
            waitables: list = []
            owner: dict = {}
            for k in pending:
                process, conn = backend._workers[k]
                waitables.append(conn)
                owner[conn] = k
                waitables.append(process.sentinel)
                owner[process.sentinel] = k
            ready = connection.wait(waitables, timeout=timeout)
            progressed = False
            for obj in ready:
                k = owner[obj]
                if k not in pending:
                    continue  # worker resolved via its other waitable
                process, conn = backend._workers[k]
                dead = False
                if conn.poll(0):
                    # A reply (possibly fully buffered by a worker that
                    # died right after sending it) takes precedence over
                    # the death sentinel: the work is complete and valid.
                    try:
                        replies[k] = backend._recv_share(k, shares[k])
                    except (EOFError, OSError):
                        dead = True  # EOF or partial frame: no reply can come
                    else:
                        del pending[k]
                        progressed = True
                        self._note_duration(k, shares[k])
                        continue
                if dead or not process.is_alive():
                    del pending[k]
                    lost.append(k)
                    progressed = True
                    self._log("worker-died", k, shares[k])
                    self._reap(k)
            if not progressed:
                now = time.monotonic()
                for k in [k for k, dl in pending.items() if now >= dl]:
                    del pending[k]
                    lost.append(k)
                    self.stats.overdue += 1
                    self._log("worker-overdue", k, shares[k])
                    self._reap(k)
        return lost

    def _recover(self, lost: list[int], pending: dict) -> None:
        """Respawn and re-dispatch the lost workers' shares."""
        backend = self.backend
        shares = self._shares
        for k in lost:
            for task in shares[k]:
                key = (task.stage, task.pos)
                deaths = self._block_deaths.get(key, 0) + 1
                self._block_deaths[key] = deaths
                if deaths >= _MAX_BLOCK_DEATHS:
                    self.stats.quarantined_blocks += 1
                    self._fail_pool(PoolDegradation(
                        backend.name,
                        f"block at stage {task.stage} position {task.pos} "
                        f"killed its worker {deaths} times (poison block)",
                        stage=task.stage, worker=k,
                        blocks=tuple(t.pos for t in shares[k]),
                    ))
        for k in lost:
            self._respawn_slot(k, shares[k])
            self._dispatch(k, shares[k], fresh=True, pending=pending)
            self.stats.redispatched_blocks += len(shares[k])
            self.stats.stage_redispatched_procs.extend(
                task.block.proc for task in shares[k]
            )
            self._log("blocks-redispatched", k, shares[k])

    # -- per-worker actions ------------------------------------------------------

    def _reap(self, k: int) -> None:
        """Make worker slot ``k``'s process unconditionally gone.

        SIGKILL rather than SIGTERM: a SIGSTOPped process keeps SIGTERM
        pending forever, but SIGKILL acts on stopped processes too.
        """
        process, conn = self.backend._workers[k]
        if process.is_alive():
            process.kill()
            self.stats.kills += 1
        process.join(timeout=_REAP_TIMEOUT)
        try:
            conn.close()
        except OSError:  # pragma: no cover - close on a broken fd
            pass

    def _respawn_slot(self, k: int, share: list) -> None:
        backend = self.backend
        if self.respawns_used >= self.max_respawns:
            process, _ = backend._workers[k]
            self._fail_pool(PoolDegradation(
                backend.name,
                "worker respawn budget exhausted "
                f"(max_worker_respawns={self.max_respawns})",
                stage=share[0].stage if share else None, worker=k,
                pid=process.pid, blocks=tuple(t.pos for t in share),
            ))
        time.sleep(min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** self.respawns_used)))
        backend._workers[k] = backend._spawn_worker()
        self.respawns_used += 1
        self.stats.respawns += 1
        self._log("worker-respawned", k, share)

    def _fail_pool(self, exc: PoolDegradation) -> None:
        """Give up on this pool: halt every worker and raise (nothing was
        merged, so the whole stage re-runs on the fallback backend)."""
        self.backend._halt_workers()
        self._log("pool-degraded", exc.worker if exc.worker is not None else -1,
                  [], extra={"reason": str(exc)})
        raise exc

    # -- deadlines and chaos -----------------------------------------------------

    def _deadline_for(self, share: list) -> float:
        """Seconds this share may stay in flight: the configured floor, or
        the adaptive estimate (observed per-block max x factor) when that
        is larger -- long blocks must not be misread as hangs."""
        return max(
            self.timeout,
            self.factor * self._per_block_est * max(1, len(share)),
        )

    def _note_duration(self, k: int, share: list) -> None:
        if share:
            dur = time.monotonic() - self._sent[k]
            self._per_block_est = max(self._per_block_est, dur / len(share))

    def _freeze_for_chaos(self, k: int, share: list) -> None:
        if self.chaos is None or not share:
            return
        process, _ = self.backend._workers[k]
        self.chaos.before_dispatch(share[0].stage, k, process)

    def _fire_chaos(self, k: int, share: list) -> None:
        if self.chaos is None or not share:
            return
        process, _ = self.backend._workers[k]
        for action in self.chaos.after_dispatch(share[0].stage, k, process):
            self._log(f"chaos-{action}", k, share)

    # -- operational log ---------------------------------------------------------

    def _log(self, event: str, k: int, share: list, extra: dict | None = None) -> None:
        """One ``supervise`` record through the unified oplog, with ``t``
        relative to the supervisor's creation."""
        workers = self.backend._workers or []
        fields = {
            "backend": self.backend.name,
            "worker": k,
            "pid": workers[k][0].pid if 0 <= k < len(workers) else None,
            "stage": share[0].stage if share else None,
            "blocks": [task.pos for task in share],
            "procs": [task.block.proc for task in share],
            "t": round(time.monotonic() - self._t0, 6),
        }
        if extra:
            fields.update(extra)
        get_oplog().log(
            "supervise", event,
            severity=_SEVERITIES.get(event, "info"), **fields,
        )
