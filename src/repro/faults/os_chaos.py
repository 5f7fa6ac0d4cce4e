"""OS-level chaos: kill or stop *real* worker processes under test control.

The logical injector (:mod:`repro.faults.plan`) simulates faults inside a
healthy process -- the runtime's recovery protocol is exercised, but the
process tree never actually breaks.  This module breaks it for real: an
:class:`OsChaosPlan` names (stage, worker-slot) points at which the
supervisor (:mod:`repro.core.supervise`) delivers a genuine ``SIGKILL``
(crash) or ``SIGSTOP`` (hang) to the worker's pid.

The target is frozen with ``SIGSTOP`` *before* its share is sent and the
event acts right after the send, so the worker never reads its share:
a killed worker cannot have replied, and a stopped one cannot finish,
however fast the host schedules it.  (A share larger than the pipe's
buffer would block the send to the frozen worker; chaos plans drive
small test loops.)  Firing parent-side also keeps the chaos
deterministic at the process level -- each planned event fires exactly
once per run, and
the :class:`OsChaosInjector`'s fired set lives on the *engine*, so a
fallback backend spun up after degradation does not replay events the
previous backend already absorbed.  The two injectors compose: a run may
carry both a logical ``fault_plan`` and an ``os_chaos`` plan.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

KILL = "kill"
"""Deliver SIGKILL: the worker vanishes mid-share (crash/OOM model)."""

STOP = "stop"
"""Deliver SIGSTOP: the worker freezes and trips the supervisor's
deadline (hang/straggler model); the supervisor's reap SIGKILLs it."""


@dataclass(frozen=True, slots=True)
class OsChaosEvent:
    """One planned OS fault: act on worker slot ``worker`` the first time
    it is dispatched a share of stage ``stage``."""

    stage: int
    worker: int
    action: str = KILL

    def __post_init__(self) -> None:
        if self.action not in (KILL, STOP):
            raise ValueError(
                f"unknown os-chaos action {self.action!r}; "
                f"use {KILL!r} or {STOP!r}"
            )
        if self.stage < 0 or self.worker < 0:
            raise ValueError("os-chaos stage and worker must be >= 0")


@dataclass(frozen=True, slots=True)
class OsChaosPlan:
    """A deterministic schedule of OS faults for one run."""

    events: tuple[OsChaosEvent, ...] = ()

    @classmethod
    def kill_workers(cls, stage: int, workers) -> "OsChaosPlan":
        return cls(tuple(OsChaosEvent(stage, w, KILL) for w in workers))

    @classmethod
    def stop_workers(cls, stage: int, workers) -> "OsChaosPlan":
        return cls(tuple(OsChaosEvent(stage, w, STOP) for w in workers))


class OsChaosInjector:
    """Fires a plan's events against live worker processes, once each.

    Owned by the engine (not the backend): its fired set must survive
    backend degradation, or the fallback pool would be killed by the same
    events all over again.
    """

    def __init__(self, plan: OsChaosPlan) -> None:
        self.plan = plan
        self._fired: set[int] = set()
        self.fired_events: list[OsChaosEvent] = []
        self.fired_pids: list[int] = []

    def _due(self, stage: int, worker: int):
        """``(index, event)`` of the unfired events for this dispatch."""
        return [
            (idx, event) for idx, event in enumerate(self.plan.events)
            if idx not in self._fired
            and event.stage == stage and event.worker == worker
        ]

    def before_dispatch(self, stage: int, worker: int, process) -> None:
        """Called by the supervisor right before worker ``worker`` is sent
        a share of ``stage``: freeze it if an event is due, so it cannot
        read the share before :meth:`after_dispatch` acts."""
        if self._due(stage, worker):
            try:
                os.kill(process.pid, signal.SIGSTOP)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass

    def after_dispatch(self, stage: int, worker: int, process) -> list[str]:
        """Called by the supervisor right after worker ``worker`` was sent
        a share of ``stage``; returns the actions delivered."""
        actions = []
        for idx, event in self._due(stage, worker):
            self._fired.add(idx)
            sig = signal.SIGKILL if event.action == KILL else signal.SIGSTOP
            try:
                os.kill(process.pid, sig)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
            self.fired_events.append(event)
            self.fired_pids.append(process.pid)
            actions.append(event.action)
        return actions
