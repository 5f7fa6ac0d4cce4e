"""Typed stage events emitted by the engine.

One speculative run narrates itself as a flat event sequence::

    RunBegin
      (StageBegin
         BlockExecuted*  FaultInjected*
         DependenceFound
         (Retry | Commit)  Restore?
         [SpanClosed* MetricsSnapshot]
       StageEnd)+
    [SpanClosed MetricsSnapshot]
    RunEnd

Observability events are optional (``RuntimeConfig.metrics``/``spans``):
``SpanClosed`` records one dual-clock span (block spans interleave with
their ``BlockExecuted`` events in block order, phase and stage spans close
before ``StageEnd``, the run span right before ``RunEnd``);
``MetricsSnapshot`` carries the cumulative metrics registry per stage and
at run scope.

Every event serializes to a flat JSON object (``to_dict``) and
reconstructs from one (:func:`event_from_dict`), so a JSONL trace
round-trips losslessly.  :func:`validate_events` checks the structural
contract above -- begin/end pairing, monotone stage ids, commit/restore
placement -- and is what the contract tests (and any external consumer)
should run against a recorded stream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

from repro.core.results import StageResult
from repro.machine.timeline import Category
from repro.util.blocks import Block


#: Registry of event kind -> concrete class, for deserialization.
_REGISTRY: dict[str, type] = {}


@dataclass(frozen=True, slots=True)
class StageEvent:
    """Base class: every event knows its kind and (usually) its stage."""

    def __init_subclass__(cls, **kwargs) -> None:
        # ``slots=True`` recreates each subclass, re-triggering this hook;
        # the final (slotted) class wins the registry entry.  The zero-arg
        # super() form cannot be used here for the same reason.
        _REGISTRY[cls.kind] = cls  # type: ignore[attr-defined]

    def to_dict(self) -> dict:
        """Flat JSON-serializable representation."""
        out: dict = {"event": type(self).kind}  # type: ignore[attr-defined]
        for f in fields(self):
            out[f.name] = _jsonify(getattr(self, f.name))
        return out


def _jsonify(value):
    if isinstance(value, Block):
        return [value.proc, value.start, value.stop]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {
            (k.name if isinstance(k, Category) else k): _jsonify(v)
            for k, v in value.items()
        }
    return value


@dataclass(frozen=True, slots=True)
class RunBegin(StageEvent):
    kind = "run_begin"
    loop: str
    strategy: str
    n_procs: int
    n_iterations: int


@dataclass(frozen=True, slots=True)
class StageBegin(StageEvent):
    kind = "stage_begin"
    stage: int
    blocks: list
    remaining: int
    degraded: bool


@dataclass(frozen=True, slots=True)
class BlockExecuted(StageEvent):
    kind = "block_executed"
    stage: int
    pos: int
    proc: int
    start: int
    stop: int
    fault: str | None = None
    exit_iteration: int | None = None


@dataclass(frozen=True, slots=True)
class FaultInjected(StageEvent):
    kind = "fault_injected"
    stage: int
    proc: int
    fault: str


@dataclass(frozen=True, slots=True)
class DependenceFound(StageEvent):
    """Analysis verdict for one stage (``earliest_sink_pos=None`` = clean)."""

    kind = "dependence_found"
    stage: int
    earliest_sink_pos: int | None
    n_arcs: int
    fault_forced: bool = False


@dataclass(frozen=True, slots=True)
class Commit(StageEvent):
    kind = "commit"
    stage: int
    iterations: int
    elements: int
    work: float
    committed_upto: int


@dataclass(frozen=True, slots=True)
class Restore(StageEvent):
    kind = "restore"
    stage: int
    elements: int
    procs: list


@dataclass(frozen=True, slots=True)
class Retry(StageEvent):
    """A zero-commit stage wiped out by injected faults is being retried."""

    kind = "retry"
    stage: int
    streak: int


@dataclass(frozen=True, slots=True)
class BackendDegraded(StageEvent):
    """The execution backend's worker pool was abandoned mid-run.

    Emitted when the worker supervisor (:mod:`repro.core.supervise`) gives
    up on its worker-process pool -- respawn budget exhausted or a poison
    block -- and the engine falls back to the serial backend.  The
    stage's tasks re-run on the fallback backend from unchanged engine
    state, so everything *after* this event is bit-identical to an
    undisturbed run; the event is the only trace-visible mark of the
    failover."""

    kind = "backend_degraded"
    stage: int
    from_backend: str
    to_backend: str
    reason: str


@dataclass(frozen=True, slots=True)
class StageEnd(StageEvent):
    kind = "stage_end"
    stage: int
    result: StageResult

    def to_dict(self) -> dict:
        out = {"event": "stage_end", "stage": self.stage}
        r = self.result
        out["result"] = {
            "index": r.index,
            "blocks": [[b.proc, b.start, b.stop] for b in r.blocks],
            "failed": r.failed,
            "earliest_sink_pos": r.earliest_sink_pos,
            "committed_iterations": r.committed_iterations,
            "remaining_after": r.remaining_after,
            "committed_work": r.committed_work,
            "n_arcs": r.n_arcs,
            "committed_elements": r.committed_elements,
            "restored_elements": r.restored_elements,
            "redistributed_iterations": r.redistributed_iterations,
            "span": r.span,
            "migration_distance": r.migration_distance,
            "breakdown": {c.name: v for c, v in r.breakdown.items()},
            "faulted_procs": list(r.faulted_procs),
            "degraded": r.degraded,
        }
        return out


@dataclass(frozen=True, slots=True)
class SpanClosed(StageEvent):
    """One completed span of the dual-clock trace (:mod:`repro.obs.spans`).

    ``host_*`` fields are wall-clock seconds relative to the run's start
    (honest, non-deterministic); ``virt_*`` fields are virtual-time units
    from the cost model (deterministic, bit-identical across execution
    backends).  ``stage`` is ``None`` for run-level spans; ``proc`` is
    ``None`` for spans on the engine's own track.
    """

    kind = "span"
    name: str
    cat: str  # "run" | "stage" | "phase" | "block"
    stage: int | None
    proc: int | None
    host_start: float
    host_dur: float
    virt_start: float
    virt_dur: float


@dataclass(frozen=True, slots=True)
class MetricsSnapshot(StageEvent):
    """Cumulative metrics-registry state at one point of the run.

    Emitted once per stage (just before ``StageEnd``) and once at run
    scope (just before ``RunEnd``) when metrics are enabled.  Values are
    cumulative since run start, so a consumer diffs consecutive snapshots
    for per-stage deltas.  All values are deterministic counts -- see
    :mod:`repro.obs.metrics`.
    """

    kind = "metrics"
    scope: str  # "stage" | "run"
    stage: int | None
    virt_time: float
    counters: dict
    gauges: dict
    histograms: dict


@dataclass(frozen=True, slots=True)
class RunEnd(StageEvent):
    kind = "run_end"
    loop: str
    strategy: str
    stages: int
    restarts: int
    total_time: float
    sequential_work: float
    exit_iteration: int | None = None
    faults_survived: int = 0
    retries: int = 0


def stage_result_from_dict(d: dict) -> StageResult:
    """Rebuild a :class:`StageResult` from its ``StageEnd`` serialization."""
    return StageResult(
        index=d["index"],
        blocks=[Block(*b) for b in d["blocks"]],
        failed=d["failed"],
        earliest_sink_pos=d["earliest_sink_pos"],
        committed_iterations=d["committed_iterations"],
        remaining_after=d["remaining_after"],
        committed_work=d["committed_work"],
        n_arcs=d["n_arcs"],
        committed_elements=d["committed_elements"],
        restored_elements=d["restored_elements"],
        redistributed_iterations=d["redistributed_iterations"],
        span=d["span"],
        migration_distance=d["migration_distance"],
        breakdown={Category[k]: v for k, v in d["breakdown"].items()},
        faulted_procs=list(d["faulted_procs"]),
        degraded=d["degraded"],
    )


def event_from_dict(d: dict) -> StageEvent:
    """Inverse of ``to_dict`` -- reconstruct the typed event."""
    data = dict(d)
    kind = data.pop("event")
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown event kind {kind!r}") from None
    if cls is StageEnd:
        return StageEnd(
            stage=data["stage"], result=stage_result_from_dict(data["result"])
        )
    if cls is StageBegin:
        data["blocks"] = [Block(*b) for b in data["blocks"]]
    return cls(**data)


#: Events legal only between a StageBegin and its StageEnd.
_IN_STAGE = frozenset(
    {"block_executed", "fault_injected", "dependence_found", "commit",
     "restore", "retry", "backend_degraded"}
)

#: Observability events: a stage id of ``None`` means run scope (legal
#: anywhere in the stream); a concrete id must match the open stage.
_OBSERVABILITY = frozenset({"span", "metrics"})


def validate_events(events: Iterable[StageEvent]) -> None:
    """Enforce the stream contract; raise ``ValueError`` on violation.

    * exactly one ``RunBegin`` (first) and one ``RunEnd`` (last);
    * ``StageBegin``/``StageEnd`` strictly paired, never nested, with
      monotonically non-decreasing stage ids;
    * per-stage events carry the enclosing stage's id and appear only
      inside a begin/end pair;
    * every non-retried stage carries an analysis verdict
      (``DependenceFound``), and a ``Commit`` and ``Retry`` never share a
      stage;
    * observability events (``span`` / ``metrics``) carrying a concrete
      stage id appear inside that stage; run-scoped ones (``stage=None``)
      may appear anywhere between the run brackets.
    """
    events = list(events)
    if not events:
        raise ValueError("empty event stream")
    if events[0].kind != "run_begin" or events[-1].kind != "run_end":
        raise ValueError("stream must be bracketed by run_begin/run_end")
    open_stage: int | None = None
    last_stage = -1
    saw: set[str] = set()
    for k, event in enumerate(events):
        kind = event.kind
        if kind in ("run_begin", "run_end"):
            if 0 < k < len(events) - 1:
                raise ValueError(f"{kind} in the middle of the stream (at {k})")
            continue
        if kind in _OBSERVABILITY:
            stage = event.stage
            if stage is not None and stage != open_stage:
                raise ValueError(
                    f"{kind} carries stage {stage} "
                    f"{'outside any stage' if open_stage is None else f'inside stage {open_stage}'}"
                    f" (at {k})"
                )
            continue
        if kind == "stage_begin":
            if open_stage is not None:
                raise ValueError(f"nested stage_begin at {k}")
            if event.stage < last_stage:
                raise ValueError(
                    f"stage ids must be monotone: {event.stage} after {last_stage}"
                )
            open_stage = event.stage
            last_stage = event.stage
            saw = set()
        elif kind == "stage_end":
            if open_stage is None or event.stage != open_stage:
                raise ValueError(f"unpaired stage_end at {k}")
            if "commit" in saw and "retry" in saw:
                raise ValueError(f"stage {event.stage} both committed and retried")
            open_stage = None
        elif kind in _IN_STAGE:
            if open_stage is None:
                raise ValueError(f"{kind} outside any stage (at {k})")
            if getattr(event, "stage") != open_stage:
                raise ValueError(
                    f"{kind} carries stage {event.stage} inside stage {open_stage}"
                )
            saw.add(kind)
        else:  # pragma: no cover - future event kinds
            raise ValueError(f"unknown event kind {kind!r}")
    if open_stage is not None:
        raise ValueError(f"stage {open_stage} never ended")
