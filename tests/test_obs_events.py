"""Contract tests for the engine's structured stage-event stream.

Every engine run must narrate itself as a well-formed event sequence
(:func:`repro.obs.events.validate_events`), and the JSONL trace written by
:class:`~repro.obs.sinks.JsonlTraceSink` must round-trip losslessly back
into the typed events.
"""

import io
import json

import pytest

from repro.config import RuntimeConfig
from repro.core.engine import StageEngine, resolve_strategy
from repro.core.runner import parallelize
from repro.faults import FaultEvent, FaultKind, FaultPlan, random_plan
from repro.obs.events import (
    Commit,
    DependenceFound,
    MetricsSnapshot,
    Restore,
    RunBegin,
    RunEnd,
    SpanClosed,
    StageBegin,
    StageEnd,
    event_from_dict,
    validate_events,
)
from repro.obs.metrics import use_instrumentation
from repro.obs.sinks import CliProgressSink, JsonlTraceSink, RecordingSink
from repro.workloads.synthetic import (
    chain_loop,
    fully_parallel_loop,
    geometric_chain_targets,
    random_dependence_loop,
)
from repro.workloads.track_extend import ExtendDeck, make_extend_loop
from tests.conftest import assert_matches_sequential

P = 4


def _chain(n=96):
    return chain_loop(n, geometric_chain_targets(n, 0.5))


def _rand():
    return random_dependence_loop(128, density=0.08, max_distance=8, seed=3)


def _recorded(loop, config, **kwargs):
    rec = RecordingSink()
    result = parallelize(loop, P, config, sinks=[rec], **kwargs)
    return result, rec.events


def _kinds(events):
    return [e.kind for e in events]


class TestStreamGrammar:
    def test_clean_single_stage_run(self):
        result, events = _recorded(fully_parallel_loop(64), RuntimeConfig.nrd())
        validate_events(events)
        assert _kinds(events)[0] == "run_begin"
        assert _kinds(events)[-1] == "run_end"
        assert sum(k == "commit" for k in _kinds(events)) == 1
        assert not any(k == "restore" for k in _kinds(events))
        assert result.n_stages == sum(k == "stage_end" for k in _kinds(events))

    def test_multi_stage_run_pairs_commit_and_restore(self):
        result, events = _recorded(_chain(), RuntimeConfig.nrd())
        validate_events(events)
        assert result.n_restarts > 0
        failed = [e for e in events if isinstance(e, DependenceFound)
                  and e.earliest_sink_pos is not None]
        restores = [e for e in events if isinstance(e, Restore)]
        assert failed and restores
        # Every restore follows the failing stage's analysis verdict.
        assert {e.stage for e in restores} <= {e.stage for e in failed}

    def test_stage_ids_are_monotone_and_dense(self):
        _, events = _recorded(_chain(), RuntimeConfig.rd())
        validate_events(events)
        begins = [e.stage for e in events if isinstance(e, StageBegin)]
        assert begins == sorted(begins)
        assert begins == list(range(len(begins)))

    def test_every_strategy_emits_a_valid_stream(self):
        runs = [
            (_chain(), RuntimeConfig.nrd()),
            (_chain(), RuntimeConfig.adaptive()),
            (_rand(), RuntimeConfig.sw(window_size=16)),
            (make_extend_loop(ExtendDeck("ev", n=120, keep_prob=0.55,
                                         lookback_prob=0.01)),
             RuntimeConfig.rd()),
        ]
        for loop, config in runs:
            result, events = _recorded(loop, config)
            validate_events(events)
            assert events[0].strategy == result.strategy

    def test_iterwise_strategy_emits_a_valid_stream(self):
        rec = RecordingSink()
        result = StageEngine(
            _rand(), P, resolve_strategy("iterwise")(), RuntimeConfig.nrd(),
            sinks=[rec],
        ).run()
        validate_events(rec.events)
        assert result.n_stages == sum(
            1 for e in rec.events if isinstance(e, StageEnd)
        )

    def test_fault_run_reports_injections(self):
        result, events = _recorded(
            _chain(), RuntimeConfig.nrd(fault_plan=random_plan(11, n_procs=P))
        )
        validate_events(events)
        injected = [e for e in events if e.kind == "fault_injected"]
        assert len(injected) == result.faults_survived

    def test_zero_commit_stage_emits_retry_not_commit(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.FAIL_STOP, stage=0, proc=0, after_fraction=0.25),
        ))
        result, events = _recorded(_rand(), RuntimeConfig.nrd(fault_plan=plan))
        validate_events(events)
        retried = {e.stage for e in events if e.kind == "retry"}
        committed = {e.stage for e in events if isinstance(e, Commit)}
        assert retried and not (retried & committed)
        assert result.retries == len([e for e in events if e.kind == "retry"])

    def test_premature_exit_recorded_in_run_end(self):
        import numpy as np

        from repro.loopir.loop import ArraySpec, SpeculativeLoop

        def body(ctx, i):
            ctx.work(1.0)
            ctx.store("A", i, float(i))
            if i == 41:
                ctx.exit_loop()

        loop = SpeculativeLoop(
            "ev_exit", 64, body, arrays=[ArraySpec("A", np.zeros(64))]
        )
        result, events = _recorded(loop, RuntimeConfig.adaptive())
        validate_events(events)
        end = events[-1]
        assert isinstance(end, RunEnd)
        assert end.exit_iteration == result.exit_iteration == 41

    def test_aggregating_sink_is_the_single_source_of_stages(self):
        result, events = _recorded(_chain(), RuntimeConfig.adaptive())
        from_stream = [e.result for e in events if isinstance(e, StageEnd)]
        assert [s is r for s, r in zip(from_stream, result.stages)]
        assert len(from_stream) == len(result.stages)


@pytest.mark.usefixtures("always_dispatch")
class TestObservabilityStream:
    """Span/metric events must obey the contract under both backends (the
    fork leg pinned to the pool: its worker metrics and span merge)."""

    def _instrumented(self, backend):
        from repro.core.backend import use_backend

        with use_backend(backend), use_instrumentation(metrics=True, spans=True):
            return _recorded(_rand(), RuntimeConfig.adaptive())

    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_instrumented_stream_is_valid(self, backend):
        result, events = self._instrumented(backend)
        validate_events(events)
        spans = [e for e in events if isinstance(e, SpanClosed)]
        snaps = [e for e in events if isinstance(e, MetricsSnapshot)]
        assert {s.cat for s in spans} >= {"run", "stage", "phase", "block"}
        # One cumulative snapshot per stage, plus the run-scope one.
        assert len(snaps) == result.n_stages + 1
        assert snaps[-1].scope == "run" and snaps[-1].stage is None
        assert result.metrics["counters"] == snaps[-1].counters

    @pytest.mark.parametrize("backend", ["serial", "fork"])
    def test_block_spans_interleave_in_block_order(self, backend):
        _, events = self._instrumented(backend)
        for stage in {e.stage for e in events if isinstance(e, StageBegin)}:
            in_stage = [
                e for e in events
                if getattr(e, "stage", None) == stage
                and (e.kind == "block_executed"
                     or (isinstance(e, SpanClosed) and e.cat == "block"))
            ]
            # Each BlockExecuted is immediately shadowed by its block span,
            # on the same processor, in schedule (block) order.
            kinds = [e.kind for e in in_stage]
            assert kinds == ["block_executed", "span"] * (len(in_stage) // 2)
            assert [e.proc for e in in_stage[0::2]] == [
                e.proc for e in in_stage[1::2]
            ]

    def test_serial_and_fork_metrics_are_identical(self):
        from repro.core.backend import use_backend

        snapshots = {}
        for backend in ("serial", "fork"):
            with use_backend(backend), use_instrumentation(metrics=True):
                result = parallelize(_rand(), P, RuntimeConfig.adaptive())
            snapshots[backend] = result.metrics
        assert snapshots["serial"] == snapshots["fork"]
        assert snapshots["serial"]["counters"]["shadow.marks"] > 0

    def test_run_scoped_observability_event_legal_anywhere(self):
        span = SpanClosed(name="run", cat="run", stage=None, proc=None,
                          host_start=0.0, host_dur=1.0,
                          virt_start=0.0, virt_dur=1.0)
        run = TestValidateEvents.RUN
        end = TestValidateEvents.END
        validate_events([run, span, end])

    def test_stage_scoped_span_outside_its_stage_rejected(self):
        span = SpanClosed(name="execute", cat="phase", stage=2, proc=None,
                          host_start=0.0, host_dur=1.0,
                          virt_start=0.0, virt_dur=1.0)
        with pytest.raises(ValueError, match="carries stage"):
            validate_events([TestValidateEvents.RUN, span, TestValidateEvents.END])

    def test_observability_events_round_trip(self):
        _, events = self._instrumented("serial")
        decoded = [event_from_dict(json.loads(json.dumps(e.to_dict())))
                   for e in events]
        assert [e.to_dict() for e in decoded] == [e.to_dict() for e in events]


class TestPartialTraceFlush:
    """A crashed run must still leave a readable (partial) JSONL trace."""

    def test_mid_run_exception_flushes_trace(self, tmp_path):
        import numpy as np

        from repro.loopir.loop import ArraySpec, SpeculativeLoop

        def body(ctx, i):
            if i == 37:
                raise RuntimeError("boom at 37")
            ctx.work(1.0)
            ctx.store("A", i, float(i))

        loop = SpeculativeLoop(
            "ev_crash", 64, body, arrays=[ArraySpec("A", np.zeros(64))]
        )
        path = tmp_path / "partial.jsonl"
        with pytest.raises(RuntimeError, match="boom at 37"):
            parallelize(loop, P, RuntimeConfig.nrd(trace_path=str(path)))
        lines = path.read_text().strip().splitlines()
        decoded = [event_from_dict(json.loads(line)) for line in lines]
        assert decoded, "crashed run left an empty trace"
        assert decoded[0].kind == "run_begin"
        assert any(e.kind == "stage_begin" for e in decoded)
        assert decoded[-1].kind != "run_end"


class TestJsonlRoundTrip:
    def test_trace_path_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        result, events = _recorded(
            _chain(), RuntimeConfig.nrd(trace_path=str(path))
        )
        lines = path.read_text().strip().splitlines()
        decoded = [event_from_dict(json.loads(line)) for line in lines]
        validate_events(decoded)
        assert [e.to_dict() for e in decoded] == [e.to_dict() for e in events]
        # StageEnd payloads rebuild the exact per-stage results.
        rebuilt = [e.result for e in decoded if isinstance(e, StageEnd)]
        assert [r.committed_iterations for r in rebuilt] == [
            s.committed_iterations for s in result.stages
        ]
        assert [r.breakdown for r in rebuilt] == [s.breakdown for s in result.stages]

    def test_borrowed_stream_sink(self):
        buf = io.StringIO()
        sink = JsonlTraceSink(buf)
        _result, _ = _recorded(fully_parallel_loop(32), RuntimeConfig.nrd())
        rec = RecordingSink()
        parallelize(fully_parallel_loop(32), P, RuntimeConfig.nrd(),
                    sinks=[rec, sink])
        sink.close()  # flushes, must not close the borrowed stream
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == len(rec.events)
        validate_events([event_from_dict(json.loads(line)) for line in lines])

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"event": "nope"})


class TestValidateEvents:
    RUN = RunBegin(loop="l", strategy="s", n_procs=2, n_iterations=4)
    END = RunEnd(loop="l", strategy="s", stages=1, restarts=0,
                 total_time=1.0, sequential_work=1.0)

    def _stage(self, i):
        return StageBegin(stage=i, blocks=[], remaining=4, degraded=False)

    def _stage_end(self, i):
        import repro.core.results as results

        from repro.obs.events import stage_result_from_dict

        return StageEnd(stage=i, result=stage_result_from_dict({
            "index": i, "blocks": [], "failed": False,
            "earliest_sink_pos": None, "committed_iterations": 0,
            "remaining_after": 0, "committed_work": 0.0, "n_arcs": 0,
            "committed_elements": 0, "restored_elements": 0,
            "redistributed_iterations": 0, "span": 0.0,
            "migration_distance": 0.0, "breakdown": {},
            "faulted_procs": [], "degraded": False,
        }))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            validate_events([])

    def test_missing_brackets_rejected(self):
        with pytest.raises(ValueError, match="bracketed"):
            validate_events([self._stage(0), self._stage_end(0)])

    def test_nested_stage_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            validate_events(
                [self.RUN, self._stage(0), self._stage(1), self.END]
            )

    def test_unpaired_stage_end_rejected(self):
        with pytest.raises(ValueError, match="unpaired"):
            validate_events([self.RUN, self._stage_end(0), self.END])

    def test_non_monotone_stage_ids_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            validate_events([
                self.RUN, self._stage(1), self._stage_end(1),
                self._stage(0), self._stage_end(0), self.END,
            ])

    def test_in_stage_event_outside_stage_rejected(self):
        event = DependenceFound(stage=0, earliest_sink_pos=None, n_arcs=0)
        with pytest.raises(ValueError, match="outside any stage"):
            validate_events([self.RUN, event, self.END])

    def test_in_stage_event_with_wrong_id_rejected(self):
        event = DependenceFound(stage=3, earliest_sink_pos=None, n_arcs=0)
        with pytest.raises(ValueError, match="carries stage"):
            validate_events(
                [self.RUN, self._stage(0), event, self._stage_end(0), self.END]
            )

    def test_commit_and_retry_cannot_share_a_stage(self):
        from repro.obs.events import Retry

        commit = Commit(stage=0, iterations=1, elements=1, work=1.0,
                        committed_upto=1)
        retry = Retry(stage=0, streak=1)
        with pytest.raises(ValueError, match="both committed and retried"):
            validate_events([
                self.RUN, self._stage(0), commit, retry,
                self._stage_end(0), self.END,
            ])

    def test_dangling_stage_rejected(self):
        with pytest.raises(ValueError, match="never ended"):
            validate_events([self.RUN, self._stage(0), self.END])


class TestCliProgressSink:
    def test_narrates_stages_and_summary(self):
        buf = io.StringIO()
        parallelize(_chain(), P, RuntimeConfig.nrd(),
                    sinks=[CliProgressSink(buf)])
        out = buf.getvalue()
        assert "stage 0:" in out
        assert "done:" in out and "speedup" in out

    def test_zero_time_run_prints_na_not_fake_speedup(self):
        buf = io.StringIO()
        sink = CliProgressSink(buf)
        sink.emit(RunEnd(loop="l", strategy="s", stages=0, restarts=0,
                         total_time=0.0, sequential_work=0.0))
        out = buf.getvalue()
        assert "speedup n/a" in out
        assert "1.00x" not in out


class TestBaselinesHonorFaults:
    """The doall LRPD baseline and DDG extraction run on the engine, so a
    fault plan or ``self_check`` is honored, not refused."""

    def test_doall_baseline_survives_fault_plan(self):
        from repro.core.lrpd import run_doall_lrpd

        plan = FaultPlan(events=(
            FaultEvent(FaultKind.FAIL_STOP, stage=0, proc=1, after_fraction=0.5),
        ))
        result = run_doall_lrpd(
            fully_parallel_loop(16), P, RuntimeConfig.nrd(fault_plan=plan)
        )
        # The lost block fails the all-or-nothing doall: sequential fallback.
        assert result.faults_survived == 1
        assert [s.failed for s in result.stages] == [True, False]
        assert_matches_sequential(result, fully_parallel_loop(16))

    def test_doall_baseline_runs_self_check(self):
        from repro.core.lrpd import run_doall_lrpd

        result = run_doall_lrpd(fully_parallel_loop(16), P,
                                RuntimeConfig.nrd(self_check=True))
        assert result.n_stages == 1
        assert_matches_sequential(result, fully_parallel_loop(16))

    def test_ddg_extraction_survives_fault_plan(self):
        from repro.core.ddg import extract_ddg

        config = RuntimeConfig.sw(
            window_size=8, fault_plan=random_plan(11, n_procs=P)
        )
        result = extract_ddg(_rand(), P, config)
        clean = extract_ddg(_rand(), P, RuntimeConfig.sw(window_size=8))
        assert result.extraction.faults_survived > 0
        assert list(result.edges) == list(clean.edges)
        assert result.extraction.memory.equals(clean.extraction.memory.snapshot())
