"""The static certification front-end and its zero-speculation fast path.

Three layers under test:

* the symbolic probe layer (:mod:`repro.loopir.symbolic`): recorded
  traces, affine site fitting, and the exact dependence tests;
* the certifier (:mod:`repro.model.certify`): verdicts, evidence classes,
  and the soundness differential oracle -- every exact certificate must
  agree with an independently computed shadow-marked serial replay;
* the engine fast path (:mod:`repro.core.fastpath`): certified-DOALL and
  certified-SEQUENTIAL runs must be bit-identical to the sequential
  reference on every backend, ``--certify=off`` must reproduce the
  speculative pipeline byte-for-byte, and a run that replays its full
  probe must match one that executes the body, byte for byte.
"""

import json
import multiprocessing as mp
import weakref

import numpy as np
import pytest

import repro.core.runner as runner_mod
import repro.workloads.track_sim as track_sim_mod
from repro.config import RuntimeConfig
from repro.core import backend as backend_mod
from repro.core.backend import ForkBackend
from repro.core.runner import parallelize
from repro.errors import BackendError, ConfigurationError
from repro.loopir.context import SequentialContext
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.machine.memory import MemoryImage, SharedArray
from repro.kernels import READ
from repro.loopir.symbolic import (
    AffineSite,
    affine_dependences,
    probe_loop,
    trace_dependences,
)
from repro.model.certify import (
    DOALL,
    SEQUENTIAL,
    SPECULATE,
    certify_loop,
    fastpath_strategy,
)
from repro.workloads.patterns import (
    gather_loop,
    pointer_chase_loop,
    scatter_loop,
    stencil_loop,
)
from repro.workloads.synthetic import (
    chain_loop,
    copyin_loop,
    fully_parallel_loop,
    prefix_sum_loop,
    privatizable_loop,
    random_dependence_loop,
    reduction_loop,
    strided_doall_loop,
)
from repro.workloads.track_sim import TrackSimConfig, TrackSimulation
from tests.certify_golden_cases import GOLDEN_PATH, TRACK_PROCS, TRACK_STEPS
from tests.certify_golden_cases import LOOPS as GOLDEN_LOOPS
from tests.conftest import assert_matches_sequential
from tests.engine_parity_cases import summarize

P = 4

HAS_FORK = "fork" in mp.get_all_start_methods()
BACKENDS = ["serial", "threads"] + (["fork", "shm"] if HAS_FORK else [])


# -- symbolic probe layer ---------------------------------------------------------


class TestProbe:
    def test_full_probe_records_exact_trace(self):
        probe = probe_loop(prefix_sum_loop(16))
        assert probe.full and probe.iterations == list(range(16))
        reads = [(r.array, r.index) for r in probe.records if r.kind == "r"]
        # Iteration 0 reads only B[0]; each later i reads A[i-1] then B[i].
        assert reads[0] == ("B", 0)
        assert ("A", 14) in reads

    def test_probe_never_mutates_the_input_image(self):
        loop = fully_parallel_loop(8)
        image = loop.materialize()
        before = {n: image[n].data.copy() for n in image.names()}
        probe_loop(loop, memory=image)
        for name, data in before.items():
            assert (image[name].data == data).all()

    def test_sampled_probe_fits_affine_sites(self):
        loop = strided_doall_loop(10_000, stride=3)
        probe = probe_loop(loop, limit=4096, sample=48)
        assert not probe.full and probe.uniform
        fits = {(s.kind, s.array): (s.stride, s.offset) for s in probe.sites}
        assert fits[("r", "B")] == (3, 0)
        assert fits[("w", "A")] == (1, 0)

    def test_data_dependent_subscripts_do_not_fit(self):
        loop = scatter_loop(10_000, n_targets=64, seed=3)
        probe = probe_loop(loop, limit=4096, sample=48)
        assert probe.sites is None

    def test_bulk_ops_record_per_element(self):
        def body(ctx, i):
            vals = ctx.load_many("A", np.array([i, i], dtype=np.int64))
            ctx.store_many("A", np.array([i], dtype=np.int64), vals[:1] + 1.0)

        loop = SpeculativeLoop(
            "bulk", 4, body, arrays=[ArraySpec("A", np.zeros(4))]
        )
        probe = probe_loop(loop)
        per_iter = [r for r in probe.records if r.iteration == 2]
        assert [(r.kind, r.index) for r in per_iter] == [
            ("r", 2), ("r", 2), ("w", 2)
        ]

    @pytest.mark.parametrize("indices", [[], [3, 1, 3]])
    def test_bulk_load_keeps_the_array_dtype(self, indices):
        memory = MemoryImage([SharedArray("A", np.arange(4, dtype=np.int32))])
        ctx = SequentialContext(memory, trace=True)
        ctx.iteration = 7
        values = ctx.load_many("A", np.asarray(indices, dtype=np.int64))
        assert values.dtype == np.int32
        assert values.tolist() == indices
        assert ctx.log == [q for i in indices for q in (7, READ, 0, i)]

    def test_premature_exit_recorded(self):
        def body(ctx, i):
            ctx.store("A", i, 1.0)
            if i == 5:
                ctx.exit_loop()

        loop = SpeculativeLoop(
            "exiter", 32, body, arrays=[ArraySpec("A", np.zeros(32))]
        )
        probe = probe_loop(loop)
        assert probe.exit_at == 5
        # Sequential semantics: nothing past the exit executes.
        assert max(r.iteration for r in probe.records) == 5


class TestDependenceTests:
    def test_read_only_sharing_is_not_a_conflict(self):
        loop = gather_loop(64, fan_in=4, seed=2)
        probe = probe_loop(loop)
        assert trace_dependences(probe.records).conflicts == 0

    def test_chain_has_full_critical_path(self):
        probe = probe_loop(prefix_sum_loop(32))
        deps = trace_dependences(probe.records)
        assert deps.critical_path == 32
        assert deps.max_distance == 1
        assert (0, 1) in deps.flow_edges

    def test_affine_disjoint_sites(self):
        sites = [
            AffineSite(0, "r", "B", 2, 0),
            AffineSite(1, "w", "A", 1, 0),
        ]
        assert affine_dependences(sites, 1000).conflicts == 0

    def test_affine_distance_one_chain(self):
        sites = [
            AffineSite(0, "r", "A", 1, -1),
            AffineSite(1, "w", "A", 1, 0),
        ]
        deps = affine_dependences(sites, 64)
        assert deps.conflicts > 0
        assert deps.critical_path == 64

    def test_affine_constant_site_conflicts(self):
        sites = [AffineSite(0, "w", "H", 0, 3)]
        assert affine_dependences(sites, 16).conflicts > 0

    def test_affine_commuting_updates_are_clean(self):
        sites = [AffineSite(0, "u", "H", 0, 3)]
        assert affine_dependences(sites, 16).conflicts == 0


# -- certifier verdicts -----------------------------------------------------------


class TestVerdicts:
    def test_doall_from_full_probe(self):
        cert = certify_loop(fully_parallel_loop(64))
        assert (cert.verdict, cert.basis, cert.exact) == (DOALL, "trace", True)

    def test_sequential_from_full_probe(self):
        cert = certify_loop(prefix_sum_loop(64))
        assert (cert.verdict, cert.exact) == (SEQUENTIAL, True)

    def test_affine_model_verdict_is_not_exact(self):
        cert = certify_loop(strided_doall_loop(10_000))
        assert (cert.verdict, cert.basis, cert.exact) == (DOALL, "affine", False)

    def test_sparse_dependences_speculate_with_hint(self):
        cert = certify_loop(random_dependence_loop(256, 0.05, 4, seed=7))
        assert cert.verdict == SPECULATE
        assert cert.strategy_hint in ("nrd", "adaptive", "sw")

    def test_dense_short_distance_hints_sliding_window(self):
        cert = certify_loop(random_dependence_loop(256, 0.9, 2, seed=7))
        assert cert.verdict == SPECULATE
        assert cert.strategy_hint == "sw"
        assert cert.window_hint is not None and cert.window_hint >= 2

    def test_reductions_are_structural_speculate(self):
        cert = certify_loop(reduction_loop(64))
        assert (cert.verdict, cert.basis) == (SPECULATE, "structural")

    def test_premature_exit_blocks_the_plain_path(self):
        def body(ctx, i):
            ctx.store("A", i, float(i))
            if i == 9:
                ctx.exit_loop()

        loop = SpeculativeLoop(
            "exit-doall", 64, body, arrays=[ArraySpec("A", np.zeros(64))]
        )
        cert = certify_loop(loop)
        assert cert.verdict == SPECULATE

    def test_zero_iterations_is_trivial_doall(self):
        cert = certify_loop(fully_parallel_loop(0))
        assert (cert.verdict, cert.basis) == (DOALL, "trivial")

    def test_raising_body_yields_opaque_speculate(self):
        def body(ctx, i):
            raise RuntimeError("boom")

        loop = SpeculativeLoop(
            "boom", 8, body, arrays=[ArraySpec("A", np.zeros(8))]
        )
        cert = certify_loop(loop)
        assert (cert.verdict, cert.basis, cert.exact) == (
            SPECULATE, "opaque", False
        )
        assert "probe aborted" in cert.reason

    @pytest.mark.parametrize("misuse", ["update", "work"])
    def test_discipline_breach_yields_opaque_speculate(self, misuse):
        # The probe runs on the oracle's context, so it polices reduction
        # use and negative work like every other in-order pass.
        cert = certify_loop(_misbehaving_loop(misuse))
        assert (cert.verdict, cert.basis) == (SPECULATE, "opaque")
        assert "ValueError" in cert.reason

    def test_fastpath_requires_exactness_unless_trusted(self):
        cert = certify_loop(strided_doall_loop(10_000))
        assert fastpath_strategy(cert, RuntimeConfig.adaptive()) is None
        trusted = fastpath_strategy(
            cert, RuntimeConfig.adaptive(certify="trust")
        )
        assert trusted is not None and trusted.name == "certified-doall"


def _misbehaving_loop(misuse: str) -> SpeculativeLoop:
    """A doall loop whose body breaks the access discipline one way."""

    def body(ctx, i):
        value = ctx.load("A", i)
        if misuse == "update":
            ctx.update("A", i, 1.0)  # no reduction declared
        elif misuse == "work":
            ctx.work(-1.0)
        elif misuse == "unknown":
            ctx.load("Z", i)
        ctx.store("A", i, value + 1.0)

    return SpeculativeLoop(
        f"misuse-{misuse}", 16, body, arrays=[ArraySpec("A", np.zeros(16))]
    )


_MISUSE_ERRORS = pytest.mark.parametrize(
    "misuse,exc,message",
    [
        ("update", ValueError, "array 'A' has no declared reduction operator"),
        ("work", ValueError, "work units must be non-negative"),
        ("unknown", KeyError, "\"no shared array 'Z'; declared: ['A']\""),
    ],
)


class TestErrorParity:
    """A body that breaks the discipline fails ``parallelize`` with the
    oracle's exception, whatever the certifier's probe made of it."""

    @pytest.mark.parametrize("backend", ["serial"] + (["fork"] if HAS_FORK else []))
    @_MISUSE_ERRORS
    def test_parallelize_raises_the_oracles_error(self, backend, misuse, exc, message):
        with pytest.raises(exc) as raised:
            parallelize(_misbehaving_loop(misuse), P, RuntimeConfig(backend=backend))
        assert type(raised.value) is exc
        assert str(raised.value) == message

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    @pytest.mark.usefixtures("always_dispatch")
    @_MISUSE_ERRORS
    def test_fork_workers_report_the_oracles_error(self, misuse, exc, message):
        # A dispatched stage's worker exception reaches the caller as
        # itself, chained from the BackendError with the worker traceback.
        with pytest.raises(exc) as raised:
            parallelize(_misbehaving_loop(misuse), P, RuntimeConfig(backend="fork"))
        assert type(raised.value) is exc
        assert str(raised.value) == message
        assert isinstance(raised.value.__cause__, BackendError)
        assert f"{exc.__name__}: {message}" in str(raised.value.__cause__)


# -- soundness: differential oracle over the corpus --------------------------------


def _corpus():
    return {
        "doall": fully_parallel_loop(96),
        "strided-doall": strided_doall_loop(256, stride=2),
        "prefix-sum": prefix_sum_loop(96),
        "chain-sparse": chain_loop(96, [24, 48, 72]),
        "privatizable": privatizable_loop(96),
        "copyin": copyin_loop(96),
        "random-mid": random_dependence_loop(96, 0.3, 6, seed=5),
        "stencil": stencil_loop(96, radius=1),
        "pointer-chase": pointer_chase_loop(96, seed=1),
        "gather": gather_loop(96, fan_in=4, seed=2),
        "scatter": scatter_loop(96, n_targets=12, seed=3),
    }


def _replay_conflicts(loop) -> int:
    """Independent oracle: shadow-marked serial replay.

    Executes the loop with plain sequential semantics while recording
    every element access, then counts elements shared across iterations
    with at least one write -- deliberately *not* reusing the certifier's
    own dependence machinery.
    """
    memory = loop.materialize()
    ctx = SequentialContext(
        memory,
        reductions=loop.reductions,
        inductions=loop.initial_inductions(),
        trace=True,
    )
    for i in range(loop.n_iterations):
        ctx.iteration = i
        loop.body(ctx, i)
        if ctx.exited:
            break
    touched: dict[tuple[str, int], set[int]] = {}
    written: dict[tuple[str, int], set[int]] = {}
    for rec in ctx.records:
        key = (rec.array, rec.index)
        touched.setdefault(key, set()).add(rec.iteration)
        if rec.kind in ("w", "u"):
            written.setdefault(key, set()).add(rec.iteration)
    return sum(
        1
        for key, iters in touched.items()
        if len(iters) > 1 and key in written
    )


class TestSoundnessOracle:
    @pytest.mark.parametrize("name", sorted(_corpus()))
    def test_exact_certificates_agree_with_shadow_replay(self, name):
        loop = _corpus()[name]
        cert = certify_loop(loop)
        if not cert.exact:
            pytest.skip("model evidence; the exactness oracle does not apply")
        conflicts = _replay_conflicts(loop)
        if cert.verdict == DOALL:
            assert conflicts == 0, f"{name}: certified DOALL but replay conflicts"
        elif cert.verdict == SEQUENTIAL:
            assert conflicts > 0, f"{name}: certified SEQUENTIAL but replay clean"

    @pytest.mark.parametrize("name", sorted(_corpus()))
    def test_certified_runs_match_sequential(self, name):
        loop = _corpus()[name]
        res = parallelize(loop, P)
        assert_matches_sequential(res, _corpus()[name])


# -- the fast path ----------------------------------------------------------------


class TestFastPath:
    def test_doall_takes_one_plain_stage(self):
        res = parallelize(fully_parallel_loop(64), P)
        assert res.strategy == "certified-doall"
        assert res.n_stages == 1 and res.n_restarts == 0
        assert res.certificate.verdict == DOALL

    def test_doall_charges_only_work_and_sync(self):
        res = parallelize(fully_parallel_loop(64), P)
        # No marking, no copy-in, no checkpoint, no analysis, no commit
        # copy-out: the virtual time is the work itself (split across P
        # processors) plus the per-stage synchronization charge.
        breakdown = {cat.name: t for cat, t in res.stages[0].breakdown.items()}
        assert set(breakdown) == {"WORK", "SYNC"}
        assert breakdown["WORK"] == pytest.approx(64 / P)
        spec = parallelize(
            fully_parallel_loop(64), P, RuntimeConfig.adaptive(certify="off")
        )
        assert res.speedup > spec.speedup
        assert res.total_time < spec.total_time

    def test_sequential_runs_in_order_on_one_processor(self):
        res = parallelize(prefix_sum_loop(64), P)
        assert res.strategy == "certified-seq"
        assert res.n_stages == 1 and res.n_restarts == 0

    def test_sequential_with_exit_matches_reference(self):
        def body(ctx, i):
            prev = ctx.load("A", i - 1) if i else 0.0
            ctx.store("A", i, prev + 1.0)
            if prev >= 9.0:
                ctx.exit_loop()

        def make():
            return SpeculativeLoop(
                "exit-chain", 64, body,
                arrays=[ArraySpec("A", np.zeros(64))],
            )

        res = parallelize(make(), P)
        assert res.strategy == "certified-seq"
        assert res.exit_iteration == 9
        assert_matches_sequential(res, make())

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("loop_name", ["strided-doall", "prefix-sum"])
    def test_bit_identical_across_backends(self, loop_name, backend, always_dispatch):
        # Pinned to the pool: fast-path plain tasks must cross each data
        # plane, so the strategy is explicit (it executes the body; a
        # certified run replays its probe in the parent).
        factory = _corpus()
        serial = summarize(parallelize(factory[loop_name], P))
        loop = _corpus()[loop_name]
        config = RuntimeConfig.adaptive(backend=backend, backend_workers=P)
        got = summarize(
            parallelize(
                loop, P, config,
                strategy=fastpath_strategy(certify_loop(loop), config),
            )
        )
        assert got == serial

    def test_weighted_partition_respected(self):
        loop = fully_parallel_loop(64)
        weights = np.ones(64)
        weights[:8] = 50.0
        res = parallelize(loop, P, weights=weights)
        assert res.strategy == "certified-doall"
        sizes = [len(b) for b in res.stages[0].blocks]
        assert min(sizes) < max(sizes)  # heavy prefix got a narrow block
        assert_matches_sequential(res, fully_parallel_loop(64))

    def test_explicit_strategy_bypasses_certification(self):
        res = parallelize(
            fully_parallel_loop(32), P, RuntimeConfig.nrd(),
        )
        # Config-level default still certifies...
        assert res.strategy == "certified-doall"
        from repro.core.rlrpd import BlockedNRD

        # ...but an explicit strategy object is always honored.
        res2 = parallelize(
            fully_parallel_loop(32), P, RuntimeConfig.nrd(),
            strategy=BlockedNRD(),
        )
        assert res2.strategy == "NRD"
        assert res2.certificate is None

    def test_fastpath_strategy_rejects_fault_plans(self):
        from repro.core.fastpath import CertifiedDoall
        from repro.faults import FaultEvent, FaultKind, FaultPlan

        cert = certify_loop(fully_parallel_loop(16))
        plan = FaultPlan(
            events=(FaultEvent(FaultKind.FAIL_STOP, stage=0, proc=1),)
        )
        with pytest.raises(ConfigurationError):
            parallelize(
                fully_parallel_loop(16), P,
                RuntimeConfig.nrd(fault_plan=plan),
                strategy=CertifiedDoall(cert),
            )


# -- mode semantics ---------------------------------------------------------------


class TestCertifyModes:
    def test_off_reproduces_the_speculative_pipeline(self, tmp_path):
        # On a SPECULATE loop the hint-mode run must be byte-identical to
        # certify=off: hints only reorder predictor exploration, they never
        # perturb a single run's schedule or events.
        loop = lambda: random_dependence_loop(128, 0.3, 6, seed=5)  # noqa: E731
        off_trace = tmp_path / "off.jsonl"
        hint_trace = tmp_path / "hint.jsonl"
        off = parallelize(
            loop(), P,
            RuntimeConfig.adaptive(certify="off", trace_path=str(off_trace)),
        )
        hint = parallelize(
            loop(), P,
            RuntimeConfig.adaptive(certify="hint", trace_path=str(hint_trace)),
        )
        assert summarize(hint) == summarize(off)
        assert hint_trace.read_bytes() == off_trace.read_bytes()

    def test_off_disables_the_fast_path(self):
        res = parallelize(
            fully_parallel_loop(64), P, RuntimeConfig.adaptive(certify="off")
        )
        assert res.strategy == "RD-adaptive"
        assert res.certificate is None

    def test_trust_acts_on_model_evidence(self):
        loop = strided_doall_loop(6000)
        hint = parallelize(loop, P)
        assert hint.strategy != "certified-doall"  # affine evidence only
        trust = parallelize(
            strided_doall_loop(6000), P, RuntimeConfig.adaptive(certify="trust")
        )
        assert trust.strategy == "certified-doall"
        assert_matches_sequential(trust, strided_doall_loop(6000))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig.adaptive(certify="yolo")


# -- observability ----------------------------------------------------------------


class TestSurfacing:
    def test_certificate_on_result_and_summary(self):
        res = parallelize(fully_parallel_loop(32), P)
        assert res.certificate.verdict == DOALL
        assert res.summary()["certificate"] == DOALL

    def test_speculate_certificate_still_surfaced(self):
        res = parallelize(random_dependence_loop(64, 0.3, 4, seed=5), P)
        assert res.certificate is not None
        assert res.certificate.verdict == SPECULATE

    def test_stage_trace_leads_with_certificate(self):
        from repro.bench.trace import render_stage_trace

        res = parallelize(fully_parallel_loop(32), P)
        text = render_stage_trace(res)
        assert text.startswith("certificate: DOALL [trace/exact]")

    def test_report_names_the_fast_path(self, tmp_path):
        from repro.obs.report import load_trace, run_report

        trace = tmp_path / "trace.jsonl"
        parallelize(
            fully_parallel_loop(32), P,
            RuntimeConfig.adaptive(trace_path=str(trace)),
        )
        report = run_report(load_trace(str(trace)))
        assert "certified fast path" in report


# -- replay: exact certificates run the loop once ---------------------------------


def _replayed_golden_cases() -> list[str]:
    """Golden-corpus loops whose certificate rests on a full probe and
    takes a fast path (so the default run replays the probe)."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return sorted(
        name for name in GOLDEN_LOOPS
        if golden[name]["basis"] == "trace"
        and golden[name]["verdict"] in (DOALL, SEQUENTIAL)
    )


@pytest.fixture(scope="module")
def track_fptrak_inputs():
    """Every FPTRAK loop of the golden corpus's TRACK steps, with the
    live memory the runner hands it (captured from a serial run)."""
    captured = []
    original = track_sim_mod.parallelize

    def capturing(loop, *args, memory=None, **kwargs):
        if "fptrak" in loop.name:
            captured.append((loop, memory.snapshot()))
        return original(loop, *args, memory=memory, **kwargs)

    sim = TrackSimulation(TrackSimConfig())
    track_sim_mod.parallelize = capturing
    try:
        for _ in range(TRACK_STEPS):
            sim.step(TRACK_PROCS)
    finally:
        track_sim_mod.parallelize = original
    assert len(captured) == TRACK_STEPS
    return captured


def _image(snapshot: dict) -> MemoryImage:
    return MemoryImage(SharedArray(name, data) for name, data in snapshot.items())


def _observed(result, trace) -> dict:
    """Everything replay must reproduce, floats as reprs."""
    memory = result.memory
    return {
        "memory": {name: memory[name].data.tobytes() for name in memory.names()},
        "n_stages": result.n_stages,
        "total_time": repr(result.total_time),
        "sequential_work": repr(result.sequential_work),
        "iteration_times": {i: repr(t) for i, t in result.iteration_times.items()},
        "exit_iteration": result.exit_iteration,
        "trace": trace.read_bytes(),
        "metrics": result.metrics,
    }


#: (backend, pin every stage to the pool)
_REPLAY_LEGS = [("serial", False), ("fork", False), ("fork", True)]


def _replay_vs_execute(tmp_path, monkeypatch, make, snapshot, backend, pinned):
    """Run one loop the default way (replaying its probe) and through an
    explicit fast-path strategy (executing the body); both observed."""
    if pinned:
        monkeypatch.setattr(ForkBackend, "dispatch_pays", lambda self, tasks, n=None: True)
    out = []
    for leg, explicit in (("replayed", False), ("executed", True)):
        trace = tmp_path / f"{leg}.jsonl"
        config = RuntimeConfig.adaptive(
            backend=backend, backend_workers=P, trace_path=str(trace),
            metrics=True,
        )
        loop = make()
        memory = None if snapshot is None else _image(snapshot)
        strategy = None
        if explicit:
            strategy = fastpath_strategy(certify_loop(loop, memory), config)
        result = parallelize(loop, P, config, memory=memory, strategy=strategy)
        assert result.strategy in ("certified-doall", "certified-seq")
        out.append(_observed(result, trace))
    return out


@pytest.mark.usefixtures("kernel_mode")
class TestReplayMatchesExecution:
    @pytest.mark.parametrize("backend,pinned", _REPLAY_LEGS)
    @pytest.mark.parametrize("name", _replayed_golden_cases())
    def test_golden_corpus(self, name, backend, pinned, tmp_path, monkeypatch):
        if backend == "fork" and not HAS_FORK:
            pytest.skip("needs the fork start method")
        replayed, executed = _replay_vs_execute(
            tmp_path, monkeypatch, GOLDEN_LOOPS[name], None, backend, pinned
        )
        assert replayed == executed

    @pytest.mark.parametrize("backend,pinned", _REPLAY_LEGS)
    def test_track_fptrak_steps(
        self, track_fptrak_inputs, backend, pinned, tmp_path, monkeypatch
    ):
        if backend == "fork" and not HAS_FORK:
            pytest.skip("needs the fork start method")
        for step, (loop, snapshot) in enumerate(track_fptrak_inputs):
            replayed, executed = _replay_vs_execute(
                tmp_path, monkeypatch, lambda loop=loop: loop, snapshot, backend, pinned
            )
            assert replayed == executed, f"TRACK step {step}"

    def test_corpus_covers_both_fast_paths_and_an_exit(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        cases = [golden[name] for name in _replayed_golden_cases()]
        assert {c["verdict"] for c in cases} == {DOALL, SEQUENTIAL}
        assert any("exit_at" in c["stats"] for c in cases)


def _counting_doall(n: int, calls: list):
    def body(ctx, i):
        calls.append(i)
        ctx.work(0.5 + (i % 3))
        ctx.store("A", i, ctx.load("A", i) + 1.0)

    return SpeculativeLoop("counted", n, body, arrays=[ArraySpec("A", np.zeros(n))])


class TestReplay:
    def test_body_runs_once_per_iteration(self):
        calls: list[int] = []
        res = parallelize(_counting_doall(64, calls), P)
        assert res.strategy == "certified-doall"
        assert sorted(calls) == list(range(64))  # n calls, not 2n
        calls.clear()
        loop = _counting_doall(64, calls)
        config = RuntimeConfig.adaptive()
        executed = parallelize(
            loop, P, config, strategy=fastpath_strategy(certify_loop(loop), config)
        )
        assert len(calls) == 128  # the probe, then the execution
        assert repr(executed.total_time) == repr(res.total_time)
        assert executed.iteration_times == res.iteration_times

    def test_sequential_with_premature_exit(self):
        calls: list[int] = []

        def make():
            def body(ctx, i):
                calls.append(i)
                prev = ctx.load("A", i - 1) if i else 0.0
                ctx.work(1.0 + prev)
                ctx.store("A", i, prev + 1.0)
                if prev >= 9.0:
                    ctx.exit_loop()

            return SpeculativeLoop(
                "exit-chain", 64, body, arrays=[ArraySpec("A", np.zeros(64))]
            )

        res = parallelize(make(), P)
        assert res.strategy == "certified-seq"
        assert res.exit_iteration == 9
        assert calls == list(range(10))  # the probe alone, stopped at the exit
        loop = make()
        config = RuntimeConfig.adaptive()
        executed = parallelize(
            loop, P, config, strategy=fastpath_strategy(certify_loop(loop), config)
        )
        assert executed.exit_iteration == res.exit_iteration
        assert executed.memory.equals(res.memory.snapshot())
        assert repr(executed.total_time) == repr(res.total_time)
        assert executed.iteration_times == res.iteration_times
        assert_matches_sequential(res, make())

    def test_self_check_executes_and_checks_the_real_body(self, monkeypatch):
        import repro.core.engine as engine_mod

        checked = []
        original = engine_mod.check_final_state

        def recording(loop, memory, initial):
            checked.append((loop, {k: v.copy() for k, v in initial.items()}))
            return original(loop, memory, initial)

        monkeypatch.setattr(engine_mod, "check_final_state", recording)
        calls: list[int] = []
        loop = _counting_doall(32, calls)
        start = loop.materialize().snapshot()
        res = parallelize(loop, P, RuntimeConfig.adaptive(self_check=True))
        assert res.strategy == "certified-doall"
        [(checked_loop, initial)] = checked
        assert checked_loop is loop
        assert all(np.array_equal(initial[k], start[k]) for k in start)
        # The probe, the execution and the oracle's replay each ran it.
        assert len(calls) == 3 * 32
        assert_matches_sequential(res, _counting_doall(32, []))

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    @pytest.mark.usefixtures("always_dispatch")
    @pytest.mark.parametrize("backend", ["fork", "shm"])
    def test_replayed_pool_run_starts_no_pool(self, backend):
        res = parallelize(
            fully_parallel_loop(64), P,
            RuntimeConfig.adaptive(backend=backend, backend_workers=P),
        )
        assert res.strategy == "certified-doall"
        assert res.supervision["supervise.pools_started"] == 0
        assert res.supervision["supervise.dispatched_stages"] == 0
        assert res.supervision["supervise.inline_stages"] == 1
        assert backend_mod._DISPATCH_COSTS == {}

    def test_scratch_image_does_not_outlive_the_call(self, monkeypatch):
        refs = []
        original = runner_mod.certify_loop

        def recording(loop, memory=None, **kwargs):
            cert = original(loop, memory=memory, **kwargs)
            refs.extend(weakref.ref(p.scratch) for p in kwargs["evidence"])
            return cert

        monkeypatch.setattr(runner_mod, "certify_loop", recording)
        loop = fully_parallel_loop(64)
        memory = loop.materialize()
        arrays = {name: memory[name].data for name in memory.names()}
        res = parallelize(loop, P, memory=memory)
        [ref] = refs
        assert ref() is None
        assert res.memory is memory
        # The writes landed in the caller's own arrays.
        assert all(memory[name].data is data for name, data in arrays.items())
        assert_matches_sequential(res, fully_parallel_loop(64))
        # Without a start image the run adopts the probe's image instead.
        refs.clear()
        res = parallelize(fully_parallel_loop(64), P)
        assert refs[0]() is res.memory
