"""Command-line driver: run any bundled workload under any strategy.

Usage (also via ``python -m repro``)::

    python -m repro list                          # available workloads
    python -m repro run nlfilt:16-400 -p 8 --strategy sw --window 64
    python -m repro run extend:clean -p 8 --trace run.jsonl --breakdown
    python -m repro certify scatter -p 8          # all strategies vs oracle
    python -m repro ddg spice15:adder.128 -p 8    # extraction + wavefront
    python -m repro report --bundle crashes/crash-...  # read a crash bundle
    python -m repro bench-trend BENCH_host.json   # speedups across commits

Workloads are addressed as ``family[:deck]``; omit the deck for the
family's default.  Strategies come from the engine registry
(:mod:`repro.core.engine`), so a strategy registered by a plugin module
is runnable here without touching this file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.bench.trace import render_breakdown, render_stage_trace
from repro.config import RuntimeConfig
from repro.core.backend import backend_names
from repro.kernels import kernel_names
from repro.core.ddg import extract_ddg
from repro.core.engine import resolve_strategy, strategy_names
from repro.core.runner import parallelize
from repro.core.supervise import supervision_acted
from repro.core.verify import certify
from repro.core.wavefront import execute_wavefront, wavefront_schedule
from repro.errors import ConfigurationError
from repro.faults import random_plan
from repro.obs.metrics import render_metrics
from repro.obs.report import load_trace, run_report, write_perfetto
from repro.obs.sinks import CliProgressSink
from repro.loopir.loop import SpeculativeLoop
from repro.workloads import (
    EXTEND_DECKS,
    FMA3D_DECKS,
    FPTRAK_DECKS,
    NLFILT_DECKS,
    SPICE_DECKS,
    make_dcdcmp15_loop,
    make_dcdcmp70_loop,
    make_bjt_loop,
    make_extend_loop,
    make_fptrak_loop,
    make_nlfilt_loop,
    make_quad_loop,
)
from repro.workloads.patterns import (
    gather_loop,
    pointer_chase_loop,
    scatter_loop,
    stencil_loop,
    transitive_update_loop,
)
from repro.workloads.synthetic import (
    chain_loop,
    fully_parallel_loop,
    geometric_chain_targets,
    prefix_sum_loop,
    random_dependence_loop,
    strided_doall_loop,
)

WorkloadFactory = Callable[[str | None], SpeculativeLoop]


def _decked(maker, decks, default):
    def factory(deck: str | None) -> SpeculativeLoop:
        return maker(decks[deck or default])

    factory.decks = sorted(decks)  # type: ignore[attr-defined]
    return factory


def _plain(maker, **kwargs):
    def factory(deck: str | None) -> SpeculativeLoop:
        if deck is not None:
            raise KeyError(f"this workload takes no deck (got {deck!r})")
        return maker(**kwargs)

    factory.decks = []  # type: ignore[attr-defined]
    return factory


WORKLOADS: dict[str, WorkloadFactory] = {
    "nlfilt": _decked(make_nlfilt_loop, NLFILT_DECKS, "16-400"),
    "extend": _decked(make_extend_loop, EXTEND_DECKS, "clean"),
    "fptrak": _decked(make_fptrak_loop, FPTRAK_DECKS, "clean"),
    "spice15": _decked(make_dcdcmp15_loop, SPICE_DECKS, "adder.128"),
    "spice70": _decked(make_dcdcmp70_loop, SPICE_DECKS, "adder.128"),
    "bjt": _decked(make_bjt_loop, SPICE_DECKS, "adder.128"),
    "fma3d": _decked(make_quad_loop, FMA3D_DECKS, "train"),
    "doall": _plain(fully_parallel_loop, n=2048),
    "chain": _plain(
        lambda n=2048: chain_loop(n, geometric_chain_targets(n, 0.5))
    ),
    "random-deps": _plain(random_dependence_loop, n=2048, density=0.05, max_distance=8),
    "strided-doall": _plain(strided_doall_loop, n=2048),
    "prefix-sum": _plain(prefix_sum_loop, n=2048),
    "stencil": _plain(stencil_loop, n=2048),
    "gather": _plain(gather_loop, n=2048),
    "scatter": _plain(scatter_loop, n=2048),
    "pointer-chase": _plain(pointer_chase_loop, n=512),
    "forest": _plain(transitive_update_loop, n=2048),
}


def resolve_workload(spec: str) -> SpeculativeLoop:
    family, _, deck = spec.partition(":")
    try:
        factory = WORKLOADS[family]
    except KeyError:
        raise SystemExit(
            f"unknown workload {family!r}; try: {', '.join(sorted(WORKLOADS))}"
        ) from None
    try:
        return factory(deck or None)
    except KeyError as exc:
        raise SystemExit(f"workload {family!r}: {exc}") from None


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def config_from_args(args) -> RuntimeConfig:
    overrides = {}
    if getattr(args, "faults", None) is not None:
        overrides["fault_plan"] = random_plan(args.faults, n_procs=args.procs)
    if getattr(args, "self_check", False):
        overrides["self_check"] = True
    if getattr(args, "trace", None) is not None:
        overrides["trace_path"] = args.trace
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "backend_workers", None) is not None:
        overrides["backend_workers"] = args.backend_workers
    if getattr(args, "kernels", None) is not None:
        overrides["kernels"] = args.kernels
    if getattr(args, "worker_timeout", None) is not None:
        overrides["worker_timeout"] = args.worker_timeout
    if getattr(args, "max_worker_respawns", None) is not None:
        overrides["max_worker_respawns"] = args.max_worker_respawns
    if getattr(args, "metrics", False):
        overrides["metrics"] = True
    if getattr(args, "perfetto", None) is not None:
        overrides["perfetto_path"] = args.perfetto
    if getattr(args, "resources", False):
        overrides["resources"] = True
    if getattr(args, "crash_dir", None) is not None:
        overrides["crash_dir"] = args.crash_dir
    if getattr(args, "certify", None) is not None:
        overrides["certify"] = args.certify
    elif args.strategy is not None:
        # An explicitly named strategy means "run exactly this": don't
        # let a DOALL/SEQUENTIAL certificate reroute it.  An explicit
        # --certify alongside restores certification's right of way.
        overrides["certify"] = "off"
    strategy_name = args.strategy or "adaptive"
    if strategy_name == "adaptive":
        overrides["feedback_balancing"] = args.feedback
    if strategy_name == "sw":
        overrides["window_size"] = args.window
    try:
        strategy_cls = resolve_strategy(strategy_name)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    return strategy_cls.default_config(**overrides)


def cmd_list(args) -> int:
    for family in sorted(WORKLOADS):
        decks = getattr(WORKLOADS[family], "decks", [])
        suffix = f"  decks: {', '.join(decks)}" if decks else ""
        print(f"{family}{suffix}")
    return 0


def cmd_run(args) -> int:
    loop = resolve_workload(args.workload)
    config = config_from_args(args)
    sinks = [CliProgressSink(sys.stdout)] if args.progress else []
    # Strategies whose behavior is not expressible as a RuntimeConfig
    # (iteration-wise commit, explicit induction selection) bypass the
    # config dispatch and run their registered class directly.
    strategy = None
    if args.strategy in ("iterwise", "induction"):
        strategy = resolve_strategy(args.strategy)()
    try:
        result = parallelize(
            loop, args.procs, config, strategy=strategy, sinks=sinks
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    print(render_stage_trace(result))
    if result.faults_survived or result.retries:
        counts = ", ".join(
            f"{kind}: {count}"
            for kind, count in sorted(result.fault_counts.items())
        )
        dead = ",".join(map(str, result.dead_procs)) or "none"
        print(
            f"faults survived: {result.faults_survived} ({counts}); "
            f"fault retries: {result.retries}; "
            f"degraded stages: {result.degraded_stages}; dead procs: {dead}"
        )
    # Printed only when supervision acted: an undisturbed run's output is
    # the same on every backend, whichever stages it ran in the parent.
    if supervision_acted(result.supervision):
        sup = result.supervision
        fallbacks = ", ".join(
            f"{d['from']}->{d['to']}"
            for d in sup.get("supervise.degradations", [])
        ) or "none"
        print(
            f"worker supervision: respawns: {sup['supervise.respawns']}; "
            f"redispatched blocks: {sup['supervise.redispatched_blocks']}; "
            f"kills: {sup['supervise.kills']}; "
            f"overdue: {sup['supervise.overdue']}; "
            f"backend fallbacks: {fallbacks}; "
            f"stages inline: {sup['supervise.inline_stages']}, "
            f"dispatched: {sup['supervise.dispatched_stages']}; "
            f"pools started: {sup['supervise.pools_started']}"
        )
    if args.breakdown:
        print()
        print(render_breakdown(result))
    if args.metrics:
        print()
        print(render_metrics(result.metrics))
    return 0


def cmd_report(args) -> int:
    if args.bundle is not None:
        from repro.obs.flight import render_bundle

        try:
            print(render_bundle(args.bundle))
        except OSError as exc:
            raise SystemExit(str(exc)) from None
        return 0
    if args.trace is None:
        raise SystemExit("report needs a trace path or --bundle PATH")
    try:
        events = load_trace(args.trace)
        if not events:
            raise SystemExit(f"{args.trace}: empty trace")
        report = run_report(events)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.trace}: {exc}") from None
    print(report)
    if args.perfetto is not None:
        written = write_perfetto(events, args.perfetto)
        print(f"\nwrote {written} Perfetto trace entries to {args.perfetto}")
    return 0


def cmd_bench_trend(args) -> int:
    from repro.bench.trend import has_regressions, load_history, render_trend

    try:
        history = load_history(args.results)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{args.results}: {exc}") from None
    print(render_trend(history, threshold=args.threshold, workload=args.workload))
    regressed = has_regressions(history, threshold=args.threshold)
    if regressed:
        print("\nregression against the previous comparable run", file=sys.stderr)
    return 1 if (regressed and args.strict) else 0


def cmd_certify(args) -> int:
    family, _, deck = args.workload.partition(":")
    factory = lambda: resolve_workload(args.workload)  # noqa: E731
    cert = certify(factory, args.procs, tolerant=args.tolerant)
    print(cert.render())
    best = cert.best()
    if best is not None:
        print(f"\nbest strategy: {best.label} ({best.result.speedup:.2f}x)")
    return 0 if cert.ok else 1


def cmd_ddg(args) -> int:
    loop = resolve_workload(args.workload)
    ddg = extract_ddg(loop, args.procs, RuntimeConfig.sw(
        window_size=args.window or 8 * args.procs, backend=args.backend
    ))
    sched = wavefront_schedule(ddg.graph(), loop.n_iterations)
    print(
        f"{loop.name}: {loop.n_iterations} iterations, {len(ddg.edges)} edges, "
        f"critical path {sched.critical_path}, "
        f"average parallelism {sched.average_parallelism:.1f}"
    )
    wf = execute_wavefront(resolve_workload(args.workload), sched, args.procs)
    print(f"wavefront speedup on p={args.procs}: {wf.speedup:.2f}x "
          f"(extraction cost {ddg.extraction.total_time:.0f}, "
          f"per-use {wf.total_time:.0f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="R-LRPD speculative parallelization runtime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled workloads").set_defaults(fn=cmd_list)

    def add_common(p):
        p.add_argument("workload", help="family[:deck], see `list`")
        p.add_argument("-p", "--procs", type=int, default=8)

    run_p = sub.add_parser("run", help="run one workload under one strategy")
    add_common(run_p)
    run_p.add_argument(
        "--strategy", choices=strategy_names(), default=None,
        help="iteration-assignment strategy (default adaptive); naming "
        "one explicitly also disables certification dispatch so the "
        "requested strategy actually runs -- pass --certify as well to "
        "let a certificate override it",
    )
    run_p.add_argument("--window", type=int, default=None, help="SW window size")
    run_p.add_argument("--feedback", action="store_true", help="feedback balancing")
    run_p.add_argument("--breakdown", action="store_true", help="cost breakdown table")
    run_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a JSONL stage-event trace of the run to PATH",
    )
    run_p.add_argument(
        "--progress", action="store_true",
        help="narrate stages live from the event stream",
    )
    run_p.add_argument(
        "--faults", type=_seed, default=None, metavar="SEED",
        help="inject a reproducible random fault plan derived from SEED",
    )
    run_p.add_argument(
        "--self-check", action="store_true", dest="self_check",
        help="verify untested isolation per stage and the final memory "
        "against a sequential replay",
    )
    run_p.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="execution backend for stage blocks (serial = in-process, "
        "fork = worker-process pool; shm and threads = synonyms for fork "
        "and serial kept for the host-time benchmark; results are "
        "bit-identical)",
    )
    run_p.add_argument(
        "--backend-workers", type=int, default=None, dest="backend_workers",
        metavar="N", help="worker processes in the fork pool",
    )
    run_p.add_argument(
        "--kernels", choices=kernel_names(), default=None,
        help="hot-path kernels implementation (vector = numpy batch "
        "primitives, scalar = pure-Python reference loops; results are "
        "bit-identical, only host time changes)",
    )
    run_p.add_argument(
        "--worker-timeout", type=float, default=None, dest="worker_timeout",
        metavar="SEC", help="floor of the supervisor's per-dispatch worker "
        "deadline; an unresponsive worker is SIGKILLed and its blocks "
        "re-dispatched after at most this many seconds",
    )
    run_p.add_argument(
        "--max-worker-respawns", type=int, default=None,
        dest="max_worker_respawns", metavar="N",
        help="worker recoveries a parallel pool may spend on crashes "
        "or hangs before degrading to the serial backend",
    )
    run_p.add_argument(
        "--metrics", action="store_true",
        help="collect runtime metrics (marks, bytes moved, retries) and "
        "print the final registry",
    )
    run_p.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="write a dual-clock Chrome trace-event JSON to PATH "
        "(viewable at https://ui.perfetto.dev); implies span tracing",
    )
    run_p.add_argument(
        "--resources", action="store_true",
        help="sample host resources (RSS, CPU, worker health) "
        "on a background thread; merged into --perfetto counter tracks",
    )
    run_p.add_argument(
        "--certify", choices=("off", "hint", "trust"), default=None,
        dest="certify",
        help="static certification front-end: hint (default) runs "
        "provably-independent loops on the zero-speculation fast path "
        "and provably-sequential loops in order (exact full-probe "
        "evidence only), trust also acts on affine-model evidence from "
        "sampled probes, off disables certification entirely",
    )
    run_p.add_argument(
        "--crash-dir", default=None, dest="crash_dir", metavar="DIR",
        help="write a crash bundle (flight-recorder rings, config, env) "
        "under DIR when the run dies of an uncaught failure; read it "
        "back with `repro report --bundle`",
    )
    run_p.set_defaults(fn=cmd_run)

    report_p = sub.add_parser(
        "report", help="fold a recorded JSONL trace into summary tables"
    )
    report_p.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL trace recorded with --trace",
    )
    report_p.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="also export the trace as Chrome trace-event JSON",
    )
    report_p.add_argument(
        "--bundle", default=None, metavar="DIR",
        help="render a crash bundle directory (written by --crash-dir / "
        "REPRO_CRASH_DIR) instead of a trace",
    )
    report_p.set_defaults(fn=cmd_report)

    trend_p = sub.add_parser(
        "bench-trend",
        help="per-workload/backend speedup trends from BENCH_host.json",
    )
    trend_p.add_argument(
        "results", nargs="?", default="BENCH_host.json",
        help="benchmark results file with a history list "
        "(default %(default)s)",
    )
    trend_p.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRAC",
        help="relative drop vs the previous comparable run flagged as a "
        "regression (default %(default)s)",
    )
    trend_p.add_argument(
        "--workload", default=None,
        help="restrict the table to one workload",
    )
    trend_p.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when the newest entry regressed",
    )
    trend_p.set_defaults(fn=cmd_bench_trend)

    cert_p = sub.add_parser("certify", help="verify all strategies vs sequential")
    add_common(cert_p)
    cert_p.add_argument(
        "--tolerant", action="store_true",
        help="allclose comparison (floating-point reductions)",
    )
    cert_p.set_defaults(fn=cmd_certify)

    ddg_p = sub.add_parser("ddg", help="extract the DDG and wavefront-schedule it")
    add_common(ddg_p)
    ddg_p.add_argument("--window", type=int, default=None)
    ddg_p.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="execution backend for the extraction's stage blocks",
    )
    ddg_p.set_defaults(fn=cmd_ddg)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
