"""Host wall-clock performance of the execution backends (``host_perf``).

Everything else in the benchmark suite reports *virtual* time from the
cost model, which is bit-identical across execution backends by
construction.  This experiment measures real host seconds instead:

* the same workloads run under the ``serial`` and ``fork`` backends
  (dense synthetic doall and the sparse SPICE LU loop),
  asserting along the way that all backends produce identical memory and
  identical virtual time -- a parity mismatch is reported in the table
  and trips the benchmark's assertion;
* a microbenchmark of the commit phase's copy-out: the old per-element
  Python loop against the vectorized ``written_arrays`` fancy-indexed
  assignment now used by :func:`repro.core.commit.commit_states`;
* a per-primitive microbenchmark of the hot-path kernels layer
  (:mod:`repro.kernels`): the vectorized numpy implementation against
  the pure-Python scalar reference for marking, copy-in/out and the
  analysis reductions, on the same random index decks;
* an observability-overhead microbenchmark: the same serial run timed
  with the metrics registry and span tracker off vs on, gating the
  "near-zero cost when disabled, small cost when enabled" promise of
  :mod:`repro.obs.metrics` (CI asserts under 5% slowdown);
* an operational-plane overhead microbenchmark: the same run with the
  host resource sampler (:mod:`repro.obs.resources`) off vs on, under
  the same 5% CI budget.

Parallel-backend speedup is bounded by the host's CPU count (recorded in
the data); on a single-core host fork is expected to run its stages in
the parent or *lose* to serial by its dispatch overhead, and the numbers
say so honestly.  The CI gate (``benchmarks/bench_host_perf.py``)
conditions its speedup thresholds on the recorded CPU count for the same
reason; parity is asserted unconditionally.
"""

from __future__ import annotations

import os
import platform

import numpy as np

from repro.bench.harness import ExperimentResult, measure_host, register
from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.machine.memory import SharedArray, make_private_view
from repro.obs.resources import gil_mode
from repro.workloads.spice import make_dcdcmp15_loop
from repro.workloads.synthetic import fully_parallel_loop

BACKENDS = ("serial", "fork")


def _summary(result) -> dict:
    """Backend-parity fingerprint: memory contents and virtual time."""
    return {
        "memory": {
            name: data.tobytes()
            for name, data in sorted(result.memory.snapshot().items())
        },
        "total_time": repr(result.total_time),
        "n_stages": result.n_stages,
    }


def _inline_share(result) -> float | None:
    """Share of a pooled-backend run's stages that ran in the parent
    (their dispatch would not have paid); ``None`` for backends that
    make no such choice."""
    sup = result.supervision
    inline = sup.get("supervise.inline_stages", 0)
    total = inline + sup.get("supervise.dispatched_stages", 0)
    return inline / total if total else None


def _time_backends(make_loop, n_procs: int, repeats: int) -> dict:
    timings: dict[str, float] = {}
    summaries: dict[str, dict] = {}
    inline: dict[str, float | None] = {}
    for backend in BACKENDS:
        # certify="off": the sweep times the full speculative pipeline.
        # Under the default --certify=hint the dense doall would take the
        # certified fast path and the history trend would silently change
        # meaning mid-series; the fast path gets its own microbenchmark.
        config = RuntimeConfig.adaptive(backend=backend, certify="off")
        fn = lambda: parallelize(make_loop(), n_procs, config)  # noqa: E731
        # One untimed warm-up per backend: the first run in the process
        # pays import/allocator/page-fault costs that would otherwise be
        # charged to whichever backend happens to go first -- fatal to
        # the relative dispatch-overhead gates when ``repeats`` is 1.
        fn()
        seconds, result = measure_host(fn, repeats)
        timings[backend] = seconds
        summaries[backend] = _summary(result)
        inline[backend] = _inline_share(result)
    return {
        "seconds": timings,
        # A pooled backend's speedup over serial may come from running
        # its stages in the parent, not in parallel: report the share.
        "inline_share": inline,
        "speedup": {
            backend: timings["serial"] / timings[backend]
            for backend in BACKENDS
            if backend != "serial"
        },
        "parity_ok": all(
            summaries[backend] == summaries["serial"] for backend in BACKENDS
        ),
    }


def _paired_ratio(base_fn, on_fn, pairs: int):
    """Median of ``pairs`` interleaved ``on_fn``/``base_fn`` host-time
    ratios.

    The CPU-independent gates ride this: pairing cancels slow host
    drift (CPU frequency, noisy container neighbors) and the median kills
    the odd descheduled run, either of which would otherwise decide a
    gate on a loaded CI runner.  One discarded warmup pair strips one-time costs
    (imports, thread bootstrap) that are not steady-state cost.  Returns
    ``(median base seconds, median on seconds, median ratio, result of
    the last base call, result of the last on call)``."""
    import statistics

    base_fn()
    on_fn()
    base_times, on_times, ratios = [], [], []
    for _ in range(pairs):
        pair_base, base_result = measure_host(base_fn, 1)
        pair_on, on_result = measure_host(on_fn, 1)
        base_times.append(pair_base)
        on_times.append(pair_on)
        ratios.append(pair_on / pair_base)
    return (
        statistics.median(base_times),
        statistics.median(on_times),
        statistics.median(ratios),
        base_result,
        on_result,
    )


def _paired_overhead(make_loop, n_procs: int, base_cfg, on_cfg, repeats: int):
    """Fractional slowdown of ``on_cfg`` over ``base_cfg``: the median
    interleaved on/off ratio (:func:`_paired_ratio`) less one.  Returns
    ``(median base seconds, overhead, result of the last on-config
    run)``."""
    base_s, _, ratio, _, result = _paired_ratio(
        lambda: parallelize(make_loop(), n_procs, base_cfg),
        lambda: parallelize(make_loop(), n_procs, on_cfg),
        repeats,
    )
    return base_s, ratio - 1.0, result


def _metrics_overhead(make_loop, n_procs: int, repeats: int) -> dict:
    """Wall-clock cost of full instrumentation (metrics + spans) on the
    serial backend: the same run timed with the registry and span tracker
    disabled vs enabled.  ``overhead`` is the fractional slowdown
    (0.03 = 3%)."""
    base_s, overhead, result = _paired_overhead(
        make_loop, n_procs,
        RuntimeConfig.adaptive(
            backend="serial", metrics=False, spans=False, certify="off"
        ),
        RuntimeConfig.adaptive(
            backend="serial", metrics=True, spans=True, certify="off"
        ),
        repeats,
    )
    return {
        "base_s": base_s,
        "instrumented_s": base_s * (1.0 + overhead),
        "overhead": overhead,
        "counters": len(result.metrics.get("counters", {})),
    }


def _resources_overhead(make_loop, n_procs: int, repeats: int) -> dict:
    """Wall-clock cost of the operational plane (resource sampler + oplog
    flight recorder taps) on the serial backend: the same run timed with
    the sampler off vs on at the default interval."""
    base_s, overhead, _ = _paired_overhead(
        make_loop, n_procs,
        RuntimeConfig.adaptive(backend="serial", resources=False, certify="off"),
        RuntimeConfig.adaptive(backend="serial", resources=True, certify="off"),
        repeats,
    )
    return {
        "base_s": base_s,
        "sampled_s": base_s * (1.0 + overhead),
        "overhead": overhead,
    }


def _commit_microbench(n: int, repeats: int) -> dict:
    """Dense copy-out: per-element loop vs one fancy-indexed assignment."""
    view = make_private_view(
        SharedArray("A", np.zeros(n, dtype=np.float64)), sparse=False
    )
    view.store_many(
        np.arange(n, dtype=np.int64), np.sqrt(np.arange(n, dtype=np.float64) + 1.0)
    )
    dest_scalar = np.zeros(n, dtype=np.float64)
    dest_vector = np.zeros(n, dtype=np.float64)

    def scalar():
        for index, value in view.written_items():
            dest_scalar[index] = value

    def vector():
        indices, values = view.written_arrays()
        dest_vector[indices] = values

    scalar_s, _ = measure_host(scalar, repeats)
    vector_s, _ = measure_host(vector, repeats)
    assert np.array_equal(dest_scalar, dest_vector)
    return {
        "n": n,
        "scalar_s": scalar_s,
        "vector_s": vector_s,
        "speedup": scalar_s / vector_s,
    }


def _kernel_microbench(n: int, repeats: int) -> dict:
    """Hot-path kernels, vector vs scalar, one case per primitive family.

    Each implementation gets its own state buffers (built once, outside
    the timed region); the primitives are idempotent on their buffers, so
    best-of timing over warm repeats compares the same steady state for
    both implementations.
    """
    from repro.kernels import KERNELS

    rng = np.random.default_rng(7)
    indices = rng.integers(0, n, size=n, dtype=np.int64)
    new_values = rng.standard_normal(n)
    shared = rng.standard_normal(n)
    half_a = np.unique(rng.integers(0, 2 * n, size=n, dtype=np.int64))
    half_b = np.unique(rng.integers(0, 2 * n, size=n, dtype=np.int64))
    # A block's signed access log: reads ``i``, writes ``~i``.
    access_log = np.where(rng.random(n) < 0.3, ~indices, indices)
    n_words = (n + 63) // 64

    def _cases(k):
        write = np.zeros(n_words, dtype=np.uint64)
        exposed = np.zeros(n_words, dtype=np.uint64)
        any_read = np.zeros(n_words, dtype=np.uint64)
        marks = np.zeros(n_words, dtype=np.uint64)
        values = shared.copy()
        have = np.zeros(n, dtype=bool)
        written = np.zeros(n, dtype=bool)
        written[indices] = True
        dest = np.zeros(n, dtype=np.float64)
        return {
            "set_bits": lambda: k.set_bits(marks, n, indices),
            "mark_reads_bits": lambda: k.mark_reads_bits(
                write, exposed, any_read, n, indices
            ),
            "copy_in_dense": lambda: k.copy_in_dense(values, have, shared, indices),
            "copy_out_dense": lambda: k.copy_out_dense(values, written),
            "scatter": lambda: k.scatter(dest, indices, new_values),
            "intersect_indices": lambda: k.intersect_indices(half_a, half_b),
            "resolve_access_log": lambda: k.resolve_access_log(access_log),
            "reduce_min_max": lambda: k.reduce_min_max(indices),
        }

    primitives: dict[str, dict] = {}
    for impl_name, impl in sorted(KERNELS.items()):
        for prim, fn in _cases(impl).items():
            seconds, _ = measure_host(fn, repeats)
            primitives.setdefault(prim, {})[f"{impl_name}_s"] = seconds
    for case in primitives.values():
        case["speedup"] = case["scalar_s"] / case["vector_s"]
    return {"n": n, "primitives": primitives}


def _certified_fastpath_microbench(n: int, n_procs: int, pairs: int) -> dict:
    """Certified-DOALL fast path vs the full speculative pipeline on the
    dense doall, serial backend host seconds.

    The fast path is timed with :class:`CertifiedDoall` supplied as the
    strategy -- the execution the certifier's DOALL verdict buys (plain
    loads/stores, no shadow marking, no checkpoint, no analysis, no
    commit copy-out) -- against the default adaptive pipeline with
    certification off.  The two run as ``pairs`` interleaved
    fast/speculative pairs and ``speedup`` is the median pair ratio
    (:func:`_paired_ratio`): best-of minima of runs this short moved the
    ratio around its gate on a shared host whatever the code did.  The
    certifier's own probe is timed separately (``certify_s``): it stands
    in for static compile-time analysis, is independent of processor
    count, and amortizes over repeated runs of the same loop, so it is
    reported but not folded into the speedup the gate enforces.  Both
    runs must agree on final memory bit-for-bit.
    """
    from repro.core.fastpath import CertifiedDoall
    from repro.model import certify_loop

    spec_cfg = RuntimeConfig.adaptive(backend="serial", certify="off")
    fast_s, spec_s, speedup, fast_r, spec_r = _paired_ratio(
        lambda: parallelize(
            fully_parallel_loop(n), n_procs, spec_cfg, strategy=CertifiedDoall()
        ),
        lambda: parallelize(fully_parallel_loop(n), n_procs, spec_cfg),
        pairs,
    )
    certify_s, _ = measure_host(
        lambda: certify_loop(fully_parallel_loop(n)), 8
    )
    return {
        "n": n,
        "procs": n_procs,
        "pairs": pairs,
        "fastpath_s": fast_s,
        "speculative_s": spec_s,
        "certify_s": certify_s,
        "speedup": speedup,
        "parity_ok": _summary(fast_r)["memory"] == _summary(spec_r)["memory"],
    }


def inline_note(entry: dict, backend: str) -> str:
    """``", N% inline"`` for a pooled backend's sweep entry: a speedup
    near 1.0x with a full share is serial execution, not a parallel gain."""
    share = entry["inline_share"][backend]
    return "" if share is None else f", {share:.0%} inline"


@register("host_perf")
def host_perf(quick: bool) -> ExperimentResult:
    n_procs = 4
    repeats = 1 if quick else 3
    workloads = [
        (
            "doall-dense",
            lambda: fully_parallel_loop(1024 if quick else 4096),
            1024 if quick else 4096,
        ),
        (
            "spice15-sparse",
            lambda: make_dcdcmp15_loop("perfect-up"),
            2048,
        ),
    ]
    rows = []
    sweep = []
    for name, make_loop, n in workloads:
        entry = {"name": name, "n": n, "procs": n_procs}
        # Best-of-5 floor even in quick mode: these speedups feed the
        # cross-commit history that `repro bench-trend --strict` gates at
        # a 10% threshold, and a single timed sample per backend wobbles
        # well past that on a shared 1-cpu runner (the phantom fork
        # doall-dense regression in docs/cost-model.md was exactly such
        # an artifact).  Best-of minima are stable at this cost: ~4 s
        # for the whole sweep at quick sizes.
        entry.update(_time_backends(make_loop, n_procs, max(repeats, 5)))
        sweep.append(entry)
        seconds, speedup = entry["seconds"], entry["speedup"]
        cells = [f"serial {seconds['serial'] * 1e3:8.1f} ms"]
        cells += [
            f"{backend} {seconds[backend] * 1e3:8.1f} ms "
            f"({speedup[backend]:4.2f}x{inline_note(entry, backend)})"
            for backend in BACKENDS
            if backend != "serial"
        ]
        rows.append(
            f"{name:<16} n={n:<6} " + "   ".join(cells)
            + f"   parity {'ok' if entry['parity_ok'] else 'MISMATCH'}"
        )
    micro = _commit_microbench(1 << 12 if quick else 1 << 15, repeats)
    rows.append(
        f"{'commit-copyout':<16} n={micro['n']:<6} "
        f"scalar {micro['scalar_s'] * 1e3:9.1f} ms   "
        f"vector {micro['vector_s'] * 1e3:9.1f} ms   "
        f"speedup {micro['speedup']:5.2f}x"
    )
    kern = _kernel_microbench(1 << 12 if quick else 1 << 15, repeats)
    rows.append(
        f"{'kernels-micro':<16} n={kern['n']:<6} "
        + "  ".join(
            f"{prim} {case['speedup']:.1f}x"
            for prim, case in sorted(kern["primitives"].items())
        )
    )
    # The >= 2x fast-path gate applies at any CPU count (the serial
    # backend is single-process); its runs take a few milliseconds, so
    # it gates on the median of at least 15 interleaved pairs.
    fastpath = _certified_fastpath_microbench(
        1024 if quick else 4096, n_procs, max(repeats, 15)
    )
    rows.append(
        f"{'certified-fast':<16} n={fastpath['n']:<6} "
        f"speculative {fastpath['speculative_s'] * 1e3:7.1f} ms   "
        f"fastpath {fastpath['fastpath_s'] * 1e3:7.1f} ms "
        f"({fastpath['speedup']:4.2f}x)   "
        f"certify {fastpath['certify_s'] * 1e3:6.1f} ms   "
        f"parity {'ok' if fastpath['parity_ok'] else 'MISMATCH'}"
    )
    # Both overhead ratios gate CI at a 5% budget, far below run-to-run
    # scheduler noise on a short run: measure them on runs 4x longer than
    # the workload sweeps and with at least 15 interleaved pairs, which
    # empirically keeps the median ratio within ~3% even on a loaded
    # 1-cpu runner.  (The sampler's cost is fixed per run -- thread
    # start/stop + one final sample, ~0.15 ms -- so the longer run also
    # amortizes it to its honest steady-state share.)
    obs_n = 2048 if quick else 8192
    gate_n = 4 * obs_n
    gate_repeats = max(repeats, 15)
    overhead = _metrics_overhead(
        lambda: fully_parallel_loop(gate_n), n_procs, gate_repeats
    )
    rows.append(
        f"{'obs-overhead':<16} n={gate_n:<6} "
        f"off {overhead['base_s'] * 1e3:9.1f} ms   "
        f"on   {overhead['instrumented_s'] * 1e3:7.1f} ms   "
        f"overhead {overhead['overhead'] * 100:4.1f}%"
    )
    resources = _resources_overhead(
        lambda: fully_parallel_loop(gate_n), n_procs, gate_repeats
    )
    rows.append(
        f"{'resources-ovh':<16} n={gate_n:<6} "
        f"off {resources['base_s'] * 1e3:9.1f} ms   "
        f"on   {resources['sampled_s'] * 1e3:7.1f} ms   "
        f"overhead {resources['overhead'] * 100:4.1f}%"
    )
    host = {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "gil": gil_mode(),
        "backends": list(BACKENDS),
    }
    rows.append(
        f"host: {host['cpus']} cpu(s), {host['python']}, {host['gil']}"
    )
    return ExperimentResult(
        exp_id="host_perf",
        title="Host wall-clock: execution backends and vectorized commit",
        table="\n".join(rows),
        expectation=(
            "Both backends agree bit-for-bit on memory and virtual "
            "time; fork beats serial once the host has cores to spend "
            "(>= 1.5x on the dense doall at 4 cpus); fork runs a stage "
            "in the parent unless dispatching it is measured to pay, so "
            "where dispatch does not pay it reads near serial with a "
            "high inline share; the vectorized commit copy-out beats the "
            "per-element loop by well over 3x at dense sizes; every vectorized kernel primitive "
            "beats its pure-Python scalar reference; the certified-DOALL "
            "fast path beats the full speculative pipeline by >= 2x on "
            "the dense doall at any CPU count (it removes work, not "
            "waiting); full instrumentation "
            "(metrics + spans) slows the serial backend by under 5%, and "
            "so does the host resource sampler."
        ),
        data={
            "host": host,
            "workloads": sweep,
            "commit_microbench": micro,
            "kernel_microbench": kern,
            "certified_fastpath": fastpath,
            "metrics_overhead": overhead,
            "resources_overhead": resources,
        },
    )
