"""Host wall-clock sweep: serial/fork backends + kernels.

As a benchmark (``pytest benchmarks/bench_host_perf.py``) it runs the
registered ``host_perf`` experiment at quick scale and asserts backend
parity.  As a script it additionally writes the machine-readable results
to ``BENCH_host.json`` -- appending a ``history`` entry (commit, date,
per-workload speedups, backend set, GIL mode) to the existing file so
regressions can be charted across commits and interpreter builds;
re-running on the same ``(commit, cpus, gil)`` triple replaces the
earlier entry instead of duplicating it -- and exits
non-zero on any parity mismatch,
gate miss or crash, which is how CI gates the parallel backends::

    python benchmarks/bench_host_perf.py --quick --out BENCH_host.json

Fork's speedup is printed beside the share of its stages it ran in the
parent (``inline_share``): fork dispatches a stage only when
dispatching it is measured to pay, so a speedup near 1.0x with a full
inline share is serial execution.

Speedup gates are conditioned on the host CPU count recorded in the
results: with 4+ cpus (the CI runner size) fork must reach 1.5x serial
on the dense doall and at least break even on the sparse SPICE loop;
with 2-3 cpus it must break even on the dense doall; on a single core
no speedup is physically possible, so only parity is asserted.

One gate is CPU-independent: the certified-DOALL fast path must beat
the full speculative pipeline by >= 2x on the dense doall (serial
backend host seconds) -- it removes marking/analysis/commit work
per iteration rather than exploiting cores, so a single-core host
waives nothing.
"""

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from _common import run_figure

#: (workload name, backend, minimum speedup over serial) by CPU tier.
_GATES_4CPU = (
    ("doall-dense", "fork", 1.5),
    ("spice15-sparse", "fork", 1.0),
)
_GATES_2CPU = (
    ("doall-dense", "fork", 1.0),
)


def _speedup_gates(cpus: int):
    if cpus >= 4:
        return _GATES_4CPU
    if cpus >= 2:
        return _GATES_2CPU
    return ()


def _check(result) -> list[str]:
    from repro.bench.hostperf import inline_note

    problems = []
    workloads = {entry["name"]: entry for entry in result.data["workloads"]}
    for entry in workloads.values():
        if not entry["parity_ok"]:
            problems.append(
                f"backend parity mismatch on {entry['name']} "
                f"(n={entry['n']}, p={entry['procs']})"
            )
    cpus = result.data["host"]["cpus"] or 1
    for name, backend, floor in _speedup_gates(cpus):
        speedup = workloads[name]["speedup"][backend]
        if speedup < floor:
            problems.append(
                f"{backend} speedup {speedup:.2f}x on {name} is below the "
                f"{floor:.1f}x floor for a {cpus}-cpu host"
                + inline_note(workloads[name], backend)
            )
    for prim, case in sorted(result.data["kernel_microbench"]["primitives"].items()):
        if case["speedup"] <= 1.0:
            problems.append(
                f"vectorized kernel {prim} is not faster than the scalar "
                f"reference ({case['speedup']:.2f}x at "
                f"n={result.data['kernel_microbench']['n']})"
            )
    fastpath = result.data["certified_fastpath"]
    if not fastpath["parity_ok"]:
        problems.append(
            f"certified fast path memory diverges from the speculative "
            f"pipeline on doall-dense (n={fastpath['n']})"
        )
    # The fast path removes per-iteration work (marking, analysis, commit
    # copy-out) rather than exploiting cores, so the floor holds at any
    # CPU count -- including the 1-cpu tier where every absolute backend
    # gate is waived.
    if fastpath["speedup"] < 2.0:
        problems.append(
            f"certified-DOALL fast path speedup {fastpath['speedup']:.2f}x "
            f"over full speculation is below the 2.0x floor "
            f"(n={fastpath['n']}, serial backend)"
        )
    overhead = result.data["metrics_overhead"]["overhead"]
    if overhead >= 0.05:
        problems.append(
            f"instrumentation overhead {overhead * 100:.1f}% exceeds the "
            f"5% budget (metrics + spans on, serial backend)"
        )
    sampler = result.data["resources_overhead"]["overhead"]
    if sampler >= 0.05:
        problems.append(
            f"resource-sampler overhead {sampler * 100:.1f}% exceeds the "
            f"5% budget (operational plane on, serial backend)"
        )
    return problems


def bench_host_perf(benchmark):
    result = run_figure(benchmark, "host_perf")
    assert not _check(result)
    # The vectorized copy-out must clearly beat the per-element loop.
    assert result.data["commit_microbench"]["speedup"] > 1.0
    # Every vectorized kernel primitive must beat the scalar reference.
    kern = result.data["kernel_microbench"]
    assert kern["primitives"]
    assert all(case["speedup"] > 1.0 for case in kern["primitives"].values())


def _history_entry(result) -> dict:
    import datetime
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    host = result.data["host"]
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).date().isoformat(),
        "cpus": host["cpus"],
        "gil": host.get("gil"),
        # Timing discipline: one untimed warm-up per backend, then
        # best-of-5 minima (see _time_backends).  bench-trend only gates
        # entries against history recorded with the same method.
        "method": "warm-best5",
        "backends": host.get("backends"),
        "speedups": {
            entry["name"]: entry["speedup"]
            for entry in result.data["workloads"]
        },
    }


def _load_history(path) -> list:
    import json

    try:
        with open(path) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        return []
    history = previous.get("history", [])
    return history if isinstance(history, list) else []


def _merge_history(history: list, entry: dict) -> list:
    """Append ``entry``, dropping any earlier entry for the same
    ``(commit, cpus, gil)`` triple -- re-running the benchmark on the same
    commit, host size and interpreter build refreshes its measurement
    instead of duplicating it, while runs on a free-threaded build keep
    their own trajectory next to the stock-GIL one."""
    key = (entry.get("commit"), entry.get("cpus"), entry.get("gil"))
    kept = [
        old for old in history
        if not (
            isinstance(old, dict)
            and (old.get("commit"), old.get("cpus"), old.get("gil")) == key
        )
    ]
    return kept + [entry]


def main(argv=None) -> int:
    import argparse
    import json

    from repro.bench import run_experiment

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem sizes, single timing repeat (the CI setting)",
    )
    parser.add_argument(
        "--out", default="BENCH_host.json", metavar="PATH",
        help="write results as JSON to PATH (default: %(default)s); an "
        "existing file's history list is carried forward and extended",
    )
    args = parser.parse_args(argv)
    result = run_experiment("host_perf", quick=args.quick)
    print(result.render())
    data = dict(result.data)
    entry = _history_entry(result)
    history = _merge_history(_load_history(args.out), entry)
    data["history"] = history
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out} ({len(data['history'])} history entries)")
    from repro.bench.trend import previous_comparable, render_delta

    print(render_delta(entry, previous_comparable(history, entry)))
    problems = _check(result)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
