#!/usr/bin/env python3
"""Reachability audit: which ``src/`` functions does a product run reach?

Every function definition under ``src/repro`` (an AST walk) is sorted
into one of four buckets:

* **product** -- called by at least one product run: the four hostbench
  workloads, ``python -m repro.bench --quick``, CI's recorded
  ``repro run`` and ``repro report``, and every ``examples/*.py``;
* **test-only** -- called by the tier-1 suite and by no product run;
* **unreached** -- called by nothing;
* **exempt** -- not called by a product run, but named in
  :data:`EXEMPT` with the reason it stays.

Calls are recorded by a ``sys.setprofile`` / ``threading.setprofile``
hook that a generated ``sitecustomize`` installs in every Python process
a run starts, subprocesses included.  ``os.register_at_fork`` re-arms
the hook's log in fork children (the fork pool's workers), which write
their own log file: each function is logged the first time a process
calls it, so even a worker that ends in ``os._exit`` or SIGKILL has left
what it reached.  Everything a run writes -- the logs, the bench report,
traces, pytest's temp dirs, the hypothesis database -- goes under one
temporary directory.

Usage, from the root of a checkout::

    python tools/reachability.py           # product runs, tier-1, report
    python tools/reachability.py --check   # AST only: exemptions resolve

``--check`` takes seconds and exits non-zero when an exemption names a
function, class or module that no longer exists.  Stdlib only.

The report resolves the logged ``(path, first line)`` pairs against the
AST parse taken before the runs, so a full audit records each file's
content hash at parse time and, if any file under ``src/repro`` changed
(or appeared, or vanished) before the last run ended, prints no report
and exits non-zero naming the files: an edit mid-audit would misfile
their functions.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"

ENV_LOG_DIR = "REACHABILITY_LOG_DIR"
ENV_PREFIX = "REACHABILITY_PREFIX"

HOSTBENCH_WORKLOADS = (
    "nlfilt-16-400", "spice-dcdcmp15", "fma3d-quad", "track-program",
)

#: Names exempt from deletion although no product run reaches them: a
#: module, a class or a function (dotted, nested functions without
#: ``<locals>``), each with the reason it stays.  A name covers
#: everything defined inside it.
EXEMPT = {
    # Reference implementations and test seams.
    "repro.kernels.scalar":
        "scalar reference kernels: CI's parity leg runs them",
    "repro.core.backend.use_backend": "test seam: scopes the default backend",
    "repro.obs.metrics.use_instrumentation":
        "test seam: scopes metrics and spans",
    # Fault, chaos, self-check and crash-bundle paths (CI's chaos job).
    "repro.faults": "fault and OS-chaos injection",
    "repro.core.verify": "`repro certify` and `--self-check`",
    "repro.machine.checkpoint.verify_untested_isolation": "`--self-check`",
    "repro.core.backend._AccessRecorder": "`--self-check` in fork workers",
    "repro.obs.flight": "crash bundles: `--crash-dir`, `repro report --bundle`",
    "repro.core.engine.StageEngine._record_failure": "crash post-mortem",
    # Supervision recovery.
    "repro.core.supervise": "fork-worker crash and hang recovery",
    "repro.core.engine.StageEngine._degrade_backend": "pool degradation to serial",
    "repro.core.backend.ForkBackend._halt_workers": "pool degradation to serial",
    "repro.core.backend.ForkBackend._share_context": "a failing worker's error message",
    # Documented CLI commands and options.
    "repro.cli": "the `repro` commands",
    "repro.bench.trend": "`repro bench-trend`, a CI gate",
    "repro.bench.compare": "`repro bench-compare`",
    "repro.bench.export": "`python -m repro.bench --json`",
    "repro.bench.harness.list_experiments": "`python -m repro.bench --list`",
    "repro.bench.trace.render_breakdown": "`repro run --breakdown`",
    "repro.obs.report.write_perfetto": "`repro report --perfetto`",
    "repro.obs.sinks.CliProgressSink": "`repro run --progress`",
    "repro.obs.spans.PerfettoTraceSink.set_resource_samples":
        "`repro run --resources --perfetto`",
    "repro.obs.resources.read_self_rusage": "`--resources` on a host without /proc",
    "repro.core.backend.ForkBackend.resource_info": "`--resources`: fork-worker samples",
    "repro.obs.metrics.MetricsRegistry.merge":
        "a metrics run's dispatched stage: folds each worker's registry",
    "repro.obs.oplog.OpLog._write": "`REPRO_OPLOG`, set by CI's test and chaos jobs",
    "repro.obs.oplog.OpLog._rotate": "`REPRO_OPLOG_MAX_BYTES` rotation",
    "repro.obs.oplog.OpLog._max_bytes": "`REPRO_OPLOG_MAX_BYTES` rotation",
    "repro.core.rlrpd.BlockedRD.default_config": "`repro run --strategy rd`",
    "repro.core.window.SlidingWindow.default_config": "`repro run --strategy sw`",
    "repro.core.induction_runner.InductionTwoPhase.default_config":
        "`repro run --strategy induction`",
    "repro.workloads.synthetic.strided_doall_loop": "`repro run strided-doall`",
    "repro.workloads.synthetic.prefix_sum_loop": "`repro run prefix-sum`",
    # The public loop-body contract, bulk access included
    # (docs/porting-guide.md).
    "repro.loopir.context": "the `IterationContext` contract",
    "repro.core.executor.SpeculativeContext.load_many": "bulk `IterationContext` access",
    "repro.core.executor.SpeculativeContext.store_many": "bulk `IterationContext` access",
    "repro.core.executor.SpeculativeContext._bulk_route": "bulk `IterationContext` access",
    "repro.core.executor.SpeculativeContext._cold_route": "bulk `IterationContext` access",
    "repro.core.executor.SpeculativeContext._charge": "bulk `IterationContext` access",
    "repro.core.executor.SpeculativeContext._fold": "bulk `IterationContext` access",
    "repro.machine.memory.DensePrivateView.load_many": "bulk `IterationContext` access",
    "repro.machine.memory.SparsePrivateView.load_many": "bulk `IterationContext` access",
    "repro.machine.memory.SparsePrivateView.store_many": "bulk `IterationContext` access",
    # The private views' scalar access, which the speculative context's
    # routes inline: the reference semantics tests compare them against.
    "repro.machine.memory.DensePrivateView.store": "reference of the routed store",
    "repro.machine.memory.SparsePrivateView.load": "reference of the routed load",
    "repro.machine.memory.SparsePrivateView.store": "reference of the routed store",
    # Certification's sampled affine path and the fuzzer's generators.
    "repro.loopir.symbolic": "the certifier's sampled affine path",
    "repro.workloads.patterns": "access-pattern generators for a fuzzer",
}


# -- the call hook ------------------------------------------------------------------


def install(log_dir: str, prefix: str) -> None:
    """Log, per process, every function under ``prefix`` called from now on.

    One file per process, ``<log_dir>/<pid>.log``, one ``path<TAB>first
    line`` record per function, written on its first call.
    """
    seen: dict[int, object] = {}  # id -> code; holding the code keeps ids unique
    fd = [-1]

    def open_log() -> None:
        if fd[0] >= 0:
            os.close(fd[0])
        path = os.path.join(log_dir, f"{os.getpid()}.log")
        fd[0] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def hook(frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        if code.co_filename.startswith(prefix):
            os.write(fd[0], f"{code.co_filename}\t{code.co_firstlineno}\n".encode())

    open_log()
    os.register_at_fork(after_in_child=open_log)
    threading.setprofile(hook)
    sys.setprofile(hook)


_SITECUSTOMIZE = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("_reachability", {tool!r})
_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.install(os.environ[{log!r}], os.environ[{prefix!r}])
"""


def run_hooked(argv: list[str], log_dir: pathlib.Path, work: pathlib.Path,
               prefix: str, cwd: pathlib.Path, env: dict | None = None) -> int:
    """Run ``argv`` with the hook installed in every Python process it
    starts; return its exit status.  Its output is appended to
    ``work/runs.out``."""
    hook_dir = work / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(
        tool=str(pathlib.Path(__file__).resolve()), log=ENV_LOG_DIR,
        prefix=ENV_PREFIX,
    ))
    log_dir.mkdir(parents=True, exist_ok=True)
    full_env = dict(os.environ, **(env or {}))
    full_env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    full_env[ENV_LOG_DIR] = str(log_dir)
    full_env[ENV_PREFIX] = prefix
    with open(work / "runs.out", "a") as out:
        out.write(f"$ {' '.join(argv)}\n")
        out.flush()
        return subprocess.run(
            argv, cwd=cwd, env=full_env, stdout=out, stderr=subprocess.STDOUT,
        ).returncode


def load_reached(log_dir: pathlib.Path) -> set[tuple[str, int]]:
    """Every ``(path, first line)`` the logs under ``log_dir`` record."""
    reached = set()
    for log in log_dir.glob("*.log"):
        for line in log.read_text().splitlines():
            path, _, lineno = line.rpartition("\t")
            if path:
                reached.add((path, int(lineno)))
    return reached


# -- the AST side -------------------------------------------------------------------


class Definition(NamedTuple):
    module: str
    name: str  # qualified within the module, nested functions without <locals>
    path: str
    first: int  # the first decorator's line, as in the code object
    last: int

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.name}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def module_name(path: pathlib.Path, src: pathlib.Path = SRC) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def definitions(pkg: pathlib.Path = PKG, src: pathlib.Path = SRC,
                hashes: dict[str, str] | None = None):
    """``(functions, names)``: every function definition under ``pkg``,
    and every dotted module, class and function name there.  ``hashes``,
    when given, receives each parsed file's content hash by path."""
    functions: list[Definition] = []
    names: set[str] = set()

    def walk(node, module, path, scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = ".".join([*scope, child.name])
                names.add(f"{module}.{name}")
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    functions.append(Definition(module, name, str(path), first, child.end_lineno))
                walk(child, module, path, [*scope, child.name])
            else:
                walk(child, module, path, scope)

    for path in sorted(pkg.rglob("*.py")):
        module = module_name(path, src)
        names.add(module)
        text = path.read_text()
        if hashes is not None:
            hashes[str(path)] = _digest(text)
        walk(ast.parse(text, str(path)), module, path, [])
    return functions, names


def changed_sources(hashes: dict[str, str], pkg: pathlib.Path = PKG) -> list[str]:
    """Paths under ``pkg`` whose content differs from ``hashes`` (from
    :func:`definitions`), including files added or removed since."""
    now = {str(path): _digest(path.read_text()) for path in pkg.rglob("*.py")}
    return sorted(p for p in hashes.keys() | now.keys() if hashes.get(p) != now.get(p))


def exemption_for(definition: Definition) -> str | None:
    dotted = definition.dotted
    for name in EXEMPT:
        if dotted == name or dotted.startswith(name + "."):
            return name
    return None


def stale_exemptions(names: set[str]) -> list[str]:
    return [name for name in EXEMPT if name not in names]


# -- the runs -----------------------------------------------------------------------


def product_runs(tmp: pathlib.Path) -> list[list[str]]:
    py = sys.executable
    trace = str(tmp / "run_trace.jsonl")
    return [
        *([py, str(ROOT / "hostbench" / "run.py"), "--workload", name,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
          for name in HOSTBENCH_WORKLOADS),
        [py, "-m", "repro.bench", "--quick", "--output", str(tmp / "EXPERIMENTS.md")],
        [py, "-m", "repro", "run", "random-deps", "-p", "4", "--metrics",
         "--trace", trace, "--perfetto", str(tmp / "run_trace.perfetto.json")],
        [py, "-m", "repro", "report", trace],
        *([py, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
    ]


def run_product(tmp: pathlib.Path, prefix: str) -> list[str]:
    failed = []
    for argv in product_runs(tmp):
        print(f"product: {' '.join(pathlib.Path(a).name for a in argv[1:])}",
              file=sys.stderr, flush=True)
        if run_hooked(argv, tmp / "product", tmp, prefix, cwd=tmp):
            failed.append(" ".join(argv))
    return failed


def run_tests(tmp: pathlib.Path, prefix: str) -> int:
    print("tier-1 suite", file=sys.stderr, flush=True)
    return run_hooked(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp / "pytest")],
        tmp / "tests", tmp, prefix, cwd=ROOT,
        env={"HYPOTHESIS_STORAGE_DIRECTORY": str(tmp / "hypothesis")},
    )


# -- the report ---------------------------------------------------------------------


def classify(functions, product, tests) -> dict[str, list[Definition]]:
    buckets: dict[str, list[Definition]] = {
        "product": [], "exempt": [], "test-only": [], "unreached": [],
    }
    for d in functions:
        key = (d.path, d.first)
        if key in product:
            buckets["product"].append(d)
        elif exemption_for(d) is not None:
            buckets["exempt"].append(d)
        elif key in tests:
            buckets["test-only"].append(d)
        else:
            buckets["unreached"].append(d)
    return buckets


def render(buckets) -> str:
    rows: dict[str, dict[str, list[Definition]]] = {}
    for bucket, defs in buckets.items():
        for d in defs:
            file = str(pathlib.Path(d.path).relative_to(SRC))
            rows.setdefault(file, {b: [] for b in buckets})[bucket].append(d)

    def cell(defs) -> str:
        return f"{len(defs)} ({sum(d.lines for d in defs)})" if defs else "-"

    shown = ["test-only", "unreached"]
    head = ["file", "functions", "product", "exempt", *shown]
    table = [head]
    for file in sorted(rows):
        row = rows[file]
        if not any(row[b] for b in shown):
            continue
        table.append([file, str(sum(len(v) for v in row.values())),
                      *(cell(row[b]) for b in ["product", "exempt", *shown])])
    everything = [d for defs in buckets.values() for d in defs]
    table.append(["total", str(len(everything)),
                  *(cell(buckets[b]) for b in ["product", "exempt", *shown])])
    widths = [max(len(r[i]) for r in table) for i in range(len(head))]
    lines = ["  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                       for i, (c, w) in enumerate(zip(r, widths))).rstrip()
             for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    out = ["functions (lines) per bucket, files with a non-product function "
           "outside the exemptions", "", *lines]
    for bucket in shown:
        out += ["", f"{bucket}:"]
        for d in sorted(buckets[bucket], key=lambda d: (d.path, d.first)):
            out.append(f"  {d.dotted}  ({d.lines} lines)")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="AST only: fail if an exemption names nothing")
    args = parser.parse_args(argv)

    hashes: dict[str, str] = {}
    functions, names = definitions(PKG, SRC, hashes)
    stale = stale_exemptions(names)
    for name in stale:
        print(f"stale exemption: {name} ({EXEMPT[name]}) names nothing under "
              f"{PKG.relative_to(ROOT)}", file=sys.stderr)
    if args.check:
        if not stale:
            print(f"{len(EXEMPT)} exemptions resolve over {len(functions)} functions")
        return 1 if stale else 0

    prefix = str(PKG) + os.sep
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp_name:
        tmp = pathlib.Path(tmp_name)
        failed = run_product(tmp, prefix)
        tests_status = run_tests(tmp, prefix)
        changed = changed_sources(hashes, PKG)
        for path in changed:
            print(f"source changed during the audit: {path}; its functions "
                  "would be misfiled, so no report (re-run on a quiet tree)",
                  file=sys.stderr)
        if changed:
            return 1
        product = load_reached(tmp / "product")
        tests = load_reached(tmp / "tests")
        print(render(classify(functions, product, tests)))
        for run in failed:
            print(f"product run failed: {run}", file=sys.stderr)
        if tests_status:
            print(f"tier-1 suite exited {tests_status}", file=sys.stderr)
        if failed or tests_status:
            tail = (tmp / "runs.out").read_text().splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
    return 1 if (stale or failed or tests_status) else 0


if __name__ == "__main__":
    sys.exit(main())
