#!/usr/bin/env python3
"""CI guard: the speculate->analyze->commit lifecycle must not fork.

Before the engine refactor, seven driver modules each carried their own
copy of the stage loop (checkpoint, execute, analyze, commit/restore,
retry bounds) and they drifted.  Four checks keep that from recurring:

1. **Lifecycle tokens** -- the identifiers implementing zero-commit
   retry accounting and the ``max_fault_retries`` bound may appear in
   ``repro/core/engine.py`` only (the config knob's definition and the
   error type's docstring are exempt).
2. **Duplicate code runs** -- no two core modules may share a run of
   ``WINDOW`` identical normalized code lines; a shared run that long
   means a lifecycle fragment was copied instead of hooked.
3. **One stage-result builder** -- ``StageResult(...)`` is called only in
   ``repro/core/engine.py`` (its ``stage_result`` helper); the event
   deserializer, which rebuilds a recorded result, is exempt.
4. **Blocks execute through one runner** -- ``execute_block(...)`` is
   called only from ``run_task`` in ``repro/core/backend.py``, which
   every backend runs its blocks through: the serial loop (which the
   fork pool also uses for stages it runs in the parent) with the
   engine's states, a fork worker with its own.  A runner that bypasses
   the engine (and with it backends, faults and the self-check) cannot
   return, and no backend grows a second way to run a block.

Exits non-zero with a report on violation.  Run from the repo root::

    python tools/check_single_lifecycle.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CORE = SRC / "core"

#: Identifiers that constitute lifecycle logic.  Only the engine may use them.
LIFECYCLE_TOKENS = ("zero_commit_streak", "max_fault_retries")

#: Modules whose pairwise duplication is checked (engine + every module
#: that historically carried its own stage loop).
DUPLICATION_SCOPE = (
    "engine.py",
    "rlrpd.py",
    "window.py",
    "iterwise.py",
    "induction_runner.py",
    "lrpd.py",
    "ddg.py",
    "runner.py",
    "fastpath.py",
)

#: Callee -> where it may be called: a module (relative to ``src/repro``)
#: or one function in it, ``module::Qualified.name``.
RESTRICTED_CALLS = {
    "StageResult": ("core/engine.py", "obs/events.py"),
    "execute_block": ("core/backend.py::run_task",),
}

WINDOW = 10  # consecutive identical normalized lines that count as a fork


def check_lifecycle_tokens() -> list[str]:
    problems = []
    for path in sorted(CORE.glob("*.py")):
        if path.name == "engine.py":
            continue
        text = path.read_text()
        for token in LIFECYCLE_TOKENS:
            if token in text:
                problems.append(
                    f"{path.relative_to(ROOT)}: lifecycle token {token!r} "
                    "outside engine.py"
                )
    return problems


def _normalized_lines(path: pathlib.Path) -> list[str]:
    """Code lines only: whitespace collapsed, blanks and comments dropped."""
    out = []
    for raw in path.read_text().splitlines():
        line = " ".join(raw.split())
        if not line or line.startswith("#"):
            continue
        out.append(line)
    return out


def check_duplicate_runs() -> list[str]:
    windows: dict[tuple[str, ...], str] = {}
    problems = []
    for name in DUPLICATION_SCOPE:
        path = CORE / name
        lines = _normalized_lines(path)
        seen_here = set()
        for k in range(len(lines) - WINDOW + 1):
            window = tuple(lines[k : k + WINDOW])
            if window in seen_here:
                continue
            seen_here.add(window)
            other = windows.setdefault(window, name)
            if other != name:
                problems.append(
                    f"{name} and {other} share {WINDOW} identical code "
                    f"lines starting at: {window[0][:70]!r}"
                )
                break  # one report per pair is enough
    return problems


def _calls(node: ast.AST, scope: tuple[str, ...] = ()):
    """Yield ``(call node, qualified name of the enclosing def)``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        if isinstance(child, ast.Call):
            yield child, ".".join(scope)
        yield from _calls(child, inner)


def check_restricted_calls() -> list[str]:
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node, qualname in _calls(ast.parse(path.read_text())):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            allowed = RESTRICTED_CALLS.get(callee)
            if allowed is None:
                continue
            if module not in allowed and f"{module}::{qualname}" not in allowed:
                problems.append(
                    f"src/repro/{module}:{node.lineno}: calls {callee}() "
                    f"outside {', '.join(allowed)}"
                )
    return problems


def main() -> int:
    problems = (
        check_lifecycle_tokens() + check_duplicate_runs() + check_restricted_calls()
    )
    for problem in problems:
        print(f"LIFECYCLE FORK: {problem}", file=sys.stderr)
    if problems:
        print(
            f"\n{len(problems)} violation(s); lifecycle logic belongs in "
            "repro/core/engine.py -- add a Strategy hook instead of copying.",
            file=sys.stderr,
        )
        return 1
    print("single-lifecycle guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
