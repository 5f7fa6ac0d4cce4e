#!/usr/bin/env python3
"""CI guard: hot-path modules must not grow per-element Python loops.

The kernels refactor funnels every per-element inner loop of the runtime
-- shadow marking, private-view copies, analysis reductions -- through the
batch primitives in ``repro/kernels`` (numpy-vectorized, with a pure-Python
scalar reference).  This lint keeps it that way: a ``for``/``while``
statement in a hot-path module fails CI unless it carries a
``# hot-path: <reason>`` annotation on the same line or in the comment
block directly above it.

The scalar reference (``repro/kernels/scalar.py``) is the one place
per-element loops are *supposed* to live and is not scanned.
Comprehensions and generator expressions are not flagged -- the lint
targets statement loops, where per-element marking/copy logic historically
accumulated.

Exits non-zero with a report on violation.  Run from the repo root::

    python tools/check_hot_path.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Files and directories whose statement loops need justification.
HOT_PATHS = (
    "shadow",
    "core/executor.py",
    "core/fastpath.py",
    "machine/checkpoint.py",
    "machine/memory.py",
    "core/analysis.py",
    "loopir/context.py",
    "loopir/symbolic.py",
)

ANNOTATION = "hot-path:"


def _hot_files() -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for entry in HOT_PATHS:
        path = SRC / entry
        if path.is_dir():
            files.extend(sorted(path.glob("*.py")))
        else:
            files.append(path)
    return files


def _annotated(source_lines: list[str], lineno: int) -> bool:
    """Whether the loop at 1-based ``lineno`` is justified: the annotation
    may sit on the loop line itself or anywhere in the contiguous comment
    block directly above it."""
    if ANNOTATION in source_lines[lineno - 1]:
        return True
    k = lineno - 2
    while k >= 0 and source_lines[k].lstrip().startswith("#"):
        if ANNOTATION in source_lines[k]:
            return True
        k -= 1
    return False


def _qualname(stack: list[str]) -> str:
    return ".".join(stack) if stack else "<module>"


def check_file(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    problems: list[str] = []

    def walk(node: ast.AST, stack: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, stack + [child.name])
                continue
            if isinstance(child, (ast.For, ast.While)) and not _annotated(
                lines, child.lineno
            ):
                problems.append(
                    f"{path.relative_to(ROOT)}:{child.lineno} "
                    f"[{_qualname(stack)}]: statement loop in a hot-path "
                    "module"
                )
            walk(child, stack)

    walk(tree, [])
    return problems


def main() -> int:
    problems: list[str] = []
    for path in _hot_files():
        problems.extend(check_file(path))
    for problem in problems:
        print(f"HOT-PATH LOOP: {problem}", file=sys.stderr)
    if problems:
        print(
            f"\n{len(problems)} violation(s); per-element work belongs in "
            "the batch primitives of repro/kernels (vector + scalar "
            "reference).  Route the loop through get_kernels(), or mark a "
            "legitimately non-per-element loop with '# hot-path: <reason>'.",
            file=sys.stderr,
        )
        return 1
    print("hot-path loop guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
