"""Check a result against the metrics ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class OutputError(ValueError):
    """The result does not match the declared metrics."""


def declared(spec_path: Path, trace: bool) -> dict[str, str]:
    """Declared metric name -> unit for one mode of the benchmark."""
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check(units: dict[str, str], metrics: dict[str, dict]) -> None:
    """Every declared metric reported with its unit, under a well-formed
    name, as a finite number; nothing undeclared."""
    problems = []
    for name in sorted(set(units) - set(metrics)):
        problems.append(f"{name}: declared but not reported")
    for name, entry in sorted(metrics.items()):
        if not NAME.fullmatch(name):
            problems.append(f"{name!r}: malformed name")
        if name not in units:
            problems.append(f"{name}: reported but not declared")
        elif entry.get("unit") != units[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {units[name]!r}")
        value = entry.get("value")
        if (
            not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)
        ):
            problems.append(f"{name}: value {value!r} is not a finite number")
    if problems:
        raise OutputError("; ".join(problems))
