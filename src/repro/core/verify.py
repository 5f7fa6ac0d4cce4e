"""Loop certification: run a loop under every applicable strategy and check
each against the sequential oracle.

When porting a new loop onto the runtime, the failure mode to fear is a
mis-declared array (an untested array that actually carries cross-iteration
dependences, a reduction array also accessed normally, ...).  This utility
is the library's answer: one call exercises the loop under every strategy
and reports, per strategy, whether the final state matched a sequential
execution, along with the key metrics -- so both correctness and the
strategy choice are settled empirically before production use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.sequential import run_sequential
from repro.config import RuntimeConfig
from repro.core.results import RunResult
from repro.core.runner import parallelize
from repro.errors import ReproError
from repro.loopir.loop import SpeculativeLoop
from repro.loopir.symbolic import probe_loop
from repro.machine.costs import CostModel
from repro.util.blocks import partition_even
from repro.util.tables import format_table


@dataclass
class StrategyVerdict:
    """Outcome of one strategy on the loop under certification."""

    label: str
    ok: bool
    detail: str
    result: RunResult | None = None

    @property
    def speedup(self) -> float | None:
        return self.result.speedup if self.result else None


@dataclass
class Certificate:
    """All verdicts plus a summary table."""

    loop_name: str
    n_procs: int
    verdicts: list[StrategyVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def best(self) -> StrategyVerdict | None:
        candidates = [v for v in self.verdicts if v.ok and v.result is not None]
        if not candidates:
            return None
        return max(candidates, key=lambda v: v.result.speedup)

    def render(self) -> str:
        rows = []
        for v in self.verdicts:
            rows.append(
                [
                    v.label,
                    "ok" if v.ok else "MISMATCH",
                    round(v.result.speedup, 2) if v.result else "-",
                    v.result.n_restarts if v.result else "-",
                    v.detail,
                ]
            )
        verdict = "CERTIFIED" if self.ok else "FAILED"
        return format_table(
            ["strategy", "state", "speedup", "restarts", "detail"],
            rows,
            title=f"{self.loop_name} on p={self.n_procs}: {verdict}",
        )


def default_strategies(n_procs: int) -> list[RuntimeConfig]:
    return [
        RuntimeConfig.nrd(),
        RuntimeConfig.rd(),
        RuntimeConfig.adaptive(),
        RuntimeConfig.sw(window_size=2 * n_procs),
        RuntimeConfig.sw(window_size=8 * n_procs),
    ]


def check_untested_contract(loop: SpeculativeLoop, n_procs: int) -> list[str]:
    """Validate the statically-analyzable contract of untested arrays.

    Reads a full probe's sequential trace, maps iterations to their
    block-schedule processors, and flags any untested element written by
    more than one processor or read by a processor other than its writer.
    Such sharing is invisible to the simulator's in-order write-through
    (and racy on a real machine), so it must be caught by declaration
    analysis rather than by state comparison.
    """
    untested = set(loop.untested_names)
    if not untested or loop.n_iterations == 0:
        return []
    records = probe_loop(loop, limit=loop.n_iterations).records
    blocks = partition_even(0, loop.n_iterations, list(range(n_procs)))
    proc_of = {i: block.proc for block in blocks for i in block.iterations()}
    writers: dict[str, dict[int, set[int]]] = {name: {} for name in untested}
    problems: list[str] = []
    flagged: set[tuple[str, int]] = set()
    for rec in records:
        if rec.array not in untested:
            continue
        proc = proc_of[rec.iteration]
        element_writers = writers[rec.array].setdefault(rec.index, set())
        key = (rec.array, rec.index)
        if rec.kind == "w":
            element_writers.add(proc)
            if len(element_writers) > 1 and key not in flagged:
                flagged.add(key)
                problems.append(
                    f"{rec.array}[{rec.index}]: written by processors "
                    f"{sorted(element_writers)}; declare it tested"
                )
        elif element_writers and proc not in element_writers and key not in flagged:
            flagged.add(key)
            problems.append(
                f"{rec.array}[{rec.index}]: read on processor {proc} but "
                f"written on {sorted(element_writers)}; declare it tested"
            )
    return problems


def certify(
    loop_factory,
    n_procs: int,
    strategies: list[RuntimeConfig] | None = None,
    costs: CostModel | None = None,
    tolerant: bool = False,
) -> Certificate:
    """Certify a loop: every strategy must reproduce the sequential state.

    ``loop_factory`` is a zero-argument callable returning a fresh
    :class:`~repro.loopir.loop.SpeculativeLoop` (each run needs its own
    initial state).  It must be *deterministic* -- every call must build
    the identical loop (draw any random inputs once, outside the factory),
    otherwise the runs and the oracle see different programs.
    ``tolerant=True`` compares with ``allclose`` -- required for
    floating-point reductions, whose parallel fold order legitimately
    perturbs the last bits.
    """
    strategies = strategies or default_strategies(n_procs)
    probe: SpeculativeLoop = loop_factory()
    reference = run_sequential(loop_factory(), costs=costs).memory.snapshot()
    cert = Certificate(loop_name=probe.name, n_procs=n_procs)

    contract_problems = check_untested_contract(loop_factory(), n_procs)
    cert.verdicts.append(
        StrategyVerdict(
            "untested-contract",
            ok=not contract_problems,
            detail="; ".join(contract_problems[:3]),
        )
    )

    for config in strategies:
        label = config.label()
        try:
            # Each row certifies the *speculative* strategy it names; the
            # static front-end would otherwise hijack certifiable loops
            # onto the fast path and every row would test the same thing.
            result = parallelize(
                loop_factory(), n_procs,
                config.with_options(certify="off"), costs,
            )
        except ReproError as exc:
            cert.verdicts.append(
                StrategyVerdict(label, ok=False, detail=f"{type(exc).__name__}: {exc}")
            )
            continue
        matches = (
            result.memory.allclose(reference)
            if tolerant
            else result.memory.equals(reference)
        )
        detail = "" if matches else "final state differs from sequential"
        cert.verdicts.append(
            StrategyVerdict(label, ok=matches, detail=detail, result=result)
        )
    return cert
