"""Fixed-seed parity cases shared by the golden generator and the tests.

Each case runs one driver on one deterministic workload (optionally with a
deterministic fault plan) and is summarized down to bit-exact observables:
final-memory hash, stage counts, committed-iteration sets and virtual-time
totals.  ``tests/data/engine_golden.json`` holds the summaries captured on
the pre-engine seed drivers; ``tests/test_engine_parity.py`` re-runs the
matrix and requires bit-identical results from the engine-based drivers.

Regenerate (only when behavior is *supposed* to change) with::

    PYTHONPATH=src:. python tests/engine_parity_cases.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.config import RuntimeConfig, TestCondition
from repro.core.ddg import DDGResult, extract_ddg
from repro.core.induction_runner import run_induction
from repro.core.iterwise import run_blocked_iterwise
from repro.core.lrpd import run_doall_lrpd
from repro.core.rlrpd import run_blocked
from repro.core.window import run_sliding_window
from repro.faults import FaultEvent, FaultKind, FaultPlan, random_plan
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.machine.topology import Topology
from repro.workloads.patterns import scatter_loop
from repro.workloads.spice import make_dcdcmp15_loop
from repro.workloads.synthetic import (
    chain_loop,
    copyin_loop,
    geometric_chain_targets,
    privatizable_loop,
    random_dependence_loop,
)
from repro.workloads.track_extend import ExtendDeck, make_extend_loop

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "engine_golden.json"

P = 4


def _chain(n: int = 96) -> SpeculativeLoop:
    return chain_loop(n, geometric_chain_targets(n, 0.5))


def _rand() -> SpeculativeLoop:
    return random_dependence_loop(128, density=0.08, max_distance=8, seed=3)


def _exit_loop(n: int = 64, exit_at: int = 41) -> SpeculativeLoop:
    def body(ctx, i):
        ctx.work(1.0)
        ctx.store("A", i, float(i))
        if i == exit_at:
            ctx.exit_loop()

    return SpeculativeLoop(
        "parity_exit", n, body, arrays=[ArraySpec("A", np.zeros(n))]
    )


def _untested(n: int = 48) -> SpeculativeLoop:
    """Disjoint untested writes: exercises checkpoint/restore."""

    def body(ctx, i):
        ctx.work(1.0)
        x = ctx.load("A", max(0, i - 9))
        ctx.store("A", i, x + 1.0)
        ctx.store("B", i, float(i) + 1.0)

    return SpeculativeLoop(
        "parity_untested",
        n,
        body,
        arrays=[
            ArraySpec("A", np.zeros(n)),
            ArraySpec("B", np.zeros(n), tested=False),
        ],
    )


def _extend() -> SpeculativeLoop:
    return make_extend_loop(ExtendDeck("parity", n=240, keep_prob=0.55,
                                       lookback_prob=0.01))


_PRIV = TestCondition.PRIVATIZATION


def _fail0() -> FaultPlan:
    """Kill the lowest-ranked block of stage 0: the zero-commit retry path."""
    return FaultPlan(events=(
        FaultEvent(FaultKind.FAIL_STOP, stage=0, proc=0, after_fraction=0.25),
    ))


def _ckpt_plan() -> FaultPlan:
    return FaultPlan(events=(
        FaultEvent(FaultKind.CHECKPOINT, stage=0),
        FaultEvent(FaultKind.STRAGGLER, stage=0, proc=1, slowdown=2.5),
    ))


CASES = {
    # -- blocked NRD / RD / adaptive -------------------------------------------
    "nrd-chain": lambda: run_blocked(_chain(), P, RuntimeConfig.nrd()),
    "rd-chain": lambda: run_blocked(_chain(), P, RuntimeConfig.rd()),
    "adaptive-chain": lambda: run_blocked(_chain(), P, RuntimeConfig.adaptive()),
    "nrd-rand": lambda: run_blocked(_rand(), P, RuntimeConfig.nrd()),
    "rd-rand": lambda: run_blocked(_rand(), P, RuntimeConfig.rd()),
    "adaptive-scatter": lambda: run_blocked(
        scatter_loop(n=160), P, RuntimeConfig.adaptive()
    ),
    "nrd-preinit": lambda: run_blocked(
        _rand(), P, RuntimeConfig.nrd(pre_initialize=True)
    ),
    "adaptive-weights": lambda: run_blocked(
        _chain(), P, RuntimeConfig.adaptive(),
        weights=np.linspace(2.0, 1.0, 96),
    ),
    "nrd-topology": lambda: run_blocked(
        _chain(), P, RuntimeConfig.rd(),
        topology=Topology.ring(P, remote_factor=1.5),
    ),
    "adaptive-exit": lambda: run_blocked(_exit_loop(), P, RuntimeConfig.adaptive()),
    "nrd-untested": lambda: run_blocked(_untested(), P, RuntimeConfig.nrd()),
    "nrd-untested-full-ckpt": lambda: run_blocked(
        _untested(), P, RuntimeConfig.nrd(on_demand_checkpoint=False)
    ),
    # -- blocked with faults ----------------------------------------------------
    "nrd-chain-faults11": lambda: run_blocked(
        _chain(), P, RuntimeConfig.nrd(fault_plan=random_plan(11, n_procs=P))
    ),
    "rd-chain-faults11": lambda: run_blocked(
        _chain(), P, RuntimeConfig.rd(fault_plan=random_plan(11, n_procs=P))
    ),
    "adaptive-rand-faults5": lambda: run_blocked(
        _rand(), P, RuntimeConfig.adaptive(fault_plan=random_plan(5, n_procs=P))
    ),
    "nrd-zero-commit-retry": lambda: run_blocked(
        _rand(), P, RuntimeConfig.nrd(fault_plan=_fail0())
    ),
    "nrd-untested-ckpt-fault": lambda: run_blocked(
        _untested(), P, RuntimeConfig.nrd(fault_plan=_ckpt_plan())
    ),
    "nrd-untested-selfcheck": lambda: run_blocked(
        _untested(), P, RuntimeConfig.nrd(self_check=True)
    ),
    "adaptive-exit-faults3": lambda: run_blocked(
        _exit_loop(), P,
        RuntimeConfig.adaptive(fault_plan=random_plan(3, n_procs=P)),
    ),
    # -- sliding window ---------------------------------------------------------
    "sw-auto-chain": lambda: run_sliding_window(_chain(), P, RuntimeConfig.sw()),
    "sw8-chain": lambda: run_sliding_window(
        _chain(), P, RuntimeConfig.sw(window_size=8)
    ),
    "sw8-adaptive-rand": lambda: run_sliding_window(
        _rand(), P, RuntimeConfig.sw(window_size=8, adaptive_window=True)
    ),
    "sw-rand-faults11": lambda: run_sliding_window(
        _rand(), P,
        RuntimeConfig.sw(window_size=16, fault_plan=random_plan(11, n_procs=P)),
    ),
    "sw-zero-commit-retry": lambda: run_sliding_window(
        _rand(), P, RuntimeConfig.sw(window_size=16, fault_plan=_fail0())
    ),
    "sw-untested": lambda: run_sliding_window(
        _untested(), P, RuntimeConfig.sw(window_size=8)
    ),
    # -- two-phase induction ----------------------------------------------------
    "induction-extend": lambda: run_induction(_extend(), P, RuntimeConfig.rd()),
    "induction-extend-faults9": lambda: run_induction(
        _extend(), P, RuntimeConfig.rd(fault_plan=random_plan(9, n_procs=P))
    ),
    "induction-extend-selfcheck": lambda: run_induction(
        _extend(), P, RuntimeConfig.rd(self_check=True)
    ),
    "induction-zero-commit-retry": lambda: run_induction(
        _extend(), P, RuntimeConfig.rd(fault_plan=FaultPlan(events=(
            FaultEvent(FaultKind.FAIL_STOP, stage=1, proc=0,
                       after_fraction=0.25),
        )))
    ),
    # -- iteration-wise ---------------------------------------------------------
    "iterwise-nrd-chain": lambda: run_blocked_iterwise(
        _chain(), P, RuntimeConfig.nrd()
    ),
    "iterwise-adaptive-rand": lambda: run_blocked_iterwise(
        _rand(), P, RuntimeConfig.adaptive()
    ),
    "iterwise-rd-chain": lambda: run_blocked_iterwise(
        _chain(), P, RuntimeConfig.rd()
    ),
    # -- doall LRPD baseline ----------------------------------------------------
    "lrpd-copyin-pass": lambda: run_doall_lrpd(copyin_loop(64), P),
    "lrpd-priv-fail": lambda: run_doall_lrpd(
        copyin_loop(64), P, RuntimeConfig.nrd(condition=_PRIV)
    ),
    "lrpd-priv-pass": lambda: run_doall_lrpd(
        privatizable_loop(64), P, RuntimeConfig.nrd(condition=_PRIV)
    ),
    "lrpd-chain-fail": lambda: run_doall_lrpd(_chain(), P),
    "lrpd-preinit": lambda: run_doall_lrpd(
        _rand(), P, RuntimeConfig.nrd(pre_initialize=True)
    ),
    "lrpd-untested": lambda: run_doall_lrpd(_untested(), P),
    "lrpd-exit": lambda: run_doall_lrpd(_exit_loop(), P),
    # -- DDG extraction (sliding window) -----------------------------------------
    "ddg8-chain": lambda: extract_ddg(_chain(), P, RuntimeConfig.sw(window_size=8)),
    "ddg16-chain": lambda: extract_ddg(
        _chain(), P, RuntimeConfig.sw(window_size=16)
    ),
    "ddg8-rand": lambda: extract_ddg(_rand(), P, RuntimeConfig.sw(window_size=8)),
    "ddg16-rand": lambda: extract_ddg(_rand(), P, RuntimeConfig.sw(window_size=16)),
    "ddg8-untested": lambda: extract_ddg(
        _untested(), P, RuntimeConfig.sw(window_size=8)
    ),
    "ddg16-untested": lambda: extract_ddg(
        _untested(), P, RuntimeConfig.sw(window_size=16)
    ),
    "ddg16-spice-perfect-up": lambda: extract_ddg(
        make_dcdcmp15_loop("perfect-up"), P, RuntimeConfig.sw(window_size=16)
    ),
}


def summarize(result) -> dict:
    """Bit-exact observables of one run (floats as reprs).

    A DDG extraction summarizes its run plus a digest of the sorted edge
    set.
    """
    if isinstance(result, DDGResult):
        h = hashlib.sha256()
        for e in sorted(result.edges, key=lambda e: (
            e.src, e.dst, e.kind.value, e.array, e.index
        )):
            h.update(f"{e.src} {e.dst} {e.kind.value} {e.array} {e.index};".encode())
        return {
            **summarize(result.extraction),
            "n_edges": len(result.edges),
            "edges_sha": h.hexdigest(),
        }
    mem = result.memory
    h = hashlib.sha256()
    for name in sorted(mem.names()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(mem[name].data).tobytes())
    return {
        "memory_sha": h.hexdigest(),
        "strategy": result.strategy,
        "n_stages": result.n_stages,
        "restarts": result.n_restarts,
        "committed": [s.committed_iterations for s in result.stages],
        "failed": [bool(s.failed) for s in result.stages],
        "sinks": [s.earliest_sink_pos for s in result.stages],
        "committed_elements": [s.committed_elements for s in result.stages],
        "restored_elements": [s.restored_elements for s in result.stages],
        "redistributed": [s.redistributed_iterations for s in result.stages],
        "migration": [repr(s.migration_distance) for s in result.stages],
        "spans": [repr(s.span) for s in result.stages],
        "faulted_procs": [s.faulted_procs for s in result.stages],
        "degraded": [bool(s.degraded) for s in result.stages],
        "total_time": repr(result.total_time),
        "sequential_work": repr(result.sequential_work),
        "speedup": repr(result.speedup),
        "retries": result.retries,
        "faults_survived": result.faults_survived,
        "fault_counts": result.fault_counts,
        "degraded_stages": result.degraded_stages,
        "dead_procs": result.dead_procs,
        "induction_finals": result.induction_finals,
        "exit_iteration": result.exit_iteration,
        "iter_times": repr(sum(sorted(result.iteration_times.values()))),
    }


def run_case(name: str) -> dict:
    return summarize(CASES[name]())


def generate() -> dict:
    return {name: run_case(name) for name in sorted(CASES)}


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(CASES)} cases)")
