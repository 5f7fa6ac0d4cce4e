"""Fixed certification corpus shared by the golden generator and the tests.

Every case certifies one loop instantiation and keeps its
``LoopCertificate.summary()``: verdict, basis, exactness, reason, hints
and stats.  ``tests/data/certify_golden.json`` holds the summaries
captured from the per-record probe and per-element dependence scan that
preceded the columnar probe log; ``tests/test_certify_golden.py`` re-runs
the corpus and requires every field to match.

The corpus spans both probe modes and every verdict:

* NLFILT 16-400 instances (6,400 iterations: sampled probe, affine model);
* SPICE perfect-up DCDCMP loop-15 decks (exact trace over sparse LU);
* FMA3D Quad ``ref`` (sampled) and ``train`` (exact DOALL);
* the EXTEND/NLFILT/FPTRAK loops of the first TRACK simulation steps,
  certified against the simulation's live memory as the runner sees it;
* the synthetic and pattern loops of ``tests/test_model_certify.py``.

Regenerate (only when a certificate is *supposed* to change) with::

    PYTHONPATH=src:. python tests/certify_golden_cases.py
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

import repro.core.runner as runner_mod
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from repro.model.certify import certify_loop
from repro.workloads import (
    FMA3D_DECKS,
    NLFILT_DECKS,
    SPICE_DECKS,
    TrackSimConfig,
    TrackSimulation,
    make_dcdcmp15_loop,
    make_nlfilt_loop,
    make_quad_loop,
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

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "certify_golden.json"

TRACK_STEPS = 20
TRACK_PROCS = 4


def _exit_doall() -> SpeculativeLoop:
    def body(ctx, i):
        ctx.store("A", i, float(i))
        if i == 9:
            ctx.exit_loop()

    return SpeculativeLoop(
        "exit-doall", 64, body, arrays=[ArraySpec("A", np.zeros(64))]
    )


def _exit_chain() -> SpeculativeLoop:
    def body(ctx, i):
        prev = ctx.load("A", i - 1) if i else 0.0
        ctx.store("A", i, prev + 1.0)
        if prev >= 9.0:
            ctx.exit_loop()

    return SpeculativeLoop(
        "exit-chain", 64, body, arrays=[ArraySpec("A", np.zeros(64))]
    )


def _bulk() -> SpeculativeLoop:
    def body(ctx, i):
        vals = ctx.load_many("A", np.array([i, i], dtype=np.int64))
        ctx.store_many("A", np.array([i], dtype=np.int64), vals[:1] + 1.0)

    return SpeculativeLoop("bulk", 4, body, arrays=[ArraySpec("A", np.zeros(4))])


def _raising() -> SpeculativeLoop:
    def body(ctx, i):
        raise RuntimeError("boom")

    return SpeculativeLoop("boom", 8, body, arrays=[ArraySpec("A", np.zeros(8))])


def _undeclared_array() -> SpeculativeLoop:
    def body(ctx, i):
        ctx.load("X", i)

    return SpeculativeLoop("undeclared", 4, body, arrays=[ArraySpec("A", np.zeros(4))])


def _out_of_range() -> SpeculativeLoop:
    def body(ctx, i):
        ctx.store("A", i + 2, 1.0)

    return SpeculativeLoop("overrun", 4, body, arrays=[ArraySpec("A", np.zeros(4))])


#: Standalone loops: name -> zero-argument factory.
LOOPS = {
    **{
        f"nlfilt-16-400/{k}": (
            lambda k=k: make_nlfilt_loop(NLFILT_DECKS["16-400"], instance=k)
        )
        for k in range(8)
    },
    **{
        f"spice-perfect-up/{k}": (
            lambda k=k: make_dcdcmp15_loop(
                dataclasses.replace(SPICE_DECKS["perfect-up"], seed=2906 + k)
            )
        )
        for k in range(8)
    },
    "fma3d/ref": lambda: make_quad_loop(FMA3D_DECKS["ref"]),
    "fma3d/train": lambda: make_quad_loop(FMA3D_DECKS["train"]),
    "synthetic/doall-0": lambda: fully_parallel_loop(0),
    "synthetic/doall-64": lambda: fully_parallel_loop(64),
    "synthetic/doall-96": lambda: fully_parallel_loop(96),
    "synthetic/strided-doall-256": lambda: strided_doall_loop(256, stride=2),
    "synthetic/strided-doall-6000": lambda: strided_doall_loop(6000),
    "synthetic/strided-doall-10000": lambda: strided_doall_loop(10_000),
    "synthetic/strided3-doall-10000": lambda: strided_doall_loop(10_000, stride=3),
    "synthetic/prefix-sum-16": lambda: prefix_sum_loop(16),
    "synthetic/prefix-sum-32": lambda: prefix_sum_loop(32),
    "synthetic/prefix-sum-64": lambda: prefix_sum_loop(64),
    "synthetic/prefix-sum-96": lambda: prefix_sum_loop(96),
    "synthetic/chain-sparse": lambda: chain_loop(96, [24, 48, 72]),
    "synthetic/privatizable": lambda: privatizable_loop(96),
    "synthetic/copyin": lambda: copyin_loop(96),
    "synthetic/random-mid": lambda: random_dependence_loop(96, 0.3, 6, seed=5),
    "synthetic/random-64": lambda: random_dependence_loop(64, 0.3, 4, seed=5),
    "synthetic/random-128": lambda: random_dependence_loop(128, 0.3, 6, seed=5),
    "synthetic/random-sparse": lambda: random_dependence_loop(256, 0.05, 4, seed=7),
    "synthetic/random-dense": lambda: random_dependence_loop(256, 0.9, 2, seed=7),
    "synthetic/reduction": lambda: reduction_loop(64),
    "synthetic/exit-doall": _exit_doall,
    "synthetic/exit-chain": _exit_chain,
    "synthetic/bulk": _bulk,
    "synthetic/raising": _raising,
    "synthetic/undeclared-array": _undeclared_array,
    "synthetic/out-of-range": _out_of_range,
    "patterns/stencil": lambda: stencil_loop(96, radius=1),
    "patterns/pointer-chase": lambda: pointer_chase_loop(96, seed=1),
    "patterns/gather-64": lambda: gather_loop(64, fan_in=4, seed=2),
    "patterns/gather-96": lambda: gather_loop(96, fan_in=4, seed=2),
    "patterns/scatter-96": lambda: scatter_loop(96, n_targets=12, seed=3),
    "patterns/scatter-10000": lambda: scatter_loop(10_000, n_targets=64, seed=3),
}


def certify_case(name: str) -> dict:
    return certify_loop(LOOPS[name]()).summary()


def track_certificates(steps: int = TRACK_STEPS) -> dict:
    """Certificates of every loop the TRACK simulation runs in its first
    ``steps`` steps, each taken against the live memory the runner hands
    the certifier, keyed ``track/<step>/<loop>``."""
    seen: list[dict] = []
    original = runner_mod.certify_loop

    def recording(loop, memory=None, **kwargs):
        cert = original(loop, memory=memory, **kwargs)
        seen.append(cert.summary())
        return cert

    sim = TrackSimulation(TrackSimConfig())
    out: dict[str, dict] = {}
    runner_mod.certify_loop = recording
    try:
        for step in range(steps):
            seen.clear()
            sim.step(TRACK_PROCS)
            for summary in seen:
                out[f"track/{step:02d}/{summary['loop']}"] = summary
    finally:
        runner_mod.certify_loop = original
    return out


def generate() -> dict:
    return {
        **{name: certify_case(name) for name in sorted(LOOPS)},
        **track_certificates(),
    }


if __name__ == "__main__":
    golden = generate()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} certificates)")
