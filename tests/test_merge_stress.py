"""Concurrent-merge determinism stress for the fork pool.

The fork pool's correctness argument is that *completion order never
matters*: worker processes finish blocks in whatever order the scheduler
and the workload's skew dictate, and the parent merges the deltas --
views, shadows, virtual-time charges, metrics, untested writes --
strictly in block-position order.  These tests make the completion order
maximally adversarial -- per-iteration host-time sleeps drawn from a
seeded RNG, so some blocks finish orders of magnitude later than their
merge position -- and assert the full bit-exact run fingerprint
(:func:`tests.engine_parity_cases.summarize`: memory hash, per-stage
commit/restore/span records, virtual times as float reprs) plus the
metrics snapshot equal the serial backend's, across 20 seeds.

Sleeps change host wall-clock only; virtual time comes from ``ctx.work``,
so a correct merge is *bit*-identical, not just approximately equal.
Every stage is pinned to the worker pool (the ``always_dispatch``
fixture): a stage the dispatch rule ran in the parent would test nothing
here.
"""

import multiprocessing as mp
import random
import time

import numpy as np
import pytest

from repro.config import RuntimeConfig
from repro.core.runner import parallelize
from repro.loopir.loop import ArraySpec, SpeculativeLoop
from tests.engine_parity_cases import summarize

pytestmark = [
    pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods(),
        reason="the worker pool needs the fork start method",
    ),
    pytest.mark.usefixtures("always_dispatch"),
]

P = 4
N = 48
SEEDS = range(20)


def _skewed_doall(seed: int) -> SpeculativeLoop:
    """A doall whose per-iteration host time is adversarially skewed:
    most iterations are instant, a seeded few sleep ~3ms, so block
    completion order is effectively random and rarely matches block
    order."""
    rng = random.Random(f"{seed}-skew")
    delays = [
        rng.choice([0.0, 0.0, 0.0, 0.0, 0.003]) for _ in range(N)
    ]

    def body(ctx, i):
        if delays[i]:
            time.sleep(delays[i])
        ctx.work(1.0 + (i % 3))
        ctx.store("A", i, float(i) * 2.0 + 1.0)

    return SpeculativeLoop(
        f"skewed_doall_{seed}", N, body,
        arrays=[ArraySpec("A", np.zeros(N))],
    )


def _skewed_chain(seed: int) -> SpeculativeLoop:
    """Dependence-bearing variant: seeded short-distance flow dependences
    force restarts and redistribution (multi-stage merges, untested-style
    recovery paths), under the same host-time skew."""
    rng = random.Random(f"{seed}-chain")
    delays = [
        rng.choice([0.0, 0.0, 0.0, 0.002, 0.004]) for _ in range(N)
    ]
    reads = {
        i: rng.randint(max(0, i - 6), i - 1)
        for i in range(1, N)
        if rng.random() < 0.25
    }

    def body(ctx, i):
        if delays[i]:
            time.sleep(delays[i])
        acc = float(i)
        if i in reads:
            acc += ctx.load("A", reads[i])
        ctx.work(1.0)
        ctx.store("A", i, acc)

    return SpeculativeLoop(
        f"skewed_chain_{seed}", N, body,
        arrays=[ArraySpec("A", np.zeros(N))],
    )


def _run(make_loop, seed: int, backend: str):
    config = RuntimeConfig.adaptive(
        backend=backend, backend_workers=P, metrics=True,
    )
    return parallelize(make_loop(seed), P, config=config)


def _fingerprint(result) -> dict:
    record = summarize(result)
    record["metrics"] = result.metrics
    return record


@pytest.mark.parametrize("seed", SEEDS)
def test_fork_skewed_doall_bit_identical(seed):
    serial = _fingerprint(_run(_skewed_doall, seed, "serial"))
    fork = _fingerprint(_run(_skewed_doall, seed, "fork"))
    assert fork == serial


@pytest.mark.parametrize("seed", SEEDS)
def test_fork_skewed_chain_bit_identical(seed):
    serial = _fingerprint(_run(_skewed_chain, seed, "serial"))
    fork = _fingerprint(_run(_skewed_chain, seed, "fork"))
    assert fork == serial
