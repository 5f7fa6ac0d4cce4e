"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.sequential import sequential_reference
from repro.core import backend as backend_mod
from repro.core.backend import ForkBackend
from repro.kernels import KERNELS, use_kernels
from repro.loopir.loop import ArraySpec, SpeculativeLoop


def make_simple_loop(n: int = 64, stride: int = 7, offset: int = 3) -> SpeculativeLoop:
    """A small loop with input-dependent writes: ``A[(i*stride+offset) % n]``.

    Dense enough in dependences to exercise multi-stage recursion at
    moderate processor counts.
    """

    def body(ctx, i):
        x = ctx.load("A", i)
        ctx.store("A", (i * stride + offset) % n, x + 1.0)

    return SpeculativeLoop(
        name=f"simple_{n}_{stride}_{offset}",
        n_iterations=n,
        body=body,
        arrays=[ArraySpec("A", np.zeros(n))],
    )


def assert_matches_sequential(result, loop, tolerant: bool = False) -> None:
    """The runtime's fundamental guarantee, as a test helper."""
    reference = sequential_reference(loop)
    if tolerant:
        assert result.memory.allclose(reference), (
            f"{result.strategy} run of {loop.name} diverged from sequential"
        )
    else:
        assert result.memory.equals(reference), (
            f"{result.strategy} run of {loop.name} diverged from sequential"
        )


@pytest.fixture(params=sorted(KERNELS))
def kernel_mode(request):
    """Run the test under each kernels implementation in turn; the shadow
    queries and the stage analysis resolve logs through the default one."""
    with use_kernels(request.param):
        yield request.param


@pytest.fixture
def simple_loop() -> SpeculativeLoop:
    return make_simple_loop()


@pytest.fixture(autouse=True)
def fresh_dispatch_costs(monkeypatch):
    """Start every test with no measured dispatch figures.

    The fork pool's figures live at module level and outlive runs,
    so without this a test's stages would go to the pool or not
    depending on which tests ran before it in the same process.
    """
    monkeypatch.setattr(backend_mod, "_DISPATCH_COSTS", {})


@pytest.fixture
def always_dispatch(monkeypatch):
    """Pin the fork pool's dispatch rule to "dispatch".

    ``fork`` (and its synonym ``shm``) runs a stage in the parent unless
    dispatching it is measured to pay
    (:meth:`ForkBackend.dispatch_pays`), and the figures behind that
    choice persist across runs in the test process.  Tests of the worker
    pool itself -- its data plane, supervision and chaos -- pin every
    stage to the pool with this fixture.
    """
    monkeypatch.setattr(ForkBackend, "dispatch_pays", lambda self, tasks, n=None: True)
