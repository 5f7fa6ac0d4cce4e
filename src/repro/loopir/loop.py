"""The speculative loop specification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.loopir.context import IterationContext
from repro.loopir.induction import InductionSpec
from repro.loopir.reductions import ReductionOp
from repro.machine.memory import MemoryImage, SharedArray


@dataclass(frozen=True)
class ArraySpec:
    """Declaration of one shared array used by a loop.

    ``tested=True`` marks a compiler-unanalyzable array: the runtime
    privatizes it with on-demand copy-in and marks every reference in shadow
    structures (this is the array "under test", like ``A``/``NUSED`` in the
    paper).  ``tested=False`` marks statically analyzable state (like ``B``
    in Fig. 1): written in place and checkpointed for restoration.

    ``sparse`` forces the sparse or dense private-view representation
    (``None`` selects by size) -- the paper's SPICE loops need the sparse
    flavor because the tested workspace is huge and sparsely touched.  The
    shadow is an access log in both cases.
    """

    name: str
    initial: np.ndarray
    tested: bool = True
    sparse: bool | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.initial)
        if arr.ndim != 1:
            raise ValueError(
                f"array {self.name!r} must be declared 1-D; linearize in the workload"
            )
        object.__setattr__(self, "initial", arr)

    def make_shared(self) -> SharedArray:
        return SharedArray(self.name, self.initial)


@dataclass(frozen=True)
class SpeculativeLoop:
    """Everything the runtime needs to know about one parallelization target.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"nlfilt_300"``).
    n_iterations:
        Iteration count of this instantiation.
    body:
        ``body(ctx, i)`` executes iteration ``i`` through the context.
        Must be a deterministic function of the values it loads.
    arrays:
        All shared arrays the body touches.
    reductions:
        ``array name -> operator`` for arrays accessed only via
        ``ctx.update`` (speculative reduction parallelization).
    inductions:
        Speculative induction variables (EXTEND pattern); loops with a
        non-empty list must be run through the two-phase induction runner.
    iter_work:
        ``iter_work(i)`` returns the useful-work multiplier of iteration
        ``i`` (x ``CostModel.omega``).  Defaults to uniform cost 1.  This is
        what the feedback-guided load balancer measures and predicts.
    inspector:
        Optional side-effect-free address inspector,
        ``inspector(memory) -> [(reads, writes), ...]`` per iteration with
        ``(array, index)`` pairs.  Loops whose address computation depends
        on loop data cannot provide one (the dependence cycle of Section 1);
        the inspector/executor and DOACROSS baselines require it, the
        R-LRPD test never uses it.
    """

    name: str
    n_iterations: int
    body: Callable[[IterationContext, int], None]
    arrays: Sequence[ArraySpec]
    reductions: dict[str, ReductionOp] = field(default_factory=dict)
    inductions: Sequence[InductionSpec] = ()
    iter_work: Callable[[int], float] | None = None
    inspector: Callable[[MemoryImage], list[tuple[set, set]]] | None = None

    def __post_init__(self) -> None:
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")
        names = [spec.name for spec in self.arrays]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate array declarations in loop {self.name!r}")
        tested = {spec.name for spec in self.arrays if spec.tested}
        for red_name in self.reductions:
            if red_name not in tested:
                raise ValueError(
                    f"reduction array {red_name!r} must be declared tested"
                )
        ivar_names = [iv.name for iv in self.inductions]
        if len(ivar_names) != len(set(ivar_names)):
            raise ValueError("duplicate induction variable names")

    # -- derived views ---------------------------------------------------------

    @property
    def array_specs(self) -> dict[str, ArraySpec]:
        return {spec.name: spec for spec in self.arrays}

    @property
    def tested_names(self) -> list[str]:
        return [spec.name for spec in self.arrays if spec.tested]

    @property
    def untested_names(self) -> list[str]:
        return [spec.name for spec in self.arrays if not spec.tested]

    def initial_inductions(self) -> dict[str, int]:
        return {iv.name: iv.initial for iv in self.inductions}

    def work_of(self, iteration: int) -> float:
        """Useful-work multiplier of one iteration (>= 0)."""
        if self.iter_work is None:
            return 1.0
        units = float(self.iter_work(iteration))
        if units < 0:
            raise ValueError(
                f"iter_work({iteration}) returned negative cost {units}"
            )
        return units

    def total_work(self) -> float:
        """Sum of iteration work multipliers (sequential useful work / omega)."""
        if self.iter_work is None:
            return float(self.n_iterations)
        return float(sum(self.work_of(i) for i in range(self.n_iterations)))

    # -- instantiation -----------------------------------------------------------

    def materialize(self) -> MemoryImage:
        """Fresh shared-memory image with every array at its initial value."""
        return MemoryImage(spec.make_shared() for spec in self.arrays)
