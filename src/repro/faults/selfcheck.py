"""Runtime self-verification (``RuntimeConfig.self_check``).

Speculative parallelization is only trustworthy if its sequential-
equivalence guarantee is *checked*, not assumed.  With ``self_check``
enabled the drivers continuously verify two contracts:

1. **Per-stage untested isolation** -- every stage records which processor
   read and wrote each untested element and feeds the maps through
   :func:`repro.machine.checkpoint.verify_untested_isolation`; a violation
   means a workload mis-declared a dependence-carrying array as untested
   and raises :class:`~repro.errors.SelfCheckError` immediately, at the
   stage that witnessed it.
2. **End-of-run sequential equivalence** -- the initial shared state is
   snapshotted before speculation starts and replayed sequentially when
   the run ends; the speculative final memory must match bit-for-bit
   (``allclose`` when the loop declares floating-point reductions, whose
   parallel fold order legitimately perturbs last bits).

Both checks are pure observers: they never alter the run's schedule,
virtual-time charges or results.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import SelfCheckError
from repro.loopir.context import SequentialContext
from repro.loopir.loop import SpeculativeLoop
from repro.machine.checkpoint import verify_untested_isolation
from repro.machine.memory import MemoryImage, SharedArray


class UntestedAccessLog:
    """Per-stage record of untested-array traffic, per processor."""

    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads: dict[str, dict[int, set[int]]] = {}
        self.writes: dict[str, dict[int, set[int]]] = {}

    def note_read(self, proc: int, name: str, index: int) -> None:
        self.reads.setdefault(name, {}).setdefault(index, set()).add(proc)

    def note_write(self, proc: int, name: str, index: int) -> None:
        self.writes.setdefault(name, {}).setdefault(index, set()).add(proc)

    def reset(self) -> None:
        self.reads.clear()
        self.writes.clear()

    def verify(self, loop_name: str, stage: int) -> None:
        """Raise :class:`SelfCheckError` on cross-processor sharing."""
        problems = verify_untested_isolation(self.reads, self.writes)
        if problems:
            raise SelfCheckError(
                "untested-array isolation violated: " + "; ".join(problems[:3]),
                loop=loop_name,
                stage=stage,
            )


def sequential_final_state(
    loop: SpeculativeLoop, initial: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Replay the loop sequentially from ``initial`` and return final state."""
    image = MemoryImage(
        SharedArray(name, data) for name, data in initial.items()
    )
    ctx = SequentialContext.for_loop(loop, image)
    for _ in ctx.run(loop, range(loop.n_iterations)):
        pass
    return image.snapshot()


def check_final_state(
    loop: SpeculativeLoop,
    memory: MemoryImage,
    initial: Mapping[str, np.ndarray],
) -> None:
    """Compare the speculative final memory against the sequential oracle.

    Raises :class:`SelfCheckError` naming the first mismatching array.
    Loops with declared reductions are compared with ``allclose`` (parallel
    fold order), everything else bit-for-bit.
    """
    reference = sequential_final_state(loop, initial)
    matches = (
        memory.allclose(reference) if loop.reductions else memory.equals(reference)
    )
    if matches:
        return
    mismatched = [
        name
        for name, data in reference.items()
        if name not in memory or not np.array_equal(memory[name].data, data)
    ]
    raise SelfCheckError(
        "final shared memory diverged from the sequential oracle "
        f"(arrays: {', '.join(mismatched) or 'name sets differ'})",
        loop=loop.name,
    )
