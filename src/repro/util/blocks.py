"""Iteration-block arithmetic.

The R-LRPD test requires the speculative loop to be *statically block
scheduled in increasing order of iteration* (paper, Section 2): processor
``q`` receives a contiguous block of iterations that all precede processor
``q+1``'s block.  Everything in :mod:`repro.core` manipulates such blocks, so
the partitioning arithmetic lives here in one audited place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ScheduleError


@dataclass(frozen=True, slots=True)
class Block:
    """A half-open, contiguous range of iterations ``[start, stop)`` assigned
    to one processor for one speculative stage."""

    proc: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ScheduleError(f"negative processor id {self.proc}")
        if self.stop < self.start:
            raise ScheduleError(f"inverted block [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, iteration: int) -> bool:
        return self.start <= iteration < self.stop

    def iterations(self) -> range:
        return range(self.start, self.stop)

    def __repr__(self) -> str:
        return f"Block(p{self.proc}: [{self.start}, {self.stop}))"


def validate_blocks(blocks: Sequence[Block], start: int, stop: int) -> None:
    """Check that ``blocks`` tile ``[start, stop)`` contiguously with
    processor ranks in increasing iteration order.

    Empty blocks are allowed (a processor may receive no work in the final
    stages of the NRD strategy); the non-empty blocks must be ordered by
    strictly increasing processor id.
    """
    nonempty = [b for b in blocks if len(b)]
    cursor = start
    last_proc = -1
    for b in nonempty:
        if b.proc <= last_proc:
            raise ScheduleError(
                f"blocks not in increasing processor order at {b!r}"
            )
        if b.start != cursor:
            raise ScheduleError(
                f"gap or overlap: expected block starting at {cursor}, got {b!r}"
            )
        cursor = b.stop
        last_proc = b.proc
    if cursor != stop:
        raise ScheduleError(
            f"blocks cover [{start}, {cursor}) but [{start}, {stop}) required"
        )


def partition_even(start: int, stop: int, procs: Sequence[int]) -> list[Block]:
    """Partition ``[start, stop)`` as evenly as possible over ``procs``.

    The first ``n % p`` processors receive one extra iteration, matching the
    usual static block schedule.  ``procs`` must be given in increasing rank
    order so the result satisfies the block-scheduling requirement.
    """
    if not procs:
        raise ScheduleError("cannot partition over zero processors")
    if list(procs) != sorted(set(procs)):
        raise ScheduleError(f"processor list {procs!r} must be strictly increasing")
    n = stop - start
    p = len(procs)
    base, extra = divmod(n, p)
    blocks: list[Block] = []
    cursor = start
    for k, proc in enumerate(procs):
        length = base + (1 if k < extra else 0)
        blocks.append(Block(proc, cursor, cursor + length))
        cursor += length
    validate_blocks(blocks, start, stop)
    return blocks


def partition_weighted(
    start: int,
    stop: int,
    procs: Sequence[int],
    weights: np.ndarray,
) -> list[Block]:
    """Partition ``[start, stop)`` so each processor gets ~equal total weight.

    ``weights[i]`` is the predicted cost of iteration ``start + i``.  This is
    the kernel of the paper's feedback-guided load balancing (Section 5.1):
    compute the prefix sums of the measured per-iteration times, divide the
    total by the processor count to obtain the perfectly balanced per-
    processor share, and cut the iteration space at the prefix-sum
    crossings of each share boundary.
    """
    n = stop - start
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ScheduleError(
            f"weights shape {w.shape} does not match iteration count {n}"
        )
    if n and w.min() < 0:
        raise ScheduleError("iteration weights must be non-negative")
    total = float(w.sum())
    p = len(procs)
    if not p:
        raise ScheduleError("cannot partition over zero processors")
    if total <= 0.0 or n == 0:
        return partition_even(start, stop, procs)
    prefix = np.cumsum(w)
    ideal = total / p
    # For each share boundary, pick the cut whose running total is nearest
    # the target: either just before or just after the crossing iteration.
    targets = ideal * np.arange(1, p)
    crossing = np.searchsorted(prefix, targets, side="left")
    cuts = []
    for k, target in zip(crossing, targets):
        k = int(min(k, n - 1))
        below = prefix[k - 1] if k > 0 else 0.0
        above = prefix[k]
        cut = k + 1 if (above - target) <= (target - below) else k
        cuts.append(cut)
    bounds = [start, *(start + c for c in cuts), stop]
    # searchsorted is monotone, but enforce it defensively.
    for a, b in zip(bounds, bounds[1:]):
        if b < a:
            raise ScheduleError("non-monotone weighted partition")
    blocks = [
        Block(proc, bounds[k], bounds[k + 1]) for k, proc in enumerate(procs)
    ]
    validate_blocks(blocks, start, stop)
    return blocks
