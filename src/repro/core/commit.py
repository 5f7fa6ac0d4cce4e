"""The commit phase: private -> shared last-value copy-out.

Committing processors copy the elements they wrote to shared memory.  With
block scheduling, a later committing block's value supersedes an earlier
one's (output dependences resolve to the *last* written value), so commits
proceed in increasing block order.  Reduction partials are folded into the
shared value with the declared operator; commutativity makes the fold order
across processors irrelevant.

Committing also satisfies flow dependences for the next stage: re-executed
blocks will on-demand copy-in exactly the data produced here (paper,
Section 2: "we will read-in data produced in the previous stage").
"""

from __future__ import annotations

from typing import Sequence

from repro.core.executor import ProcessorState
from repro.kernels import get_kernels
from repro.loopir.loop import SpeculativeLoop
from repro.machine.machine import Machine
from repro.machine.timeline import Category


def commit_states(
    machine: Machine,
    loop: SpeculativeLoop,
    states: Sequence[ProcessorState],
) -> int:
    """Commit the given processor states in the given (increasing block)
    order.  Charges commit time to each committing processor -- the commit
    is fully parallel across processors (Section 4) -- and returns the
    total element count copied out."""
    total = 0
    total_bytes = 0
    cost = machine.costs.commit_per_elem
    for state in states:
        n_elems = 0
        for name, view in state.views.items():
            if name in loop.reductions:
                continue
            indices, values = view.written_arrays()
            if len(indices):
                get_kernels().scatter(machine.memory[name].data, indices, values)
                n_elems += len(indices)
                total_bytes += len(indices) * machine.memory[name].data.itemsize
        for name, partial in state.partials.items():
            op = loop.reductions[name]
            data = machine.memory[name].data
            for index, part in partial.items():
                data[index] = op.combine(data[index], part)
                n_elems += 1
            total_bytes += len(partial) * data.itemsize
        if n_elems:
            machine.charge(state.proc, Category.COMMIT, cost * n_elems)
        total += n_elems
    metrics = machine.metrics
    if metrics.enabled and total:
        metrics.counter("commit.elements").inc(total)
        metrics.counter("commit.bytes").inc(total_bytes)
    return total


def reinit_states(
    machine: Machine,
    states: Sequence[ProcessorState],
) -> None:
    """Re-initialize shadows and private data of re-executing processors.

    Charged per processor, proportional to the marks being cleared (the
    paper's shadow re-initialization step): the distinct counts the
    stage's analysis pass left on the shadows.
    """
    cost = machine.costs.reinit_per_elem
    for state in states:
        refs = state.distinct_refs()
        if refs:
            machine.charge(state.proc, Category.REINIT, cost * refs)
        state.reset()
