"""Shared per-stage mechanics used by the blocked and sliding-window drivers.

Virtual-time semantics: within one stage every processor accumulates its own
execution, analysis, commit-or-restore charges; the stage span is the
maximum over processors plus globally serialized charges (one barrier per
stage, plus the full-checkpoint copy which is parallelized as ``elements/p``).
Commit and restore naturally overlap because they are charged to the two
disjoint processor groups (paper, Section 4).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.analysis import StageAnalysis
from repro.machine.checkpoint import CheckpointManager
from repro.machine.machine import Machine
from repro.machine.timeline import Category


def charge_checkpoint_begin(
    machine: Machine,
    ckpt: CheckpointManager | None,
    injector=None,
    stage: int = 0,
) -> int:
    """Start a checkpoint epoch; charge the full-copy cost if not on-demand.

    A planned checkpoint-storage fault loses the stage-begin full copy; it
    is detected immediately and rewritten, so the copy cost is charged
    twice.  On-demand checkpointing saves nothing at stage begin -- its
    storage fault strikes the first-touch log instead and is recovered
    after the barrier (:func:`charge_checkpoint_fault_recovery`).
    """
    if ckpt is None:
        return 0
    elements = ckpt.begin_stage()
    copies = 1
    if (
        elements
        and injector is not None
        and not ckpt.on_demand
        and injector.checkpoint_fault(stage) is not None
    ):
        copies = 2
    if elements:
        machine.charge_global(
            Category.CHECKPOINT,
            machine.costs.checkpoint_per_elem * elements * copies / machine.n_procs,
        )
        if machine.metrics.enabled:
            machine.metrics.counter("checkpoint.saved.elements").inc(
                elements * copies
            )
    return elements


def charge_checkpoint_fault_recovery(
    machine: Machine,
    ckpt: CheckpointManager | None,
    injector,
    stage: int,
) -> None:
    """Recover an on-demand checkpoint log lost to a storage fault.

    Called after the execution barrier: the first-touch log collected this
    stage is re-saved (the in-memory old values survive, only the stable
    copy was lost), charged as a parallel re-write of the saved elements.
    """
    if ckpt is None or injector is None or not ckpt.on_demand:
        return
    if injector.checkpoint_fault(stage) is not None and ckpt.elements_checkpointed:
        machine.charge_global(
            Category.CHECKPOINT,
            machine.costs.checkpoint_per_elem
            * ckpt.elements_checkpointed
            / machine.n_procs,
        )


def charge_analysis(
    machine: Machine,
    analysis: StageAnalysis,
    group_procs: Sequence[int],
) -> None:
    """Charge each participating processor its analysis-phase share.

    Cost per processor is proportional to its distinct marked references and
    to ``log2`` of the number of participating processors (Section 4).
    """
    n_groups = len(group_procs)
    total_refs = 0
    for pos, proc in enumerate(group_procs):
        refs = analysis.distinct_refs[pos] if pos < len(analysis.distinct_refs) else 0
        total_refs += refs
        cost = machine.costs.analysis_cost(refs, n_groups)
        if cost:
            machine.charge(proc, Category.ANALYSIS, cost)
    if machine.metrics.enabled and total_refs:
        machine.metrics.counter("analysis.distinct_refs").inc(total_refs)


def perform_restore(
    machine: Machine,
    ckpt: CheckpointManager | None,
    failed_procs: Sequence[int],
) -> int:
    """Restore untested state modified by failed processors; charge them."""
    if ckpt is None or not failed_procs:
        return 0
    restored = ckpt.restore_failed(failed_procs)
    if restored:
        share = machine.costs.restore_per_elem * restored / len(failed_procs)
        for proc in failed_procs:
            machine.charge(proc, Category.RESTORE, share)
        if machine.metrics.enabled:
            machine.metrics.counter("restore.elements").inc(restored)
            machine.metrics.counter("restore.bytes").inc(ckpt.last_restored_bytes)
    return restored


def charge_redistribution(machine: Machine, state_blocks, ell: float) -> int:
    """Charge each receiving processor ``ell`` per migrated iteration.

    ``state_blocks`` is an iterable of ``(proc, n_iterations)``.  Returns the
    total migrated iteration count.
    """
    total = 0
    for proc, n_iters in state_blocks:
        if n_iters:
            machine.charge(proc, Category.REDISTRIBUTION, ell * n_iters)
            total += n_iters
    return total


def charge_redistribution_topo(
    machine: Machine,
    blocks,
    owner,
) -> tuple[int, float]:
    """Distance-aware redistribution charges under a machine topology.

    ``owner[i]`` is the processor that last executed iteration ``i``.
    Moving an iteration to processor ``q`` costs
    ``ell * (1 + remote_factor * distance(owner[i], q))``; staying on its
    owner costs nothing.  Returns ``(migrated count, total distance)``.
    """
    topo = machine.topology
    ell = machine.costs.ell
    migrated = 0
    total_distance = 0.0
    for block in blocks:
        if not len(block):
            continue
        cost = 0.0
        for i in block.iterations():
            prev = int(owner[i])
            if prev < 0 or prev == block.proc:
                continue
            migrated += 1
            if topo is None:
                cost += ell
            else:
                cost += ell * topo.migration_multiplier(prev, block.proc)
                total_distance += topo.distance(prev, block.proc)
        if cost:
            machine.charge(block.proc, Category.REDISTRIBUTION, cost)
    return migrated, total_distance
