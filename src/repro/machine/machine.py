"""The virtual machine facade tying memory, costs and the timeline together."""

from __future__ import annotations

from repro.machine.costs import CostModel
from repro.machine.memory import MemoryImage
from repro.machine.timeline import GLOBAL, Category, StageRecord, Timeline
from repro.machine.topology import Topology


class Machine:
    """A ``p``-processor simulated shared-memory machine.

    The machine does not execute anything by itself; the runtime drivers in
    :mod:`repro.core` push work through it and charge virtual time.  Keeping
    it passive makes every strategy (NRD / RD / SW / DDG extraction /
    baselines) observable through one timeline with identical accounting.
    """

    def __init__(
        self,
        n_procs: int,
        costs: CostModel | None = None,
        memory: MemoryImage | None = None,
        topology: "Topology | None" = None,
    ) -> None:
        if n_procs < 1:
            raise ValueError(f"need at least one processor, got {n_procs}")
        if topology is not None and topology.n_procs != n_procs:
            raise ValueError(
                f"topology is for {topology.n_procs} processors, machine has "
                f"{n_procs}"
            )
        self.n_procs = n_procs
        self.costs = costs or CostModel()
        self.memory = memory or MemoryImage()
        self.topology = topology
        self.timeline = Timeline()
        # Imported here, not at module top: repro.obs pulls in the event
        # types, which need repro.core.results, which imports this package.
        from repro.obs.metrics import NULL_REGISTRY

        self.metrics = NULL_REGISTRY

    # -- timeline helpers -----------------------------------------------------

    def begin_stage(self) -> StageRecord:
        return self.timeline.begin_stage()

    def charge(self, proc: int, category: Category, amount: float) -> None:
        """Charge virtual time to the current stage."""
        if amount:
            self.timeline.current.charge(proc, category, amount)

    def running_charges(self, proc: int):
        """``proc``'s per-category totals in the current stage so far
        (read-only; empty before its first charge or any stage)."""
        if not self.timeline.n_stages():
            return {}
        return self.timeline.current.per_proc.get(proc, {})

    def settle_charges(self, proc: int, totals) -> None:
        """Overwrite ``proc``'s current-stage totals with a block's folded
        ``(category, total)`` pairs (seeded from :meth:`running_charges`)."""
        self.timeline.current.settle(proc, totals)

    def charge_global(self, category: Category, amount: float) -> None:
        """Charge serialized (machine-wide) virtual time."""
        if amount:
            self.timeline.current.charge(GLOBAL, category, amount)

    def barrier(self) -> None:
        """Charge one barrier synchronization ``s`` to the current stage."""
        self.charge_global(Category.SYNC, self.costs.sync)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(p={self.n_procs}, arrays={self.memory.names()}, "
            f"stages={self.timeline.n_stages()})"
        )
