"""Memory-overhead estimates for the competing techniques.

One of the paper's stated advantages over the inspector/executor family is
memory: the inspector records the *reference trace* (memory proportional to
the dynamic reference count), while the processor-wise LRPD keeps a few
bits per distinct element per processor -- and the sparse flavor only for
elements actually touched.  The iteration-wise variant sits in between
(mark lists are trace-proportional, which is why the paper avoids it).

The estimates below use the access trace of a sequential execution (ground
truth for "what would be recorded") and simple per-entry byte costs:

* dense processor-wise shadow: 4 bit-planes = ``n/2`` bytes per processor
  per array (Write, exposed-Read, any-Read, update);
* sparse processor-wise shadow: ~48 bytes per distinct touched element per
  processor (three hash-set entries);
* iteration-wise mark lists: ~56 bytes per trace record plus 16 per
  logged written value;
* inspector trace: ~48 bytes per recorded reference (address + iteration
  in a sorted structure).

Absolute bytes are estimates; the *asymmetry* (trace-proportional vs
touched-proportional) is the reproducible claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.loopir.loop import SpeculativeLoop
from repro.loopir.symbolic import probe_loop
from repro.machine.memory import DENSE_VIEW_THRESHOLD
from repro.util.blocks import partition_even

DENSE_SHADOW_BYTES_PER_ELEM = 0.5     # 4 bit-planes
SPARSE_SHADOW_BYTES_PER_ELEM = 48.0   # hash-set entries
MARKLIST_BYTES_PER_RECORD = 56.0
VALUE_LOG_BYTES = 16.0
INSPECTOR_BYTES_PER_REF = 48.0


@dataclass(frozen=True)
class FootprintReport:
    """Estimated auxiliary memory of each technique, in bytes."""

    loop_name: str
    n_procs: int
    trace_length: int
    distinct_touched: int
    procwise_bytes: float
    iterwise_bytes: float
    inspector_bytes: float

    def rows(self) -> list[list]:
        return [
            ["processor-wise LRPD", round(self.procwise_bytes)],
            ["iteration-wise LRPD", round(self.iterwise_bytes)],
            ["inspector/executor", round(self.inspector_bytes)],
        ]


def estimate_footprints(loop: SpeculativeLoop, n_procs: int) -> FootprintReport:
    """Estimate the auxiliary memory each technique needs for one stage.

    Uses a full probe's sequential trace for the reference stream; the
    blocked partition determines which processor touches which elements.
    """
    records = probe_loop(loop, limit=loop.n_iterations).records
    tested = set(loop.tested_names)
    tested_records = [r for r in records if r.array in tested]

    blocks = partition_even(0, loop.n_iterations, list(range(n_procs)))
    proc_of = {i: block.proc for block in blocks for i in block.iterations()}

    # Distinct (proc, array, element) triples: the sparse shadow's cost.
    touched: set[tuple[int, str, int]] = set()
    for rec in tested_records:
        touched.add((proc_of.get(rec.iteration, 0), rec.array, rec.index))

    specs = loop.array_specs
    procwise = 0.0
    for name in tested:
        spec = specs[name]
        n_elems = len(spec.initial)
        sparse = spec.sparse if spec.sparse is not None else (
            n_elems > DENSE_VIEW_THRESHOLD
        )
        if sparse:
            per_array = sum(
                SPARSE_SHADOW_BYTES_PER_ELEM
                for (_, a, _) in touched
                if a == name
            )
            procwise += per_array
        else:
            procwise += n_procs * n_elems * DENSE_SHADOW_BYTES_PER_ELEM

    n_writes = sum(1 for r in tested_records if r.kind in ("w", "u"))
    iterwise = (
        len(tested_records) * MARKLIST_BYTES_PER_RECORD
        + n_writes * VALUE_LOG_BYTES
    )
    inspector = len(records) * INSPECTOR_BYTES_PER_REF

    return FootprintReport(
        loop_name=loop.name,
        n_procs=n_procs,
        trace_length=len(records),
        distinct_touched=len(touched),
        procwise_bytes=procwise,
        iterwise_bytes=iterwise,
        inspector_bytes=inspector,
    )
