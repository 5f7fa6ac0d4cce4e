"""Common interface of the per-processor shadow representations."""

from __future__ import annotations

import numpy as np

from repro.kernels import get_kernels


class ShadowArray:
    """Marking bits for one (processor, tested array) pair during one stage.

    Contract (paper, Section 2):

    * ``mark_write`` sets the Write bit.
    * ``mark_read`` sets the any-Read bit, and the *exposed*-Read bit only
      if no local write to the element precedes it; on a processor where the
      write occurs first, subsequent reads do not set the exposed bit.
    * ``mark_update`` sets the reduction bit (``ctx.update`` accesses).
    * Re-marking an element with the same access type is idempotent.

    ``distinct_refs`` is the number of elements carrying any mark -- the
    quantity the analysis-phase cost is proportional to.

    The speculative executor does not mark per access: it logs each
    block's reads and writes and hands the log to :meth:`apply_log` when
    the block ends.  The scalar ``mark_*`` methods are the specification
    that batch marking is tested against; each shadow implements the bulk
    ``mark_*_many`` methods with a kernel batch call.
    """

    __slots__ = ("n_elements",)

    def __init__(self, n_elements: int) -> None:
        if n_elements < 0:
            raise ValueError("shadow size must be non-negative")
        self.n_elements = n_elements

    # -- marking ----------------------------------------------------------------

    def mark_read(self, index: int) -> None:
        raise NotImplementedError

    def mark_write(self, index: int) -> None:
        raise NotImplementedError

    def mark_update(self, index: int) -> None:
        raise NotImplementedError

    # Bulk marking: one call marks a whole index array with the same
    # semantics as the scalar loop (in particular, a bulk read sees all
    # writes already marked, none of its own batch's -- exactly what a
    # single vectorized read operation does).

    def mark_read_many(self, indices: np.ndarray) -> None:
        raise NotImplementedError

    def mark_write_many(self, indices: np.ndarray) -> None:
        raise NotImplementedError

    def mark_update_many(self, indices: np.ndarray) -> None:
        raise NotImplementedError

    def apply_log(self, entries) -> None:
        """Mark one block's signed access log (reads ``i``, writes ``~i``,
        in execution order; a list or an int64 array) with the same result
        as marking each access as it happened: a read is exposed only if
        its element carried no write mark when the block started and no
        earlier write in the log hit it."""
        open_reads, writes, covered = get_kernels().resolve_access_log(entries)
        self.mark_read_many(open_reads)
        self.mark_write_many(writes)
        self.mark_read_many(covered)

    # -- analysis-phase queries ---------------------------------------------------

    def write_set(self) -> set[int]:
        """Elements with the Write bit set."""
        raise NotImplementedError

    def exposed_read_set(self) -> set[int]:
        """Elements whose first local access was a read (copy-in reads)."""
        raise NotImplementedError

    def any_read_set(self) -> set[int]:
        """Elements read at least once, regardless of ordering."""
        raise NotImplementedError

    def update_set(self) -> set[int]:
        """Elements touched by reduction updates."""
        raise NotImplementedError

    def has_updates(self) -> bool:
        """Whether any reduction mark exists (cheap early-out for the
        analysis phase's mixed-reduction scan)."""
        return bool(self.update_set())

    def update_indices(self) -> np.ndarray:
        """Reduction-marked elements as a sorted index array."""
        return np.fromiter(sorted(self.update_set()), dtype=np.int64)

    def ordinary_indices(self) -> np.ndarray:
        """Write- or read-marked elements as a sorted index array."""
        return np.fromiter(
            sorted(self.write_set() | self.any_read_set()), dtype=np.int64
        )

    def distinct_refs(self) -> int:
        """Number of distinct elements carrying any mark."""
        raise NotImplementedError

    def reset(self) -> None:
        """Re-initialize all marks (between recursive stages)."""
        raise NotImplementedError

    def is_clear(self) -> bool:
        """True when no element carries a mark (fresh or reset shadow)."""
        raise NotImplementedError

    # -- cross-process shipping ---------------------------------------------------

    def export_marks(self) -> object:
        """Representation-specific payload of all mark planes, shipped
        between processes by the fork execution backend.  Must round-trip
        bit-exactly through :meth:`absorb_marks`."""
        raise NotImplementedError

    def absorb_marks(self, payload: object) -> None:
        """OR a payload from :meth:`export_marks` into this shadow (the
        receiving shadow is assumed freshly reset)."""
        raise NotImplementedError
