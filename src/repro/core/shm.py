"""``shm``: a synonym for the fork pool.

``ShmBackend`` runs exactly what ``fork`` runs, with its dispatch costs
measured under its own name.  The name stays registered because the
host-time benchmark (``hostbench/``) runs it and patches this class;
docs/cost-model.md ("one data plane") records why there is no second
process data plane behind it.
"""

from __future__ import annotations

from repro.core.backend import BACKENDS, ForkBackend


class ShmBackend(ForkBackend):
    """The fork pool under the ``shm`` name (see the module docstring)."""

    name = "shm"


BACKENDS[ShmBackend.name] = ShmBackend
