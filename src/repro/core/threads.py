"""``threads``: a synonym for the serial backend.

``ThreadsBackend`` runs exactly what ``serial`` runs.  The name stays
registered because the host-time benchmark (``hostbench/``) runs it and
patches this class; docs/cost-model.md ("threads retired") records why
there is no in-process worker pool behind it.
"""

from __future__ import annotations

from repro.core.backend import BACKENDS, SerialBackend


class ThreadsBackend(SerialBackend):
    """The serial block loop under the ``threads`` name (see the module
    docstring)."""

    name = "threads"


BACKENDS[ThreadsBackend.name] = ThreadsBackend
