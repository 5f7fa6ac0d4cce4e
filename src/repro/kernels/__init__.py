"""Hot-path kernels: one vectorized marking/copy/reduction API, two impls.

Every per-element inner loop of the runtime -- shadow marking, private-view
copy-in/copy-out, untested-write application, checkpoint restore, the
analysis reductions and the certifier's exact trace dependence test --
funnels through the primitives defined here, so the innermost loop of every
layer (shadow, memory, analysis, certification, and the parallel backends)
sits behind a single seam.  Two interchangeable implementations
are provided:

* :mod:`repro.kernels.vector` -- numpy-vectorized, the production default;
* :mod:`repro.kernels.scalar` -- pure-Python per-element reference loops,
  the executable specification the vector kernels are differentially
  tested against (and the only place per-element loops are allowed on the
  hot path; ``tools/check_hot_path.py`` enforces that).

Selection follows the execution-backend pattern: a process-wide default
(seeded from the ``REPRO_KERNELS`` environment variable, normally
``"vector"``), scopable with :func:`use_kernels`, and overridable per run
through ``RuntimeConfig.kernels``.  Both implementations are bit-identical
by contract: swapping them changes host wall-clock time only, never
results, virtual time, or event streams.
"""

from __future__ import annotations

import contextlib
import os

from repro.errors import ConfigurationError
from repro.kernels import scalar, vector
from repro.kernels.scalar import (  # the trace columns' kind codes
    ACCESS_KINDS as ACCESS_KINDS,
    READ as READ,
    UPDATE as UPDATE,
    WRITE as WRITE,
)

#: Registered implementations; both expose the same module-level functions.
KERNELS = {"vector": vector, "scalar": scalar}

DEFAULT_KERNELS = "vector"


def kernel_names() -> list[str]:
    return sorted(KERNELS)


def _validated(name: str) -> str:
    if name not in KERNELS:
        raise ConfigurationError(
            f"unknown kernels implementation {name!r}; known: "
            f"{', '.join(kernel_names())}"
        )
    return name


_default_kernels = _validated(os.environ.get("REPRO_KERNELS", DEFAULT_KERNELS))


def get_default_kernels() -> str:
    """Kernels used when ``RuntimeConfig.kernels`` is ``None``."""
    return _default_kernels


def set_default_kernels(name: str) -> None:
    """Set the process-wide default kernels (``use_kernels`` scopes it)."""
    global _default_kernels
    _default_kernels = _validated(name)


@contextlib.contextmanager
def use_kernels(name: str):
    """Scope the default kernels implementation.  The engine wraps each run
    in this so forked backend workers inherit the run's choice."""
    previous = _default_kernels
    set_default_kernels(name)
    try:
        yield
    finally:
        set_default_kernels(previous)


def resolve_kernels_name(config) -> str:
    """The kernels a config resolves to (explicit setting or the default)."""
    name = getattr(config, "kernels", None)
    return name if name is not None else _default_kernels


def get_kernels():
    """The active kernels module (call-time dispatch on the hot path)."""
    return KERNELS[_default_kernels]
