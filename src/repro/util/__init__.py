"""Small shared utilities: block arithmetic, RNG, formatting."""

from repro.util.blocks import Block, partition_even, partition_weighted
from repro.util.rng import make_rng
from repro.util.tables import format_series, format_table

__all__ = [
    "Block",
    "partition_even",
    "partition_weighted",
    "make_rng",
    "format_series",
    "format_table",
]
