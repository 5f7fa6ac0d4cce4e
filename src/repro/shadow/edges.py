"""The inverted edge table: collected data-dependence edges.

Every cross-iteration dependence discovered during sliding-window DDG
extraction is logged here as a ``(source iteration, sink iteration)`` pair
with its kind.  "Inverted" reflects the discovery direction: edges are found
at the *sink* (the later access) by looking up the last earlier reference,
then recorded source-first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

import networkx as nx


class EdgeKind(enum.Enum):
    """Classic dependence taxonomy."""

    FLOW = "flow"      # write -> later read  (true dependence)
    ANTI = "anti"      # read  -> later write
    OUTPUT = "output"  # write -> later write

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class DependenceEdge:
    """A dependence from iteration ``src`` to iteration ``dst`` (src < dst)."""

    src: int
    dst: int
    kind: EdgeKind
    array: str
    index: int

    def __post_init__(self) -> None:
        if self.src >= self.dst:
            raise ValueError(
                "dependence edges point forward in iteration order; got "
                f"{self.src} -> {self.dst}"
            )

    @property
    def distance(self) -> int:
        return self.dst - self.src


class InvertedEdgeTable:
    """Deduplicating accumulator of :class:`DependenceEdge` records."""

    def __init__(self) -> None:
        self._edges: set[DependenceEdge] = set()

    def log(self, edge: DependenceEdge) -> None:
        self._edges.add(edge)

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[DependenceEdge]:
        return iter(sorted(self._edges, key=lambda e: (e.src, e.dst, e.kind.value)))

    def edges(self, kind: EdgeKind | None = None) -> list[DependenceEdge]:
        out = list(self)
        if kind is not None:
            out = [e for e in out if e.kind is kind]
        return out

    def iteration_pairs(self, kinds: Iterable[EdgeKind] | None = None) -> set[tuple[int, int]]:
        """Distinct ``(src, dst)`` pairs, optionally filtered by kind."""
        wanted = set(kinds) if kinds is not None else set(EdgeKind)
        return {(e.src, e.dst) for e in self._edges if e.kind in wanted}

    def to_graph(self, n_iterations: int | None = None) -> nx.DiGraph:
        """Build the iteration DDG as a :class:`networkx.DiGraph`.

        Nodes are iteration numbers; parallel edges between the same pair
        collapse, keeping the set of kinds as an attribute (the scheduler
        only needs the precedence relation).
        """
        graph = nx.DiGraph()
        if n_iterations is not None:
            graph.add_nodes_from(range(n_iterations))
        for edge in self._edges:  # hot-path: offline DDG export, per-edge
            if graph.has_edge(edge.src, edge.dst):
                graph[edge.src][edge.dst]["kinds"].add(edge.kind)
            else:
                graph.add_edge(edge.src, edge.dst, kinds={edge.kind})
        return graph
