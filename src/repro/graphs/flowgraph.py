"""The flow-aware multigraph data structure.

Follows the PROGRAML representation: one node per instruction, separate nodes
for variables and constants, and typed edges for control flow, data flow and
call flow.  The graph is a plain Python object with NumPy export helpers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

__all__ = ["NodeKind", "EdgeRelation", "GraphNode", "GraphEdge", "FlowGraph"]


class NodeKind(enum.IntEnum):
    """Kind of a graph node (PROGRAML node types)."""

    INSTRUCTION = 0
    VARIABLE = 1
    CONSTANT = 2


class EdgeRelation(enum.IntEnum):
    """Relation (type) of a graph edge; these are the RGCN's relations."""

    CONTROL = 0
    DATA = 1
    CALL = 2


@dataclass(frozen=True)
class GraphNode:
    """A single node.

    Attributes
    ----------
    index:
        Dense integer id within the graph.
    kind:
        Instruction / variable / constant.
    token:
        Textual token used for vocabulary lookup (e.g. ``"load double"`` for
        an instruction node, ``"double"`` for a variable node).
    function:
        Name of the IR function this node came from ("" for constants shared
        across functions).
    """

    index: int
    kind: NodeKind
    token: str
    function: str = ""


@dataclass(frozen=True)
class GraphEdge:
    """A typed directed edge with a position (operand slot) attribute."""

    source: int
    target: int
    relation: EdgeRelation
    position: int = 0


class FlowGraph:
    """Directed multigraph over :class:`GraphNode`/:class:`GraphEdge`."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._nodes: List[GraphNode] = []
        self._edges: List[GraphEdge] = []

    # -------------------------------------------------------------- building
    def add_node(self, kind: NodeKind, token: str, function: str = "") -> int:
        """Append a node and return its index."""
        if not token:
            raise ValueError("node token must be non-empty")
        index = len(self._nodes)
        self._nodes.append(GraphNode(index=index, kind=NodeKind(kind), token=token, function=function))
        return index

    def add_edge(self, source: int, target: int, relation: EdgeRelation, position: int = 0) -> None:
        """Append a typed edge between existing nodes."""
        num = len(self._nodes)
        if not (0 <= source < num) or not (0 <= target < num):
            raise IndexError(f"edge ({source}->{target}) references a non-existent node")
        self._edges.append(GraphEdge(source, target, EdgeRelation(relation), position))

    # --------------------------------------------------------------- queries
    @property
    def nodes(self) -> List[GraphNode]:
        return list(self._nodes)

    @property
    def edges(self) -> List[GraphEdge]:
        return list(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node(self, index: int) -> GraphNode:
        return self._nodes[index]

    def nodes_of_kind(self, kind: NodeKind) -> List[GraphNode]:
        return [n for n in self._nodes if n.kind == kind]

    def edges_of_relation(self, relation: EdgeRelation) -> List[GraphEdge]:
        return [e for e in self._edges if e.relation == relation]

    def out_edges(self, index: int) -> List[GraphEdge]:
        return [e for e in self._edges if e.source == index]

    def in_edges(self, index: int) -> List[GraphEdge]:
        return [e for e in self._edges if e.target == index]

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self._nodes)

    # --------------------------------------------------------------- export
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(edge_index (2, E), edge_type (E,))`` NumPy arrays."""
        if not self._edges:
            return np.zeros((2, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
        edge_index = np.array(
            [[e.source for e in self._edges], [e.target for e in self._edges]], dtype=np.int64
        )
        edge_type = np.array([int(e.relation) for e in self._edges], dtype=np.int64)
        return edge_index, edge_type

    def node_tokens(self) -> List[str]:
        """Token string of every node, in index order."""
        return [n.token for n in self._nodes]

    def node_kinds(self) -> np.ndarray:
        """Kind (as int) of every node, in index order."""
        return np.array([int(n.kind) for n in self._nodes], dtype=np.int64)

    # ------------------------------------------------------------ statistics
    def summary(self) -> Dict[str, int]:
        """Node/edge counts broken down by kind/relation."""
        out: Dict[str, int] = {"nodes": self.num_nodes, "edges": self.num_edges}
        for kind in NodeKind:
            out[f"nodes_{kind.name.lower()}"] = sum(1 for n in self._nodes if n.kind == kind)
        for relation in EdgeRelation:
            out[f"edges_{relation.name.lower()}"] = sum(
                1 for e in self._edges if e.relation == relation
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlowGraph({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"
