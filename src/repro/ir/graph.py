"""The dataflow graph (DFG) container.

A DFG models one (possibly unrolled) innermost-loop body.  Edges carry:

* ``operand_index`` — which input port of the consumer the value feeds;
* ``distance`` — inter-iteration dependence distance (0 = same iteration).

Edges with ``distance == 0`` must form a DAG; loop-carried dependencies
(reductions, stencils reading the previous iteration) use ``distance >= 1``
and may close cycles, which is what produces a recurrence-constrained
minimum II during modulo scheduling.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import DFGError
from repro.ir.analysis import topological_order
from repro.ir.node import AffineAccess, DFGNode
from repro.ir.ops import OP_ARITY, Opcode


#: Sentinel operand index for ordering-only (memory dependence) edges.
ORDERING = -1


@dataclass(frozen=True)
class DFGEdge:
    """A dependence from ``src`` to ``dst`` (node ids).

    ``operand_index == ORDERING`` marks a memory-dependence edge: it
    constrains scheduling (the consumer must execute after the producer,
    offset by ``distance`` iterations) but carries no value and needs no
    routing.  All other edges are data edges feeding a consumer operand slot.
    """

    src: int
    dst: int
    operand_index: int = 0
    distance: int = 0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise DFGError(f"edge {self.src}->{self.dst} has negative distance")
        if self.operand_index < ORDERING:
            raise DFGError(f"edge {self.src}->{self.dst} has negative operand index")

    @property
    def is_ordering(self) -> bool:
        """True for ordering-only (memory dependence) edges."""
        return self.operand_index == ORDERING


class DFG:
    """A directed dataflow graph with inter-iteration edges.

    Nodes are stored by dense integer id; edges are indexed both ways for
    O(1) fan-in/fan-out queries, which the motif matcher leans on heavily.
    """

    def __init__(self, name: str = "dfg", loop_dims: int = 1,
                 trip_counts: tuple[int, ...] | None = None) -> None:
        self.name = name
        #: Number of loop dimensions of the iteration space.
        self.loop_dims = loop_dims
        #: Trip count per loop dimension (outermost first).
        self.trip_counts: tuple[int, ...] = trip_counts or (1,) * loop_dims
        if len(self.trip_counts) != loop_dims:
            raise DFGError("trip_counts length must equal loop_dims")
        self._nodes: dict[int, DFGNode] = {}
        self._edges: list[DFGEdge] = []
        self._out_edges: dict[int, list[DFGEdge]] = {}
        self._in_edges: dict[int, list[DFGEdge]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, op: Opcode, name: str = "", const: int | None = None,
                 access: AffineAccess | None = None) -> DFGNode:
        """Create a node and return it."""
        node = DFGNode(self._next_id, op, name=name, const=const, access=access)
        self._nodes[node.node_id] = node
        self._out_edges[node.node_id] = []
        self._in_edges[node.node_id] = []
        self._next_id += 1
        return node

    def add_edge(self, src: DFGNode | int, dst: DFGNode | int,
                 operand_index: int = 0, distance: int = 0) -> DFGEdge:
        """Connect two existing nodes; validates ids and operand slots."""
        src_id = src.node_id if isinstance(src, DFGNode) else src
        dst_id = dst.node_id if isinstance(dst, DFGNode) else dst
        if src_id not in self._nodes:
            raise DFGError(f"unknown source node id {src_id}")
        if dst_id not in self._nodes:
            raise DFGError(f"unknown destination node id {dst_id}")
        dst_node = self._nodes[dst_id]
        if operand_index != ORDERING and operand_index >= OP_ARITY[dst_node.op]:
            raise DFGError(
                f"{dst_node.op.name} node '{dst_node.name}' has no operand "
                f"slot {operand_index}"
            )
        edge = DFGEdge(src_id, dst_id, operand_index, distance)
        self._edges.append(edge)
        self._out_edges[src_id].append(edge)
        self._in_edges[dst_id].append(edge)
        return edge

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> DFGNode:
        """Node by id; raises :class:`DFGError` when absent."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise DFGError(f"no node with id {node_id} in '{self.name}'") from None

    @property
    def nodes(self) -> list[DFGNode]:
        """All nodes in id order."""
        return [self._nodes[node_id] for node_id in sorted(self._nodes)]

    @property
    def edges(self) -> list[DFGEdge]:
        """All edges in insertion order."""
        return list(self._edges)

    @property
    def data_edges(self) -> list[DFGEdge]:
        """Edges that carry a value (ordering edges excluded)."""
        return [edge for edge in self._edges if not edge.is_ordering]

    def out_edges(self, node_id: int) -> list[DFGEdge]:
        """Edges whose source is ``node_id``."""
        return list(self._out_edges[node_id])

    def in_edges(self, node_id: int) -> list[DFGEdge]:
        """Edges whose destination is ``node_id``."""
        return list(self._in_edges[node_id])

    def predecessors(self, node_id: int) -> list[int]:
        """Distinct source ids feeding ``node_id`` (any distance)."""
        return sorted({edge.src for edge in self._in_edges[node_id]})

    def successors(self, node_id: int) -> list[int]:
        """Distinct destination ids fed by ``node_id`` (any distance)."""
        return sorted({edge.dst for edge in self._out_edges[node_id]})

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def compute_nodes(self) -> list[DFGNode]:
        """Nodes executable on a plain ALU."""
        return [node for node in self.nodes if node.is_compute]

    @property
    def memory_nodes(self) -> list[DFGNode]:
        """LOAD/STORE nodes (need an ALSU / memory-capable PE)."""
        return [node for node in self.nodes if node.is_memory]

    @property
    def iterations(self) -> int:
        """Total iteration-space points (product of trip counts)."""
        total = 1
        for trip in self.trip_counts:
            total *= trip
        return total

    def iteration_indices(self, iteration: int) -> tuple[int, ...]:
        """Map a flat iteration number to loop indices, outermost first."""
        indices = []
        remaining = iteration
        for trip in reversed(self.trip_counts):
            indices.append(remaining % trip)
            remaining //= trip
        return tuple(reversed(indices))

    def __iter__(self) -> Iterator[DFGNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`DFGError` on failure.

        Invariants: intra-iteration edges form a DAG; every operand slot of
        every node is fed at most once; nodes missing operands must carry a
        constant (the instruction immediate supplies the value).
        """
        topological_order(self)     # raises on a distance-0 cycle
        for node in self.nodes:
            feeds: dict[int, int] = {}
            for edge in self._in_edges[node.node_id]:
                if edge.is_ordering:
                    continue
                feeds[edge.operand_index] = feeds.get(edge.operand_index, 0) + 1
            for slot, count in feeds.items():
                if count > 1:
                    raise DFGError(
                        f"operand {slot} of '{node.name}' fed by {count} edges"
                    )
            arity = OP_ARITY[node.op]
            missing = arity - len(feeds)
            if missing > 1:
                raise DFGError(
                    f"'{node.name}' ({node.op.name}) missing {missing} operands"
                )
            if missing == 1 and node.const is None and node.op is not Opcode.SEL:
                raise DFGError(
                    f"'{node.name}' ({node.op.name}) missing an operand and "
                    "has no constant"
                )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def arrays_read(self) -> set[str]:
        """Names of arrays read by LOAD nodes."""
        return {
            node.access.array for node in self.nodes
            if node.op is Opcode.LOAD and node.access is not None
        }

    def arrays_written(self) -> set[str]:
        """Names of arrays written by STORE nodes."""
        return {
            node.access.array for node in self.nodes
            if node.op is Opcode.STORE and node.access is not None
        }

    def structural_state(self) -> tuple:
        """A hashable snapshot of everything that defines this DFG:
        iteration space, nodes in id order (op, name, const, access,
        annotations), and edges in insertion order.

        Two compilations are bit-identical exactly when their states are
        equal — the basis of the variant layer's lowering invariant.
        """
        nodes = tuple(
            (node.node_id, node.op, node.name, node.const, node.access,
             tuple(sorted(node.annotations.items())))
            for node in self.nodes
        )
        edges = tuple(
            (edge.src, edge.dst, edge.operand_index, edge.distance)
            for edge in self._edges
        )
        return (self.loop_dims, self.trip_counts, nodes, edges)

    def structurally_equal(self, other: "DFG") -> bool:
        """True when ``other`` has the identical node/edge structure
        (names of the DFGs themselves are ignored)."""
        return self.structural_state() == other.structural_state()

    def subgraph_edges(self, node_ids: Iterable[int]) -> list[DFGEdge]:
        """Edges with both endpoints inside ``node_ids`` (any distance)."""
        members = set(node_ids)
        return [
            edge for edge in self._edges
            if edge.src in members and edge.dst in members
        ]

    def summary(self) -> str:
        """One-line characteristics string (Table 2 style)."""
        return (
            f"{self.name}: {self.num_nodes} nodes "
            f"({len(self.compute_nodes)} compute, "
            f"{len(self.memory_nodes)} memory), {self.num_edges} edges"
        )

    def __repr__(self) -> str:
        return f"DFG({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"
