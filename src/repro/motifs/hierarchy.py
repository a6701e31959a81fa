"""Hierarchical DFG: the mapper-facing decomposition HD = (M_HD, E_HD).

Every DFG node belongs to exactly one *group*: a collective motif (size 2-3
compute nodes), a compute singleton, or a memory singleton (LOAD/STORE nodes
execute on the ALSU and are never motif members).  Edges internal to a group
are routed by the PCU's local router / bypass paths; edges between groups
travel the global network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MotifError
from repro.ir.graph import DFG, DFGEdge
from repro.motifs.generation import (
    MotifGenerationResult,
    generate_motifs,
    group_cycle,
)
from repro.motifs.types import Motif, MotifKind


@dataclass(frozen=True)
class HierarchyEdge:
    """An inter-group dependence (wraps the underlying DFG edge)."""

    src_group: int
    dst_group: int
    edge: DFGEdge


@dataclass
class HierarchicalDFG:
    """The hierarchical DFG of the mapping problem formulation."""

    dfg: DFG
    groups: list[Motif] = field(default_factory=list)
    node_to_group: dict[int, int] = field(default_factory=dict)
    inter_edges: list[HierarchyEdge] = field(default_factory=list)

    @classmethod
    def from_groups(cls, dfg: DFG, groups: list[Motif]) -> "HierarchicalDFG":
        """The validated hierarchy of ``dfg`` partitioned into ``groups``.

        An edge is inter-group when it is an ordering edge, joins two
        groups, or is loop-carried (see :meth:`internal_edges`).
        """
        node_to_group = {node_id: index
                         for index, motif in enumerate(groups)
                         for node_id in motif.nodes}
        inter_edges = [
            HierarchyEdge(node_to_group[edge.src], node_to_group[edge.dst],
                          edge)
            for edge in dfg.edges
            if edge.is_ordering or edge.distance > 0
            or node_to_group[edge.src] != node_to_group[edge.dst]
        ]
        hierarchy = cls(dfg=dfg, groups=groups, node_to_group=node_to_group,
                        inter_edges=inter_edges)
        hierarchy.validate()
        return hierarchy

    def group_of(self, node_id: int) -> int:
        try:
            return self.node_to_group[node_id]
        except KeyError:
            raise MotifError(f"node {node_id} not in any group") from None

    def internal_edges(self, group_index: int) -> list[DFGEdge]:
        """Distance-0 data edges fully inside one group (routed by the
        PCU's local router or bypass paths).  Loop-carried edges always
        travel through buffered network registers, so they are classified
        as inter-group even when both endpoints share a group."""
        return [
            edge for edge in self.groups[group_index].internal_edges(self.dfg)
            if edge.distance == 0
        ]

    def group_dependencies(self) -> dict[int, set[int]]:
        """Distance-0 predecessor groups per group (for dependency sort)."""
        deps: dict[int, set[int]] = {i: set() for i in range(len(self.groups))}
        for hedge in self.inter_edges:
            if hedge.edge.distance == 0 and not hedge.edge.is_ordering:
                deps[hedge.dst_group].add(hedge.src_group)
        return deps

    def dependency_order(self) -> list[int]:
        """Group indices topologically sorted by distance-0 dependencies,
        larger motifs first among ready groups (Algorithm 2 line 1 sorts
        motifs by data dependency; collective motifs are mapped first)."""
        deps = self.group_dependencies()
        remaining = dict(deps)
        placed: list[int] = []
        done: set[int] = set()
        while remaining:
            ready = [g for g, pre in remaining.items() if pre <= done]
            if not ready:
                # validate() rejects distance-0 cycles across groups;
                # guard anyway for hand-built hierarchies.
                ready = sorted(remaining)
            ready.sort(key=lambda g: (-self.groups[g].size, g))
            chosen = ready[0]
            placed.append(chosen)
            done.add(chosen)
            del remaining[chosen]
        return placed

    def validate(self) -> None:
        """Partition and edge-classification invariants."""
        all_ids = {node.node_id for node in self.dfg.nodes}
        if set(self.node_to_group) != all_ids:
            raise MotifError("hierarchy does not cover every DFG node")
        for index, motif in enumerate(self.groups):
            for node_id in motif.nodes:
                if self.node_to_group.get(node_id) != index:
                    raise MotifError(
                        f"node {node_id} mis-indexed in hierarchy"
                    )
        internal_count = sum(
            len(self.internal_edges(i)) for i in range(len(self.groups))
        )
        data_edges = [e for e in self.dfg.data_edges]
        if internal_count + len(
            [h for h in self.inter_edges if not h.edge.is_ordering]
        ) != len(data_edges):
            raise MotifError("edge classification does not partition edges")
        cycle = group_cycle(self.dfg, self.node_to_group)
        if cycle is not None:
            raise MotifError(
                f"groups {sorted(cycle)} form a distance-0 dependence cycle"
            )


def build_hierarchy(dfg: DFG,
                    generation: MotifGenerationResult | None = None,
                    seed: int | None = None) -> HierarchicalDFG:
    """Build the hierarchical DFG from a motif decomposition.

    When ``generation`` is omitted, Algorithm 1 runs with ``seed``.
    """
    if generation is None:
        generation = generate_motifs(dfg, seed=seed)
    groups: list[Motif] = list(generation.motifs)
    # Standalone compute nodes and memory nodes become singleton groups.
    for node_id in generation.standalone:
        groups.append(Motif(MotifKind.SINGLETON, (node_id,)))
    for node in dfg.memory_nodes:
        groups.append(Motif(MotifKind.SINGLETON, (node.node_id,)))
    return HierarchicalDFG.from_groups(dfg, groups)
