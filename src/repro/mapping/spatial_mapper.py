"""Spatial CGRA mapping: partition into fixed-configuration phases.

Spatial fabrics pin one operation per PE and one signal per router
out-port for the duration of a *phase*; kernels whose DFG exceeds one
configuration are partitioned, with every cut value spilled to the SPM
(a store in the producer phase, a load in each consumer phase) — exactly
the paper's methodology ("We develop a Python script to partition DFGs.
Additional loads and stores are introduced during partition...").

Correctness constraints on partitioning:

* nodes of one strongly-connected dependence component (recurrence
  circuits, including memory-carried ones) must share a phase;
* endpoints of any loop-carried dependence must share a phase (each phase
  re-runs the whole iteration space, so cross-phase loop-carried values
  would read final instead of per-iteration state).

Each phase executes pipelined dataflow: II = max(RecMII of the phase,
ceil(memory items / SPM ports)); total time sums phases plus a
reconfiguration cost per phase.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

from repro.arch.base import Architecture
from repro.arch.topology import manhattan, mesh_neighbors
from repro.errors import MappingError
from repro.ir.analysis import (
    recurrence_mii, strongly_connected_components, topological_order,
)
from repro.ir.graph import DFG
from repro.mapping.engine import register_mapper


@dataclass(frozen=True)
class PhaseItem:
    """One spatially-pinned unit: an original node or a spill op."""

    kind: str          # 'node' | 'spill_load' | 'spill_store'
    node_id: int       # original node (for spills: the producer node)

    @property
    def key(self) -> tuple[str, int]:
        return (self.kind, self.node_id)


def mesh_neighbor_tiles(arch: Architecture) -> tuple[tuple[int, ...], ...]:
    """Per tile, its mesh neighbours in :func:`mesh_neighbors` order,
    memoized on the fabric for the link router's inner loop."""
    return arch.memo("mesh_neighbor_tiles", lambda: tuple(
        tuple(neighbor for _direction, neighbor
              in mesh_neighbors(tile, arch.rows, arch.cols))
        for tile in range(arch.num_tiles)))


def _is_memory_item(dfg: DFG, item: PhaseItem) -> bool:
    """Spill ops and memory nodes: both take a memory port."""
    return item.kind != "node" or dfg.node(item.node_id).is_memory


@dataclass
class SpatialPhase:
    """One fixed configuration of the fabric."""

    index: int
    items: list[PhaseItem] = field(default_factory=list)
    edges: list[tuple[tuple[str, int], tuple[str, int]]] = field(
        default_factory=list)
    placement: dict[tuple[str, int], int] = field(default_factory=dict)
    paths: dict[int, list[int]] = field(default_factory=dict)  # edge# -> tiles
    ii: int = 1
    depth: int = 1
    #: Compute ops time-multiplexed per PE (1 = purely spatial; >1 only
    #: for forced clusters larger than the fabric, paid for in the II).
    compute_stack: int = 1
    #: Items that take a memory port (memory nodes and spill ops).
    memory_items: int = 0

    def cycles(self, iterations: int) -> int:
        return (iterations - 1) * self.ii + self.depth


@dataclass
class SpatialMapping:
    """A complete phased spatial mapping."""

    dfg: DFG
    arch: Architecture
    phases: list[SpatialPhase]
    spilled_values: int = 0
    #: Phased mappings run no II search, so they keep no
    #: :class:`~repro.mapping.base.MappingStats`.
    stats = None

    def total_cycles(self, iterations: int | None = None) -> int:
        iters = self.dfg.iterations if iterations is None else iterations
        reconfig = int(self.arch.params.get("reconfig_cycles", 32))
        return sum(phase.cycles(iters) for phase in self.phases) \
            + reconfig * len(self.phases)

    @property
    def ii(self) -> int:
        """Effective initiation interval: the sum of the phase IIs
        (cycles per iteration-space point in steady state)."""
        return sum(phase.ii for phase in self.phases)

    @property
    def makespan(self) -> int:
        """Depth of the deepest phase (0 without phases)."""
        return max((phase.depth for phase in self.phases), default=0)

    def summary(self) -> str:
        return (
            f"{self.dfg.name} on {self.arch.name}: "
            f"{len(self.phases)} phases, II={self.ii}, "
            f"makespan={self.makespan}, "
            f"cycles={self.total_cycles()}, "
            f"fu_util={self.fu_utilization():.2f}"
        )

    def fu_utilization(self) -> float:
        """Firings per FU issue slot: each item fires once per phase II."""
        used = sum(len(phase.items) / phase.ii for phase in self.phases)
        total = len(self.arch.fus) * max(1, len(self.phases))
        return used / total

    def transport_utilization(self) -> float:
        """Wire traffic per link slot (one token per II per wire)."""
        hops = sum(
            max(0, len(path) - 1) / phase.ii
            for phase in self.phases for path in phase.paths.values()
        )
        wires = max(1, len(self.arch.resource_caps) * max(1, len(self.phases)))
        return min(1.0, hops / wires)

    def validate(self) -> None:
        """Every node in exactly one phase; placements legal; memory items
        within port limits; spills balanced."""
        seen: set[int] = set()
        mem_fu_tiles = {fu.tile for fu in self.arch.memory_fus}
        for phase in self.phases:
            compute_tiles: list[int] = []
            for item in phase.items:
                if item.key not in phase.placement:
                    raise MappingError(f"{item} unplaced in phase {phase.index}")
                if item.kind == "node":
                    if item.node_id in seen:
                        raise MappingError(
                            f"node {item.node_id} in two phases")
                    seen.add(item.node_id)
                if _is_memory_item(self.dfg, item):
                    # Memory items may stack on a memory tile (the port is
                    # shared, paid for via the phase II).
                    if phase.placement[item.key] not in mem_fu_tiles:
                        raise MappingError(
                            f"memory item {item} on non-memory PE"
                        )
                else:
                    compute_tiles.append(phase.placement[item.key])
            worst = max(Counter(compute_tiles).values(), default=0)
            if worst > phase.compute_stack:
                raise MappingError(
                    f"phase {phase.index} stacks {worst} compute ops on one "
                    f"PE (allowance {phase.compute_stack})"
                )
        if seen != {node.node_id for node in self.dfg.nodes}:
            raise MappingError("phases do not cover the DFG")


class SpatialMapper:
    """Partition-place-route mapper for spatial fabrics."""

    name = "spatial"
    #: Negotiated static-routing rounds per phase.
    ROUTE_ROUNDS = 5

    def __init__(self, seed: int | None = None) -> None:
        # The search draws no random numbers; ``seed`` is taken for the
        # registry's one factory call.
        self.seed = seed

    # ------------------------------------------------------------------
    def map(self, dfg: DFG, arch: Architecture) -> SpatialMapping:
        if arch.style != "spatial":
            raise MappingError(
                f"SpatialMapper targets spatial fabrics, not {arch.style}"
            )
        clusters = self._forced_clusters(dfg)
        groups = self._partition(dfg, arch, clusters)
        phases: list[SpatialPhase] = []
        spilled: set[int] = set()
        assigned: dict[int, int] = {}
        for index, members in enumerate(groups):
            for node_id in members:
                assigned[node_id] = index
        for index, members in enumerate(groups):
            phase = self._build_phase(dfg, index, members, assigned, spilled)
            self._place_and_route(dfg, arch, phase)
            self._phase_timing(dfg, arch, phase, members)
            phases.append(phase)
        mapping = SpatialMapping(dfg=dfg, arch=arch, phases=phases,
                                 spilled_values=len(spilled))
        mapping.validate()
        return mapping

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _forced_clusters(self, dfg: DFG) -> dict[int, int]:
        """node -> cluster id; loop-carried edge endpoints are fused, then
        every strongly connected component of the cluster graph.

        The second step also fuses each recurrence circuit, and any node
        that sits topologically *inside* a fused cluster (consumes an
        early member, feeds a late one), which would otherwise create a
        cyclic phase dependency.  The result is the condensation of the
        cluster graph, so the clusters form a DAG.
        """
        union: dict[int, int] = {n.node_id: n.node_id for n in dfg.nodes}

        def find(x: int) -> int:
            while union[x] != x:
                union[x] = union[union[x]]
                x = union[x]
            return x

        def fuse(a: int, b: int) -> None:
            union[find(a)] = find(b)

        for edge in dfg.edges:
            if edge.distance > 0:
                fuse(edge.src, edge.dst)
        cluster_graph: dict[int, set[int]] = {
            find(n.node_id): set() for n in dfg.nodes}
        for edge in dfg.edges:
            a, b = find(edge.src), find(edge.dst)
            if a != b:
                cluster_graph[a].add(b)
        for members in strongly_connected_components(cluster_graph):
            for other in members[1:]:
                fuse(members[0], other)
        return {n.node_id: find(n.node_id) for n in dfg.nodes}

    def _partition(self, dfg: DFG, arch: Architecture,
                   clusters: dict[int, int]) -> list[list[int]]:
        """Greedy topological packing of clusters into phases."""
        max_items = len(arch.fus)
        max_mem = len(arch.memory_fus)
        order = topological_order(dfg)
        position = {node_id: index for index, node_id in enumerate(order)}
        cluster_members: dict[int, list[int]] = {}
        for node_id in order:
            cluster_members.setdefault(clusters[node_id], []).append(node_id)
        # Emit clusters in a topological order of the cluster DAG (phases
        # may only consume values spilled by earlier phases); ties break
        # on the earliest member so packing stays dataflow-local.
        cluster_deps: dict[int, set[int]] = {c: set() for c in cluster_members}
        for edge in dfg.edges:
            a, b = clusters[edge.src], clusters[edge.dst]
            if a != b:
                cluster_deps[b].add(a)
        # First-fit list scheduling over *ready* clusters: a cluster may
        # join the current phase when all its producers are in finished
        # phases or in the current phase; among ready clusters the
        # earliest (by topological position) that still fits is packed.
        # This keeps phases full, minimizing both spills and phase count.
        phases: list[list[int]] = []
        current: list[int] = []
        current_ids: set[int] = set()
        done_ids: set[int] = set()
        remaining: list[int] = sorted(
            cluster_members, key=lambda c: position[cluster_members[c][0]])
        while remaining:
            progressed = False
            for index, cid in enumerate(remaining):
                if not cluster_deps[cid] <= (done_ids | current_ids):
                    continue
                candidate = current + cluster_members[cid]
                if current and not self._fits(dfg, candidate, set(candidate),
                                              max_items, max_mem):
                    continue
                current = candidate
                current_ids.add(cid)
                remaining.pop(index)
                progressed = True
                break
            if not progressed:
                if not current:
                    raise MappingError(
                        "cluster dependence graph is cyclic"
                    )
                phases.append(current)
                done_ids |= current_ids
                current = []
                current_ids = set()
        if current:
            phases.append(current)
        return phases

    #: Loads/stores per memory port within a phase.  The paper's spatial
    #: baseline pins one configured load/store unit per port — that is
    #: precisely why complex kernels must be partitioned ("Mapping complex
    #: kernels (II > 1) onto spatial CGRAs requires partitioning the DFG").
    #: Oversized forced clusters still stack (see ``stack_cap``), paying
    #: the multiplexing in the phase II.  A pair of load/store units per
    #: port matches the banked arbitration of SNAFU/Riptide-class fabrics.
    MEM_SHARING = 3

    def _fits(self, dfg: DFG, members: list[int], member_set: set[int],
              max_items: int, max_mem: int) -> bool:
        spill_loads = set()
        spill_stores = set()
        for node_id in members:
            for edge in dfg.in_edges(node_id):
                if edge.is_ordering or edge.distance > 0:
                    continue
                if edge.src not in member_set:
                    spill_loads.add(edge.src)
            for edge in dfg.out_edges(node_id):
                if edge.is_ordering or edge.distance > 0:
                    continue
                if edge.dst not in member_set:
                    spill_stores.add(node_id)
        mem_nodes = sum(1 for nid in members if dfg.node(nid).is_memory)
        mem_items = mem_nodes + len(spill_loads) + len(spill_stores)
        compute_items = len(members) - mem_nodes
        mem_tiles_needed = min(max_mem, mem_items)
        return (compute_items <= max_items - mem_tiles_needed
                and mem_items <= max_mem * self.MEM_SHARING)

    # ------------------------------------------------------------------
    # Phase construction
    # ------------------------------------------------------------------
    def _build_phase(self, dfg: DFG, index: int, members: list[int],
                     assigned: dict[int, int],
                     spilled: set[int]) -> SpatialPhase:
        member_set = set(members)
        phase = SpatialPhase(index=index)
        items: dict[tuple[str, int], PhaseItem] = {}
        for node_id in members:
            item = PhaseItem("node", node_id)
            items[item.key] = item
        edges: list[tuple[tuple[str, int], tuple[str, int]]] = []
        for node_id in members:
            for edge in dfg.in_edges(node_id):
                if edge.is_ordering or edge.distance > 0:
                    # Loop-carried values feed back inside the dataflow
                    # pipeline (accounted by the phase RecMII), not over a
                    # dedicated mesh wire.
                    continue
                if edge.src in member_set:
                    if edge.src != node_id:
                        edges.append((("node", edge.src), ("node", node_id)))
                else:
                    load = PhaseItem("spill_load", edge.src)
                    items.setdefault(load.key, load)
                    edges.append((load.key, ("node", node_id)))
                    spilled.add(edge.src)
            for edge in dfg.out_edges(node_id):
                if edge.is_ordering or edge.distance > 0 \
                        or edge.dst in member_set:
                    continue
                store = PhaseItem("spill_store", node_id)
                if store.key not in items:
                    items[store.key] = store
                    edges.append((("node", node_id), store.key))
                spilled.add(node_id)
        phase.items = list(items.values())
        # Deduplicate edges (fanout within phase shares the wire source).
        phase.edges = sorted(set(edges))
        phase.memory_items = sum(
            1 for item in phase.items if _is_memory_item(dfg, item))
        return phase

    # ------------------------------------------------------------------
    # Placement and static routing
    # ------------------------------------------------------------------
    def _place_and_route(self, dfg: DFG, arch: Architecture,
                         phase: SpatialPhase) -> None:
        mem_tiles = sorted({fu.tile for fu in arch.memory_fus})
        all_tiles = list(range(arch.num_tiles))
        # Memory items stack onto memory tiles (the fabric's memory units
        # arbitrate port sharing, covered by the phase II); compute items
        # pin one PE each.  Forced clusters (whole recurrence circuits)
        # may exceed the packing preference, so the stacking cap scales.
        mem_item_count = phase.memory_items
        stack_cap = max(self.MEM_SHARING,
                        math.ceil(mem_item_count / max(1, len(mem_tiles))))
        compute_count = len(phase.items) - mem_item_count
        avail_compute = arch.num_tiles - min(len(mem_tiles), mem_item_count)
        phase.compute_stack = max(
            1, math.ceil(compute_count / max(1, avail_compute)))
        placement: dict[tuple[str, int], int] = {}
        mem_load: dict[int, int] = {tile: 0 for tile in mem_tiles}
        compute_load: dict[int, int] = {}
        free_any = [t for t in all_tiles if t not in mem_tiles]
        adjacency: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for src, dst in phase.edges:
            adjacency.setdefault(src, []).append(dst)
            adjacency.setdefault(dst, []).append(src)
        ordered = sorted(
            phase.items,
            key=lambda it: (not _is_memory_item(dfg, it), it.key),
        )
        for item in ordered:
            neighbours = [
                placement[key] for key in adjacency.get(item.key, [])
                if key in placement
            ]

            def wire(tile: int) -> int:
                return sum(manhattan(tile, t, arch.cols) for t in neighbours)

            if _is_memory_item(dfg, item):
                tile = min(mem_tiles,
                           key=lambda t: (mem_load[t], wire(t)))
                if mem_load[tile] >= stack_cap:
                    raise MappingError(
                        f"phase {phase.index}: memory ports oversubscribed"
                    )
                mem_load[tile] += 1
                placement[item.key] = tile
            else:
                if free_any:
                    free_any.sort(key=wire)
                    tile = free_any.pop(0)
                    compute_load[tile] = compute_load.get(tile, 0) + 1
                else:
                    spare = [t for t in mem_tiles if mem_load[t] == 0]
                    if spare:
                        tile = min(spare, key=wire)
                        mem_load[tile] = stack_cap      # PE consumed
                    else:
                        # Time-multiplex onto the least-loaded compute PE
                        # (forced clusters larger than the fabric).
                        stackable = [
                            t for t, load in compute_load.items()
                            if load < phase.compute_stack
                        ]
                        if not stackable:
                            raise MappingError(
                                f"phase {phase.index}: no PE left for {item}"
                            )
                        tile = min(stackable,
                                   key=lambda t: (compute_load[t], wire(t)))
                        compute_load[tile] += 1
                placement[item.key] = tile
        phase.placement = placement
        phase.paths = self._route_phase(arch, phase)

    def _route_phase(self, arch: Architecture,
                     phase: SpatialPhase) -> dict[int, list[int]]:
        """Negotiated static routing: one signal per directed link."""
        links: dict[tuple[int, int], set[int]] = {}
        history: dict[tuple[int, int], float] = {}
        paths: dict[int, list[int]] = {}
        net_ids = {key: n for n, key in enumerate(
            sorted({src for src, _dst in phase.edges}))}
        for _round in range(self.ROUTE_ROUNDS):
            links.clear()
            paths.clear()
            congested = False
            for index, (src_key, dst_key) in enumerate(phase.edges):
                src_tile = phase.placement[src_key]
                dst_tile = phase.placement[dst_key]
                net = net_ids[src_key]
                path = self._dijkstra_mesh(arch, src_tile, dst_tile,
                                           links, history, net)
                paths[index] = path
                for a, b in zip(path, path[1:]):
                    links.setdefault((a, b), set()).add(net)
            for link, nets in links.items():
                if len(nets) > 1:
                    congested = True
                    history[link] = history.get(link, 0.0) + 2.0 * (len(nets) - 1)
            if not congested:
                return paths
        # Accept mildly congested routing: physical fabrics time-multiplex
        # via the phase II instead; record the pressure in the II.
        overflow = sum(
            len(nets) - 1 for nets in links.values() if len(nets) > 1
        )
        phase.ii += int(math.ceil(overflow / max(1, len(links))))
        return paths

    def _dijkstra_mesh(self, arch: Architecture, src: int, dst: int,
                       links, history, net) -> list[int]:
        neighbors = mesh_neighbor_tiles(arch)
        best = {src: 0.0}
        parents: dict[int, int] = {}
        frontier = [(0.0, src)]
        while frontier:
            cost, tile = heapq.heappop(frontier)
            if tile == dst:
                break
            if cost > best.get(tile, float("inf")):
                continue
            for neighbor in neighbors[tile]:
                link = (tile, neighbor)
                occupants = links.get(link)
                step = 1.0 + history.get(link, 0.0)
                if occupants and net not in occupants:
                    step += 4.0 * len(occupants)
                new_cost = cost + step
                if new_cost < best.get(neighbor, float("inf")):
                    best[neighbor] = new_cost
                    parents[neighbor] = tile
                    heapq.heappush(frontier, (new_cost, neighbor))
        path = [dst]
        while path[-1] != src:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _phase_timing(self, dfg: DFG, arch: Architecture,
                      phase: SpatialPhase, members: list[int]) -> None:
        banks = max(1, len(arch.memory_fus))
        rec = recurrence_mii(dfg, members=set(members))
        phase.ii = max(phase.ii, rec,
                       math.ceil(phase.memory_items / banks),
                       phase.compute_stack)
        # Pipeline depth: longest dependence chain with wire lengths.
        depth: dict[tuple[str, int], int] = {
            item.key: 1 for item in phase.items
        }
        # Edges are acyclic within a phase apart from recurrence circuits;
        # iterate relaxation a bounded number of times.
        for _ in range(len(phase.items)):
            changed = False
            for index, (src_key, dst_key) in enumerate(phase.edges):
                hops = max(1, len(phase.paths.get(index, [0])) - 1)
                candidate = depth[src_key] + hops
                if depth[dst_key] < candidate <= 4 * len(phase.items):
                    depth[dst_key] = candidate
                    changed = True
            if not changed:
                break
        phase.depth = max(depth.values(), default=1) + 1


register_mapper(
    "spatial", SpatialMapper, kind="spatial",
    description="phase-partitioned spatial mapping with SPM spills "
                "(fixed-configuration fabrics)",
)
