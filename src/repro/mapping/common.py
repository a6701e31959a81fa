"""Machinery shared by the PathFinder, SA, and Plaid mappers.

All mappers work with the same primitives: a *placement* (node -> (fu,
absolute cycle)) maintained inside an MRRG, timing-feasibility checks
against already-placed neighbours, and full or incremental edge routing.
"""

from __future__ import annotations

import networkx as nx

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.arch.topology import manhattan
from repro.ir.analysis import critical_path_length, topological_order
from repro.ir.graph import DFG
from repro.mapping.router import min_transport_latency, route_edge


def schedule_horizon(dfg: DFG, ii: int) -> int:
    """Upper bound on absolute schedule cycles the mappers explore."""
    return critical_path_length(dfg) + 3 * ii + 8


def modulo_asap(dfg: DFG, ii: int) -> dict[int, int] | None:
    """Recurrence-consistent earliest start times at a given II.

    Bellman-Ford longest-path fixpoint of ``sigma(dst) >= sigma(src) + 1
    - II * distance`` over all edges (data and ordering) with unit
    latencies.  Nodes on recurrence circuits are pushed late enough that a
    placement starting at these times can close every loop within II
    cycles; None when the II is below RecMII (no fixpoint).
    """
    sigma = {node.node_id: 0 for node in dfg.nodes}
    edges = [(e.src, e.dst, 1 - ii * e.distance) for e in dfg.edges]
    for _ in range(dfg.num_nodes + 1):
        changed = False
        for src, dst, weight in edges:
            bound = sigma[src] + weight
            if bound > sigma[dst]:
                sigma[dst] = bound
                changed = True
        if not changed:
            return sigma
    return None


def recurrence_nodes(dfg: DFG) -> set[int]:
    """Nodes on loop-carried dependence circuits (SCCs of the full edge
    graph plus self-recurrences)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(node.node_id for node in dfg.nodes)
    for edge in dfg.edges:
        graph.add_edge(edge.src, edge.dst)
    members: set[int] = set()
    for component in nx.strongly_connected_components(graph):
        if len(component) > 1:
            members.update(component)
    for edge in dfg.edges:
        if edge.src == edge.dst:
            members.add(edge.src)
    return members


def placement_order(dfg: DFG) -> list[int]:
    """Topological placement order (producers before consumers)."""
    return topological_order(dfg)


def edge_indices_by_node(dfg: DFG) -> dict[int, list[int]]:
    """node id -> indices (into dfg.edges) of all incident edges."""
    incident: dict[int, list[int]] = {node.node_id: [] for node in dfg.nodes}
    for index, edge in enumerate(dfg.edges):
        incident[edge.src].append(index)
        if edge.dst != edge.src:
            incident[edge.dst].append(index)
    return incident


def timing_feasible(dfg: DFG, arch: Architecture, ii: int,
                    placement: dict[int, tuple[int, int]],
                    node_id: int, fu_id: int, cycle: int) -> bool:
    """Can ``node_id`` sit at (fu, cycle) given its placed neighbours?

    Data edges need span >= the fabric's minimum transport latency;
    ordering edges need span >= 1.  Spans include the modulo offset
    ``distance * II`` for loop-carried dependences.
    """
    for edge in dfg.in_edges(node_id):
        if edge.src == node_id:
            src_fu, src_cycle = fu_id, cycle
        elif edge.src in placement:
            src_fu, src_cycle = placement[edge.src]
        else:
            continue
        arrival = cycle + edge.distance * ii
        needed = 1 if edge.is_ordering \
            else min_transport_latency(arch, src_fu, fu_id)
        if arrival - src_cycle < needed:
            return False
    for edge in dfg.out_edges(node_id):
        if edge.dst == node_id:
            continue   # handled above (self edge appears in in_edges too)
        if edge.dst not in placement:
            continue
        dst_fu, dst_cycle = placement[edge.dst]
        arrival = dst_cycle + edge.distance * ii
        needed = 1 if edge.is_ordering \
            else min_transport_latency(arch, fu_id, dst_fu)
        if arrival - cycle < needed:
            return False
    return True


def proximity_score(arch: Architecture, placement, dfg: DFG,
                    node_id: int, fu_id: int) -> int:
    """Total mesh distance to placed neighbours (placement heuristic)."""
    tile = arch.fu(fu_id).tile
    score = 0
    for other in set(dfg.predecessors(node_id)) | set(dfg.successors(node_id)):
        if other in placement and other != node_id:
            other_tile = arch.fu(placement[other][0]).tile
            score += manhattan(tile, other_tile, arch.cols)
    return score


def initial_placement(dfg: DFG, arch: Architecture, mrrg: MRRG,
                      rng, circuit_lateness: int = 0
                      ) -> dict[int, tuple[int, int]] | None:
    """List-schedule every node onto the MRRG; None when stuck.

    Nodes go in topological order; each picks the compatible FU / earliest
    cycle minimizing (cycle, distance to neighbours), breaking ties
    randomly so restarts explore different placements.

    ``circuit_lateness`` delays recurrence-circuit nodes past their
    modulo-ASAP time, buying transport headroom for the feed-in logic —
    mappers sweep it across restarts when circuits are hard to close.
    """
    placement: dict[int, tuple[int, int]] = {}
    horizon = schedule_horizon(dfg, mrrg.ii)
    asap = modulo_asap(dfg, mrrg.ii)
    if asap is None:
        return None     # II below the recurrence bound
    late_nodes = recurrence_nodes(dfg) if circuit_lateness else set()
    for node_id in placement_order(dfg):
        node = dfg.node(node_id)
        candidates = list(arch.fus_supporting(node.op))
        rng.shuffle(candidates)
        best: tuple[int, int] | None = None
        best_key: tuple[int, int] | None = None
        node_asap = asap[node_id]
        if node_id in late_nodes:
            node_asap += circuit_lateness
        for fu in candidates:
            earliest = node_asap
            for edge in dfg.in_edges(node_id):
                if edge.src not in placement or edge.src == node_id:
                    continue
                src_fu, src_cycle = placement[edge.src]
                needed = 1 if edge.is_ordering \
                    else min_transport_latency(arch, src_fu, fu.fu_id)
                earliest = max(
                    earliest,
                    src_cycle + needed - edge.distance * mrrg.ii,
                )
            for cycle in range(max(earliest, 0), horizon):
                if not mrrg.fu_free(fu.fu_id, cycle):
                    continue
                if not timing_feasible(dfg, arch, mrrg.ii, placement,
                                       node_id, fu.fu_id, cycle):
                    continue
                key = (cycle, proximity_score(arch, placement, dfg,
                                              node_id, fu.fu_id))
                if best_key is None or key < best_key:
                    best = (fu.fu_id, cycle)
                    best_key = key
                break   # first feasible cycle on this FU is its best
        if best is None:
            return None
        placement[node_id] = best
        mrrg.place_node(node_id, best[0], best[1])
    return placement


def route_one_edge(dfg: DFG, mrrg: MRRG,
                   placement: dict[int, tuple[int, int]], index: int,
                   history: dict | None = None) -> Route | None:
    """Route one data edge (by index) of a placement; None when stuck."""
    edge = dfg.edges[index]
    src_fu, src_cycle = placement[edge.src]
    dst_fu, dst_cycle = placement[edge.dst]
    arrival = dst_cycle + edge.distance * mrrg.ii
    return route_edge(mrrg, edge.src, src_fu, src_cycle,
                      dst_fu, arrival, history=history)


def route_all_edges(dfg: DFG, mrrg: MRRG,
                    placement: dict[int, tuple[int, int]],
                    history: dict | None = None
                    ) -> tuple[dict[int, Route], list[int]]:
    """Route every data edge; returns (routes, unroutable edge indices)."""
    routes: dict[int, Route] = {}
    failures: list[int] = []
    for index, edge in enumerate(dfg.edges):
        if edge.is_ordering:
            continue
        route = route_one_edge(dfg, mrrg, placement, index,
                               history=history)
        if route is None:
            failures.append(index)
        else:
            routes[index] = route
    return routes, failures


def mapping_cost(mrrg: MRRG, routes: dict[int, Route],
                 unrouted: int) -> float:
    """Scalar objective: unrouted edges weigh most (1000 each), then
    overuse (100 per charge beyond capacity), then wirelength (1 per
    route step)."""
    steps = sum(len(route.steps) for route in routes.values())
    return 1000.0 * unrouted + 100.0 * mrrg.total_overuse() + 1.0 * steps
