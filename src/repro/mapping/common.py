"""Machinery shared by the PathFinder, SA, and Plaid mappers.

All mappers work with the same primitives: a *placement* (node -> (fu,
absolute cycle)) maintained inside an MRRG, the schedule horizon and
modulo-ASAP times, and full or incremental edge routing.

The PathFinder and SA baselines also share a list scheduler,
:func:`initial_placement`, and the annealer's timing check.  Both read
:class:`PlacementTables`: per-node edge tuples, candidate FU ids,
neighbour lists and FU x FU latency and hop tables, built once per
(DFG, fabric, II) in the strategies' ``prepare()`` (:class:`SearchTables`).
Since placed producers bound a node's cycle from below and placed
consumers from above, :meth:`PlacementTables.best_spot` picks a node's
spot in one pass over its shuffled candidate FUs, probing at most II
modulo slots per FU.

The baselines' RNG draws are inlined: ``rng.getrandbits`` is called in
exactly the loop of ``random.Random._randbelow_with_getrandbits`` (what
``choice``, ``randrange(n)`` and ``shuffle`` use), so every draw, and so
every mapping, matches the stdlib calls while skipping their wrappers.
"""

from __future__ import annotations

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.arch.topology import manhattan
from repro.ir.analysis import (
    critical_path_length, longest_paths, strongly_connected_components,
    topological_order,
)
from repro.ir.graph import DFG
from repro.mapping.router import (
    RoutingHistory, route_edge, transport_latency_table,
)


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
    return longest_paths(
        (node.node_id for node in dfg.nodes),
        [(edge.src, edge.dst, 1 - ii * edge.distance) for edge in dfg.edges])


def recurrence_nodes(dfg: DFG) -> set[int]:
    """Nodes on loop-carried dependence circuits (SCCs of the full edge
    graph plus self-recurrences)."""
    successors: dict[int, list[int]] = {node.node_id: [] for node in dfg.nodes}
    members: set[int] = set()
    for edge in dfg.edges:
        successors[edge.src].append(edge.dst)
        if edge.src == edge.dst:
            members.add(edge.src)
    for component in strongly_connected_components(successors):
        if len(component) > 1:
            members.update(component)
    return members


def edge_indices_by_node(dfg: DFG) -> dict[int, list[int]]:
    """node id -> indices (into dfg.edges) of all incident edges."""
    incident: dict[int, list[int]] = {node.node_id: [] for node in dfg.nodes}
    for index, edge in enumerate(dfg.edges):
        incident[edge.src].append(index)
        if edge.dst != edge.src:
            incident[edge.dst].append(index)
    return incident


def fu_hop_table(arch: Architecture) -> tuple[tuple[int, ...], ...]:
    """FU x FU mesh distance between the FUs' tiles, built once per fabric
    (cached on the architecture, like
    :func:`~repro.mapping.router.transport_latency_table`)."""
    def build() -> tuple[tuple[int, ...], ...]:
        tiles = [fu.tile for fu in arch.fus]
        return tuple(
            tuple(manhattan(src_tile, dst_tile, arch.cols)
                  for dst_tile in tiles)
            for src_tile in tiles
        )

    return arch.memo("fu_hop_table", build)


class PlacementTables:
    """Scheduling tables of one (DFG, fabric, II), built once per search.

    Edges are stored per node as ``(other, distance * II, is_ordering)``
    tuples, split into in-edges, out-edges (both without self-edges) and
    self-edges ``(distance * II, is_ordering)``.  A data edge needs a
    span of at least the fabric's minimum transport latency, an ordering
    edge a span of at least 1; spans include the modulo offset.

    ``fu_ids[node]`` is the tuple of FU ids that support the node's op,
    the list the scheduler shuffles and the annealer draws moves from.

    Because a placed producer only bounds a node's cycle from below and a
    placed consumer only from above, the timing-feasible cycles of a node
    on one FU form an interval (:meth:`best_spot`).
    """

    def __init__(self, dfg: DFG, arch: Architecture, ii: int) -> None:
        self.dfg = dfg
        self.arch = arch
        self.ii = ii
        self.horizon = schedule_horizon(dfg, ii)
        self.asap = modulo_asap(dfg, ii)
        # Producers before consumers over intra-iteration edges.
        self.order = topological_order(dfg)
        self.latency = transport_latency_table(arch)
        self.hops = fu_hop_table(arch)
        self.ops = {node.node_id: node.op for node in dfg.nodes}
        self.fu_ids = {
            node_id: tuple(fu.fu_id for fu in arch.fus_supporting(op))
            for node_id, op in self.ops.items()}
        self.in_edges: dict[int, tuple[tuple[int, int, bool], ...]] = {}
        self.out_edges: dict[int, tuple[tuple[int, int, bool], ...]] = {}
        self.self_edges: dict[int, tuple[tuple[int, bool], ...]] = {}
        self.neighbours: dict[int, tuple[int, ...]] = {}
        for node_id in self.ops:
            in_edges = dfg.in_edges(node_id)
            self.in_edges[node_id] = tuple(
                (edge.src, edge.distance * ii, edge.is_ordering)
                for edge in in_edges if edge.src != node_id)
            self.out_edges[node_id] = tuple(
                (edge.dst, edge.distance * ii, edge.is_ordering)
                for edge in dfg.out_edges(node_id) if edge.dst != node_id)
            self.self_edges[node_id] = tuple(
                (edge.distance * ii, edge.is_ordering)
                for edge in in_edges if edge.src == node_id)
            self.neighbours[node_id] = tuple(
                other for other in sorted(
                    set(dfg.predecessors(node_id))
                    | set(dfg.successors(node_id)))
                if other != node_id)
        self._recurrence: set[int] | None = None

    @property
    def recurrence_nodes(self) -> set[int]:
        if self._recurrence is None:
            self._recurrence = recurrence_nodes(self.dfg)
        return self._recurrence

    def best_spot(self, mrrg: MRRG, placement: dict[int, tuple[int, int]],
                  node_id: int, node_asap: int, fu_ids: list[int]
                  ) -> tuple[int, int] | None:
        """The list scheduler's (fu, cycle) for an unplaced node, or None.

        Over ``fu_ids`` in order, each FU's earliest timing-feasible cycle
        (at or after ``node_asap`` and 0) whose modulo slot is free; the
        spot minimizing (cycle, mesh distance to the placed neighbours)
        wins, ties going to the earlier FU.  Placed producers over data
        edges raise the lower bound to ``latency[src_fu][fu] + offset``,
        placed consumers lower the upper bound to ``offset -
        latency[fu][dst_fu]``; ordering edges and the horizon bound the
        cycle for every FU alike.
        """
        latency = self.latency
        lo = node_asap
        lo_terms = []
        for src, span, ordering in self.in_edges[node_id]:
            spot = placement.get(src)
            if spot is None:
                continue
            if ordering:
                bound = spot[1] + 1 - span
                if bound > lo:
                    lo = bound
            else:
                lo_terms.append((latency[spot[0]], spot[1] - span))
        if lo < 0:
            lo = 0
        # The FU-independent upper bound, then the incumbent's cycle:
        # only a cycle <= cap can beat or tie the incumbent.
        cap = self.horizon - 1
        hi_terms = []
        for dst, span, ordering in self.out_edges[node_id]:
            spot = placement.get(dst)
            if spot is None:
                continue
            if ordering:
                bound = spot[1] + span - 1
                if bound < cap:
                    cap = bound
            else:
                hi_terms.append((spot[0], spot[1] + span))
        neighbour_fus = [placement[other][0]
                         for other in self.neighbours[node_id]
                         if other in placement]
        self_edges = self.self_edges[node_id]
        hops = self.hops
        fu_nodes = mrrg._fu_nodes
        ii = mrrg.ii
        best = None
        best_score = 0
        for fu_id in fu_ids:
            row = latency[fu_id]
            if self_edges and any(
                    span < (1 if ordering else row[fu_id])
                    for span, ordering in self_edges):
                continue
            fu_lo = lo
            for src_row, offset in lo_terms:
                bound = src_row[fu_id] + offset
                if bound > fu_lo:
                    fu_lo = bound
            end = fu_lo + ii - 1
            if cap < end:
                end = cap
            for dst_fu, offset in hi_terms:
                bound = offset - row[dst_fu]
                if bound < end:
                    end = bound
            cycle = fu_lo
            while cycle <= end:
                if (fu_id, cycle % ii) not in fu_nodes:
                    break
                cycle += 1
            else:
                continue
            hop_row = hops[fu_id]
            score = 0
            for other_fu in neighbour_fus:
                score += hop_row[other_fu]
            if best is None or cycle < cap or score < best_score:
                best = (fu_id, cycle)
                best_score = score
                cap = cycle
        return best

    def timing_ok(self, placement: dict[int, tuple[int, int]],
                  node_id: int, fu_id: int, cycle: int) -> bool:
        """Can ``node_id`` sit at (fu, cycle) given its placed neighbours?
        (Entries for ``node_id`` itself in ``placement`` are ignored.)"""
        latency = self.latency
        row = latency[fu_id]
        for span, ordering in self.self_edges[node_id]:
            if span < (1 if ordering else row[fu_id]):
                return False
        for src, span, ordering in self.in_edges[node_id]:
            spot = placement.get(src)
            if spot is not None and cycle + span - spot[1] < (
                    1 if ordering else latency[spot[0]][fu_id]):
                return False
        for dst, span, ordering in self.out_edges[node_id]:
            spot = placement.get(dst)
            if spot is not None and spot[1] + span - cycle < (
                    1 if ordering else row[spot[0]]):
                return False
        return True


class SearchTables:
    """The :class:`PlacementTables` of one search, built lazily per II.

    The baseline strategies return one from ``prepare()``, so restarts
    and II escalations share the tables and nothing outlives the search.
    """

    def __init__(self, dfg: DFG, arch: Architecture) -> None:
        self.dfg = dfg
        self.arch = arch
        self._by_ii: dict[int, PlacementTables] = {}

    def at(self, ii: int) -> PlacementTables:
        tables = self._by_ii.get(ii)
        if tables is None:
            tables = self._by_ii[ii] = PlacementTables(
                self.dfg, self.arch, ii)
        return tables


def initial_placement(tables: PlacementTables, mrrg: MRRG, rng,
                      circuit_lateness: int = 0
                      ) -> dict[int, tuple[int, int]] | None:
    """List-schedule every node onto the MRRG; None when stuck.

    Nodes go in topological order; each takes the compatible FU and
    earliest feasible cycle minimizing (cycle, distance to placed
    neighbours).  Candidate FUs are tried in an order shuffled by
    ``rng`` and ties go to the first of them, so restarts explore
    different placements.

    ``circuit_lateness`` delays recurrence-circuit nodes past their
    modulo-ASAP time, buying transport headroom for the feed-in logic —
    mappers sweep it across restarts when circuits are hard to close.
    """
    asap = tables.asap
    if asap is None:
        return None     # II below the recurrence bound
    late_nodes = tables.recurrence_nodes if circuit_lateness else ()
    fu_ids = tables.fu_ids
    best_spot = tables.best_spot
    getrandbits = rng.getrandbits
    placement: dict[int, tuple[int, int]] = {}
    for node_id in tables.order:
        candidates = list(fu_ids[node_id])
        # rng.shuffle(candidates), draw for draw.
        for i in range(len(candidates) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            candidates[i], candidates[j] = candidates[j], candidates[i]
        node_asap = asap[node_id]
        if node_id in late_nodes:
            node_asap += circuit_lateness
        best = best_spot(mrrg, placement, node_id, node_asap, candidates)
        if best is None:
            return None
        placement[node_id] = best
        mrrg.place_node(node_id, best[0], best[1])
    return placement


def route_one_edge(dfg: DFG, mrrg: MRRG,
                   placement: dict[int, tuple[int, int]], index: int,
                   history: RoutingHistory | None = None) -> Route | None:
    """Route one data edge (by index) of a placement; None when stuck."""
    edge = dfg.edges[index]
    src_fu, src_cycle = placement[edge.src]
    dst_fu, dst_cycle = placement[edge.dst]
    arrival = dst_cycle + edge.distance * mrrg.ii
    return route_edge(mrrg, edge.src, src_fu, src_cycle,
                      dst_fu, arrival, history=history)


def route_all_edges(dfg: DFG, mrrg: MRRG,
                    placement: dict[int, tuple[int, int]],
                    history: RoutingHistory | None = None
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
    return step_total_cost(
        mrrg, unrouted, sum(len(route.steps) for route in routes.values()))


def step_total_cost(mrrg: MRRG, unrouted: int, steps: int) -> float:
    """:func:`mapping_cost` from a route-step total kept by the caller."""
    return 1000.0 * unrouted + 100.0 * mrrg.total_overuse() + 1.0 * steps
