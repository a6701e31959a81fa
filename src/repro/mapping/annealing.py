"""Simulated-annealing mapper (CGRA-ME style; baseline #2 of Figure 18).

The classic joint placement-and-routing annealer the paper compares
against: each move relocates one node to a random compatible (FU, cycle)
candidate and reroutes its incident edges; the Metropolis criterion
occasionally accepts worse states.  It has no greedy candidate ranking and
no motif awareness — exactly the generic baseline of the paper (adapted
from CGRA-ME / Morpher).  The library's stronger search engine lives in
:mod:`repro.mapping.greedy`.

The II escalation and stats live in the shared
:func:`~repro.mapping.engine.search` driver; this class is the per-II
strategy (one anneal per II).

Most moves reject all of their (FU, cycle) draws, so the draw loop is
the annealer's hot path.  It calls ``rng.getrandbits`` in exactly the
loop of ``random.Random._randbelow_with_getrandbits`` (what ``choice``
and ``randrange(n)`` use) over the node's FU-id tuple from
:class:`~repro.mapping.common.PlacementTables`, and reads FU occupancy
straight from the MRRG slot table: the same draws, and so the same
mappings, as the stdlib calls without their per-draw wrappers.
"""

from __future__ import annotations

import math

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import (
    PlacementTables, SearchTables, edge_indices_by_node, initial_placement,
    mapping_cost, route_all_edges,
)
from repro.mapping.engine import MapperStrategy, register_mapper
from repro.mapping.router import route_edge


class SimulatedAnnealingMapper(MapperStrategy):
    """Metropolis placement/routing search over the MRRG."""

    name = "sa"
    failure_label = "SA"
    #: Annealing moves per II, starting temperature, cooling per move.
    MOVES_PER_II = 2500
    START_TEMP = 10.0
    COOLING = 0.997

    def __init__(self, max_ii: int | None = None,
                 seed: int | None = None) -> None:
        self.max_ii = max_ii
        self.seed = seed

    # ------------------------------------------------------------------
    def prepare(self, dfg: DFG, arch: Architecture, rng,
                **kwargs) -> SearchTables:
        return SearchTables(dfg, arch)

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng,
                   context: SearchTables) -> Mapping | None:
        return self._anneal(context.at(ii), rng)

    # ------------------------------------------------------------------
    def _anneal(self, tables: PlacementTables, rng) -> Mapping | None:
        dfg, arch, ii = tables.dfg, tables.arch, tables.ii
        placement = None
        for lateness in (0, 1, 2, 3):
            mrrg = MRRG(arch, ii)
            placement = initial_placement(tables, mrrg, rng,
                                          circuit_lateness=lateness)
            if placement is not None:
                break
        if placement is None:
            return None
        routes, failures = route_all_edges(dfg, mrrg, placement)
        unrouted = set(failures)
        incident = edge_indices_by_node(dfg)
        node_ids = [node.node_id for node in dfg.nodes]

        n_nodes = len(node_ids)
        node_bits = n_nodes.bit_length()
        getrandbits = rng.getrandbits

        cost = mapping_cost(mrrg, routes, len(unrouted))
        temperature = self.START_TEMP
        for _move in range(self.MOVES_PER_II):
            if not unrouted and mrrg.is_legal():
                break
            # rng.choice(node_ids), draw for draw.
            r = getrandbits(node_bits)
            while r >= n_nodes:
                r = getrandbits(node_bits)
            node_id = node_ids[r]
            candidate = self._candidate(tables, mrrg, placement, node_id,
                                        rng)
            if candidate is None:
                temperature *= self.COOLING
                continue
            saved = self._displace(dfg, mrrg, placement, routes, unrouted,
                                   incident, node_id, candidate)
            new_cost = mapping_cost(mrrg, routes, len(unrouted))
            delta = new_cost - cost
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-6)):
                cost = new_cost
            else:
                self._restore(dfg, mrrg, placement, routes, unrouted,
                              incident, node_id, saved)
            temperature *= self.COOLING

        if unrouted or not mrrg.is_legal():
            return None
        mapping = Mapping(dfg=dfg, arch=arch, ii=ii,
                          placement=dict(placement), routes=dict(routes))
        mapping.validate()
        return mapping

    # ------------------------------------------------------------------
    def _candidate(self, tables: PlacementTables, mrrg, placement,
                   node_id, rng) -> tuple[int, int] | None:
        """Random compatible (fu, cycle) different from the current spot.

        Up to 12 tries, each one ``rng.choice`` over the node's FU ids and
        one ``rng.randrange(horizon)``, drawn inline; None when every try
        lands on the current spot, an occupied slot or a timing
        violation, or when no FU supports the node (no draw then).
        """
        fu_ids = tables.fu_ids[node_id]
        n_fus = len(fu_ids)
        if not n_fus:
            return None
        fu_bits = n_fus.bit_length()
        horizon = tables.horizon
        cycle_bits = horizon.bit_length()
        getrandbits = rng.getrandbits
        fu_nodes = mrrg._fu_nodes
        ii = mrrg.ii
        current = placement[node_id]
        for _try in range(12):
            r = getrandbits(fu_bits)
            while r >= n_fus:
                r = getrandbits(fu_bits)
            fu_id = fu_ids[r]
            cycle = getrandbits(cycle_bits)
            while cycle >= horizon:
                cycle = getrandbits(cycle_bits)
            if (fu_id, cycle) == current:
                continue
            occupant = fu_nodes.get((fu_id, cycle % ii))
            if occupant is not None and occupant != node_id:
                continue
            if not tables.timing_ok(placement, node_id, fu_id, cycle):
                continue
            return (fu_id, cycle)
        return None

    def _displace(self, dfg, mrrg, placement, routes, unrouted, incident,
                  node_id, candidate):
        """Move a node and reroute its incident edges; returns undo state."""
        old_spot = placement[node_id]
        old_routes = {
            index: routes.get(index) for index in incident[node_id]
        }
        old_unrouted = {
            index for index in incident[node_id] if index in unrouted
        }
        for index in incident[node_id]:
            route = routes.pop(index, None)
            if route is not None:
                mrrg.uncommit_route(route)
            unrouted.discard(index)
        mrrg.unplace_node(node_id, old_spot[0], old_spot[1])
        mrrg.place_node(node_id, candidate[0], candidate[1])
        placement[node_id] = candidate
        self._reroute_incident(dfg, mrrg, placement, routes, unrouted,
                               incident, node_id)
        return (old_spot, old_routes, old_unrouted)

    def _restore(self, dfg, mrrg, placement, routes, unrouted, incident,
                 node_id, saved):
        old_spot, old_routes, old_unrouted = saved
        for index in incident[node_id]:
            route = routes.pop(index, None)
            if route is not None:
                mrrg.uncommit_route(route)
            unrouted.discard(index)
        current = placement[node_id]
        mrrg.unplace_node(node_id, current[0], current[1])
        mrrg.place_node(node_id, old_spot[0], old_spot[1])
        placement[node_id] = old_spot
        for index, route in old_routes.items():
            if route is not None:
                routes[index] = route
                mrrg.commit_route(route)
        unrouted.update(old_unrouted)

    def _reroute_incident(self, dfg, mrrg, placement, routes, unrouted,
                          incident, node_id):
        edges = dfg.edges
        for index in incident[node_id]:
            edge = edges[index]
            if edge.is_ordering:
                continue
            src_fu, src_cycle = placement[edge.src]
            dst_fu, dst_cycle = placement[edge.dst]
            arrival = dst_cycle + edge.distance * mrrg.ii
            route = route_edge(mrrg, edge.src, src_fu, src_cycle,
                               dst_fu, arrival)
            if route is None:
                unrouted.add(index)
            else:
                routes[index] = route


register_mapper(
    "sa", SimulatedAnnealingMapper,
    description="joint placement/routing simulated annealing "
                "(CGRA-ME style)",
)
