"""Simulated-annealing mapper (CGRA-ME style; baseline #2 of Figure 18).

The classic joint placement-and-routing annealer the paper compares
against: each move relocates one node to a random compatible (FU, cycle)
candidate and reroutes its incident edges; the Metropolis criterion
occasionally accepts worse states.  It has no greedy candidate ranking and
no motif awareness — exactly the generic baseline of the paper (adapted
from CGRA-ME / Morpher).  The library's stronger search engine is
:class:`~repro.mapping.plaid_mapper.GreedyRepairMapper`.

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

Of the moves that find a spot, most are uphill and rejected, and routing
them is the rest of the annealer's time.  So a move first rips up its
node's routes and bounds the moved state's cost from below without
routing (:func:`move_floor`): the unrouted edges and the overuse left
after the rip-up (new charges only add overuse), the steps of the
untouched routes, and, for each data edge of the node at its new spot,
the fewest steps its route can take: one occupy step per cycle of span
plus the fewest moves between the two FUs, which is the pair's transport
latency less one (:attr:`~repro.mapping.common.PlacementTables.latency`),
or an unrouted edge's 1000 when the span is below that latency.  A bound
above the current cost makes the move uphill for sure, so the Metropolis draw
that would follow the routing is made at once.  If it rejects even the
bound, it rejects the move: the ripped routes go back in their order
and nothing is routed.  Otherwise the node moves, its edges route, and
the same draw decides.  Both steps are exact:

* the draw comes at the same point in the RNG stream, since routing
  draws nothing and an uphill move draws in either order;
* costs are integer-valued floats and ``exp`` is monotone, so a draw
  that rejects the bound's delta rejects every larger delta;
* a skipped move leaves the routes in the order, and the MRRG with the
  counts and charges, that routing and undoing the move leaves (the
  annealer reads the charge map only for membership, and never iterates
  the slot tables).

So every mapping and every RNG state match the route-every-move loop,
which ``tests/test_baseline_mapper_identity.py`` keeps as the oracle;
only the route calls, and with them ``stats.routing_failures``, fall.
The objective's route-step term is a running total, so neither the
bound nor the cost sums the routes.
"""

from __future__ import annotations

import math

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import (
    PlacementTables, SearchTables, edge_indices_by_node, initial_placement,
    route_all_edges, step_total_cost,
)
from repro.mapping.engine import MapperStrategy, register_mapper
from repro.mapping.router import MAX_TRANSPORT_CYCLES, route_edge


class SimulatedAnnealingMapper(MapperStrategy):
    """Metropolis placement/routing search over the MRRG."""

    name = "sa"
    failure_label = "SA"
    #: Annealing moves per II, starting temperature, cooling per move.
    MOVES_PER_II = 2500
    START_TEMP = 10.0
    COOLING = 0.997

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

        # The route-step total, kept up to date move by move.
        steps = sum(len(route.steps) for route in routes.values())
        cost = step_total_cost(mrrg, len(unrouted), steps)
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
            edge_indices = incident[node_id]
            saved, ripped = self._rip_up(mrrg, routes, unrouted,
                                         edge_indices)
            steps -= ripped
            scale = max(temperature, 1e-6)
            bound = move_floor(tables, mrrg, placement, len(unrouted),
                               steps, node_id, candidate)
            draw = None
            if bound > cost:
                # Uphill for sure: draw now, and skip the routing when
                # the draw rejects even the bound.
                draw = rng.random()
                if draw >= math.exp(-(bound - cost) / scale):
                    self._put_back(mrrg, routes, unrouted, saved)
                    steps += ripped
                    temperature *= self.COOLING
                    continue
            old_spot = placement[node_id]
            self._move(mrrg, placement, node_id, candidate)
            added = self._reroute(dfg, mrrg, placement, routes, unrouted,
                                  edge_indices)
            new_cost = step_total_cost(mrrg, len(unrouted), steps + added)
            delta = new_cost - cost
            if delta <= 0 or (rng.random() if draw is None else draw) \
                    < math.exp(-delta / scale):
                cost = new_cost
                steps += added
            else:
                self._rip_up(mrrg, routes, unrouted, edge_indices)
                self._move(mrrg, placement, node_id, old_spot)
                self._put_back(mrrg, routes, unrouted, saved)
                steps += ripped
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

    @staticmethod
    def _rip_up(mrrg, routes, unrouted, edge_indices):
        """Uncommit the routes of ``edge_indices`` and drop them from
        ``unrouted``.  Returns the undo record, one ``(index, route or
        None, was unrouted)`` per edge in order, and the route steps
        removed."""
        saved = []
        removed = 0
        for index in edge_indices:
            route = routes.pop(index, None)
            if route is not None:
                mrrg.uncommit_route(route)
                removed += len(route.steps)
            saved.append((index, route, index in unrouted))
            unrouted.discard(index)
        return saved, removed

    @staticmethod
    def _put_back(mrrg, routes, unrouted, saved):
        """Recommit the routes :meth:`_rip_up` removed, in its order."""
        for index, route, was_unrouted in saved:
            if route is not None:
                routes[index] = route
                mrrg.commit_route(route)
            elif was_unrouted:
                unrouted.add(index)

    @staticmethod
    def _move(mrrg, placement, node_id, spot):
        fu_id, cycle = placement[node_id]
        mrrg.unplace_node(node_id, fu_id, cycle)
        mrrg.place_node(node_id, spot[0], spot[1])
        placement[node_id] = spot

    @staticmethod
    def _reroute(dfg, mrrg, placement, routes, unrouted, edge_indices):
        """Route the data edges of ``edge_indices``; returns the route
        steps added."""
        edges = dfg.edges
        added = 0
        for index in edge_indices:
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
                added += len(route.steps)
        return added


def move_floor(tables: PlacementTables, mrrg: MRRG, placement,
               unrouted: int, steps: int, node_id: int,
               spot: tuple[int, int]) -> float:
    """Lower bound on the annealer's cost once ``node_id``, its routes
    ripped up, moves to ``spot`` and reroutes them.

    ``unrouted`` and ``steps`` count the unrouted edges and the route
    steps left after the rip-up; rerouting keeps both and the overuse,
    and each of the node's data edges adds at least its units: 0 for
    span 1 between a bypass pair (a free bypass), 1000 when the edge
    cannot route (a span outside 1..``MAX_TRANSPORT_CYCLES``, or below
    the pair's transport latency, ``tables.latency``), and otherwise one
    occupy step per cycle of span plus one step per move, of which the
    route makes at least latency - 1.  Other endpoints are read from
    ``placement``.
    """
    fu_id, cycle = spot
    latency = tables.latency
    bypass = tables.arch.bypass_pairs
    for src, offset, ordering in tables.in_edges[node_id]:
        if not ordering:
            src_fu, src_cycle = placement[src]
            steps += _edge_units(cycle + offset - src_cycle, src_fu, fu_id,
                                 latency, bypass)
    for dst, offset, ordering in tables.out_edges[node_id]:
        if not ordering:
            dst_fu, dst_cycle = placement[dst]
            steps += _edge_units(dst_cycle + offset - cycle, fu_id, dst_fu,
                                 latency, bypass)
    for offset, ordering in tables.self_edges[node_id]:
        if not ordering:
            steps += _edge_units(offset, fu_id, fu_id, latency, bypass)
    return step_total_cost(mrrg, unrouted, steps)


def _edge_units(span: int, src_fu: int, dst_fu: int, latency,
                bypass) -> int:
    if span == 1 and (src_fu, dst_fu) in bypass:
        return 0
    if span < 1 or span > MAX_TRANSPORT_CYCLES:
        return 1000
    least = latency[src_fu][dst_fu]
    if span < least:
        return 1000
    return span + least - 1


register_mapper(
    "sa", SimulatedAnnealingMapper,
    description="joint placement/routing simulated annealing "
                "(CGRA-ME style)",
)
