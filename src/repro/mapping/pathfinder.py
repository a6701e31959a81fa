"""PathFinder mapper: negotiated congestion routing on the MRRG.

Adapted from McMurchie & Ebeling's FPGA router the way Morpher adapts it
for CGRAs: placement is produced by list scheduling, then nets are
negotiated over several rip-up rounds.  Overused resource slots
accumulate *history* cost, steering later rounds away until the mapping is
congestion-free.  Placement restarts (with a different RNG stream) give the
router fresh starting points before the II is given up on.

Negotiation is **incremental** by default: after a round with overused
slots, only the *dirty nets* — routes touching a slot that went overused —
are ripped up and rerouted against the updated history; every untouched
route stays committed.  The pre-incremental behaviour (every net ripped
up into a fresh MRRG each round) is kept as ``incremental=False``, the
negotiation oracle: ``tests/test_routecore.py`` locks that both modes
produce bit-identical mappings across the golden-grid seeds.

The II escalation, restart budgeting, and stats live in the shared
:func:`~repro.mapping.engine.search` driver; this class is the per-II
strategy (one restart = one list-scheduled placement negotiated over
``MAX_ROUNDS`` rip-up rounds).
"""

from __future__ import annotations

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import (
    PlacementTables, SearchTables, initial_placement, route_all_edges,
    route_one_edge,
)
from repro.mapping.engine import MapperStrategy, register_mapper
from repro.mapping.router import RoutingHistory


class PathFinderMapper(MapperStrategy):
    """Negotiation-based CGRA mapper (baseline #1 of Figure 18)."""

    name = "pathfinder"
    failure_label = "PathFinder"
    #: Rip-up rounds per placement, placements per II, and the history
    #: cost added per unit of overuse.
    MAX_ROUNDS = 16
    RESTARTS = 6
    HISTORY_INCREMENT = 2.0

    def __init__(self, max_ii: int | None = None, seed: int | None = None,
                 incremental: bool = True) -> None:
        super().__init__(max_ii, seed)
        self.incremental = incremental

    def prepare(self, dfg: DFG, arch: Architecture, rng,
                **kwargs) -> SearchTables:
        return SearchTables(dfg, arch)

    def attempts_per_ii(self, ii: int, context) -> int:
        return self.RESTARTS

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng,
                   context: SearchTables) -> Mapping | None:
        return self._try_ii(context.at(ii), rng,
                            circuit_lateness=restart % 4)

    def _try_ii(self, tables: PlacementTables, rng,
                circuit_lateness: int = 0) -> Mapping | None:
        dfg, arch, ii = tables.dfg, tables.arch, tables.ii
        mrrg = MRRG(arch, ii)
        placement = initial_placement(tables, mrrg, rng,
                                      circuit_lateness=circuit_lateness)
        if placement is None:
            return None
        history = RoutingHistory.for_mrrg(mrrg)
        if self.incremental:
            return self._negotiate_incremental(dfg, arch, ii, mrrg,
                                               placement, history)
        return self._negotiate_full(dfg, arch, ii, placement, history)

    # ------------------------------------------------------------------
    def _negotiate_incremental(self, dfg: DFG, arch: Architecture, ii: int,
                               mrrg, placement, history: RoutingHistory
                               ) -> Mapping | None:
        """Dirty-net negotiation: untouched routes stay committed.

        One full routing pass, then up to ``MAX_ROUNDS - 1`` repair
        passes that rip up and reroute (in edge-index order, against the
        bumped history) only the routes crossing a slot that went
        overused — the same round budget the full rip-up oracle spends.
        """
        routes, failures = route_all_edges(dfg, mrrg, placement,
                                           history=history)
        if failures:
            return None   # timing-infeasible placement; restart
        for _round in range(self.MAX_ROUNDS):
            violations = mrrg.overuse()
            if not violations:
                mapping = Mapping(dfg=dfg, arch=arch, ii=ii,
                                  placement=dict(placement), routes=routes)
                mapping.validate()
                return mapping
            if _round == self.MAX_ROUNDS - 1:
                break     # round budget spent
            # Negotiate: penalize overused slots, rip up the nets on them.
            for resource, slot, used, cap in violations:
                history.add(resource, slot,
                            self.HISTORY_INCREMENT * (used - cap))
            hot = mrrg.overused_indices()
            dirty = [index for index, route in routes.items()
                     if mrrg.route_touches(route, hot)]
            for index in dirty:
                mrrg.uncommit_route(routes[index])
            for index in sorted(dirty):
                route = route_one_edge(dfg, mrrg, placement, index,
                                       history=history)
                if route is None:
                    return None
                routes[index] = route
        return None

    # ------------------------------------------------------------------
    def _negotiate_full(self, dfg: DFG, arch: Architecture, ii: int,
                        placement, history: RoutingHistory
                        ) -> Mapping | None:
        """The pre-incremental oracle: rip up every net each round."""
        for _round in range(self.MAX_ROUNDS):
            # Rip up: fresh MRRG with only the placement committed.
            mrrg = MRRG(arch, ii)
            for node_id, (fu_id, cycle) in placement.items():
                mrrg.place_node(node_id, fu_id, cycle)
            routes, failures = route_all_edges(dfg, mrrg, placement,
                                               history=history)
            if failures:
                return None   # timing-infeasible placement; restart
            violations = mrrg.overuse()
            if not violations:
                mapping = Mapping(dfg=dfg, arch=arch, ii=ii,
                                  placement=dict(placement), routes=routes)
                mapping.validate()
                return mapping
            # Negotiate: penalize overused slots in future rounds.
            for resource, slot, used, cap in violations:
                history.add(resource, slot,
                            self.HISTORY_INCREMENT * (used - cap))
        return None


register_mapper(
    "pathfinder", PathFinderMapper,
    description="negotiated congestion routing (McMurchie-Ebeling, "
                "as adapted for CGRAs by Morpher)",
)
