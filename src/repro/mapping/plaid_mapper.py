"""The Plaid mapper: hierarchical motif-aware mapping (Algorithm 2).

The mapper operates on the hierarchical DFG: whole motifs are placed onto
PCUs using flexible schedule templates (Section 5.2), singleton nodes onto
individual FUs.  The flow follows the paper:

1. motifs are sorted by data dependency (critical groups first);
2. each is greedily placed on the candidate with the least routing cost;
3. if the mapping is not valid, a simulated-annealing loop repeatedly
   unmaps one group, picks a random placement candidate, evaluates every
   schedule template with Dijkstra-routed operands, and keeps the best —
   occasionally accepting a worse state to escape local minima;
4. the II is incremented when the time budget runs out.

On Plaid-ML fabrics (hardwired motif PCUs) collective groups may only land
on PCUs hardwired for their kind — pattern edges there are free wires —
while general PCUs accept anything.

The II escalation (step 4) and stats live in the shared
:class:`~repro.mapping.engine.MappingEngine`; this class is the per-II
strategy, with one restart per candidate motif decomposition.
"""

from __future__ import annotations

import math

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.arch.specialize import hardwired_motif_kinds
from repro.errors import MappingError
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import mapping_cost, modulo_asap, schedule_horizon
from repro.mapping.engine import MapperStrategy, MRRGLease, register_mapper
from repro.mapping.router import route_edge, transport_latency_table
from repro.motifs.hierarchy import HierarchicalDFG, build_hierarchy
from repro.motifs.schedules import schedule_templates
from repro.motifs.types import MotifKind

#: FUs per PCU (3 ALUs + ALSU); ALU slot s of PCU u is FU ``u*4 + s``.
_FUS_PER_PCU = 4


class PlaidMapper(MapperStrategy):
    """Motif-aware hierarchical mapper for Plaid fabrics."""

    name = "plaid"
    failure_label = "Plaid mapper"

    def __init__(self, moves_per_ii: int = 600, start_temp: float = 6.0,
                 cooling: float = 0.99, max_ii: int | None = None,
                 seed: int | None = None,
                 motif_seed: int | None = None) -> None:
        self.moves_per_ii = moves_per_ii
        self.start_temp = start_temp
        self.cooling = cooling
        self.max_ii = max_ii
        self.seed = seed
        self.motif_seed = motif_seed

    # ------------------------------------------------------------------
    def map(self, dfg: DFG, arch: Architecture,
            hierarchy: HierarchicalDFG | None = None) -> Mapping:
        """Map ``dfg`` (motif-decomposed) onto a Plaid fabric."""
        return super().map(dfg, arch, hierarchy=hierarchy)

    def prepare(self, dfg: DFG, arch: Architecture, rng,
                hierarchy: HierarchicalDFG | None = None):
        if arch.style != "plaid":
            raise MappingError(
                f"PlaidMapper targets Plaid fabrics, not {arch.style}"
            )
        hardwired = hardwired_motif_kinds(arch)
        if hierarchy is not None:
            hierarchies = [hierarchy]
        else:
            # Algorithm 1 is stochastic; a different decomposition often
            # relieves structural congestion, so failures retry with fresh
            # motif seeds before giving up.
            base = self.motif_seed if self.motif_seed is not None else 11
            hierarchies = [
                build_hierarchy(dfg, seed=base + 12 * offset)
                for offset in range(3)
            ]
        if hardwired is not None:
            hierarchies = [
                demote_for_hardwired(h, hardwired) for h in hierarchies
            ]
        return (hierarchies, hardwired)

    def attempts_per_ii(self, ii: int, context) -> int:
        hierarchies, _hardwired = context
        return len(hierarchies)

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng, lease: MRRGLease,
                   context) -> Mapping | None:
        hierarchies, hardwired = context
        state = _State(dfg, arch, hierarchies[restart], ii,
                       hardwired, rng, mrrg=lease.fresh())
        return self._solve(state)

    # ------------------------------------------------------------------
    def _solve(self, state: "_State") -> Mapping | None:
        return solve_state(state, self.moves_per_ii, self.start_temp,
                           self.cooling)


def solve_state(state: "_State", moves: int, start_temp: float,
                cooling: float) -> Mapping | None:
    """Greedy placement plus annealing repair over a mapping state.

    This is Algorithm 2's search loop; the generic SA baseline reuses it
    over a singleton (motif-blind) hierarchy.
    """
    # Lines 1-4: dependency-sorted greedy placement.
    for group in state.order:
        if not state.place_group_best(group):
            state.unplaced.add(group)
    # Lines 5-11: annealing repair loop, with reheating ("like typical
    # simulated annealing, we can occasionally accept a worse movement to
    # overcome the local minimum").
    temperature = start_temp
    cost = state.cost()
    best_cost = cost
    stall = 0
    for _move in range(moves):
        if state.is_complete() and state.mrrg.is_legal():
            break
        group = state.pick_victim()
        if group is None:
            break
        saved = state.unmap_group(group)
        placed = state.place_group_random()
        new_cost = state.cost()
        delta = new_cost - cost
        accept = placed and (
            delta <= 0
            or state.rng.random() < math.exp(
                -delta / max(temperature, 1e-6))
        )
        if accept:
            cost = new_cost
        else:
            state.restore_group(group, saved, placed)
            cost = state.cost()
        if cost < best_cost - 1e-9:
            best_cost = cost
            stall = 0
        else:
            stall += 1
            if stall >= 150:
                temperature = start_temp
                stall = 0
        temperature *= cooling
    if not state.is_complete():
        return None
    if not state.mrrg.is_legal():
        return None
    mapping = Mapping(dfg=state.dfg, arch=state.arch, ii=state.ii,
                      placement=dict(state.placement),
                      routes=dict(state.routes))
    mapping.validate()
    return mapping


def demote_for_hardwired(hierarchy: HierarchicalDFG,
                         hardwired: dict[int, "MotifKind"]
                         ) -> HierarchicalDFG:
    """Adapt a hierarchy to a Plaid-ML fabric.

    Hardwired PCUs have no local router, so only motifs matching some
    PCU's hardwired pattern can execute collectively; two-node motifs and
    unmatched three-node motifs are demoted to standalone nodes (which
    still execute on any ALU over the fully reconfigurable global
    datapath, per Section 4.4).
    """
    from repro.motifs.hierarchy import HierarchyEdge
    from repro.motifs.types import Motif

    available_kinds = set(hardwired.values())
    groups: list[Motif] = []
    for motif in hierarchy.groups:
        if motif.is_collective and motif.kind not in available_kinds:
            groups.extend(
                Motif(MotifKind.SINGLETON, (node_id,))
                for node_id in motif.nodes
            )
        else:
            groups.append(motif)
    node_to_group: dict[int, int] = {}
    for index, motif in enumerate(groups):
        for node_id in motif.nodes:
            node_to_group[node_id] = index
    dfg = hierarchy.dfg
    inter_edges = []
    for edge in dfg.edges:
        src_group = node_to_group[edge.src]
        dst_group = node_to_group[edge.dst]
        if edge.is_ordering or src_group != dst_group or edge.distance > 0:
            inter_edges.append(HierarchyEdge(src_group, dst_group, edge))
    demoted = HierarchicalDFG(dfg=dfg, groups=groups,
                              node_to_group=node_to_group,
                              inter_edges=inter_edges)
    demoted.validate()
    return demoted


def singleton_hierarchy(dfg: DFG) -> HierarchicalDFG:
    """A motif-blind hierarchy: every node is its own group.

    Generic mappers use this view — they see the same fabric but cannot
    exploit collective motif placement, which is exactly the comparison of
    the paper's Figure 18.
    """
    from repro.motifs.hierarchy import HierarchyEdge
    from repro.motifs.types import Motif

    groups = [Motif(MotifKind.SINGLETON, (node.node_id,))
              for node in dfg.nodes]
    node_to_group = {
        node.node_id: index for index, node in enumerate(dfg.nodes)
    }
    inter_edges = [
        HierarchyEdge(node_to_group[edge.src], node_to_group[edge.dst], edge)
        for edge in dfg.edges
    ]
    hierarchy = HierarchicalDFG(dfg=dfg, groups=groups,
                                node_to_group=node_to_group,
                                inter_edges=inter_edges)
    hierarchy.validate()
    return hierarchy


class _State:
    """Mutable mapping state for one II attempt."""

    def __init__(self, dfg: DFG, arch: Architecture,
                 hierarchy: HierarchicalDFG, ii: int,
                 hardwired: dict[int, MotifKind] | None, rng,
                 mrrg: MRRG | None = None) -> None:
        self.dfg = dfg
        self.arch = arch
        self.hierarchy = hierarchy
        self.ii = ii
        self.hardwired = hardwired
        self.rng = rng
        self.mrrg = mrrg if mrrg is not None else MRRG(arch, ii)
        self.placement: dict[int, tuple[int, int]] = {}
        self.routes: dict[int, Route] = {}
        self.unplaced: set[int] = set()
        self.group_of_edge: dict[int, tuple[int, int]] = {}
        self.order = hierarchy.dependency_order()
        self.horizon = schedule_horizon(dfg, ii)
        asap = modulo_asap(dfg, ii)
        self.asap = asap if asap is not None else {
            node.node_id: 0 for node in dfg.nodes
        }
        self.num_pcus = arch.rows * arch.cols
        self._latency = transport_latency_table(arch)
        self._edge_list = dfg.edges
        num_groups = len(hierarchy.groups)
        self._incident_groups: dict[int, list[int]] = {
            g: [] for g in range(num_groups)
        }
        for index, edge in enumerate(self._edge_list):
            sg = hierarchy.group_of(edge.src)
            dg = hierarchy.group_of(edge.dst)
            self.group_of_edge[index] = (sg, dg)
            self._incident_groups[sg].append(index)
            if dg != sg:
                self._incident_groups[dg].append(index)
        # Static per-group views the candidate scorers read instead of
        # DFGEdge objects: incident edges as (src, dst, distance * II,
        # is_ordering) in incidence order, and the in-edges arriving from
        # other groups as (src, distance * II, is_ordering).
        edge_rows = [(edge.src, edge.dst, edge.distance * ii,
                      edge.is_ordering) for edge in self._edge_list]
        self._group_edges = {
            g: tuple(edge_rows[index] for index in indices)
            for g, indices in self._incident_groups.items()
        }
        self._group_in_edges = {
            g: tuple(
                (edge.src, edge.distance * ii, edge.is_ordering)
                for node_id in hierarchy.groups[g].nodes
                for edge in dfg.in_edges(node_id)
                if hierarchy.group_of(edge.src) != g
            )
            for g in range(num_groups)
        }
        self._group_asap = [
            max((self.asap.get(nid, 0) for nid in motif.nodes), default=0)
            for motif in hierarchy.groups
        ]
        # self.routes only ever holds data-edge indices, so completeness
        # needs a count plus the ordering edges' timing.
        self._ordering_edges = tuple(
            edge for edge in self._edge_list if edge.is_ordering)
        self._num_data_edges = len(self._edge_list) - len(self._ordering_edges)
        #: group -> list of (node_id, fu_id, cycle) commitments.
        self.group_spots: dict[int, list[tuple[int, int, int]]] = {}
        self._last_failed: int | None = None

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def _alu_fu(self, pcu: int, slot: int) -> int:
        return pcu * _FUS_PER_PCU + slot

    def _alsu_fu(self, pcu: int) -> int:
        return pcu * _FUS_PER_PCU + 3

    def _pcus_for_kind(self, kind: MotifKind) -> list[int]:
        if self.hardwired is None:
            return list(range(self.num_pcus))
        if kind in (MotifKind.FAN_IN, MotifKind.FAN_OUT, MotifKind.UNICAST):
            matching = [p for p, k in self.hardwired.items() if k is kind]
            return matching or list(range(self.num_pcus))
        return list(range(self.num_pcus))

    def _singleton_candidates(self, group: int):
        node = self.dfg.node(self.hierarchy.groups[group].nodes[0])
        fus = [fu.fu_id for fu in self.arch.fus_supporting(node.op)]
        self.rng.shuffle(fus)
        return fus

    # ------------------------------------------------------------------
    # Group placement
    # ------------------------------------------------------------------
    def place_group_best(self, group: int) -> bool:
        """Greedy (Algorithm 2 lines 3-4): rank candidates by a cheap
        routing estimate, then commit the best candidate that actually
        routes; candidates are (PCU, template, start) for motifs and
        (FU, cycle) for singletons."""
        motif = self.hierarchy.groups[group]
        asap = self._group_asap[group]
        if motif.is_collective:
            candidates = []
            templates = schedule_templates(motif.kind)[:8]
            for pcu in self._pcus_for_kind(motif.kind):
                earliest = max(self._earliest_start(group, pcu), asap)
                window = min(self.ii, 4)
                for template in templates:
                    for start in range(earliest,
                                       min(earliest + window, self.horizon)):
                        spots = self._collective_spots(group, pcu, template,
                                                       start)
                        if spots is None:
                            continue
                        estimate = self._estimate(group, spots)
                        if estimate == float("inf"):
                            continue
                        candidates.append((estimate + 0.05 * start, spots))
        else:
            candidates = self._scored_singletons(group, asap)
        candidates.sort(key=lambda c: c[0])
        return self._commit_best(group, [c[1] for c in candidates[:6]])

    def _scored_singletons(self, group: int, asap: int):
        """(score, spots) for the first three free, timing-feasible cycles
        of each candidate FU, scored exactly like :meth:`_estimate`.

        Against placed neighbours every incident edge's span is
        ``const + sign * cycle``, so each FU's latencies and feasible
        cycle window are worked out once and the cycle loop only checks
        the FU slot and sums the same terms in the same edge order.
        """
        node_id = self.hierarchy.groups[group].nodes[0]
        placement = self.placement
        latency = self._latency
        ii = self.ii
        fu_nodes = self.mrrg._fu_nodes
        edges = self._group_edges[group]
        candidates = []
        for fu_id in self._singleton_candidates(group):
            lo = max(self._earliest_start_fu(group, fu_id), asap)
            stop = min(lo + 2 * ii, self.horizon)
            terms = []      # (lat, const, sign) of each data edge
            for src, dst, dist_ii, is_ordering in edges:
                if src != node_id:              # placed producer -> node
                    spot = placement.get(src)
                    if spot is None:
                        continue
                    lat = latency[spot[0]][fu_id]
                    const, sign = dist_ii - spot[1], 1
                elif dst != node_id:            # node -> placed consumer
                    spot = placement.get(dst)
                    if spot is None:
                        continue
                    lat = latency[fu_id][spot[0]]
                    const, sign = spot[1] + dist_ii, -1
                else:                           # self recurrence
                    lat = latency[fu_id][fu_id]
                    const, sign = dist_ii, 0
                need = 1 if is_ordering else lat
                if sign > 0:
                    lo = max(lo, need - const)
                elif sign < 0:
                    stop = min(stop, const - need + 1)
                elif const < need:
                    stop = lo
                if not is_ordering:
                    terms.append((lat, const, sign))
            found = 0
            for cycle in range(lo, stop):
                if (fu_id, cycle % ii) in fu_nodes:
                    continue
                score = 0.0
                for lat, const, sign in terms:
                    # Prefer short wires and tight schedules.
                    score += 2.0 * lat + 0.5 * (const + sign * cycle - lat)
                candidates.append((score + 0.05 * cycle,
                                   [(node_id, fu_id, cycle)]))
                found += 1
                if found >= 3:
                    break
        return candidates

    def place_group_random(self) -> bool:
        """Lines 7-11: random placement candidate for the unmapped victim,
        evaluating every schedule template and keeping the best."""
        if self._last_failed is None:
            return False
        group = self._last_failed
        motif = self.hierarchy.groups[group]
        if not motif.is_collective:
            return self.place_group_best(group)
        pcus = self._pcus_for_kind(motif.kind)
        pcu = self.rng.choice(pcus)              # line 7: random candidate
        earliest = max(self._earliest_start(group, pcu),
                       self._group_asap[group])
        span = max(1, min(2 * self.ii, self.horizon - earliest))
        start0 = earliest + self.rng.randrange(span)
        candidates = []
        for template in schedule_templates(motif.kind):   # line 9
            for start in (start0, start0 + 1, earliest):
                spots = self._collective_spots(group, pcu, template, start)
                if spots is None:
                    continue
                estimate = self._estimate(group, spots)
                if estimate != float("inf"):
                    candidates.append((estimate, spots))
        candidates.sort(key=lambda c: c[0])
        return self._commit_best(group,
                                 [c[1] for c in candidates[:4]])   # line 11

    def _commit_best(self, group: int, spot_lists) -> bool:
        """Trial-route each candidate, then commit the one with the lowest
        full cost — congestion included, so repair moves actually relieve
        overused wires.

        A trial rolls back its own placements and routes, but its
        negotiation may have re-routed other groups' committed routes
        (residue).  When neither the winner's trial nor any later one left
        residue, the state is exactly as it was before the winner's trial,
        so the winner's spots are re-placed and its trial routes replayed;
        otherwise the winner is placed and routed again from scratch.
        """
        best = None
        best_total = float("inf")
        replayable = False
        for spots in spot_lists:
            total, routes, residue = self._commit_spots(group, spots,
                                                        keep=False)
            if total is not None and total < best_total:
                best_total = total
                best = (spots, routes)
                replayable = not residue
            elif residue:
                replayable = False
        if best is None:
            return False
        spots, routes = best
        if not replayable:
            return self._commit_spots(group, spots, keep=True)[0] is not None
        self._place_spots(spots)
        for route in routes.values():
            self.mrrg.commit_route(route)
        self._adopt(group, spots, routes)
        return True

    # ------------------------------------------------------------------
    def _collective_spots(self, group, pcu, template, start):
        motif = self.hierarchy.groups[group]
        spots = []
        for role, node_id in enumerate(motif.nodes):
            fu_id = self._alu_fu(pcu, template.slots[role])
            cycle = start + template.offsets[role]
            if cycle >= self.horizon or start < 0:
                return None
            if not self.mrrg.fu_free(fu_id, cycle):
                return None
            spots.append((node_id, fu_id, cycle))
        return spots

    def _estimate(self, group: int, spots) -> float:
        """Routing-free candidate score: transport slack and wire length
        to already-placed neighbours; infinity when timing-infeasible."""
        trial = {node_id: (fu, cyc) for node_id, fu, cyc in spots}
        placement = self.placement
        latency = self._latency
        score = 0.0
        for src, dst, dist_ii, is_ordering in self._group_edges[group]:
            src_spot = trial.get(src) or placement.get(src)
            dst_spot = trial.get(dst) or placement.get(dst)
            if src_spot is None or dst_spot is None:
                continue
            src_fu, src_cycle = src_spot
            dst_fu, dst_cycle = dst_spot
            span = dst_cycle + dist_ii - src_cycle
            if is_ordering:
                if span < 1:
                    return float("inf")
                continue
            lat = latency[src_fu][dst_fu]
            if span < lat:
                return float("inf")
            # Prefer short wires and tight schedules.
            score += 2.0 * lat + 0.5 * (span - lat)
        return score

    # ------------------------------------------------------------------
    def _earliest_start(self, group: int, pcu: int) -> int:
        """Earliest start cycle given placed predecessors of the group."""
        return self._earliest_start_fu(group, self._alu_fu(pcu, 0))

    def _earliest_start_fu(self, group: int, fu_id: int) -> int:
        """Earliest cycle ``fu_id`` can consume every value arriving from
        placed nodes of other groups."""
        earliest = 0
        placement = self.placement
        latency = self._latency
        for src, dist_ii, is_ordering in self._group_in_edges[group]:
            spot = placement.get(src)
            if spot is not None:
                src_fu, src_cycle = spot
                lat = 1 if is_ordering else latency[src_fu][fu_id]
                earliest = max(earliest, src_cycle + lat - dist_ii)
        return earliest

    # ------------------------------------------------------------------
    # Committing (place + route or roll back)
    # ------------------------------------------------------------------
    def _commit_spots(self, group: int, spots, keep: bool = True
                      ) -> tuple[float | None, dict[int, Route], bool]:
        """Place nodes, route ready edges, score; roll back unless keep.

        Returns ``(total, new_routes, residue)``: the full cost (None when
        an edge failed to route), the group's routes after negotiation,
        and whether negotiation re-routed committed routes of other
        groups — changes a rollback does not undo.
        """
        self._place_spots(spots)
        new_routes: dict[int, Route] = {}
        failed = 0
        for index in self._incident_groups[group]:
            edge = self._edge_list[index]
            if edge.is_ordering:
                if not self._ordering_ok(edge):
                    failed += 1
                continue
            if edge.src not in self.placement \
                    or edge.dst not in self.placement:
                continue
            route = self._route_index(index)
            if route is None:
                failed += 1
            else:
                new_routes[index] = route
        residue = failed == 0 and self._negotiate(new_routes)
        cost = sum(len(route.steps) for route in new_routes.values())
        total = 1000.0 * failed + 100.0 * self.mrrg.total_overuse() + cost
        if keep and failed == 0:
            self._adopt(group, spots, new_routes)
            return total, new_routes, residue
        # Roll back.
        for route in new_routes.values():
            self.mrrg.uncommit_route(route)
        for node_id, fu_id, cycle in spots:
            self.mrrg.unplace_node(node_id, fu_id, cycle)
            del self.placement[node_id]
        if keep or failed:
            return None, new_routes, residue
        return total, new_routes, residue

    def _place_spots(self, spots) -> None:
        for node_id, fu_id, cycle in spots:
            self.placement[node_id] = (fu_id, cycle)
            self.mrrg.place_node(node_id, fu_id, cycle)

    def _adopt(self, group: int, spots, routes: dict[int, Route]) -> None:
        """Record a placed, routed group as mapped."""
        self.group_spots[group] = list(spots)
        self.routes.update(routes)
        self.unplaced.discard(group)

    def _route_index(self, index: int) -> Route | None:
        edge = self._edge_list[index]
        src_fu, src_cycle = self.placement[edge.src]
        dst_fu, dst_cycle = self.placement[edge.dst]
        arrival = dst_cycle + edge.distance * self.ii
        return route_edge(self.mrrg, edge.src, src_fu, src_cycle,
                          dst_fu, arrival)

    def _negotiate(self, new_routes: dict[int, Route],
                   rounds: int = 2) -> bool:
        """Mini rip-up-and-reroute: slack-rich routes committed early can
        squat on wires that later, tighter routes have no alternative to.
        Every committed route touching an overused slot — whichever group
        it belongs to — is rerouted against the now-visible congestion.

        Returns True when a route of ``self.routes`` (not one of
        ``new_routes``) was ripped up: residue a trial rollback leaves.
        """
        residue = False
        for _round in range(rounds):
            violations = self.mrrg.overuse()
            if not violations:
                return residue
            hot = {(res, slot) for res, slot, _u, _c in violations}
            candidates = list(new_routes.items()) + [
                (index, route) for index, route in self.routes.items()
                if index not in new_routes
            ]
            for index, route in candidates:
                if not any((s.resource, self.mrrg.slot(s.cycle)) in hot
                           for s in route.steps):
                    continue
                self.mrrg.uncommit_route(route)
                if index not in new_routes:
                    residue = True
                redone = self._route_index(index)
                if redone is None:
                    self.mrrg.commit_route(route)
                    continue
                if index in new_routes or index not in self.routes:
                    new_routes[index] = redone
                else:
                    self.routes[index] = redone
        return residue

    def _ordering_ok(self, edge) -> bool:
        if edge.src not in self.placement or edge.dst not in self.placement:
            return True
        _sf, src_cycle = self.placement[edge.src]
        _df, dst_cycle = self.placement[edge.dst]
        return dst_cycle + edge.distance * self.ii >= src_cycle + 1

    # ------------------------------------------------------------------
    # Annealing moves
    # ------------------------------------------------------------------
    def pick_victim(self) -> int | None:
        if self.unplaced:
            # First re-place anything missing; but unmapping a placed
            # neighbour sometimes frees the needed spot.
            if self.rng.random() < 0.7:
                victim = self.rng.choice(sorted(self.unplaced))
                self._last_failed = victim
                return victim
        placed_groups = [g for g in self.group_spots]
        if not placed_groups:
            return None
        # Prefer groups whose routes sit on overused resource slots: they
        # are the ones a re-placement can actually relieve.
        congested = self._congested_groups()
        if congested and self.rng.random() < 0.75:
            victim = self.rng.choice(congested)
        else:
            victim = self.rng.choice(placed_groups)
        self._last_failed = victim
        return victim

    def _congested_groups(self) -> list[int]:
        hot = {
            (resource, slot)
            for resource, slot, _u, _c in self.mrrg.overuse()
        }
        if not hot:
            return []
        groups: set[int] = set()
        for index, route in self.routes.items():
            if any((step.resource, self.mrrg.slot(step.cycle)) in hot
                   for step in route.steps):
                src_group, dst_group = self.group_of_edge[index]
                if src_group in self.group_spots:
                    groups.add(src_group)
                if dst_group in self.group_spots:
                    groups.add(dst_group)
        return sorted(groups)

    def unmap_group(self, group: int):
        """Remove a group's nodes and every route touching them."""
        saved_spots = self.group_spots.pop(group, [])
        saved_routes: dict[int, Route] = {}
        for index in self._incident_groups[group]:
            route = self.routes.pop(index, None)
            if route is not None:
                saved_routes[index] = route
                self.mrrg.uncommit_route(route)
        for node_id, fu_id, cycle in saved_spots:
            self.mrrg.unplace_node(node_id, fu_id, cycle)
            self.placement.pop(node_id, None)
        self.unplaced.add(group)
        self._last_failed = group
        return (saved_spots, saved_routes)

    def restore_group(self, group: int, saved, newly_placed: bool) -> None:
        """Undo an annealing move: put the group back where it was."""
        if newly_placed:
            self.unmap_group(group)
        saved_spots, saved_routes = saved
        if not saved_spots:
            return
        ok = all(self.mrrg.fu_free(fu, cyc) for _n, fu, cyc in saved_spots)
        if not ok:
            return    # stays unplaced; annealing continues
        for node_id, fu_id, cycle in saved_spots:
            self.placement[node_id] = (fu_id, cycle)
            self.mrrg.place_node(node_id, fu_id, cycle)
        for index, route in saved_routes.items():
            edge = self._edge_list[index]
            if edge.src in self.placement and edge.dst in self.placement:
                self.routes[index] = route
                self.mrrg.commit_route(route)
        self.group_spots[group] = saved_spots
        self.unplaced.discard(group)

    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        if self.unplaced or len(self.routes) != self._num_data_edges:
            return False
        return all(self._ordering_ok(edge) for edge in self._ordering_edges)

    def cost(self) -> float:
        missing = self._num_data_edges - len(self.routes)
        return mapping_cost(self.mrrg, self.routes, missing) \
            + 500.0 * len(self.unplaced)


register_mapper(
    "plaid", PlaidMapper,
    description="motif-aware hierarchical mapping with flexible schedule "
                "templates (the paper's Algorithm 2)",
)
