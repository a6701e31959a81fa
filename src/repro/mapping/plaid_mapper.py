"""The Plaid mapper: hierarchical motif-aware mapping (Algorithm 2).

The mapper operates on the hierarchical DFG: whole motifs are placed onto
PCUs using flexible schedule templates (Section 5.2), singleton nodes onto
individual FUs.  The flow follows the paper:

1. motifs are sorted by data dependency (critical groups first);
2. each is greedily placed on the candidate with the least routing cost:
   candidates are ranked by a routing-free estimate, and the first one
   whose operands all route with Dijkstra is committed;
3. if the mapping is not valid, a simulated-annealing loop repeatedly
   unmaps one group, picks a random placement candidate, ranks every
   schedule template the same way, and commits the first that routes —
   occasionally accepting a worse state to escape local minima;
4. the II is incremented when the time budget runs out.

Trying a candidate is pure: one that fails to route is rolled back
before it negotiates, so the next is tried against the state as it
was.  Only a committed candidate negotiates congestion, which may
re-route other groups' routes.

On Plaid-ML fabrics (hardwired motif PCUs) collective groups may only land
on PCUs hardwired for their kind — pattern edges there are free wires —
while general PCUs accept anything.

The II escalation (step 4) and stats live in the shared
:func:`~repro.mapping.engine.search` driver; this class is the per-II
strategy, with one restart per candidate motif decomposition.
"""

from __future__ import annotations

import math
from operator import itemgetter

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.arch.specialize import hardwired_motif_kinds
from repro.errors import MappingError
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import modulo_asap, schedule_horizon
from repro.mapping.engine import MapperStrategy, register_mapper
from repro.mapping.router import route_edge, transport_latency_table
from repro.motifs.hierarchy import HierarchicalDFG, build_hierarchy
from repro.motifs.schedules import schedule_templates
from repro.motifs.types import Motif, MotifKind

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
            if hardwired is not None:
                hierarchy = demote_for_hardwired(hierarchy, hardwired)
            return ([hierarchy], hardwired)
        # Algorithm 1 is stochastic; a different decomposition often
        # relieves structural congestion, so failures retry with fresh
        # motif seeds before giving up.
        base = self.motif_seed if self.motif_seed is not None else 11
        return (_Decompositions(dfg, [base + 12 * offset
                                      for offset in range(3)], hardwired),
                hardwired)

    def attempts_per_ii(self, ii: int, context) -> int:
        hierarchies, _hardwired = context
        return len(hierarchies)

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng, context) -> Mapping | None:
        hierarchies, hardwired = context
        state = _State(dfg, arch, hierarchies[restart], ii,
                       hardwired, rng)
        return self._solve(state)

    # ------------------------------------------------------------------
    def _solve(self, state: "_State") -> Mapping | None:
        return solve_state(state, self.moves_per_ii, self.start_temp,
                           self.cooling)


class _Decompositions:
    """The restarts' motif decompositions, one per motif seed, each
    built (and demoted for a hardwired fabric) the first time a restart
    asks for it: most searches map at their first restart."""

    def __init__(self, dfg: DFG, seeds: list[int],
                 hardwired: dict[int, MotifKind] | None) -> None:
        self._dfg = dfg
        self._seeds = seeds
        self._hardwired = hardwired
        self._built: dict[int, HierarchicalDFG] = {}

    def __len__(self) -> int:
        return len(self._seeds)

    def __getitem__(self, restart: int) -> HierarchicalDFG:
        hierarchy = self._built.get(restart)
        if hierarchy is None:
            hierarchy = build_hierarchy(self._dfg, seed=self._seeds[restart])
            if self._hardwired is not None:
                hierarchy = demote_for_hardwired(hierarchy, self._hardwired)
            self._built[restart] = hierarchy
        return hierarchy


def solve_state(state: "_State", moves: int, start_temp: float,
                cooling: float) -> Mapping | None:
    """Greedy placement plus annealing repair over a mapping state.

    This is Algorithm 2's search loop; the ``greedy`` mapper reuses it
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
    return HierarchicalDFG.from_groups(hierarchy.dfg, groups)


def singleton_hierarchy(dfg: DFG) -> HierarchicalDFG:
    """A motif-blind hierarchy: every node is its own group.

    The ``greedy`` mapper searches this view with :func:`solve_state`:
    the same fabric, without collective motif placement.
    """
    return HierarchicalDFG.from_groups(
        dfg, [Motif(MotifKind.SINGLETON, (node.node_id,))
              for node in dfg.nodes])


class _State:
    """Mutable mapping state for one II attempt.

    Candidate ranking reads tables instead of the DFG:

    - ``_group_edges[g]``: each edge incident to group ``g``, in
      incidence order, as ``(src_role, dst_role, src, dst,
      distance * II, is_ordering)``; a role is the endpoint's index in
      the group's nodes, or -1 for a node of another group.  Built once
      per state.
    - :meth:`_placed_links`: the same edges resolved against the current
      placement, built once per placement call.  Every span of a
      candidate is then ``const + sign * start`` (see :meth:`_span_terms`),
      so scoring a candidate is arithmetic over a few tuples.
    - ``_fu_ids``: each node's candidate FU ids, built on first use.

    The objective's wirelength term (``_wirelength``, the route steps of
    ``routes``) is kept up to date by :meth:`_put_route` and
    :meth:`_pop_route`, the only writers of ``routes``.
    """

    def __init__(self, dfg: DFG, arch: Architecture,
                 hierarchy: HierarchicalDFG, ii: int,
                 hardwired: dict[int, MotifKind] | None, rng) -> None:
        self.dfg = dfg
        self.arch = arch
        self.hierarchy = hierarchy
        self.ii = ii
        self.hardwired = hardwired
        self.rng = rng
        self.mrrg = MRRG(arch, ii)
        self.placement: dict[int, tuple[int, int]] = {}
        self.routes: dict[int, Route] = {}
        self._wirelength = 0
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
        self._group_edges = {}
        for g, indices in self._incident_groups.items():
            role = {nid: r for r, nid in enumerate(hierarchy.groups[g].nodes)}
            self._group_edges[g] = tuple(
                (role.get(edge.src, -1), role.get(edge.dst, -1), edge.src,
                 edge.dst, edge.distance * ii, edge.is_ordering)
                for edge in (self._edge_list[index] for index in indices)
            )
        self._group_asap = [
            max((self.asap.get(nid, 0) for nid in motif.nodes), default=0)
            for motif in hierarchy.groups
        ]
        self._fu_ids: dict[int, tuple[int, ...]] = {}
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
    def _pcus_for_kind(self, kind: MotifKind) -> list[int]:
        if self.hardwired is None:
            return list(range(self.num_pcus))
        if kind in (MotifKind.FAN_IN, MotifKind.FAN_OUT, MotifKind.UNICAST):
            matching = [p for p, k in self.hardwired.items() if k is kind]
            return matching or list(range(self.num_pcus))
        return list(range(self.num_pcus))

    def _singleton_candidates(self, group: int) -> list[int]:
        """The node's candidate FU ids in a fresh random order."""
        node_id = self.hierarchy.groups[group].nodes[0]
        fu_ids = self._fu_ids.get(node_id)
        if fu_ids is None:
            fu_ids = self._fu_ids[node_id] = tuple(
                fu.fu_id for fu in
                self.arch.fus_supporting(self.dfg.node(node_id).op))
        fus = list(fu_ids)
        self.rng.shuffle(fus)
        return fus

    def _placed_links(self, group: int) -> list[tuple]:
        """The group's incident edges against the current placement.

        One ``(src_role, dst_role, fu, const, is_ordering)`` row per edge
        whose endpoints are all in the group or placed, in incidence
        order.  An edge from a placed producer has ``src_role`` -1,
        ``fu`` the producer's FU and ``const = distance * II - cycle``;
        one to a placed consumer has ``dst_role`` -1 and ``const = cycle
        + distance * II``; an edge inside the group keeps ``const =
        distance * II``.
        """
        placement = self.placement
        links = []
        for src_role, dst_role, src, dst, dist_ii, is_ordering \
                in self._group_edges[group]:
            if src_role < 0:
                spot = placement.get(src)
                if spot is not None:
                    links.append((-1, dst_role, spot[0], dist_ii - spot[1],
                                  is_ordering))
            elif dst_role < 0:
                spot = placement.get(dst)
                if spot is not None:
                    links.append((src_role, -1, spot[0], spot[1] + dist_ii,
                                  is_ordering))
            else:
                links.append((src_role, dst_role, -1, dist_ii, is_ordering))
        return links

    def _earliest(self, links, fu_id: int) -> int:
        """Earliest cycle ``fu_id`` can consume every value arriving from
        placed nodes of other groups."""
        latency = self._latency
        earliest = 0
        for src_role, _dst_role, src_fu, const, is_ordering in links:
            if src_role < 0:
                need = 1 if is_ordering else latency[src_fu][fu_id]
                if need - const > earliest:
                    earliest = need - const
        return earliest

    def _span_terms(self, links, fus, offsets):
        """Resolve ``links`` for one placement shape: role ``r`` on FU
        ``fus[r]`` at cycle ``start + offsets[r]``.

        Returns ``(lo, stop, terms)``: every start in ``[lo, stop)`` is
        at or after cycle 0, keeps the shape inside the horizon and
        meets every edge's timing (a data edge needs a span of its
        transport latency, an ordering edge of 1); ``terms`` holds
        ``(lat, const, sign)`` per data edge, in link order, with span
        ``const + sign * start``.  None when an edge inside the group
        cannot meet its timing at any start.
        """
        latency = self._latency
        lo = 0
        stop = self.horizon - max(offsets)
        terms = []
        for src_role, dst_role, fu, const, is_ordering in links:
            if src_role < 0:                    # placed producer -> group
                lat = latency[fu][fus[dst_role]]
                const += offsets[dst_role]
                sign = 1
                need = 1 if is_ordering else lat
                if need - const > lo:
                    lo = need - const
            elif dst_role < 0:                  # group -> placed consumer
                lat = latency[fus[src_role]][fu]
                const -= offsets[src_role]
                sign = -1
                need = 1 if is_ordering else lat
                if const - need + 1 < stop:
                    stop = const - need + 1
            else:                               # inside the group
                lat = latency[fus[src_role]][fus[dst_role]]
                const += offsets[dst_role] - offsets[src_role]
                sign = 0
                if const < (1 if is_ordering else lat):
                    return None
            if not is_ordering:
                terms.append((lat, const, sign))
        return lo, stop, terms

    # ------------------------------------------------------------------
    # Group placement
    # ------------------------------------------------------------------
    def place_group_best(self, group: int) -> bool:
        """Greedy (Algorithm 2 lines 3-4): rank candidates by a cheap
        routing estimate (:meth:`_best_candidates`), then commit the
        first of the best six whose edges all route."""
        candidates = self._best_candidates(group)
        candidates.sort(key=_score)
        return self._commit_best(group, [c[1] for c in candidates[:6]])

    def _best_candidates(self, group: int) -> list:
        """(score, spots) of every greedy candidate: (PCU, template,
        start) for motifs, (FU, cycle) for singletons.

        The group's links are resolved once; a motif's earliest start
        per PCU (from its slot-0 FU) opens a window of up to four starts
        tried under each of the kind's first eight templates.
        """
        motif = self.hierarchy.groups[group]
        asap = self._group_asap[group]
        links = self._placed_links(group)
        if not motif.is_collective:
            return self._scored_singletons(group, links, asap)
        candidates = []
        templates = schedule_templates(motif.kind)[:8]
        window = min(self.ii, 4)
        for pcu in self._pcus_for_kind(motif.kind):
            earliest = max(self._earliest(links, pcu * _FUS_PER_PCU), asap)
            starts = range(earliest, min(earliest + window, self.horizon))
            candidates += self._collective_candidates(
                group, links, pcu, templates, starts, 0.05)
        return candidates

    def _collective_candidates(self, group: int, links, pcu: int,
                               templates, starts, start_weight: float):
        """(score, spots) for each template, then each start, whose FU
        slots are free and whose timing holds; the score is the
        routing-free estimate (transport slack and wire length to placed
        neighbours) plus ``start_weight * start``.

        Per template the links become span terms once
        (:meth:`_span_terms`), so the start loop only checks FU slots
        and sums the same terms in the same edge order.
        """
        nodes = self.hierarchy.groups[group].nodes
        fu_nodes = self.mrrg._fu_nodes
        ii = self.ii
        base = pcu * _FUS_PER_PCU
        candidates = []
        for template in templates:
            fus = [base + slot for slot in template.slots]
            offsets = template.offsets
            resolved = self._span_terms(links, fus, offsets)
            if resolved is None:
                continue
            lo, stop, terms = resolved
            roles = tuple(zip(nodes, fus, offsets))
            for start in starts:
                if start < lo or start >= stop:
                    continue
                for _node_id, fu_id, offset in roles:
                    if (fu_id, (start + offset) % ii) in fu_nodes:
                        break
                else:
                    score = 0.0
                    for lat, const, sign in terms:
                        # Prefer short wires and tight schedules.
                        score += 2.0 * lat + 0.5 * (const + sign * start - lat)
                    candidates.append((
                        score + start_weight * start,
                        [(node_id, fu_id, start + offset)
                         for node_id, fu_id, offset in roles]))
        return candidates

    def _scored_singletons(self, group: int, links, asap: int):
        """(score, spots) for the first three free, timing-feasible cycles
        of each candidate FU, scored like a one-node motif.

        The cycle window opens at the FU's earliest start (or the ASAP
        time) and spans 2 * II cycles, cut by placed consumers.
        """
        node_id = self.hierarchy.groups[group].nodes[0]
        fu_nodes = self.mrrg._fu_nodes
        ii = self.ii
        candidates = []
        for fu_id in self._singleton_candidates(group):
            resolved = self._span_terms(links, (fu_id,), _ONE_ROLE)
            if resolved is None:
                continue
            lo, stop, terms = resolved
            lo = max(lo, asap)
            stop = min(stop, lo + 2 * ii)
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
        """Lines 7-11: random placement candidate for the unmapped victim
        (:meth:`_random_candidates`), committing the first of the best
        four that routes."""
        if self._last_failed is None:
            return False
        group = self._last_failed
        if not self.hierarchy.groups[group].is_collective:
            return self.place_group_best(group)
        candidates = self._random_candidates(group)
        candidates.sort(key=_score)
        return self._commit_best(group,
                                 [c[1] for c in candidates[:4]])   # line 11

    def _random_candidates(self, group: int) -> list:
        """(estimate, spots) of a motif at one random PCU (line 7) under
        every schedule template (line 9), at a random start, the cycle
        after it, and the earliest start."""
        motif = self.hierarchy.groups[group]
        links = self._placed_links(group)
        pcu = self.rng.choice(self._pcus_for_kind(motif.kind))
        earliest = max(self._earliest(links, pcu * _FUS_PER_PCU),
                       self._group_asap[group])
        span = max(1, min(2 * self.ii, self.horizon - earliest))
        start0 = earliest + self.rng.randrange(span)
        return self._collective_candidates(
            group, links, pcu, schedule_templates(motif.kind),
            (start0, start0 + 1, earliest), 0.0)

    def _commit_best(self, group: int, spot_lists) -> bool:
        """Commit the first candidate, in the given (estimate) order,
        whose every edge routes — Algorithm 2 lines 3-4 taken literally.

        Each trial is pure: a candidate that fails to route is rolled
        back exactly by :meth:`_commit_spots`, so the next candidate is
        tried against the state as it was before the call.
        """
        return any(self._commit_spots(group, spots) for spots in spot_lists)

    # ------------------------------------------------------------------
    # Committing (place + route or roll back)
    # ------------------------------------------------------------------
    def _commit_spots(self, group: int, spots) -> bool:
        """Place the group's nodes and route its ready edges; keep the
        group when every edge routed, else roll back.

        The rollback is exact: routing stops at the first failed edge,
        before any negotiation, so undoing the trial's own routes and
        placements restores the state as it was.  A kept group's
        negotiation — which may re-route other groups' routes — is part
        of the commit.
        """
        self._place_spots(spots)
        new_routes: dict[int, Route] = {}
        routed = True
        for index in self._incident_groups[group]:
            edge = self._edge_list[index]
            if edge.is_ordering:
                if not self._ordering_ok(edge):
                    routed = False
                    break
                continue
            if edge.src not in self.placement \
                    or edge.dst not in self.placement:
                continue
            route = self._route_index(index)
            if route is None:
                routed = False
                break
            new_routes[index] = route
        if routed:
            self._negotiate(new_routes)
            self.group_spots[group] = list(spots)
            for index, route in new_routes.items():
                self._put_route(index, route)
            self.unplaced.discard(group)
            return True
        for route in new_routes.values():
            self.mrrg.uncommit_route(route)
        for node_id, fu_id, cycle in spots:
            self.mrrg.unplace_node(node_id, fu_id, cycle)
            del self.placement[node_id]
        return False

    def _place_spots(self, spots) -> None:
        for node_id, fu_id, cycle in spots:
            self.placement[node_id] = (fu_id, cycle)
            self.mrrg.place_node(node_id, fu_id, cycle)

    def _put_route(self, index: int, route: Route) -> None:
        """Set ``routes[index]``, keeping the wirelength total."""
        old = self.routes.get(index)
        if old is not None:
            self._wirelength -= len(old.steps)
        self.routes[index] = route
        self._wirelength += len(route.steps)

    def _pop_route(self, index: int) -> Route | None:
        """Remove ``routes[index]`` if present, keeping the wirelength
        total."""
        route = self.routes.pop(index, None)
        if route is not None:
            self._wirelength -= len(route.steps)
        return route

    def _route_index(self, index: int) -> Route | None:
        edge = self._edge_list[index]
        src_fu, src_cycle = self.placement[edge.src]
        dst_fu, dst_cycle = self.placement[edge.dst]
        arrival = dst_cycle + edge.distance * self.ii
        return route_edge(self.mrrg, edge.src, src_fu, src_cycle,
                          dst_fu, arrival)

    def _negotiate(self, new_routes: dict[int, Route],
                   rounds: int = 2) -> None:
        """Mini rip-up-and-reroute for a group being committed:
        slack-rich routes committed early can squat on wires that later,
        tighter routes have no alternative to.  Every committed route
        touching a slot that was overused when the round began —
        whichever group it belongs to — is rerouted against the
        now-visible congestion.
        """
        mrrg = self.mrrg
        for _round in range(rounds):
            hot = mrrg.overused_indices()
            if not hot:
                return
            candidates = list(new_routes.items()) + [
                (index, route) for index, route in self.routes.items()
                if index not in new_routes
            ]
            for index, route in candidates:
                if not mrrg.route_touches(route, hot):
                    continue
                mrrg.uncommit_route(route)
                redone = self._route_index(index)
                if redone is None:
                    mrrg.commit_route(route)
                    continue
                if index in new_routes or index not in self.routes:
                    new_routes[index] = redone
                else:
                    self._put_route(index, redone)

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
        mrrg = self.mrrg
        hot = mrrg.overused_indices()
        if not hot:
            return []
        groups: set[int] = set()
        for index, route in self.routes.items():
            if mrrg.route_touches(route, hot):
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
            route = self._pop_route(index)
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
        self._place_spots(saved_spots)
        for index, route in saved_routes.items():
            edge = self._edge_list[index]
            if edge.src in self.placement and edge.dst in self.placement:
                self._put_route(index, route)
                self.mrrg.commit_route(route)
        self.group_spots[group] = saved_spots
        self.unplaced.discard(group)

    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        if self.unplaced or len(self.routes) != self._num_data_edges:
            return False
        return all(self._ordering_ok(edge) for edge in self._ordering_edges)

    def cost(self) -> float:
        """:func:`~repro.mapping.common.mapping_cost` of the state, from
        the kept wirelength total, plus 500 per unplaced group."""
        missing = self._num_data_edges - len(self.routes)
        return 1000.0 * missing + 100.0 * self.mrrg.total_overuse() \
            + 1.0 * self._wirelength + 500.0 * len(self.unplaced)


#: Sort key of a (score, spots) candidate.
_score = itemgetter(0)

#: The one role of a singleton "shape": offset 0 from its cycle.
_ONE_ROLE = (0,)


register_mapper(
    "plaid", PlaidMapper,
    description="motif-aware hierarchical mapping with flexible schedule "
                "templates (the paper's Algorithm 2)",
)
