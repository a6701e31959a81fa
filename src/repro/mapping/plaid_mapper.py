"""The Plaid mapper: hierarchical motif-aware mapping (Algorithm 2).

The mapper operates on the hierarchical DFG: whole motifs are placed onto
PCUs using flexible schedule templates (Section 5.2), singleton nodes onto
individual FUs.  The flow follows the paper:

1. motifs are sorted by data dependency (critical groups first);
2. each is greedily placed on the candidate with the least routing cost,
   by a routing-free estimate, and its operands are routed with
   Dijkstra;
3. if the mapping is not valid, a simulated-annealing loop repeatedly
   unmaps one group, picks a random placement candidate, scores every
   schedule template the same way, and commits the best —
   occasionally accepting a worse state to escape local minima;
4. the II is incremented when the time budget runs out.

Every listed candidate routes: each data edge's span lies between its
transport latency and ``MAX_TRANSPORT_CYCLES``, every such span routes
(congestion only raises a route's cost), and ordering edges get a span
of at least 1.  So the best-scoring candidate is committed outright.
Committing negotiates congestion, which may re-route other groups'
routes.

Decided moves.  An annealing move lists its victim's candidates before
it rips anything up, with the victim's own FU slots counted as free
(nothing else a listing reads is the victim's), so its RNG draws are
those of listing after the rip-up.  Two outcomes decide the move:

- the victim has no candidate (most moves: an unplaced singleton with
  no free, timing-feasible slot in any candidate FU's window, or a
  motif with none at its random PCU);
- the best candidate is the victim's own spots, and its routes provably
  come back step for step: every routed incident edge spans one cycle
  (a bypass or single-state route, built from its endpoints alone) in
  a legal MRRG, or the victim's stamp equals the state's epoch.  The
  stamp is set by a kept commit of the group that found no overused
  slot; the epoch moves with every change to the placement or to a
  route's steps (different spots, a recommit that re-routes
  differently, a negotiation reroute that differs).  So the MRRG holds
  what it held after that commit, re-routing in incident order against
  it returns the same steps, and negotiation finds nothing to do.

Either way the full rip-up and restore or recommit would change nothing
but dict order, and only that is replayed: the group's incident routes,
its nodes in ``placement`` and its ``group_spots`` entry move to the
end.  The move makes no route call and, like the full path (which keeps
a recommit of equal cost without a draw), no Metropolis draw.  Any
other move rips the victim up and commits the candidate it listed.
Negotiation likewise stops after a round whose reroutes all reproduce
the routes they replace.  Every RNG draw, mapping and dict order is the
full loop's; only route calls are saved.

The singleton scorer works out the FUs' start windows before it builds
any span terms: one bound, at the least span an edge can need (1
cycle), rules out every FU at once on most futile listings.  The stdlib
draws (the FU shuffle, the victim, a motif's random PCU and start) are
inlined, draw for draw.

On Plaid-ML fabrics (hardwired motif PCUs) collective groups may only land
on PCUs hardwired for their kind — pattern edges there are free wires —
while general PCUs accept anything.

The II escalation (step 4) and stats live in the shared
:func:`~repro.mapping.engine.search` driver; :class:`PlaidMapper` is the
per-II strategy, with one restart per candidate motif decomposition.
:class:`GreedyRepairMapper` (``greedy``) runs the same search over a
singleton (motif-blind) hierarchy on any temporal fabric.
"""

from __future__ import annotations

import math
from operator import itemgetter

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.arch.plaid import PCU_FUS
from repro.arch.specialize import hardwired_motif_kinds
from repro.errors import MappingError
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.common import modulo_asap, schedule_horizon
from repro.mapping.engine import MapperStrategy, register_mapper
from repro.mapping.router import (
    MAX_TRANSPORT_CYCLES, route_edge, transport_latency_table,
)
from repro.motifs.hierarchy import HierarchicalDFG, build_hierarchy
from repro.motifs.schedules import schedule_templates
from repro.motifs.types import Motif, MotifKind

#: Rip-up-and-reroute rounds a committed group negotiates
#: (:meth:`_State._negotiate`).
NEGOTIATION_ROUNDS = 2


class PlaidMapper(MapperStrategy):
    """Motif-aware hierarchical mapper for Plaid fabrics."""

    name = "plaid"
    failure_label = "Plaid mapper"
    #: Annealing moves per attempt, starting temperature, cooling per
    #: move, and Algorithm 1's seed for each restart's decomposition.
    MOVES_PER_II = 600
    START_TEMP = 6.0
    COOLING = 0.99
    MOTIF_SEEDS = (11, 23, 35)

    # ------------------------------------------------------------------
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
        # Each restart takes Algorithm 1's decomposition under the next
        # motif seed and continues the search's one RNG stream.  On 29
        # of the 30 Table-2 workloads the three seeds give the same
        # hierarchy (only conv2x2 differs), so a restart mostly varies
        # the RNG-driven placement and annealing, not the decomposition.
        return (_Decompositions(dfg, self.MOTIF_SEEDS, hardwired),
                hardwired)

    def attempts_per_ii(self, ii: int, context) -> int:
        hierarchies, _hardwired = context
        return len(hierarchies)

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng, context) -> Mapping | None:
        hierarchies, hardwired = context
        state = _State(dfg, arch, hierarchies[restart], ii,
                       hardwired, rng)
        return solve_state(state, self.MOVES_PER_II, self.START_TEMP,
                           self.COOLING)


class GreedyRepairMapper(PlaidMapper):
    """Algorithm 2 over a singleton hierarchy (every node its own
    group), with no hardwired kinds: the library's own mapper for any
    temporal fabric.  The paper-faithful baselines remain PathFinder
    and SA."""

    name = "greedy"
    failure_label = "greedy mapper"
    #: Repair moves per attempt, starting temperature, cooling per move,
    #: and attempts per II.
    MOVES_PER_II = 1200
    START_TEMP = 8.0
    COOLING = 0.995
    RESTARTS = 2

    def prepare(self, dfg: DFG, arch: Architecture, rng, **kwargs):
        return [singleton_hierarchy(dfg)] * self.RESTARTS, None


class _Decompositions:
    """The restarts' motif decompositions, one per motif seed, each
    built (and demoted for a hardwired fabric) the first time a restart
    asks for it: most searches map at their first restart."""

    def __init__(self, dfg: DFG, seeds: tuple[int, ...],
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
    """Greedy placement plus annealing repair over a mapping state:
    Algorithm 2's search loop."""
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
        cost = state.move(group, cost, temperature)
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
    """A motif-blind hierarchy: every node is its own group, the view
    :class:`GreedyRepairMapper` searches."""
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
    :meth:`_pop_route`, the only writers of ``routes`` apart from
    :meth:`_requeue`, which only reorders it.
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
        #: The routing content's version, bumped by every change to the
        #: placement or a route's steps, and each group's stamp: the
        #: epoch its last clean commit left (see :meth:`_reproducible`).
        self._epoch = 0
        self._stamps = [-1] * num_groups

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def _pcus_for_kind(self, kind: MotifKind) -> list[int]:
        if self.hardwired is not None and kind in (
                MotifKind.FAN_IN, MotifKind.FAN_OUT, MotifKind.UNICAST):
            matching = [p for p, k in self.hardwired.items() if k is kind]
            if matching:
                return matching
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
        getrandbits = self.rng.getrandbits
        # self.rng.shuffle(fus), draw for draw.
        for i in range(len(fus) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            fus[i], fus[j] = fus[j], fus[i]
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
        meets every edge's timing (a data edge needs a span from its
        transport latency up to ``MAX_TRANSPORT_CYCLES``, an ordering
        edge of at least 1); ``terms`` holds ``(lat, const, sign)`` per
        data edge, in link order, with span ``const + sign * start``.
        None when an edge inside the group cannot meet its timing at
        any start.
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
                if not is_ordering \
                        and MAX_TRANSPORT_CYCLES - const + 1 < stop:
                    stop = MAX_TRANSPORT_CYCLES - const + 1
            elif dst_role < 0:                  # group -> placed consumer
                lat = latency[fus[src_role]][fu]
                const -= offsets[src_role]
                sign = -1
                need = 1 if is_ordering else lat
                if const - need + 1 < stop:
                    stop = const - need + 1
                if not is_ordering and const - MAX_TRANSPORT_CYCLES > lo:
                    lo = const - MAX_TRANSPORT_CYCLES
            else:                               # inside the group
                lat = latency[fus[src_role]][fus[dst_role]]
                const += offsets[dst_role] - offsets[src_role]
                sign = 0
                if const < (1 if is_ordering else lat) \
                        or not is_ordering and const > MAX_TRANSPORT_CYCLES:
                    return None
            if not is_ordering:
                terms.append((lat, const, sign))
        return lo, stop, terms

    # ------------------------------------------------------------------
    # Group placement
    # ------------------------------------------------------------------
    def place_group_best(self, group: int) -> bool:
        """Greedy (Algorithm 2 lines 3-4): commit the candidate with the
        least routing estimate (:meth:`_best_candidates`), the first
        listed on a tie; False when there is none."""
        candidates = self._best_candidates(group)
        if not candidates:
            return False
        clean, _moved = self._commit(group, min(candidates, key=_score)[1])
        self._epoch += 1
        if clean:
            self._stamps[group] = self._epoch
        return True

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
            earliest = max(self._earliest(links, pcu * PCU_FUS), asap)
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
        base = pcu * PCU_FUS
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
        time) and spans 2 * II cycles, cut by placed consumers and by
        each data edge's longest span, ``MAX_TRANSPORT_CYCLES``.  Most
        calls find no candidate, so the windows come first, and span
        terms are built only for an FU with a free slot in its window.
        A bound that gives every edge one cycle, the least span any edge
        needs (every transport latency is at least 1), rules out all
        FUs at once on most such calls; otherwise each FU's window
        is worked out and its first II cycles (every modulo slot it
        holds) are probed.
        """
        fus = self._singleton_candidates(group)   # drawn either way
        lo = max(asap, 0)
        stop = horizon = self.horizon
        for src_role, dst_role, _fu, const, _is_ordering in links:
            if src_role < 0:
                if 1 - const > lo:
                    lo = 1 - const
            elif dst_role < 0:
                if const < stop:
                    stop = const
        if lo >= stop:
            return []                           # no FU has a window
        node_id = self.hierarchy.groups[group].nodes[0]
        fu_nodes = self.mrrg._fu_nodes
        latency = self._latency
        ii = self.ii
        candidates = []
        for fu_id in fus:
            # What _span_terms gives for the one-node shape on fu_id,
            # in two passes: the window, then, only with a free slot
            # in it, the terms.
            lo = 0
            stop = horizon
            floor = 0                           # consumers' longest spans
            for src_role, dst_role, fu, const, is_ordering in links:
                if src_role < 0:                # placed producer -> node
                    need = 1 if is_ordering else latency[fu][fu_id]
                    if need - const > lo:
                        lo = need - const
                    if not is_ordering \
                            and MAX_TRANSPORT_CYCLES - const + 1 < stop:
                        stop = MAX_TRANSPORT_CYCLES - const + 1
                elif dst_role < 0:              # node -> placed consumer
                    need = 1 if is_ordering else latency[fu_id][fu]
                    if const - need + 1 < stop:
                        stop = const - need + 1
                    if not is_ordering \
                            and const - MAX_TRANSPORT_CYCLES > floor:
                        floor = const - MAX_TRANSPORT_CYCLES
                elif const < (1 if is_ordering else latency[fu_id][fu_id]) \
                        or not is_ordering and const > MAX_TRANSPORT_CYCLES:
                    stop = 0                    # an untimeable self-loop
                    break
            if lo < asap:
                lo = asap
            if stop > lo + 2 * ii:
                stop = lo + 2 * ii
            if floor > lo:
                lo = floor
            for first in range(lo, min(stop, lo + ii)):
                if (fu_id, first % ii) not in fu_nodes:
                    break
            else:
                continue                        # no free slot
            terms = []
            for src_role, dst_role, fu, const, is_ordering in links:
                if is_ordering:
                    continue
                if src_role < 0:
                    terms.append((latency[fu][fu_id], const, 1))
                elif dst_role < 0:
                    terms.append((latency[fu_id][fu], const, -1))
                else:
                    terms.append((latency[fu_id][fu_id], const, 0))
            found = 0
            for cycle in range(first, stop):
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

    def _victim_candidates(self, group: int, spots) -> list:
        """Lines 7-9: the annealing victim ``group``'s candidates, a
        motif's at a random PCU (:meth:`_random_candidates`), a
        singleton's as in the greedy pass, listed with the victim's own
        FU slots (its ``spots``, None when it is unplaced) counted as
        free.  Nothing else a listing reads is the victim's."""
        mrrg = self.mrrg
        if spots is not None:
            for node_id, fu_id, cycle in spots:
                mrrg.unplace_node(node_id, fu_id, cycle)
        if self.hierarchy.groups[group].is_collective:
            candidates = self._random_candidates(group)
        else:
            candidates = self._best_candidates(group)
        if spots is not None:
            for node_id, fu_id, cycle in spots:
                mrrg.place_node(node_id, fu_id, cycle)
        return candidates

    def _random_candidates(self, group: int) -> list:
        """(estimate, spots) of a motif at one random PCU (line 7) under
        every schedule template (line 9), at a random start, the cycle
        after it, and the earliest start."""
        motif = self.hierarchy.groups[group]
        links = self._placed_links(group)
        getrandbits = self.rng.getrandbits
        pcus = self._pcus_for_kind(motif.kind)
        # self.rng.choice(pcus), draw for draw.
        n = len(pcus)
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        pcu = pcus[r]
        earliest = max(self._earliest(links, pcu * PCU_FUS),
                       self._group_asap[group])
        span = max(1, min(2 * self.ii, self.horizon - earliest))
        # self.rng.randrange(span), draw for draw.
        k = span.bit_length()
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        start0 = earliest + r
        return self._collective_candidates(
            group, links, pcu, schedule_templates(motif.kind),
            (start0, start0 + 1, earliest), 0.0)

    # ------------------------------------------------------------------
    # Committing (place + route)
    # ------------------------------------------------------------------
    def _commit(self, group: int, spots) -> tuple[bool, bool]:
        """Place the group's nodes at a listed candidate's ``spots``,
        route its ready data edges and negotiate, which may re-route
        other groups' routes; returns :meth:`_negotiate`'s ``(clean,
        moved)``."""
        self._place_spots(spots)
        new_routes: dict[int, Route] = {}
        placement = self.placement
        for index in self._incident_groups[group]:
            edge = self._edge_list[index]
            if not edge.is_ordering and edge.src in placement \
                    and edge.dst in placement:
                new_routes[index] = self._route_index(index)
        outcome = self._negotiate(new_routes)
        self.group_spots[group] = list(spots)
        for index, route in new_routes.items():
            self._put_route(index, route)
        self.unplaced.discard(group)
        return outcome

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

    def _route_index(self, index: int) -> Route:
        """Route data edge ``index`` between its placed endpoints.

        Its span lies in the range every route exists for (the
        enumeration lists no other), so a failure is a mapper bug.
        """
        edge = self._edge_list[index]
        src_fu, src_cycle = self.placement[edge.src]
        dst_fu, dst_cycle = self.placement[edge.dst]
        arrival = dst_cycle + edge.distance * self.ii
        route = route_edge(self.mrrg, edge.src, src_fu, src_cycle,
                           dst_fu, arrival)
        if route is None:
            raise AssertionError(
                f"edge {edge.src}->{edge.dst} found no route from FU "
                f"{src_fu} at cycle {src_cycle} to FU {dst_fu} at cycle "
                f"{arrival}")
        return route

    def _negotiate(self, new_routes: dict[int, Route]) -> tuple[bool, bool]:
        """Mini rip-up-and-reroute for a group being committed:
        slack-rich routes committed early can squat on wires that later,
        tighter routes have no alternative to.  Every committed route
        touching a slot that was overused when the round began —
        whichever group it belongs to — is rerouted against the
        now-visible congestion.

        A round whose reroutes all reproduce the steps they replace
        leaves the MRRG as it found it, so the next round would repeat
        it: negotiation stops there.  Returns ``(clean, moved)``: whether
        the first round found no overused slot, and whether a route of
        ``self.routes`` (another group's) changed its steps.
        """
        mrrg = self.mrrg
        moved = False
        for round_ in range(NEGOTIATION_ROUNDS):
            hot = mrrg.overused_indices()
            if not hot:
                return round_ == 0, moved
            candidates = list(new_routes.items()) + [
                (index, route) for index, route in self.routes.items()
                if index not in new_routes
            ]
            changed = False
            for index, route in candidates:
                if not mrrg.route_touches(route, hot):
                    continue
                mrrg.uncommit_route(route)
                redone = self._route_index(index)
                if redone.steps != route.steps:
                    changed = True
                    moved = moved or index not in new_routes
                if index in new_routes:
                    new_routes[index] = redone
                else:
                    self._put_route(index, redone)
            if not changed:
                break
        return False, moved

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
        rng = self.rng
        if self.unplaced and rng.random() < 0.7:
            # First re-place anything missing; but unmapping a placed
            # neighbour sometimes frees the needed spot.
            pool = sorted(self.unplaced)
        else:
            pool = list(self.group_spots)
            if not pool:
                return None
            # Prefer groups whose routes sit on overused resource slots:
            # they are the ones a re-placement can actually relieve.
            congested = self._congested_groups()
            if congested and rng.random() < 0.75:
                pool = congested
        # rng.choice(pool), draw for draw.
        n = len(pool)
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return pool[r]

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

    def move(self, group: int, cost: float, temperature: float) -> float:
        """Lines 7-11 on the victim ``group`` from a state of cost
        ``cost``; returns the cost after the move.

        A move its listing decides (no candidate, or a best that stays
        put and :meth:`_reproducible`) only replays dict order
        (:meth:`_requeue`).  Any other rips the victim up, commits the
        listed best (line 11) and keeps it by the Metropolis rule, or
        puts the victim back.
        """
        spots = self.group_spots.get(group)
        candidates = self._victim_candidates(group, spots)
        if not candidates:
            if spots is not None:
                self._requeue(group, spots)
            return cost
        best = min(candidates, key=_score)[1]
        if best == spots and self._reproducible(group):
            self._requeue(group, spots)
            self._stamps[group] = self._epoch
            return cost
        saved = saved_spots, saved_routes = self.unmap_group(group)
        clean, moved = self._commit(group, best)
        new_cost = self.cost()
        delta = new_cost - cost
        if delta <= 0 or self.rng.random() < math.exp(
                -delta / max(temperature, 1e-6)):
            if moved or best != saved_spots or any(
                    self.routes[index].steps != route.steps
                    for index, route in saved_routes.items()):
                self._epoch += 1
            if clean:
                self._stamps[group] = self._epoch
            return new_cost
        self.restore_group(group, saved)
        if moved:
            self._epoch += 1
        return self.cost()

    def _reproducible(self, group: int) -> bool:
        """Whether ripping up the placed ``group`` and committing it at
        its own spots provably gives back its routes, step for step,
        with nothing to negotiate: its stamp is the current epoch, or
        every routed incident edge spans one cycle in a legal MRRG (the
        module docstring's "Decided moves" has the proof)."""
        if self._stamps[group] == self._epoch:
            return True
        if not self.mrrg.is_legal():
            return False
        routes = self.routes
        for index in self._incident_groups[group]:
            route = routes.get(index)
            if route is not None \
                    and route.arrive_cycle - route.depart_cycle > 1:
                return False
        return True

    def _requeue(self, group: int, spots) -> None:
        """What unmapping the placed ``group`` and putting it back at
        its own ``spots`` changes: its nodes, its incident routes and its
        ``group_spots`` entry move to the end of their dicts."""
        placement = self.placement
        for node_id, _fu_id, _cycle in spots:
            placement[node_id] = placement.pop(node_id)
        routes = self.routes
        for index in self._incident_groups[group]:
            route = routes.pop(index, None)
            if route is not None:
                routes[index] = route
        self.group_spots[group] = self.group_spots.pop(group)

    def unmap_group(self, group: int):
        """Remove a group's nodes and every route touching them."""
        saved_spots = self.group_spots.pop(group, None)
        if saved_spots is None:
            # Unplaced already: a route exists only while both its
            # endpoints' groups are placed, so there is nothing to undo.
            return ([], {})
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
        return (saved_spots, saved_routes)

    def restore_group(self, group: int, saved) -> None:
        """Undo an annealing move's commit: put the group back where
        :meth:`unmap_group` found it (``saved``).

        The move placed and unplaced only this group's nodes, so its
        saved slots are free and both endpoints of each saved route are
        placed.
        """
        self.unmap_group(group)
        saved_spots, saved_routes = saved
        if not saved_spots:
            return
        self._place_spots(saved_spots)
        for index, route in saved_routes.items():
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


register_mapper(
    "plaid", PlaidMapper,
    description="motif-aware hierarchical mapping with flexible schedule "
                "templates (the paper's Algorithm 2)",
)
register_mapper(
    "greedy", GreedyRepairMapper,
    description="motif-blind greedy placement with Metropolis repair "
                "(Algorithm 2 over a singleton hierarchy)",
)
