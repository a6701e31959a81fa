"""Every candidate the Plaid mapper lists routes, and it commits the best.

``_State`` lists a group's placement candidates (``_best_candidates``
in the greedy pass and for a singleton victim, ``_random_candidates``
for a motif victim) and commits the one with the least estimate, the
first listed on a tie (Algorithm 2 lines 3-4 and 11), without trying
it first: the enumeration lists only spots whose every data edge spans
from its transport latency up to ``MAX_TRANSPORT_CYCLES``, and every
such span routes.  These tests capture each placement call of short
searches on the golden-grid workloads on ``plaid``, ``plaid-ml`` and
``plaid3x3`` under the ``plaid`` mapper and on ``st`` under the
motif-blind ``greedy`` mapper (which runs the same ``_State`` search),
and check that every listed candidate, committed on a copy of the
state, routes every ready data edge, and that the call committed the
head of the estimate order.  A hand-built state checks that spans
above ``MAX_TRANSPORT_CYCLES`` are not listed.

The same snapshots check the candidate scorers: ``_best_candidates`` and
``_random_candidates`` read per-call link tables, and must list exactly
what building each spot list and scoring it with the plain
:func:`_estimate` oracle below lists, in the same order and with the
same RNG draws.  Each snapshot also checks the state's kept wirelength
total against a re-sum of its routes.

An annealing move lists its victim's candidates before it rips
anything up, with the victim's own FU slots counted as free, and the
listing has one of three outcomes: a commit of the head of the estimate
order, a futile skip (no candidate: most calls, captured too), or a
proven no-op (the head is where the victim stands and its routes come
back the same).  A skipped move, run from a snapshot, must leave the
state, key order and RNG state that the full rip-up, the
stdlib-drawing scorer and the restore or recommit leave on a copy.  At
every snapshot a group is unplaced exactly when it holds no slots, and
no route touches an unplaced group.
"""

import copy
import math
import random

import pytest

from mrrg_helpers import mrrg_state
from repro.arch.plaid import PCU_FUS
from repro.eval.harness import _seed_for, build_arch
from repro.ir.graph import DFG
from repro.ir.ops import Opcode
from repro.mapping import plaid_mapper
from repro.mapping.common import mapping_cost
from repro.mapping.mii import minimum_ii
from repro.mapping.plaid_mapper import PlaidMapper, _State, singleton_hierarchy
from repro.mapping.router import MAX_TRANSPORT_CYCLES
from repro.motifs.hierarchy import HierarchicalDFG
from repro.motifs.schedules import schedule_templates
from repro.motifs.types import Motif, MotifKind
from repro.workloads import get_dfg

WORKLOADS = ("dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2")
SOURCES = tuple(
    (workload, arch_key, "plaid")
    for workload in WORKLOADS
    for arch_key in ("plaid", "plaid-ml", "plaid3x3")
) + tuple((workload, "st", "greedy") for workload in WORKLOADS)


def _copy(state: _State) -> _State:
    """Deep copy sharing what no search step changes: the fabric, DFG,
    hierarchy, per-state edge tables and the committed routes."""
    shared = (state.arch, state.dfg, state.hierarchy, state.mrrg._index,
              state._latency, state._edge_list, state._group_edges,
              *state.routes.values())
    return copy.deepcopy(state, {id(obj): obj for obj in shared})


def _state_at_minimum_ii(workload, arch_key, mapper_key) -> _State:
    """The search state the mapper starts from at its tightest II, where
    free slots are scarcest."""
    dfg = get_dfg(workload)
    arch = build_arch(arch_key)
    rng = random.Random(_seed_for(workload, arch_key, mapper_key))
    if mapper_key == "plaid":
        hierarchies, hardwired = PlaidMapper().prepare(dfg, arch, rng)
        hierarchy = hierarchies[0]
    else:
        hierarchy, hardwired = singleton_hierarchy(dfg), None
    return _State(dfg, arch, hierarchy, minimum_ii(dfg, arch), hardwired,
                  rng)


def _snapshots(source, moves=40):
    """``[state copy, group, candidates, committed spots, before]`` at
    every placement call of a short search, empty candidate lists
    included.  The copy is taken before the candidates are listed (so
    it holds the RNG state they were drawn from), with the group
    unmapped, as a commit finds it; its ``phase`` says whether the call
    came from the greedy pass or an annealing move.  ``committed`` is
    None when the call committed nothing, and ``before`` is an
    annealing move's state with the victim where it stood (None in the
    greedy pass)."""
    state = _state_at_minimum_ii(*source)
    captured = []
    phase = "greedy"

    def capturing(list_candidates):
        def capture(self, group):
            snap = _copy(self)
            snap.phase = phase
            before = snap if phase == "anneal" else None
            spots = snap.group_spots.get(group)
            if spots is not None:
                # A placed victim is listed with its own slots free.
                for node_id, fu_id, cycle in spots:
                    snap.mrrg.place_node(node_id, fu_id, cycle)
                before = _copy(snap)
                snap.unmap_group(group)
            candidates = list_candidates(self, group)
            captured.append([snap, group, list(candidates), None, before])
            return candidates
        return capture

    commit = _State._commit

    def record(self, group, spots):
        captured[-1][3] = spots
        return commit(self, group, spots)

    pick_victim = _State.pick_victim

    def annealing(self):
        nonlocal phase
        phase = "anneal"
        return pick_victim(self)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_best_candidates", "_random_candidates"):
            patch.setattr(_State, name, capturing(getattr(_State, name)))
        patch.setattr(_State, "_commit", record)
        patch.setattr(_State, "pick_victim", annealing)
        plaid_mapper.solve_state(state, moves, 6.0, 0.99)
    return captured


def _view(state: _State) -> dict:
    return {
        "placement": state.placement,
        "routes": state.routes,
        "group_spots": state.group_spots,
        "unplaced": state.unplaced,
        "wirelength": state._wirelength,
        "mrrg": mrrg_state(state.mrrg),
    }


def _ready_data_edges(state: _State, group) -> set[int]:
    """The group's incident data edges whose endpoints are both placed."""
    return {
        index for index in state._incident_groups[group]
        if not state._edge_list[index].is_ordering
        and state._edge_list[index].src in state.placement
        and state._edge_list[index].dst in state.placement
    }


@pytest.fixture(scope="module")
def snapshots():
    return {source: _snapshots(source) for source in SOURCES}


@pytest.mark.parametrize("source", SOURCES, ids="/".join)
def test_every_candidate_routes(source, snapshots):
    """Every listed candidate, committed on a copy of the state, places
    the group and routes every ready data edge; the call itself
    committed the head of the estimate order (the first listed on a
    tie), or kept it where the victim stood (a proven no-op), or
    nothing when the list is empty."""
    listed = 0
    for snap, group, candidates, committed, before in snapshots[source]:
        if committed is None and candidates:
            committed = before.group_spots[group]
        ranked = sorted(candidates, key=plaid_mapper._score)
        assert committed == (ranked[0][1] if ranked else None), \
            (source, group)
        for _score, spots in candidates:
            trial = _copy(snap)
            trial._commit(group, spots)
            assert trial.group_spots[group] == spots, (source, group)
            assert _ready_data_edges(trial, group) <= set(trial.routes), \
                (source, group, spots)
            listed += 1
    assert listed


def _far_state() -> tuple[_State, int, int]:
    """A ``plaid`` state at II 4 whose timing-feasible spots include
    spans above ``MAX_TRANSPORT_CYCLES``; returns it with its two
    unplaced groups.

    ``p -> a`` (distance 16) feeds a pair motif ``a -> b`` from ``p``
    placed at cycle 2, so the pair's starts 1-4 span 63-66; ``q -> r``
    (distance 17) feeds ``r`` placed at cycle 0, so ``q``'s cycles 0-7
    span 68-61.
    """
    dfg = DFG("far")
    p, a, b, q, r = (dfg.add_node(Opcode.ADD, name).node_id
                     for name in "pabqr")
    dfg.add_edge(p, a, distance=16)
    dfg.add_edge(a, b)
    dfg.add_edge(q, r, distance=17)
    hierarchy = HierarchicalDFG.from_groups(dfg, [
        Motif(MotifKind.SINGLETON, (p,)), Motif(MotifKind.PAIR, (a, b)),
        Motif(MotifKind.SINGLETON, (q,)), Motif(MotifKind.SINGLETON, (r,)),
    ])
    state = _State(dfg, build_arch("plaid"), hierarchy, 4, None,
                   random.Random(1))
    state._commit(hierarchy.group_of(p), [(p, 0, 2)])
    state._commit(hierarchy.group_of(r), [(r, 1, 0)])
    return state, hierarchy.group_of(a), hierarchy.group_of(q)


def test_spans_above_the_cap_are_not_listed():
    """A motif behind a placed producer far upstream and a singleton
    ahead of a placed consumer far downstream get only the spots whose
    spans stay within ``MAX_TRANSPORT_CYCLES`` (no route takes a longer
    one, and ``_estimate`` scores it infinite): ``a`` runs at cycle 1 or
    2, ``q`` at cycle 4 or later (the first three free cycles from
    there), as the capped oracle lists."""
    state, pair, single = _far_state()
    for group, listings, cycles in (
            (pair, (state._best_candidates, state._random_candidates),
             {1, 2}),
            (single, (state._best_candidates,), {4, 5, 6, 7})):
        for list_candidates in listings:
            candidates = list_candidates(group)
            assert candidates, group
            for _score, spots in candidates:
                assert _estimate(state, group, spots) != float("inf"), spots
        same, got = _same_draws(
            state, lambda: state._best_candidates(group),
            lambda: _oracle_best_candidates(state, group))
        assert same, group
        assert {spots[0][2] for _score, spots in got} == cycles, group


def test_kept_wirelength_matches_routes(snapshots):
    """``cost()`` reads a kept wirelength total; at every snapshot (after
    commits, negotiation re-routes, unmaps and restores) it equals the
    step count of the routes, and ``cost()`` equals ``mapping_cost``."""
    for source, captured in snapshots.items():
        for snap, _group, _candidates, _committed, _before in captured:
            steps = sum(len(route.steps) for route in snap.routes.values())
            assert snap._wirelength == steps, source
            missing = snap._num_data_edges - len(snap.routes)
            assert snap.cost() == mapping_cost(
                snap.mrrg, snap.routes, missing) \
                + 500.0 * len(snap.unplaced), source


# ---------------------------------------------------------------------------
# Oracles: the candidate scorers as plain per-candidate loops
# ---------------------------------------------------------------------------
def _estimate(state: _State, group, spots) -> float:
    """Routing-free candidate score: transport slack and wire length
    to already-placed neighbours; infinity when timing-infeasible, or
    when a data edge spans more than ``MAX_TRANSPORT_CYCLES``."""
    trial = {node_id: (fu, cyc) for node_id, fu, cyc in spots}
    score = 0.0
    for index in state._incident_groups[group]:
        edge = state._edge_list[index]
        src_spot = trial.get(edge.src) or state.placement.get(edge.src)
        dst_spot = trial.get(edge.dst) or state.placement.get(edge.dst)
        if src_spot is None or dst_spot is None:
            continue
        src_fu, src_cycle = src_spot
        dst_fu, dst_cycle = dst_spot
        span = dst_cycle + edge.distance * state.ii - src_cycle
        if edge.is_ordering:
            if span < 1:
                return float("inf")
            continue
        lat = state._latency[src_fu][dst_fu]
        if span < lat or span > MAX_TRANSPORT_CYCLES:
            return float("inf")
        score += 2.0 * lat + 0.5 * (span - lat)
    return score


def _collective_spots(state: _State, group, pcu, template, start):
    """A motif's spot list at (PCU, template, start), or None when a
    role's FU slot is taken or falls outside the horizon."""
    spots = []
    for role, node_id in enumerate(state.hierarchy.groups[group].nodes):
        fu_id = pcu * PCU_FUS + template.slots[role]
        cycle = start + template.offsets[role]
        if cycle >= state.horizon or start < 0:
            return None
        if not state.mrrg.fu_free(fu_id, cycle):
            return None
        spots.append((node_id, fu_id, cycle))
    return spots


def _earliest_start_fu(state: _State, group, fu_id) -> int:
    """Earliest cycle ``fu_id`` can consume every value arriving from
    placed nodes of other groups."""
    earliest = 0
    for node_id in state.hierarchy.groups[group].nodes:
        for edge in state.dfg.in_edges(node_id):
            spot = state.placement.get(edge.src)
            if state.hierarchy.group_of(edge.src) == group or spot is None:
                continue
            src_fu, src_cycle = spot
            lat = 1 if edge.is_ordering else state._latency[src_fu][fu_id]
            earliest = max(earliest,
                           src_cycle + lat - edge.distance * state.ii)
    return earliest


def _scored(state: _State, group, pcu, templates, starts, start_weight):
    candidates = []
    for template in templates:
        for start in starts:
            spots = _collective_spots(state, group, pcu, template, start)
            if spots is None:
                continue
            estimate = _estimate(state, group, spots)
            if estimate != float("inf"):
                candidates.append((estimate + start_weight * start, spots))
    return candidates


def _oracle_best_candidates(state: _State, group):
    motif = state.hierarchy.groups[group]
    asap = state._group_asap[group]
    candidates = []
    if motif.is_collective:
        for pcu in state._pcus_for_kind(motif.kind):
            earliest = max(_earliest_start_fu(
                state, group, pcu * PCU_FUS), asap)
            window = min(state.ii, 4)
            candidates += _scored(
                state, group, pcu, schedule_templates(motif.kind)[:8],
                range(earliest, min(earliest + window, state.horizon)),
                0.05)
        return candidates
    node_id = motif.nodes[0]
    fus = [fu.fu_id for fu in
           state.arch.fus_supporting(state.dfg.node(node_id).op)]
    state.rng.shuffle(fus)
    for fu_id in fus:
        earliest = max(_earliest_start_fu(state, group, fu_id), asap)
        found = 0
        for cycle in range(earliest, min(earliest + 2 * state.ii,
                                         state.horizon)):
            if not state.mrrg.fu_free(fu_id, cycle):
                continue
            spots = [(node_id, fu_id, cycle)]
            estimate = _estimate(state, group, spots)
            if estimate == float("inf"):
                continue
            candidates.append((estimate + 0.05 * cycle, spots))
            found += 1
            if found >= 3:
                break
    return candidates


def _oracle_random_candidates(state: _State, group):
    kind = state.hierarchy.groups[group].kind
    pcu = state.rng.choice(state._pcus_for_kind(kind))
    earliest = max(_earliest_start_fu(
        state, group, pcu * PCU_FUS),
        state._group_asap[group])
    span = max(1, min(2 * state.ii, state.horizon - earliest))
    start0 = earliest + state.rng.randrange(span)
    return _scored(state, group, pcu, schedule_templates(kind),
                   (start0, start0 + 1, earliest), 0.0)


def _same_draws(snap: _State, got, want):
    """(got(), rng state after) == (want(), rng state after), both run
    from the snapshot's RNG state."""
    before = snap.rng.getstate()
    got_list = got()
    got_state = snap.rng.getstate()
    snap.rng.setstate(before)
    want_list = want()
    want_state = snap.rng.getstate()
    snap.rng.setstate(before)
    return got_list == want_list and got_state == want_state, got_list


def test_singleton_scores_match_estimate(snapshots):
    """The singleton scorer ranks exactly like building each (FU, cycle)
    spot list and scoring it with ``_estimate``.  That includes the
    calls that got no candidate, most of them: the scorer lists nothing
    there too, with the oracle's draws."""
    empty = 0
    for source, captured in snapshots.items():
        for snap, group, candidates, _committed, _before in captured:
            if snap.hierarchy.groups[group].is_collective:
                continue
            same, got = _same_draws(
                snap, lambda: snap._best_candidates(group),
                lambda: _oracle_best_candidates(snap, group))
            assert same, (source, group)
            if not candidates:
                assert got == [], (source, group)
                empty += 1
    assert empty


def test_collective_candidates_match_estimate(snapshots):
    """The greedy pass's (``_best_candidates``) and an annealing move's
    (``_random_candidates``) motif candidates equal the (PCU, template,
    start) enumeration scored with ``_estimate``: same entries, same
    order, same RNG state after."""
    checked = 0
    for source, captured in snapshots.items():
        for snap, group, _candidates, _committed, _before in captured:
            if not snap.hierarchy.groups[group].is_collective:
                continue
            same, got = _same_draws(
                snap, lambda: snap._best_candidates(group),
                lambda: _oracle_best_candidates(snap, group))
            assert same, (source, group, "best")
            checked += bool(got)
            same, _got = _same_draws(
                snap, lambda: snap._random_candidates(group),
                lambda: _oracle_random_candidates(snap, group))
            assert same, (source, group, "random")
    assert checked


def _oracle_pick_victim(state: _State):
    """``pick_victim`` with the stdlib draws."""
    if state.unplaced and state.rng.random() < 0.7:
        return state.rng.choice(sorted(state.unplaced))
    placed = list(state.group_spots)
    if not placed:
        return None
    congested = state._congested_groups()
    if congested and state.rng.random() < 0.75:
        return state.rng.choice(congested)
    return state.rng.choice(placed)


def test_pick_victim_draws_like_stdlib(snapshots):
    """The victim draw, inlined, picks the group and leaves the RNG
    state that ``random.Random.choice`` would."""
    for source, captured in snapshots.items():
        for snap, _group, _candidates, _committed, _before in captured:
            same, _got = _same_draws(snap, snap.pick_victim,
                                     lambda: _oracle_pick_victim(snap))
            assert same, source


# ---------------------------------------------------------------------------
# Unplaced groups and futile moves
# ---------------------------------------------------------------------------
def test_unplaced_groups_hold_no_slots_or_routes(snapshots):
    """A group is in ``unplaced`` exactly when it has no entry in
    ``group_spots`` (in the greedy pass, apart from the groups not
    visited yet), and every route joins two placed groups.  This is why
    ``unmap_group`` has nothing to undo for an unplaced group."""
    for source, captured in snapshots.items():
        for snap, group, _candidates, _committed, _before in captured:
            assert snap.unplaced.isdisjoint(snap.group_spots), source
            if snap.phase == "greedy":
                pending = set(snap.order[snap.order.index(group):])
            else:
                pending = set()
            absent = set(snap.order) - set(snap.group_spots)
            assert absent == snap.unplaced | pending, source
            placed_nodes = {node_id for spots in snap.group_spots.values()
                            for node_id, _fu, _cycle in spots}
            assert set(snap.placement) == placed_nodes, source
            for index in snap.routes:
                src_group, dst_group = snap.group_of_edge[index]
                assert src_group in snap.group_spots, (source, index)
                assert dst_group in snap.group_spots, (source, index)


def _full_unmap(state: _State, group):
    """``unmap_group`` without its early return: pops every incident
    route and unplaces every spot the group may hold."""
    saved_spots = state.group_spots.pop(group, [])
    saved_routes = {}
    for index in state._incident_groups[group]:
        route = state._pop_route(index)
        if route is not None:
            saved_routes[index] = route
            state.mrrg.uncommit_route(route)
    for node_id, fu_id, cycle in saved_spots:
        state.mrrg.unplace_node(node_id, fu_id, cycle)
        state.placement.pop(node_id, None)
    state.unplaced.add(group)
    return (saved_spots, saved_routes)


def _keys(state: _State) -> dict:
    return {"placement": list(state.placement),
            "routes": list(state.routes),
            "group_spots": list(state.group_spots)}


def _full_move(state: _State, group, cost: float,
               temperature: float) -> float:
    """The annealing move as a full rip-up: unmap the victim, list its
    candidates with the stdlib-drawing scorers, commit the head, keep
    it by the Metropolis rule or restore the victim; returns the cost
    after the move.  The oracle of :meth:`_State.move`."""
    saved_spots, saved_routes = _full_unmap(state, group)
    if state.hierarchy.groups[group].is_collective:
        candidates = _oracle_random_candidates(state, group)
    else:
        candidates = _oracle_best_candidates(state, group)
    placed = bool(candidates)
    if placed:
        state._commit(group, min(candidates, key=plaid_mapper._score)[1])
    new_cost = state.cost()
    delta = new_cost - cost
    if placed and (delta <= 0 or state.rng.random() < math.exp(
            -delta / max(temperature, 1e-6))):
        return new_cost
    if placed:
        _full_unmap(state, group)
    if saved_spots:
        state._place_spots(saved_spots)
        for index, route in saved_routes.items():
            state._put_route(index, route)
            state.mrrg.commit_route(route)
        state.group_spots[group] = saved_spots
        state.unplaced.discard(group)
    return state.cost()


def test_futile_move_changes_only_the_rng(snapshots):
    """An annealing move that commits nothing, futile (no candidate) or
    a proven no-op (the head stays where the victim stood), leaves the
    state content as it was and the state, key order and RNG state that
    the full rip-up, the stdlib-drawing scorer and the restore or
    recommit leave on a copy.  A futile move on an unplaced victim keeps
    the key order too."""
    outcomes = {"unplaced": 0, "placed": 0, "no-op": 0}
    for source, captured in snapshots.items():
        for snap, group, candidates, committed, before in captured:
            if snap.phase != "anneal" or committed is not None:
                continue
            got, want = _copy(before), _copy(before)
            cost = before.cost()
            assert got.move(group, cost, 1.0) == cost, source
            assert _full_move(want, group, cost, 1.0) == cost, source
            assert _view(got) == _view(want) == _view(before), source
            assert _keys(got) == _keys(want), source
            assert got.rng.getstate() == want.rng.getstate(), source
            if candidates:
                outcomes["no-op"] += 1
            elif group in before.group_spots:
                outcomes["placed"] += 1
            else:
                assert _keys(got) == _keys(before), source
                outcomes["unplaced"] += 1
    assert all(outcomes.values()), outcomes
