"""Decided annealing moves: the Plaid mapper's move against a full rip-up.

``_State.move`` lists the victim's candidates before it rips anything
up and skips the rip-up when the listing decides the move: the victim
has no candidate, or its best candidate is where it stands and its
routes provably come back the same (``_State._reproducible``: every
routed incident edge spans one cycle in a legal MRRG, or the victim's
stamp is the current epoch).  A skipped move replays only the dict
order the rip-up and restore or recommit would leave.

``test_decided_moves_match_the_full_rip_up`` drives the production move
and the full rip-up oracle (today's move loop,
:func:`test_plaid_trial_purity._full_move`) in lockstep from identical
mid-anneal states and RNG states, and compares the states after every
move.  The other tests check the proof's edge cases on hand-built
states: a stale stamp, one-cycle routes in an illegal MRRG, and a
rejected move that leaves the victim's stamp valid.
"""

import random

import pytest

from mrrg_helpers import mrrg_state, step_route
from repro.eval.harness import build_arch
from repro.ir.graph import DFG
from repro.ir.ops import Opcode
from repro.mapping.plaid_mapper import _State
from repro.mapping.routecore import ROUTING
from repro.motifs.hierarchy import HierarchicalDFG
from repro.motifs.types import Motif, MotifKind
from test_plaid_trial_purity import (
    _copy, _full_move, _state_at_minimum_ii, _view,
)

#: Trial-purity sources whose search at its tightest II anneals for
#: more than 20 moves (the others map in the greedy pass or soon after).
ANNEALED = tuple(
    (workload, arch_key, "plaid")
    for workload in ("gesum_u2", "atax_u2")
    for arch_key in ("plaid", "plaid-ml", "plaid3x3")
) + (("conv2x2", "plaid3x3", "plaid"),) + tuple(
    (workload, "st", "greedy") for workload in ("gesum_u2", "atax_u2"))


def _anneal(state: _State, move, moves: int, temperature: float,
            start_temp: float = 6.0, cooling: float = 0.99):
    """``solve_state``'s annealing loop from ``state`` at
    ``temperature``, with ``move(state, group, cost, temperature)`` as
    the move; yields ``(group, temperature)`` after every move."""
    cost = best_cost = state.cost()
    stall = 0
    for _move in range(moves):
        if state.is_complete() and state.mrrg.is_legal():
            return
        group = state.pick_victim()
        if group is None:
            return
        cost = move(state, group, cost, temperature)
        yield group, temperature
        if cost < best_cost - 1e-9:
            best_cost = cost
            stall = 0
        else:
            stall += 1
            if stall >= 150:
                temperature = start_temp
                stall = 0
        temperature *= cooling


def _ordered(state: _State) -> dict:
    """What the two move loops must agree on, in dict order."""
    return {
        "placement": list(state.placement.items()),
        "routes": list(state.routes.items()),
        "group_spots": list(state.group_spots.items()),
        "unplaced": set(state.unplaced),
        "wirelength": state._wirelength,
        "mrrg": mrrg_state(state.mrrg),
        "rng": state.rng.getstate(),
    }


def _counting(move):
    """``move`` that also returns the route calls it made."""
    def counted(state, group, cost, temperature):
        calls = ROUTING.calls
        cost = move(state, group, cost, temperature)
        counted.calls = ROUTING.calls - calls
        return cost
    return counted


@pytest.mark.parametrize("source", ANNEALED, ids="/".join)
def test_decided_moves_match_the_full_rip_up(source):
    """From a mid-anneal state (greedy pass plus 20 moves) both loops
    run up to 400 moves; after every move they agree on the placement, the
    routes (steps included) and ``group_spots`` in dict order, on
    ``unplaced``, the MRRG occupancy and overuse, the wirelength and the
    RNG state.  Some moves are decided: the oracle routes, the
    production move does not."""
    state = _state_at_minimum_ii(*source)
    for group in state.order:
        if not state.place_group_best(group):
            state.unplaced.add(group)
    temperature = 6.0
    for _group, temperature in _anneal(state, _State.move, 20, temperature):
        pass
    decided, oracle = _copy(state), _copy(state)
    got, want = _counting(_State.move), _counting(_full_move)
    moves = saved = 0
    for (group, _t), (other, _u) in zip(
            _anneal(decided, got, 400, temperature),
            _anneal(oracle, want, 400, temperature)):
        assert group == other, (source, moves)
        assert _ordered(decided) == _ordered(oracle), (source, moves, group)
        assert got.calls <= want.calls, (source, moves, group)
        saved += got.calls < want.calls
        moves += 1
    assert moves, source
    # conv2x2 on plaid3x3 stays illegal: only its futile moves are
    # decided, and those route nothing either way.
    assert saved or source == ("conv2x2", "plaid3x3", "plaid"), source


# ---------------------------------------------------------------------------
# Hand-built states
# ---------------------------------------------------------------------------
def _singletons(names: str, edges, ii: int = 4, seed: int = 1):
    """A ``plaid`` state at ``ii`` over singleton groups named by
    ``names``, with ``edges`` as ``(src, dst, distance)`` name triples;
    returns it with a name -> group map."""
    dfg = DFG("hand")
    ids = {name: dfg.add_node(Opcode.ADD, name).node_id for name in names}
    for src, dst, distance in edges:
        dfg.add_edge(ids[src], ids[dst], distance=distance)
    hierarchy = HierarchicalDFG.from_groups(
        dfg, [Motif(MotifKind.SINGLETON, (ids[name],)) for name in names])
    state = _State(dfg, build_arch("plaid"), hierarchy, ii, None,
                   random.Random(seed))
    return state, {name: hierarchy.group_of(ids[name]) for name in names}


def _place(state: _State, group, fu_id: int, cycle: int) -> None:
    state._commit(group, [(state.hierarchy.groups[group].nodes[0], fu_id,
                           cycle)])


def _move_calls(state: _State, group, temperature: float = 1.0) -> int:
    """Route calls of one move on ``group``; the move must keep the
    state's cost."""
    calls, cost = ROUTING.calls, state.cost()
    assert state.move(group, cost, temperature) == cost
    return ROUTING.calls - calls


def test_stale_stamp_takes_the_full_path():
    """``v`` is stamped by its commit, then another group's route
    changes (``c`` moves to a better spot, re-routing ``b -> c``): the
    epoch moves on, so a move whose best candidate is ``v``'s own spot
    rips ``v`` up and re-routes its one edge.  That recommit is clean
    and refreshes the stamp, so the next such move routes nothing.

    ``a -> v`` has distance 1 (span 4 at II 4), and dummies on FUs 2 and
    3 leave FU 1 at cycle 0 as ``v``'s one best spot."""
    state, group = _singletons("avdebc", [("a", "v", 1), ("b", "c", 0)])
    _place(state, group["a"], 0, 0)
    _place(state, group["d"], 2, 0)
    _place(state, group["e"], 3, 0)
    _place(state, group["b"], 12, 0)
    _place(state, group["c"], 0, 3)                 # far from b
    assert state.place_group_best(group["v"])
    v = group["v"]
    assert state.group_spots[v][0][1:] == (1, 0)
    assert state._stamps[v] == state._epoch
    before = _copy(state)
    assert _move_calls(before, v) == 0             # stamped: decided

    c, cost = group["c"], state.cost()
    c_spots = state.group_spots[c]
    assert state.move(c, cost, 1e-9) < cost
    assert state.group_spots[c] != c_spots
    assert state._stamps[v] < state._epoch          # stale
    view = _view(state)
    assert _move_calls(state, v) == 1               # v's one routed edge
    assert _view(state) == view
    assert state._stamps[v] == state._epoch
    assert _move_calls(state, v) == 0


@pytest.mark.parametrize("legal", (True, False), ids=("legal", "illegal"))
def test_one_cycle_routes_need_a_legal_mrrg(legal):
    """``v`` sits one cycle after its producer on the bypass FU, so its
    one route is built from its endpoints alone.  With its stamp stale
    (``w`` committed since), a move whose best candidate is ``v``'s own
    spot is decided when the MRRG is legal and takes the full path when
    it is not (two nets on a one-wire link, made before ``v``
    committed, so ``v`` was never stamped either)."""
    state, group = _singletons("avdefw", [("a", "v", 0)])
    _place(state, group["a"], 0, 0)
    for name, fu_id in (("d", 0), ("e", 2), ("f", 3)):
        _place(state, group[name], fu_id, 1)
    if not legal:
        for net in (100, 101):
            state.mrrg.commit_route(step_route(net, ("res", "glink[0->2]"), 2))
        assert not state.mrrg.is_legal()
    v = group["v"]
    assert state.place_group_best(v)
    assert state.group_spots[v][0][1:] == (1, 1)
    assert state.place_group_best(group["w"])
    assert state._stamps[v] < state._epoch
    route, = state.routes.values()
    assert route.arrive_cycle - route.depart_cycle == 1
    view = _view(state)
    assert _move_calls(state, v) == (0 if legal else 1)
    assert _view(state) == view


def test_rejected_move_keeps_the_stamp():
    """A pair motif behind a placed producer is stamped by its commit.
    A move to a random PCU costs more and is rejected; its commit found
    nothing to negotiate, so the restore leaves the MRRG as the stamp
    saw it: the epoch and the stamp stay, and a full rip-up and
    recommit at the pair's own spots on a copy gives back its routes
    step for step."""
    dfg = DFG("pair")
    p, a, b = (dfg.add_node(Opcode.ADD, name).node_id for name in "pab")
    dfg.add_edge(p, a)
    dfg.add_edge(a, b)
    hierarchy = HierarchicalDFG.from_groups(dfg, [
        Motif(MotifKind.SINGLETON, (p,)), Motif(MotifKind.PAIR, (a, b))])
    state = _State(dfg, build_arch("plaid"), hierarchy, 4, None,
                   random.Random(2))
    for group in state.order:
        assert state.place_group_best(group)
    pair = hierarchy.group_of(a)
    assert state._stamps[pair] == state._epoch
    epoch, spots, view = state._epoch, state.group_spots[pair], _view(state)
    assert _move_calls(state, pair, 1e-9) == 2      # tried elsewhere
    assert state.group_spots[pair] == spots         # and rejected
    assert _view(state) == view
    assert state._epoch == epoch
    assert state._stamps[pair] == epoch

    redo = _copy(state)
    saved_spots, saved_routes = redo.unmap_group(pair)
    redo._commit(pair, saved_spots)
    assert {index: redo.routes[index].steps for index in saved_routes} \
        == {index: route.steps for index, route in saved_routes.items()}
