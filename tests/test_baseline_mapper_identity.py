"""Bit-identity lock on every mapping the PathFinder and SA baselines make.

``tests/data/baseline_mapping_digests.json`` holds, per (workload, arch,
mapper) cell, the :func:`mapping_digest` of the mapping (II, placement,
route steps) and the search's ``stats.attempts``: every registry workload
on ``st``, ``st-ml`` and ``plaid`` under ``pathfinder`` and ``sa``.  The
baselines' list scheduler and the annealer's move generator read
per-search tables and draw from the RNG inline; any change to them must
leave every digest, and so every RNG draw, untouched.

Next to each digest the fixture locks the search's route calls
(``routecore.ROUTING.calls``), equal under both routers, as
``plaid_mapping_digests.json`` does: a rise fails, and a fall is
committed with the fixture.

What the tables and the inlined draws replace lives on here as oracles:

* the per-edge timing check, proximity score and cycle-by-cycle scan:
  property tests check, over random partial placements, that
  :meth:`PlacementTables.best_spot` picks the spot a brute-force scan of
  every candidate FU picks, and that the list scheduler built on it
  places exactly like the scan scheduler and leaves the RNG in the same
  state;
* the annealer's move draw through ``rng.choice``/``rng.randrange``/
  ``MRRG.node_at``: a property test checks that the inlined draw returns
  the same spot and leaves the same RNG state;
* the annealer's route-every-move loop (displace, cost, draw, restore):
  every SA attempt on ``st`` and ``st-ml`` runs through it and through
  the production loop, which skips the routing of moves its lower bound
  already rejects, from copies of one RNG state, and must give the same
  mapping (or None) and RNG state.  A property test checks, over
  mid-anneal states, that the bound is the sum its definition gives and
  never above the cost after the real move, and that a skipped move
  leaves the state that displacing and restoring the node leaves; a
  one-edge test does the same for every FU pair and short span.  The
  transport latency table the bound reads is checked against the
  reference router: tight on an empty MRRG, and every longer span up to
  ``MAX_TRANSPORT_CYCLES`` routes under congestion and history;
* the stdlib itself: the inlined draws copy the loop of
  ``random.Random._randbelow_with_getrandbits``, and a test checks that
  ``choice``, ``randrange(n)`` and ``shuffle`` still consume the RNG
  exactly that way on the running Python, and that the Plaid mapper's
  inlined shuffle, choice and ``randrange(n)`` draw what those calls
  draw.

To regenerate after an intentional change to mapper behaviour, run
``PYTHONPATH=src python tests/test_baseline_mapper_identity.py`` and
explain the shift in the commit message.
"""

import copy
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arch import MRRG
from repro.arch.topology import manhattan
from repro.errors import MappingError
from repro.ir.graph import DFG, ORDERING
from repro.ir.ops import Opcode
from repro.eval.harness import _seed_for, build_arch
from repro.mapping import engine as mapping_engine
from repro.mapping.annealing import SimulatedAnnealingMapper, move_floor
from repro.mapping.base import Mapping
from repro.mapping.common import (
    PlacementTables, edge_indices_by_node, initial_placement,
    route_all_edges, route_one_edge,
)
from repro.mapping.mii import minimum_ii
from repro.mapping.plaid_mapper import _State
from repro.mapping.routecore import ROUTING, RoutingHistory
from repro.mapping.router import (
    MAX_TRANSPORT_CYCLES, route_edge, route_edge_reference,
    transport_latency_table,
)
from repro.motifs.types import MotifKind
from repro.workloads import get_dfg
from repro.workloads.registry import all_workloads

from mrrg_helpers import mrrg_state
from test_plaid_mapper_identity import mapping_digest

DIGEST_PATH = Path(__file__).parent / "data" / "baseline_mapping_digests.json"

WORKLOADS = tuple(spec.name for spec in all_workloads())
CELLS = tuple(
    (workload, arch_key, mapper_key)
    for workload in WORKLOADS
    for arch_key in ("st", "st-ml", "plaid")
    for mapper_key in ("pathfinder", "sa")
)


def cell_record(workload: str, arch_key: str, mapper_key: str) -> dict:
    """Digest, attempt count and route calls of one cell (or its
    failure)."""
    calls = ROUTING.calls
    try:
        mapping = mapping_engine.map_kernel(
            mapper_key, get_dfg(workload), build_arch(arch_key),
            lambda key: _seed_for(workload, arch_key, key))
    except MappingError as failure:
        return {"error": str(failure),
                "attempts": getattr(failure, "attempts", 0),
                "route_calls": ROUTING.calls - calls}
    return {"digest": mapping_digest(mapping),
            "attempts": mapping.stats.attempts,
            "route_calls": ROUTING.calls - calls}


def cell_id(cell) -> str:
    return "/".join(cell)


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGEST_PATH.read_text())


def test_fixture_covers_every_cell(digests):
    assert len(CELLS) == 180
    assert sorted(digests) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_mapping_matches_digest(cell, digests):
    got = cell_record(*cell)
    want = digests[cell_id(cell)]
    calls, locked = got.pop("route_calls"), want["route_calls"]
    assert got == {key: value for key, value in want.items()
                   if key != "route_calls"}, (
        f"mapping of {cell_id(cell)} moved; if intentional, regenerate "
        "tests/data/baseline_mapping_digests.json (see module docstring)"
    )
    assert calls <= locked, (
        f"{cell_id(cell)} routes more: {calls} calls against {locked} "
        "locked"
    )
    assert calls == locked, (
        f"{cell_id(cell)} routes less: {calls} calls against {locked} "
        "locked; regenerate the fixture to keep it"
    )


# ---------------------------------------------------------------------------
# Oracle: the per-edge checks and the cycle-by-cycle list scheduler
# ---------------------------------------------------------------------------
def timing_feasible(dfg, arch, ii, placement, node_id, fu_id, cycle):
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
            else transport_latency_table(arch)[src_fu][fu_id]
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
            else transport_latency_table(arch)[fu_id][dst_fu]
        if arrival - cycle < needed:
            return False
    return True


def proximity_score(arch, placement, dfg, node_id, fu_id):
    """Total mesh distance to placed neighbours (placement heuristic)."""
    tile = arch.fu(fu_id).tile
    score = 0
    for other in set(dfg.predecessors(node_id)) | set(dfg.successors(node_id)):
        if other in placement and other != node_id:
            other_tile = arch.fu(placement[other][0]).tile
            score += manhattan(tile, other_tile, arch.cols)
    return score


def scan_first_cycle(dfg, arch, mrrg, placement, node_id, fu_id,
                     node_asap, cap):
    """First free, timing-feasible cycle <= cap, found cycle by cycle."""
    earliest = node_asap
    for edge in dfg.in_edges(node_id):
        if edge.src not in placement or edge.src == node_id:
            continue
        src_fu, src_cycle = placement[edge.src]
        needed = 1 if edge.is_ordering \
            else transport_latency_table(arch)[src_fu][fu_id]
        earliest = max(earliest, src_cycle + needed - edge.distance * mrrg.ii)
    for cycle in range(max(earliest, 0), cap + 1):
        if mrrg.fu_free(fu_id, cycle) and timing_feasible(
                dfg, arch, mrrg.ii, placement, node_id, fu_id, cycle):
            return cycle
    return None


def scan_best_spot(tables, mrrg, placement, node_id, node_asap, fu_ids):
    """The scan scheduler's choice for one node over ``fu_ids`` in order."""
    dfg, arch = tables.dfg, tables.arch
    best = best_key = None
    for fu_id in fu_ids:
        cycle = scan_first_cycle(dfg, arch, mrrg, placement, node_id, fu_id,
                                 node_asap, tables.horizon - 1)
        if cycle is None:
            continue
        key = (cycle, proximity_score(arch, placement, dfg, node_id, fu_id))
        if best_key is None or key < best_key:
            best, best_key = (fu_id, cycle), key
    return best


def scan_initial_placement(tables, mrrg, rng, circuit_lateness=0):
    """The list scheduler as a scan over every FU and cycle."""
    dfg, arch = tables.dfg, tables.arch
    if tables.asap is None:
        return None
    late_nodes = tables.recurrence_nodes if circuit_lateness else set()
    placement = {}
    for node_id in tables.order:
        candidates = [fu.fu_id
                      for fu in arch.fus_supporting(dfg.node(node_id).op)]
        rng.shuffle(candidates)
        node_asap = tables.asap[node_id]
        if node_id in late_nodes:
            node_asap += circuit_lateness
        best = scan_best_spot(tables, mrrg, placement, node_id, node_asap,
                              candidates)
        if best is None:
            return None
        placement[node_id] = best
        mrrg.place_node(node_id, best[0], best[1])
    return placement


def random_partial_placement(tables, mrrg, rng, exclude=None):
    """Place a random subset of nodes on random free (fu, cycle) spots."""
    dfg, arch = tables.dfg, tables.arch
    placement = {}
    node_ids = [node.node_id for node in dfg.nodes if node.node_id != exclude]
    for node_id in rng.sample(node_ids, rng.randrange(len(node_ids) + 1)):
        fu = rng.choice(arch.fus_supporting(tables.ops[node_id]))
        cycle = rng.randrange(tables.horizon)
        if mrrg.fu_free(fu.fu_id, cycle):
            mrrg.place_node(node_id, fu.fu_id, cycle)
            placement[node_id] = (fu.fu_id, cycle)
    return placement


def with_extra_edges(dfg, rng):
    """A copy of ``dfg`` plus a few random loop-carried ordering edges
    (self-edges included), so that short-distance bounds get exercised."""
    dfg = copy.deepcopy(dfg)
    node_ids = [node.node_id for node in dfg.nodes]
    for _ in range(rng.randrange(4)):
        dfg.add_edge(rng.choice(node_ids), rng.choice(node_ids), ORDERING,
                     distance=rng.randint(1, 2))
    return dfg


ORACLE_ARCHS = ("st", "st-ml", "plaid")


@settings(max_examples=80, deadline=None)
@given(workload=st.sampled_from(WORKLOADS),
       arch_key=st.sampled_from(ORACLE_ARCHS),
       ii=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_best_spot_matches_scan(workload, arch_key, ii, seed):
    rng = random.Random(seed)
    dfg, arch = with_extra_edges(get_dfg(workload), rng), build_arch(arch_key)
    tables = PlacementTables(dfg, arch, ii)
    mrrg = MRRG(arch, ii)
    node_id = rng.choice([node.node_id for node in dfg.nodes])
    placement = random_partial_placement(tables, mrrg, rng, exclude=node_id)
    node_asap = rng.choice((0, rng.randrange(tables.horizon)))
    fu_ids = list(tables.fu_ids[node_id])
    # Each FU alone: its first feasible cycle.
    for fu_id in fu_ids:
        assert tables.best_spot(mrrg, placement, node_id, node_asap,
                                [fu_id]) == \
            scan_best_spot(tables, mrrg, placement, node_id, node_asap,
                           [fu_id])
    # All of them in a shuffled order: the (cycle, proximity) winner.
    rng.shuffle(fu_ids)
    assert tables.best_spot(mrrg, placement, node_id, node_asap, fu_ids) == \
        scan_best_spot(tables, mrrg, placement, node_id, node_asap, fu_ids)


def test_best_spot_edge_cases():
    """Slot wrap-around, empty and negative cycle ranges, a full FU."""
    dfg = DFG("edges")
    producer, node, consumer = (dfg.add_node(Opcode.ADD) for _ in range(3))
    dfg.add_edge(producer, node, ORDERING)
    dfg.add_edge(node, consumer, ORDERING)
    arch = build_arch("st")
    tables = PlacementTables(dfg, arch, 3)
    mrrg = MRRG(arch, 3)
    mrrg.place_node(100, 5, 0)
    mrrg.place_node(101, 5, 1)
    node_id = node.node_id

    def spot(node_asap, fu_ids, producer_at=None, consumer_at=None):
        placement = {}
        if producer_at is not None:
            placement[producer.node_id] = (0, producer_at)
        if consumer_at is not None:
            placement[consumer.node_id] = (0, consumer_at)
        return tables.best_spot(mrrg, placement, node_id, node_asap, fu_ids)

    # Wraps past II: cycles 3 and 4 fold onto the taken slots 0 and 1.
    assert spot(3, [5]) == (5, 5)
    assert spot(3, [5], consumer_at=5) is None       # cycles 3..4 only
    assert spot(2, [5], consumer_at=3) == (5, 2)     # cycle 2 only
    # A producer's bound works like the node's own earliest time.
    assert spot(0, [5], producer_at=2) == (5, 5)
    # An empty range, even on a free FU.
    assert spot(4, [6], consumer_at=4) is None
    # Negative lower bounds clamp to cycle 0.
    assert spot(-3, [5]) == (5, 2)
    assert spot(-2, [6]) == (6, 0)
    assert spot(0, [6], producer_at=-5) == (6, 0)
    # A full FU has no free cycle, however wide the range; the next
    # candidate wins.
    mrrg.place_node(102, 5, 2)
    assert spot(0, [5]) is None
    assert spot(-7, [5, 6]) == (6, 0)


@settings(max_examples=40, deadline=None)
@given(workload=st.sampled_from(WORKLOADS),
       arch_key=st.sampled_from(ORACLE_ARCHS),
       ii=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_timing_ok_matches_oracle(workload, arch_key, ii, seed):
    """The annealer's check, with the moving node itself placed."""
    rng = random.Random(seed)
    dfg, arch = with_extra_edges(get_dfg(workload), rng), build_arch(arch_key)
    tables = PlacementTables(dfg, arch, ii)
    placement = random_partial_placement(tables, MRRG(arch, ii), rng)
    node_id = rng.choice([node.node_id for node in dfg.nodes])
    others = {k: v for k, v in placement.items() if k != node_id}
    for fu in arch.fus_supporting(tables.ops[node_id]):
        for cycle in range(tables.horizon):
            assert tables.timing_ok(placement, node_id, fu.fu_id, cycle) \
                == timing_feasible(dfg, arch, ii, others, node_id,
                                   fu.fu_id, cycle)


@settings(max_examples=30, deadline=None)
@given(workload=st.sampled_from(WORKLOADS),
       arch_key=st.sampled_from(ORACLE_ARCHS),
       ii=st.integers(1, 6), lateness=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_initial_placement_matches_scan(workload, arch_key, ii, lateness,
                                        seed):
    dfg = with_extra_edges(get_dfg(workload), random.Random(seed))
    tables = PlacementTables(dfg, build_arch(arch_key), ii)
    rng, scan_rng = random.Random(seed), random.Random(seed)
    arch = tables.arch
    assert initial_placement(tables, MRRG(arch, ii), rng, lateness) == \
        scan_initial_placement(tables, MRRG(arch, ii), scan_rng, lateness)
    assert rng.getstate() == scan_rng.getstate()


# ---------------------------------------------------------------------------
# Oracle: the annealer's move draw through the stdlib RNG calls
# ---------------------------------------------------------------------------
def oracle_candidate(tables, mrrg, placement, node_id, rng):
    """Random compatible (fu, cycle) different from the current spot."""
    fus = tables.arch.fus_supporting(tables.ops[node_id])
    horizon = tables.horizon
    current = placement[node_id]
    for _try in range(12):
        fu = rng.choice(fus)
        cycle = rng.randrange(horizon)
        if (fu.fu_id, cycle) == current:
            continue
        occupant = mrrg.node_at(fu.fu_id, cycle)
        if occupant is not None and occupant != node_id:
            continue
        if not tables.timing_ok(placement, node_id, fu.fu_id, cycle):
            continue
        return (fu.fu_id, cycle)
    return None


@settings(max_examples=60, deadline=None)
@given(workload=st.sampled_from(WORKLOADS),
       arch_key=st.sampled_from(ORACLE_ARCHS),
       ii=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_candidate_matches_oracle(workload, arch_key, ii, seed):
    rng = random.Random(seed)
    dfg, arch = with_extra_edges(get_dfg(workload), rng), build_arch(arch_key)
    tables = PlacementTables(dfg, arch, ii)
    mrrg = MRRG(arch, ii)
    placement = random_partial_placement(tables, mrrg, rng)
    mapper = SimulatedAnnealingMapper()
    for _draw in range(8 if placement else 0):
        node_id = rng.choice(sorted(placement))
        draw_seed = rng.getrandbits(32)
        new_rng, oracle_rng = random.Random(draw_seed), \
            random.Random(draw_seed)
        assert mapper._candidate(tables, mrrg, placement, node_id,
                                 new_rng) == \
            oracle_candidate(tables, mrrg, placement, node_id, oracle_rng)
        assert new_rng.getstate() == oracle_rng.getstate()


class NoEmptyDraws(random.Random):
    """An RNG that refuses ``getrandbits(0)``, on which an inlined draw
    over an empty range would spin forever."""

    def getrandbits(self, k):
        assert k > 0, "draw over an empty range"
        return super().getrandbits(k)


def test_candidate_without_fus_returns_none():
    dfg, arch = get_dfg(WORKLOADS[0]), build_arch("st")
    tables = PlacementTables(dfg, arch, 2)
    node_id = dfg.nodes[0].node_id
    tables.fu_ids[node_id] = ()
    rng = NoEmptyDraws(7)
    state = rng.getstate()
    assert SimulatedAnnealingMapper()._candidate(
        tables, MRRG(arch, 2), {node_id: (0, 0)}, node_id, rng) is None
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# Oracle: the annealer's route-every-move loop
# ---------------------------------------------------------------------------
class AnnealState:
    """The annealer's mutable search state at one II."""

    def __init__(self, tables, mrrg, placement, routes, unrouted,
                 temperature=SimulatedAnnealingMapper.START_TEMP):
        self.tables = tables
        self.mrrg = mrrg
        self.placement = placement
        self.routes = routes
        self.unrouted = unrouted
        self.temperature = temperature
        self.incident = edge_indices_by_node(tables.dfg)

    def clone(self) -> "AnnealState":
        """An independent copy sharing only the tables and the fabric."""
        arch = self.tables.arch
        return AnnealState(self.tables,
                           copy.deepcopy(self.mrrg, {id(arch): arch}),
                           dict(self.placement), dict(self.routes),
                           set(self.unrouted), self.temperature)

    def snapshot(self) -> dict:
        return {"routes": list(self.routes.items()),
                "unrouted": set(self.unrouted),
                "placement": dict(self.placement),
                "mrrg": mrrg_state(self.mrrg)}

    def cost(self) -> float:
        """The annealer's objective, summed from scratch."""
        return 1000.0 * len(self.unrouted) \
            + 100.0 * self.mrrg.total_overuse() \
            + 1.0 * sum(len(route.steps) for route in self.routes.values())


def anneal_start(tables, rng):
    """The annealer's start: the list schedule, retried with later
    circuits, and every data edge routed; None when nothing schedules."""
    for lateness in (0, 1, 2, 3):
        mrrg = MRRG(tables.arch, tables.ii)
        placement = initial_placement(tables, mrrg, rng,
                                      circuit_lateness=lateness)
        if placement is not None:
            break
    else:
        return None
    routes, failures = route_all_edges(tables.dfg, mrrg, placement)
    return AnnealState(tables, mrrg, placement, routes, set(failures))


def oracle_displace(state, node_id, candidate):
    """Move a node and reroute its incident edges; returns undo state."""
    mrrg, routes, unrouted = state.mrrg, state.routes, state.unrouted
    edge_indices = state.incident[node_id]
    old_spot = state.placement[node_id]
    old_routes = {index: routes.get(index) for index in edge_indices}
    old_unrouted = {index for index in edge_indices if index in unrouted}
    for index in edge_indices:
        route = routes.pop(index, None)
        if route is not None:
            mrrg.uncommit_route(route)
        unrouted.discard(index)
    mrrg.unplace_node(node_id, *old_spot)
    mrrg.place_node(node_id, *candidate)
    state.placement[node_id] = candidate
    dfg = state.tables.dfg
    for index in edge_indices:
        if dfg.edges[index].is_ordering:
            continue
        route = route_one_edge(dfg, mrrg, state.placement, index)
        if route is None:
            unrouted.add(index)
        else:
            routes[index] = route
    return old_spot, old_routes, old_unrouted


def oracle_restore(state, node_id, saved):
    """Undo :func:`oracle_displace`."""
    mrrg, routes, unrouted = state.mrrg, state.routes, state.unrouted
    old_spot, old_routes, old_unrouted = saved
    for index in state.incident[node_id]:
        route = routes.pop(index, None)
        if route is not None:
            mrrg.uncommit_route(route)
        unrouted.discard(index)
    mrrg.unplace_node(node_id, *state.placement[node_id])
    mrrg.place_node(node_id, *old_spot)
    state.placement[node_id] = old_spot
    for index, route in old_routes.items():
        if route is not None:
            routes[index] = route
            mrrg.commit_route(route)
    unrouted.update(old_unrouted)


def oracle_moves(state, rng, moves):
    """Up to ``moves`` Metropolis moves, each one routed before the
    draw, through the stdlib RNG calls."""
    cooling = SimulatedAnnealingMapper.COOLING
    tables, mrrg = state.tables, state.mrrg
    node_ids = [node.node_id for node in tables.dfg.nodes]
    cost = state.cost()
    for _move in range(moves):
        if not state.unrouted and mrrg.is_legal():
            break
        node_id = rng.choice(node_ids)
        candidate = oracle_candidate(tables, mrrg, state.placement, node_id,
                                     rng)
        if candidate is None:
            state.temperature *= cooling
            continue
        saved = oracle_displace(state, node_id, candidate)
        new_cost = state.cost()
        delta = new_cost - cost
        if delta <= 0 or rng.random() < math.exp(
                -delta / max(state.temperature, 1e-6)):
            cost = new_cost
        else:
            oracle_restore(state, node_id, saved)
        state.temperature *= cooling


def oracle_anneal(tables, rng):
    """One SA attempt at ``tables.ii`` on the route-every-move loop."""
    state = anneal_start(tables, rng)
    if state is None:
        return None
    oracle_moves(state, rng, SimulatedAnnealingMapper.MOVES_PER_II)
    if state.unrouted or not state.mrrg.is_legal():
        return None
    mapping = Mapping(dfg=tables.dfg, arch=tables.arch, ii=tables.ii,
                      placement=dict(state.placement),
                      routes=dict(state.routes))
    mapping.validate()
    return mapping


SA_CELLS = tuple((workload, arch_key) for workload in WORKLOADS
                 for arch_key in ("st", "st-ml"))
#: Cells whose SA search fails at some II before it maps.
FAILING_II_CELLS = (("gesum_u4", "st"), ("durbin_u4", "st"))


@pytest.mark.parametrize("cell", SA_CELLS, ids="/".join)
def test_anneal_matches_route_every_move_oracle(cell, monkeypatch):
    """Every SA attempt of the cell's search, at the harness seed."""
    workload, arch_key = cell
    anneal = SimulatedAnnealingMapper._anneal
    outcomes = []

    def checked(self, tables, rng):
        oracle_rng = random.Random()
        oracle_rng.setstate(rng.getstate())
        want = oracle_anneal(tables, oracle_rng)
        got = anneal(self, tables, rng)
        digest = None if got is None else mapping_digest(got)
        assert digest == (None if want is None else mapping_digest(want)), \
            f"{workload}/{arch_key} at II {tables.ii}"
        assert rng.getstate() == oracle_rng.getstate(), \
            f"{workload}/{arch_key} at II {tables.ii}"
        outcomes.append(digest)
        return got

    monkeypatch.setattr(SimulatedAnnealingMapper, "_anneal", checked)
    cell_record(workload, arch_key, "sa")
    assert outcomes[-1] is not None
    if cell in FAILING_II_CELLS:
        assert None in outcomes


def oracle_fewest_moves(arch, src_fu, dst_fu):
    """Fewest ``arch.moves`` from the producer's place to a consume
    place of the consumer, or None when there is no path."""
    goals = arch.consume_places[dst_fu]
    seen = {arch.produce_place[src_fu]}
    frontier, moves = list(seen), 0
    while frontier:
        if any(place in goals for place in frontier):
            return moves
        frontier = [move.dst for move in arch.moves
                    if move.src in frontier and move.dst not in seen]
        seen.update(frontier)
        moves += 1
    return None


def oracle_floor(state, node_id, spot):
    """The bound's definition: the cost after the node's routes are
    ripped up, plus the fewest steps of each incident data edge's route
    at the new spot (1000 when it cannot route)."""
    dfg, arch, ii = state.tables.dfg, state.tables.arch, state.tables.ii
    floor = state.cost()
    for index in state.incident[node_id]:
        edge = dfg.edges[index]
        if edge.is_ordering:
            continue
        src_fu, src_cycle = spot if edge.src == node_id \
            else state.placement[edge.src]
        dst_fu, dst_cycle = spot if edge.dst == node_id \
            else state.placement[edge.dst]
        span = dst_cycle + edge.distance * ii - src_cycle
        moves = oracle_fewest_moves(arch, src_fu, dst_fu)
        if span == 1 and (src_fu, dst_fu) in arch.bypass_pairs:
            continue
        if not 1 <= span <= MAX_TRANSPORT_CYCLES or moves is None \
                or moves > span - 1:
            floor += 1000
        else:
            floor += span + moves
    return floor


@pytest.mark.parametrize("arch_key", ORACLE_ARCHS)
def test_fewest_moves_table_is_tight(arch_key):
    """The transport latency is one cycle per fewest move plus one: on
    an empty MRRG every FU pair routes at that span, and a pair with
    moves fails a cycle sooner unless it is a span-1 bypass pair."""
    arch = build_arch(arch_key)
    table = transport_latency_table(arch)
    mrrg = MRRG(arch, 1)
    for src_fu in range(len(arch.fus)):
        for dst_fu in range(len(arch.fus)):
            latency = table[src_fu][dst_fu]
            assert latency == oracle_fewest_moves(arch, src_fu, dst_fu) + 1
            assert route_edge_reference(mrrg, 0, src_fu, 0, dst_fu,
                                        latency, commit=False)
            if latency > 1 and not (latency == 2 and
                                    (src_fu, dst_fu) in arch.bypass_pairs):
                assert route_edge_reference(mrrg, 0, src_fu, 0, dst_fu,
                                            latency - 1, commit=False) \
                    is None


@settings(max_examples=40, deadline=None)
@given(arch_key=st.sampled_from(ORACLE_ARCHS), ii=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_span_from_the_latency_routes(arch_key, ii, seed):
    """Congestion and history only raise a route's cost: under random
    committed routes and PathFinder history, every pair routes at every
    span from its transport latency up to ``MAX_TRANSPORT_CYCLES``, on
    the compiled router and the reference alike."""
    arch = build_arch(arch_key)
    latency = transport_latency_table(arch)
    rng = random.Random(seed)
    n_fus = len(arch.fus)
    mrrg = MRRG(arch, ii)
    for net in range(rng.randrange(24)):
        src_fu, dst_fu = rng.randrange(n_fus), rng.randrange(n_fus)
        span = latency[src_fu][dst_fu] + rng.randrange(4)
        route_edge_reference(mrrg, net, src_fu, 0, dst_fu, span)
    history = RoutingHistory.for_mrrg(mrrg)
    for _ in range(rng.randrange(40)):
        history.array[rng.randrange(len(history.array))] += \
            rng.choice((0.5, 1.0, 3.0))
    for _ in range(6):
        src_fu, dst_fu = rng.randrange(n_fus), rng.randrange(n_fus)
        least = latency[src_fu][dst_fu]
        for span in sorted({least, least + 1, rng.randint(least, 16),
                            MAX_TRANSPORT_CYCLES}):
            depart = rng.randrange(ii)
            route = route_edge(mrrg, 99, src_fu, depart, dst_fu,
                               depart + span, history, commit=False)
            assert route is not None, (src_fu, dst_fu, span)
            assert route == route_edge_reference(
                mrrg, 99, src_fu, depart, dst_fu, depart + span,
                history=history, commit=False)


@pytest.mark.parametrize("arch_key", ORACLE_ARCHS)
def test_move_floor_of_one_edge(arch_key):
    """One data edge, every FU pair and spans 0..6 (bypass pairs
    included): the floor is the definition's and never above the cost
    once the edge routes on an empty MRRG."""
    dfg = DFG("pair")
    producer, consumer = dfg.add_node(Opcode.ADD), dfg.add_node(Opcode.ADD)
    dfg.add_edge(producer, consumer)
    arch = build_arch(arch_key)
    tables = PlacementTables(dfg, arch, 4)
    node_id = consumer.node_id
    for src_fu in range(len(arch.fus)):
        for dst_fu in range(len(arch.fus)):
            for span in range(7):
                state = AnnealState(tables, MRRG(arch, 4),
                                    {producer.node_id: (src_fu, 0)}, {},
                                    set())
                bound = move_floor(tables, state.mrrg, state.placement, 0,
                                   0, node_id, (dst_fu, span))
                assert bound == oracle_floor(state, node_id, (dst_fu, span))
                state.placement[node_id] = (dst_fu, span)
                route = route_one_edge(dfg, state.mrrg, state.placement, 0)
                if route is None:
                    state.unrouted.add(0)
                else:
                    state.routes[0] = route
                assert bound <= state.cost()


@settings(max_examples=40, deadline=None)
@given(workload=st.sampled_from(WORKLOADS),
       arch_key=st.sampled_from(ORACLE_ARCHS),
       extra_ii=st.integers(0, 2), warmup=st.integers(0, 120),
       seed=st.integers(0, 2 ** 32 - 1))
def test_move_floor_and_skip(workload, arch_key, extra_ii, warmup, seed):
    """Over mid-anneal states: the bound is its definition's sum and at
    most the cost after the real move, and the skip path (rip up, put
    back) leaves the state that displacing and restoring leaves."""
    dfg, arch = get_dfg(workload), build_arch(arch_key)
    tables = PlacementTables(dfg, arch, minimum_ii(dfg, arch) + extra_ii)
    rng = random.Random(seed)
    state = anneal_start(tables, rng)
    assume(state is not None)
    oracle_moves(state, rng, warmup)
    mapper = SimulatedAnnealingMapper()
    node_ids = [node.node_id for node in dfg.nodes]
    for _move in range(6):
        node_id = rng.choice(node_ids)
        candidate = mapper._candidate(tables, state.mrrg, state.placement,
                                      node_id, rng)
        if candidate is None:
            continue
        edge_indices = state.incident[node_id]
        # The bound, on the state with the node's routes ripped up.
        ripped = state.clone()
        _saved, removed = mapper._rip_up(ripped.mrrg, ripped.routes,
                                         ripped.unrouted, edge_indices)
        steps = sum(len(route.steps) for route in ripped.routes.values())
        assert steps + removed == sum(len(route.steps)
                                      for route in state.routes.values())
        bound = move_floor(tables, ripped.mrrg, ripped.placement,
                           len(ripped.unrouted), steps, node_id, candidate)
        assert bound == oracle_floor(ripped, node_id, candidate)
        # ... is never above the cost after the real move.
        moved = state.clone()
        oracle_displace(moved, node_id, candidate)
        assert bound <= moved.cost()
        # A skipped move leaves what displace plus restore leaves.
        skipped, undone = state.clone(), state.clone()
        saved, _removed = mapper._rip_up(skipped.mrrg, skipped.routes,
                                         skipped.unrouted, edge_indices)
        mapper._put_back(skipped.mrrg, skipped.routes, skipped.unrouted,
                         saved)
        oracle_restore(undone, node_id,
                       oracle_displace(undone, node_id, candidate))
        assert skipped.snapshot() == undone.snapshot()
        # Walk on: take the move half the time.
        if rng.random() < 0.5:
            state = moved


# ---------------------------------------------------------------------------
# The stdlib draw code the inlined loops copy
# ---------------------------------------------------------------------------
def draw_below(rng, n):
    """``rng._randbelow(n)`` as the mappers inline it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _plaid_draw_state(n, rng):
    """Just enough of a Plaid mapper ``_State`` for its inlined draws:
    group 0 is a singleton with ``n`` candidate FUs and group 1 a motif
    with ``n`` candidate PCUs and ``n`` random starts; ``n`` groups are
    unplaced, ``n`` placed and ``n`` congested."""
    return SimpleNamespace(
        rng=rng, ii=n, horizon=n, _group_asap=[0, 0],
        hierarchy=SimpleNamespace(groups=[
            SimpleNamespace(nodes=(0,)),
            SimpleNamespace(nodes=(1, 2, 3), kind=MotifKind.FAN_IN)]),
        _fu_ids={0: tuple(range(n))},
        _placed_links=lambda group: [],
        _pcus_for_kind=lambda kind: list(range(n)),
        _earliest=lambda links, fu_id: 0,
        _collective_candidates=lambda group, links, pcu, templates, starts,
        weight: (pcu, starts),
        unplaced=set(range(n)), group_spots=dict.fromkeys(range(n, 2 * n)),
        _congested_groups=lambda: list(range(2 * n, 3 * n)))


def test_inlined_draws_match_stdlib():
    recheck = ("random.Random draws differently on this Python; the "
               "inlined draws in repro.mapping.annealing, "
               "repro.mapping.common.initial_placement and "
               "repro.mapping.plaid_mapper must be re-checked")
    assert random.Random._randbelow is \
        random.Random._randbelow_with_getrandbits, recheck
    for n in range(1, 41):
        items = list(range(n))
        stdlib, inlined = random.Random(n), random.Random(n)
        for _draw in range(5):
            assert stdlib.choice(items) == items[draw_below(inlined, n)], \
                recheck
            assert stdlib.randrange(n) == draw_below(inlined, n), recheck
        shuffled = list(items)
        stdlib.shuffle(items)
        for i in range(n - 1, 0, -1):
            j = draw_below(inlined, i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        assert items == shuffled, recheck
        assert stdlib.getstate() == inlined.getstate(), recheck

        # The Plaid mapper's own inlined draws: its singleton FU order
        # (shuffle), a motif's random PCU and start (choice, randrange)
        # and the annealing victim (random, then choice).
        stdlib, inlined = random.Random(n), random.Random(n)
        state = _plaid_draw_state(n, inlined)
        for _draw in range(5):
            fus = list(range(n))
            stdlib.shuffle(fus)
            assert _State._singleton_candidates(state, 0) == fus, recheck
            pcu = stdlib.choice(range(n))
            start0 = stdlib.randrange(n)
            assert _State._random_candidates(state, 1) == (
                pcu, (start0, start0 + 1, 0)), recheck
            if stdlib.random() < 0.7:
                victim = stdlib.choice(sorted(state.unplaced))
            elif stdlib.random() < 0.75:
                victim = stdlib.choice(state._congested_groups())
            else:
                victim = stdlib.choice(list(state.group_spots))
            assert _State.pick_victim(state) == victim, recheck
        assert stdlib.getstate() == inlined.getstate(), recheck


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(
        {cell_id(cell): cell_record(*cell) for cell in CELLS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CELLS)} digests to {DIGEST_PATH}")
