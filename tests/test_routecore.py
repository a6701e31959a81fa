"""Conformance locks for the compiled routing core.

Three invariants, mirroring the PR 2/PR 3 engine pattern:

* **Per-route:** :func:`routecore.route_edge_compiled` returns exactly
  the same :class:`Route` (steps, order, places, endpoints) as
  :func:`router.route_edge_reference` for any scenario — empty fabrics,
  congested fabrics, fanout sharing, negotiation history.
* **Per-search:** whole mapper runs on the compiled router are
  bit-identical to runs with the reference router swapped in
  (:func:`mrrg_helpers.reference_router`): placements, routes, IIs,
  attempt counts, across the golden-grid workloads, for every temporal
  mapper.
* **Negotiation:** PathFinder's incremental dirty-net negotiation
  produces bit-identical mappings to the full rip-up oracle
  (``incremental=False``) across the same grid.

Plus an accounting oracle: after any sequence of commits and uncommits,
the MRRG's flat arrays answer every congestion query exactly like a
brute-force model rebuilt from the surviving charges.
"""

import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.arch import MRRG, make_plaid, make_spatio_temporal
from repro.arch.mrrg import Route, RouteStep, resource_index
from repro.errors import MappingError
from repro.eval.harness import _seed_for
from repro.mapping import routecore
from repro.mapping.engine import get_mapper
from repro.mapping.pathfinder import PathFinderMapper
from repro.mapping.router import (
    ROUTING, RoutingHistory, min_transport_latency, route_edge,
    route_edge_reference,
)
from repro.workloads import get_dfg

from mrrg_helpers import reference_router

GOLDEN_WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]

MAPPER_CASES = [
    ("pathfinder", "st", lambda: make_spatio_temporal(4, 4)),
    ("sa", "st", lambda: make_spatio_temporal(4, 4)),
    ("plaid", "plaid", lambda: make_plaid(2, 2)),
    ("greedy", "plaid", lambda: make_plaid(2, 2)),
]


def _assert_same_route(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a == b
        assert a.steps == b.steps        # step order, not just set


# ---------------------------------------------------------------------------
# Per-route conformance
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(src=st.integers(0, 15), dst=st.integers(0, 15),
       slack=st.integers(0, 5), ii=st.sampled_from([2, 4, 7]),
       depart=st.integers(0, 9))
def test_compiled_matches_reference_empty_fabric(src, dst, slack, ii,
                                                 depart):
    arch = make_spatio_temporal(4, 4)
    compiled = MRRG(arch, ii)
    reference = MRRG(arch, ii)
    arrive = depart + min_transport_latency(arch, src, dst) + slack
    core = routecore.route_core_for(arch, ii)
    got = routecore.route_edge_compiled(
        compiled, core, 1, src, depart, dst, arrive, core.zero_hist, False)
    want = route_edge_reference(reference, 1, src, depart, dst, arrive,
                                commit=False)
    _assert_same_route(got, want)


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**20), ii=st.sampled_from([2, 4]),
       plaid=st.booleans())
def test_compiled_matches_reference_congested(seed, ii, plaid):
    """Random committed routes (congestion + fanout sharing + history),
    then every further routing request must agree between engines."""
    import random

    arch = make_plaid(2, 2) if plaid else make_spatio_temporal(4, 4)
    compiled = MRRG(arch, ii)
    reference = MRRG(arch, ii)
    core = routecore.route_core_for(arch, ii)
    rng = random.Random(seed)
    n_fus = len(arch.fus)
    history = RoutingHistory(core)

    # Commit a handful of routes on BOTH graphs, reusing a few nets so
    # fanout sharing and refcounts are exercised; sprinkle history.
    for _ in range(rng.randrange(1, 10)):
        net = rng.randrange(3)
        src, dst = rng.randrange(n_fus), rng.randrange(n_fus)
        depart = rng.randrange(4)
        arrive = depart + min_transport_latency(arch, src, dst) \
            + rng.randrange(3)
        got = routecore.route_edge_compiled(
            compiled, core, net, src, depart, dst, arrive,
            history.array, True)
        want = route_edge_reference(reference, net, src, depart, dst,
                                    arrive, history, commit=True)
        _assert_same_route(got, want)
        if rng.random() < 0.3:
            for resource, slot, used, cap in reference.overuse()[:2]:
                history.add(resource, slot, 2.0 * (used - cap))
    assert compiled.occupancy_snapshot() == reference.occupancy_snapshot()
    assert compiled.overuse() == reference.overuse()

    # Now probe a grid of fresh requests against the congested state.
    for src in range(0, n_fus, 3):
        for dst in range(0, n_fus, 2):
            for net in (0, 7):
                arrive = min_transport_latency(arch, src, dst) + 1
                got = routecore.route_edge_compiled(
                    compiled, core, net, src, 0, dst, arrive,
                    history.array, False)
                want = route_edge_reference(reference, net, src, 0, dst,
                                            arrive, history, commit=False)
                _assert_same_route(got, want)


# ---------------------------------------------------------------------------
# Whole-search conformance: compiled router vs reference router
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mapper_key,arch_key,arch_factory", MAPPER_CASES)
def test_mapper_runs_bit_identical_across_engines(mapper_key, arch_key,
                                                  arch_factory):
    for workload in GOLDEN_WORKLOADS:
        seed = _seed_for(workload, arch_key, mapper_key)
        with reference_router():
            reference = get_mapper(mapper_key).make(seed=seed).map(
                get_dfg(workload), arch_factory())
        compiled = get_mapper(mapper_key).make(seed=seed).map(
            get_dfg(workload), arch_factory())
        assert compiled.ii == reference.ii, workload
        assert compiled.placement == reference.placement, workload
        assert compiled.routes == reference.routes, workload
        assert compiled.stats.attempts == reference.stats.attempts
        assert compiled.stats.routing_failures \
            == reference.stats.routing_failures
        assert compiled.stats.transport_steps \
            == reference.stats.transport_steps


def test_pathfinder_incremental_matches_full_ripup():
    """Dirty-net negotiation == full rip-up across the golden seeds."""
    arch = make_spatio_temporal(4, 4)
    for workload in GOLDEN_WORKLOADS:
        seed = _seed_for(workload, "st", "pathfinder")
        dfg = get_dfg(workload)
        incremental = PathFinderMapper(seed=seed, incremental=True) \
            .map(dfg, arch)
        full = PathFinderMapper(seed=seed, incremental=False) \
            .map(dfg, arch)
        assert incremental.ii == full.ii, workload
        assert incremental.placement == full.placement, workload
        assert incremental.routes == full.routes, workload
        assert incremental.stats.attempts == full.stats.attempts


# ---------------------------------------------------------------------------
# Accounting oracle: flat arrays vs a brute-force model
# ---------------------------------------------------------------------------
ORACLE_ARCH = make_spatio_temporal(2, 2)
#: One 4-register place and two 1-wide links: few enough resources that
#: random routes share segments and overflow capacity.
ORACLE_RESOURCES = (("place", 0), ("res", "link[0->1]"),
                    ("res", "link[1->0]"))
ORACLE_NETS = 4
ORACLE_CYCLES = 4


def _capacity(resource):
    kind, ident = resource
    if kind == "place":
        return ORACLE_ARCH.place(ident).capacity
    return ORACLE_ARCH.resource_caps.get(ident, 1)


class _AccountingModel:
    """Step refcounts; every query recomputed from scratch."""

    def __init__(self, ii):
        self.ii = ii
        self.refs = Counter()            # (net, resource, cycle) -> refs
        self.overused = []               # (resource, slot), first-over order

    def usage(self):
        """Capacity-relevant usage per (resource, slot): distinct nets on
        a wire, distinct (net, cycle) pairs in a place."""
        users = {}
        for (net, resource, cycle), refs in self.refs.items():
            if refs:
                unit = net if resource[0] == "res" else (net, cycle)
                users.setdefault((resource, cycle % self.ii),
                                 set()).add(unit)
        return {key: len(units) for key, units in users.items()}

    def _track_overuse(self):
        usage = self.usage()
        over = {key for key, used in usage.items()
                if used > _capacity(key[0])}
        kept = [key for key in self.overused if key in over]
        fresh = over.difference(kept)
        assert len(fresh) <= 1           # one charge crosses one slot
        self.overused = kept + list(fresh)

    def commit(self, route):
        for step in route.steps:
            self.refs[(route.net, step.resource, step.cycle)] += 1
            self._track_overuse()

    def uncommit(self, route):
        for step in route.steps:
            key = (route.net, step.resource, step.cycle)
            if self.refs[key]:
                self.refs[key] -= 1
            self._track_overuse()

    def step_cost(self, net, resource, cycle, history):
        slot = cycle % self.ii
        for (other, charged, at), refs in self.refs.items():
            if refs and other == net and charged == resource \
                    and at % self.ii == slot \
                    and (resource[0] == "res" or at == cycle):
                return 0.0
        over = self.usage().get((resource, slot), 0) + 1 \
            - _capacity(resource)
        congestion = 4.0 * over if over > 0 else 0.0
        return 1.0 + congestion + history.get((resource, slot), 0.0)


_oracle_step = st.tuples(st.sampled_from(ORACLE_RESOURCES),
                         st.integers(0, ORACLE_CYCLES - 1))
_oracle_route = st.tuples(st.integers(0, ORACLE_NETS - 1),
                          st.lists(_oracle_step, max_size=3))


_PLACE, _WIRE_A, _WIRE_B = ORACLE_RESOURCES


@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
# Wire A goes over, then wire B, then A takes a third net: overuse()
# must still list A first.  The last route is uncommitted before it is
# ever committed.
@example(ii=2, specs=[(0, [(_WIRE_A, 0)]), (1, [(_WIRE_A, 2)]),
                      (0, [(_WIRE_B, 1)]), (1, [(_WIRE_B, 1)]),
                      (2, [(_WIRE_A, 0)]), (3, [(_PLACE, 1), (_PLACE, 3)])],
         ops=[(True, 0), (True, 1), (True, 2), (True, 3), (True, 4),
              (False, 5), (True, 5), (False, 0)],
         bumps=[(_WIRE_A, 0, 2.0), (_PLACE, 1, 0.5), (_WIRE_A, 0, 6.0)])
# One net per route alive at congruent cycles overfills the place.
@example(ii=2, specs=[(0, [(_PLACE, 0), (_PLACE, 2)]),
                      (1, [(_PLACE, 0), (_PLACE, 2)]),
                      (2, [(_PLACE, 2), (_WIRE_A, 1)])],
         ops=[(True, 0), (True, 1), (True, 2), (True, 0), (False, 1)],
         bumps=[])
@given(ii=st.sampled_from([1, 2, 3]),
       specs=st.lists(_oracle_route, min_size=3, max_size=6),
       ops=st.lists(st.tuples(st.sampled_from([True, True, False]),
                              st.integers(0, 5)),
                    min_size=6, max_size=30),
       bumps=st.lists(st.tuples(st.sampled_from(ORACLE_RESOURCES),
                                st.integers(0, 2),
                                st.sampled_from([0.5, 2.0, 6.0])),
                      max_size=4))
def test_accounting_matches_brute_force_model(ii, specs, ops, bumps):
    """Random commit/uncommit sequences over fanout nets sharing steps,
    one net at congruent cycles, over-capacity slots and uncommits of
    routes never committed: every query the mappers make agrees with the
    model, including overuse() order."""
    routes = [
        Route(net=net, steps=tuple(
            RouteStep("occupy" if resource[0] == "place" else "move",
                      resource, cycle) for resource, cycle in steps),
              src_fu=0, dst_fu=0, depart_cycle=0, arrive_cycle=1)
        for net, steps in specs
    ]
    mrrg = MRRG(ORACLE_ARCH, ii)
    model = _AccountingModel(ii)
    for commit, pick in ops:
        route = routes[pick % len(routes)]
        if commit:
            mrrg.commit_route(route)
            model.commit(route)
        else:
            mrrg.uncommit_route(route)
            model.uncommit(route)

    history = RoutingHistory(routecore.route_core_for(ORACLE_ARCH, ii))
    table = {}
    for resource, slot, amount in bumps:
        slot %= ii
        history.add(resource, slot, amount)
        table[(resource, slot)] = table.get((resource, slot), 0.0) + amount

    usage = model.usage()
    for resource in ORACLE_RESOURCES:
        for slot in range(ii):
            assert mrrg.usage_count(resource, slot) \
                == usage.get((resource, slot), 0)
        for net in range(ORACLE_NETS + 1):      # the last net never routes
            for cycle in range(ORACLE_CYCLES):
                assert mrrg.step_cost(net, resource, cycle) \
                    == model.step_cost(net, resource, cycle, {})
                assert mrrg.step_cost(net, resource, cycle, history) \
                    == model.step_cost(net, resource, cycle, table)
    want = [(resource, slot, usage[(resource, slot)], _capacity(resource))
            for resource, slot in model.overused]
    assert mrrg.overuse() == want
    assert mrrg.total_overuse() == sum(used - cap
                                       for _r, _s, used, cap in want)
    assert mrrg.is_legal() == (not want)


@pytest.mark.parametrize("resource", [("res", "no-such-wire"),
                                      ("place", 999)],
                         ids=["wire", "place"])
def test_validate_rejects_route_steps_on_missing_resources(resource):
    """A route step naming a wire or place the fabric lacks is a
    MappingError naming the resource, so is_valid() reports False."""
    arch = make_spatio_temporal(4, 4)
    mapping = PathFinderMapper(seed=_seed_for("gemm_u4", "st", "pathfinder")
                               ).map(get_dfg("gemm_u4"), arch)
    index, route = next((index, route)
                        for index, route in sorted(mapping.routes.items())
                        if route.steps)
    bad = RouteStep(route.steps[0].kind, resource, route.steps[0].cycle)
    mapping.routes[index] = Route(
        net=route.net, steps=(bad,) + route.steps[1:], src_fu=route.src_fu,
        dst_fu=route.dst_fu, depart_cycle=route.depart_cycle,
        arrive_cycle=route.arrive_cycle, places=route.places)
    with pytest.raises(MappingError, match=re.escape(repr(resource))):
        mapping.validate()
    assert not mapping.is_valid()


def test_resource_ids_are_fixed_per_fabric():
    """Places first (rid == place id), then wires in first-reference
    order; the route core reads the same numbering."""
    arch = make_spatio_temporal(4, 4)
    index = resource_index(arch)
    assert index is resource_index(arch)
    n_places = len(arch.places)
    assert index.key_of[:n_places] == tuple(
        ("place", place_id) for place_id in range(n_places))
    assert index.key_of[n_places] == ("res", arch.moves[0].resource)
    core = routecore.route_core_for(arch, 3)
    assert core.key_of == index.key_of
    for place_id in range(n_places):
        assert core.adj[place_id] == tuple(
            (move.dst, index.rid_of[("res", move.resource)])
            for move in arch.moves_from(place_id))


def test_cores_are_memoized_per_arch_and_ii():
    arch_a = make_spatio_temporal(4, 4)
    arch_b = make_spatio_temporal(4, 4)      # equal structure, new object
    core = routecore.route_core_for(arch_a, 4)
    assert routecore.route_core_for(arch_a, 4) is core
    assert routecore.route_core_for(arch_a, 5) is not core
    other = routecore.route_core_for(arch_b, 4)
    assert other is not core
    # Separately built equal fabrics compile to equal tables.
    assert other.adj == core.adj
    assert other.goal_rid == core.goal_rid
    assert other.key_of == core.key_of


# ---------------------------------------------------------------------------
# Routing-failure accounting
# ---------------------------------------------------------------------------
def test_route_edge_failures_are_counted():
    arch = make_spatio_temporal(4, 4)
    mrrg = MRRG(arch, 4)
    before = ROUTING.failures
    assert route_edge(mrrg, 0, 0, 0, 0, 0) is None      # zero span
    assert route_edge(mrrg, 0, 0, 0, 15, 2) is None     # needs 6 cycles
    assert route_edge(mrrg, 0, 0, 0, 0, 999) is None    # beyond MAX
    assert ROUTING.failures == before + 3
    before = ROUTING.failures
    assert route_edge(mrrg, 0, 5, 0, 6, 1) is not None
    assert ROUTING.failures == before


def test_mapping_stats_surface_routing_failures():
    """A successful search reports how many edge routings failed on the
    way; an exhausted search names the count in its error."""
    arch = make_spatio_temporal(4, 4)
    mapping = PathFinderMapper(seed=7).map(get_dfg("gesum_u2"), arch)
    assert mapping.stats.routing_failures >= 0   # populated, never None

    # An impossible II budget exhausts the search; the failure message
    # carries the routing-failure tally whenever routing was the blocker.
    with pytest.raises(MappingError, match="could not map"):
        PathFinderMapper(seed=7, max_ii=1).map(get_dfg("seidel"), arch)
