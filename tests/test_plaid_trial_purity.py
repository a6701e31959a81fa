"""The Plaid mapper's candidate trials are pure.

``_State._commit_best`` commits the first candidate, in estimate order,
whose every edge routes (Algorithm 2 lines 3-4).  A candidate that fails
is rolled back before any negotiation, so it must leave no trace.  These
tests capture real mid-search states of the golden-grid workloads on
``plaid``, ``plaid-ml`` and ``plaid3x3`` under the ``plaid`` mapper and
on ``st`` under the motif-blind ``greedy`` mapper (which runs the same
``_State`` search), then check every ``_commit_best`` call against its
definition:

- a call that returns False leaves the state exactly as it was;
- a call that returns True equals committing, on a fresh deep copy,
  the first candidate whose commit succeeds there.

Real candidates almost always route at the first try, so each call is
also replayed with the router refusing the last edge of the first
candidate, and then of every candidate: trials that fail after some of
their edges were committed.
"""

import copy
import random

import pytest

from mrrg_helpers import mrrg_state
from repro.eval.harness import _seed_for, build_arch
from repro.mapping import plaid_mapper
from repro.mapping.mii import minimum_ii
from repro.mapping.plaid_mapper import PlaidMapper, _State, singleton_hierarchy
from repro.workloads import get_dfg

WORKLOADS = ("dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2")
SOURCES = tuple(
    (workload, arch_key, "plaid")
    for workload in WORKLOADS
    for arch_key in ("plaid", "plaid-ml", "plaid3x3")
) + tuple((workload, "st", "greedy") for workload in WORKLOADS)


def _copy(state: _State) -> _State:
    """Deep copy sharing the immutable fabric, DFG and hierarchy."""
    memo = {id(state.arch): state.arch, id(state.dfg): state.dfg,
            id(state.hierarchy): state.hierarchy}
    return copy.deepcopy(state, memo)


def _state_at_minimum_ii(workload, arch_key, mapper_key) -> _State:
    """The search state the mapper starts from at its tightest II, where
    candidates fail to route most often."""
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
    """(state copy, group, candidate spot lists) at every non-empty
    ``_commit_best`` call of a short search."""
    state = _state_at_minimum_ii(*source)
    captured = []
    commit_best = _State._commit_best

    def capture(self, group, spot_lists):
        if spot_lists:
            captured.append((_copy(self), group, list(spot_lists)))
        return commit_best(self, group, spot_lists)

    _State._commit_best = capture
    try:
        plaid_mapper.solve_state(state, moves, 6.0, 0.99)
    finally:
        _State._commit_best = commit_best
    return captured


def _view(state: _State) -> dict:
    return {
        "placement": state.placement,
        "routes": state.routes,
        "group_spots": state.group_spots,
        "unplaced": state.unplaced,
        "mrrg": mrrg_state(state.mrrg),
    }


def _first_routable(snap: _State, group, spot_lists):
    """Oracle: (position, state) of the first candidate whose commit on
    a fresh copy of ``snap`` succeeds, or (None, None)."""
    for position, spots in enumerate(spot_lists):
        trial = _copy(snap)
        if trial._commit_spots(group, spots):
            return position, trial
    return None, None


def _edge_keys(snap: _State, group, spots) -> list[tuple]:
    """``route_edge`` arguments of a candidate's data edges, in the
    order :meth:`_State._commit_spots` routes them."""
    where = dict(snap.placement)
    where.update((node_id, (fu, cycle)) for node_id, fu, cycle in spots)
    keys = []
    for index in snap._incident_groups[group]:
        edge = snap._edge_list[index]
        if edge.is_ordering or edge.src not in where \
                or edge.dst not in where:
            continue
        (src_fu, src_cycle), (dst_fu, dst_cycle) = \
            where[edge.src], where[edge.dst]
        keys.append((edge.src, src_fu, src_cycle, dst_fu,
                     dst_cycle + edge.distance * snap.ii))
    return keys


def _refusing(refused: set):
    """``route_edge`` that finds no path for the ``refused`` calls."""
    route_edge = plaid_mapper.route_edge

    def refuse(mrrg, net, src_fu, depart, dst_fu, arrive):
        if (net, src_fu, depart, dst_fu, arrive) in refused:
            return None
        return route_edge(mrrg, net, src_fu, depart, dst_fu, arrive)
    return refuse


def _check_call(snap: _State, group, spot_lists):
    """Run one ``_commit_best`` call on a copy and compare it with its
    definition; returns the position of the committed candidate."""
    before = _view(snap)
    got = _copy(snap)
    committed = got._commit_best(group, spot_lists)
    position, want = _first_routable(snap, group, spot_lists)
    assert committed == (position is not None)
    assert _view(got) == (before if want is None else _view(want))
    return position


@pytest.fixture(scope="module")
def snapshots():
    return {source: _snapshots(source) for source in SOURCES}


@pytest.mark.parametrize("source", SOURCES, ids="/".join)
def test_commit_best_is_first_routable_and_pure(source, snapshots,
                                                monkeypatch):
    for call, (snap, group, spot_lists) in enumerate(snapshots[source]):
        _check_call(snap, group, spot_lists)
        edges = [_edge_keys(snap, group, spots) for spots in spot_lists]
        for doomed in (1, len(spot_lists)):
            refused = {keys[-1] for keys in edges[:doomed] if keys}
            with monkeypatch.context() as patch:
                patch.setattr(plaid_mapper, "route_edge", _refusing(refused))
                position = _check_call(snap, group, spot_lists)
            if all(edges[:doomed]):
                assert position is None or position >= doomed, call


def test_refused_trials_fail_after_committing_routes(snapshots):
    """The refused trials above include ones that had already committed
    routes before their last edge failed, on every source."""
    for source, captured in snapshots.items():
        assert any(
            len(_edge_keys(snap, group, spot_lists[0])) >= 2
            for snap, group, spot_lists in captured
        ), source


def test_singleton_scores_match_estimate(snapshots):
    """The hoisted singleton scorer ranks exactly like building each
    (FU, cycle) spot list and scoring it with ``_estimate``."""
    for source, captured in snapshots.items():
        for snap, group, _spots in captured:
            if snap.hierarchy.groups[group].is_collective:
                continue
            asap = snap._group_asap[group]
            rng_state = snap.rng.getstate()
            got = snap._scored_singletons(group, asap)
            snap.rng.setstate(rng_state)
            want = []
            node_id = snap.hierarchy.groups[group].nodes[0]
            for fu_id in snap._singleton_candidates(group):
                earliest = max(snap._earliest_start_fu(group, fu_id), asap)
                found = 0
                for cycle in range(earliest, min(earliest + 2 * snap.ii,
                                                 snap.horizon)):
                    if not snap.mrrg.fu_free(fu_id, cycle):
                        continue
                    spots = [(node_id, fu_id, cycle)]
                    estimate = snap._estimate(group, spots)
                    if estimate == float("inf"):
                        continue
                    want.append((estimate + 0.05 * cycle, spots))
                    found += 1
                    if found >= 3:
                        break
            assert got == want, (source, group)
