"""Replaying a trial-routed winner equals routing it again from scratch.

``_State._commit_best`` trial-routes every candidate and, when no trial
from the winner's on left negotiation residue, re-places the winner and
re-commits its cached trial routes instead of routing it again.  These
tests capture real mid-search states, then run ``_commit_best`` on one
deep copy and the plain sequence — trial every candidate, then commit the
winner with a fresh routing pass — on another, and require the two states
to match exactly: placement, routes, groups and every MRRG table.
"""

import copy
import random

import pytest

from repro.arch.specialize import hardwired_motif_kinds
from repro.eval.harness import build_arch
from repro.mapping import plaid_mapper
from repro.mapping.plaid_mapper import _State, singleton_hierarchy
from repro.motifs.hierarchy import build_hierarchy
from repro.workloads import get_dfg

#: (workload, arch key, II, rng seed, motif-aware) mid-search sources;
#: each reaches a winner whose cached routes residue has made stale.
SOURCES = (
    ("conv2x2", "plaid", 2, 5, True),
    ("gesum_u2", "plaid-ml", 2, 5, True),
    ("gesum_u2", "st", 4, 5, False),
    ("jacobi_u2", "st", 3, 5, False),
)


def _copy(state: _State) -> _State:
    """Deep copy sharing the immutable fabric and compiled route core."""
    memo = {id(state.arch): state.arch, id(state.dfg): state.dfg,
            id(state.hierarchy): state.hierarchy}
    if state.mrrg._core is not None:
        memo[id(state.mrrg._core)] = state.mrrg._core
    return copy.deepcopy(state, memo)


def _snapshots(workload, arch_key, ii, seed, motifs, moves=40):
    """(state copy, group, candidate spot lists) at every _commit_best
    call of a short seeded search."""
    dfg = get_dfg(workload)
    arch = build_arch(arch_key)
    hardwired = hardwired_motif_kinds(arch)
    if motifs:
        hierarchy = build_hierarchy(dfg, seed=11)
        if hardwired is not None:
            hierarchy = plaid_mapper.demote_for_hardwired(hierarchy,
                                                          hardwired)
    else:
        hierarchy = singleton_hierarchy(dfg)
    state = _State(dfg, arch, hierarchy, ii, hardwired, random.Random(seed))
    captured = []
    commit_best = _State._commit_best

    def capture(self, group, spot_lists):
        captured.append((_copy(self), group, list(spot_lists)))
        return commit_best(self, group, spot_lists)

    _State._commit_best = capture
    try:
        plaid_mapper.solve_state(state, moves, 6.0, 0.99)
    finally:
        _State._commit_best = commit_best
    return captured


def _commit_by_rerouting(state: _State, group, spot_lists):
    """The plain sequence: trial all, then route the winner again.
    Returns (committed, replayable) — whether the winner's routes could
    have been replayed (no residue from its trial on)."""
    best = None
    best_total = float("inf")
    residues = []
    for position, spots in enumerate(spot_lists):
        total, _routes, residue = state._commit_spots(group, spots,
                                                      keep=False)
        residues.append(residue)
        if total is not None and total < best_total:
            best_total = total
            best = position
    if best is None:
        return False, False
    committed = state._commit_spots(group, spot_lists[best],
                                    keep=True)[0] is not None
    return committed, not any(residues[best:])


def _commit_by_replaying(state: _State, group, spot_lists) -> None:
    """Replay the winner's cached trial routes whatever the residue."""
    best = None
    best_total = float("inf")
    for spots in spot_lists:
        total, routes, _residue = state._commit_spots(group, spots,
                                                      keep=False)
        if total is not None and total < best_total:
            best_total = total
            best = (spots, routes)
    if best is not None:
        spots, routes = best
        state._place_spots(spots)
        for route in routes.values():
            state.mrrg.commit_route(route)
        state._adopt(group, spots, routes)


def _state_view(state: _State):
    mrrg = state.mrrg
    return {
        "placement": state.placement,
        "routes": state.routes,
        "group_spots": state.group_spots,
        "unplaced": state.unplaced,
        "usage": dict(mrrg._usage),
        "fu_nodes": mrrg._fu_nodes,
        "counts": mrrg._counts,
        "overused": set(mrrg._overused),
        # Copied: the compiled core updates the array in place.
        "cost_base": None if mrrg._cost_base is None
        else list(mrrg._cost_base),
        "net_charges": mrrg._net_charges,
        "total_overuse": mrrg.total_overuse(),
        "cost": state.cost(),
    }


@pytest.fixture(scope="module")
def outcomes():
    """Per snapshot: (source, call, replayable, stale, _commit_best's
    view, the rerouting view); ``stale`` marks snapshots where replaying
    the cached winner regardless of residue would diverge."""
    results = []
    for source in SOURCES:
        for call, (snap, group, spot_lists) in enumerate(
                _snapshots(*source)):
            committed = _copy(snap)
            rerouted = _copy(snap)
            replayed = _copy(snap)
            got = committed._commit_best(group, spot_lists)
            want, replayable = _commit_by_rerouting(rerouted, group,
                                                    spot_lists)
            assert got == want, (source, call)
            _commit_by_replaying(replayed, group, spot_lists)
            view = _state_view(rerouted)
            results.append((source, call, replayable,
                            _state_view(replayed) != view,
                            _state_view(committed), view))
    return results


def test_commit_best_matches_rerouting_the_winner(outcomes):
    for source, call, _replayable, _stale, got, want in outcomes:
        for field, value in want.items():
            assert got[field] == value, (source, call, field)


def test_sources_cover_replay_and_residue(outcomes):
    assert any(entry[2] for entry in outcomes), \
        "no snapshot took the replay path"
    for source in SOURCES:
        stale = [entry[3] for entry in outcomes if entry[0] == source]
        assert any(stale), f"{source}: residue never made a replay stale"
    # Replay is only ever taken where it is exact.
    assert not any(entry[2] and entry[3] for entry in outcomes)


def test_singleton_scores_match_estimate():
    """The hoisted singleton scorer ranks exactly like building each
    (FU, cycle) spot list and scoring it with ``_estimate``."""
    for source in SOURCES:
        for snap, group, _spots in _snapshots(*source):
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
