"""The ``best`` composite and its ``race`` alias.

``best`` (the paper's baseline methodology) runs its candidate mappers
back to back and keeps the one with the fewest total cycles, ties broken
by registry candidate order.  ``race`` is a plain alias of ``best``: it
must produce the same evaluation and keep the store fingerprints that
earlier ``race`` entries were written under.
"""

import dataclasses

import pytest

from repro.eval import parallel
from repro.eval.cache import result_to_dict
from repro.eval.harness import (
    _seed_for, build_arch, clear_caches, configure_store, evaluate_kernel,
    evaluation_fingerprint,
)
from repro.mapping import common
from repro.mapping.base import Mapping
from repro.mapping.engine import (
    get_mapper, map_kernel, register_mapper, select_winner,
)
from repro.workloads import get_dfg

#: The golden 5x3 grid's workloads (tests/data/golden_small_grid.json).
GOLDEN_WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]

#: ``evaluation_fingerprint(w, "st", "race")`` that existing store
#: entries were written under; they must never change.
RACE_FINGERPRINTS = {
    "dwconv":
        "5f455f9ede82fa9ff7980622bb245d9bd902ac69c08ceed04b735c3a9db0ba75",
    "conv2x2":
        "fc325557ef5f3342e663ff3971ec5bc17349ee359175849b4bdbcfd3310997df",
    "gesum_u2":
        "3f3137438cdb70ea4e75e1e47c36d0e9ff8014c999314f4779ea199ebec98461",
    "atax_u2":
        "73a45e0c7c0bbd438ab9834cb240d7cb706ab7240444fb4c0d128f90617c7d32",
    "jacobi_u2":
        "c657522add167ef4b2d569ab591ab534105de4baf5d1de1589ba7e9d01b2c009",
}


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)           # results must not come from a store
    yield
    clear_caches()


def _seeds(workload, arch_key="st"):
    """The exact per-candidate seeds the evaluation harness uses."""
    return lambda key: _seed_for(workload, arch_key, key)


def _assert_bit_identical(raced: Mapping, best: Mapping, label: str):
    """Everything the golden fixture and the harness consume must match
    (``seconds`` is wall-clock and legitimately differs)."""
    assert raced.ii == best.ii, label
    assert raced.placement == best.placement, label
    assert raced.routes == best.routes, label
    assert raced.total_cycles() == best.total_cycles(), label
    assert raced.stats.mapper == best.stats.mapper, label
    assert raced.stats.attempts == best.stats.attempts, label
    assert raced.stats.routed_edges == best.stats.routed_edges, label
    assert raced.stats.bypass_edges == best.stats.bypass_edges, label
    assert raced.stats.routing_failures == best.stats.routing_failures, label


def test_select_winner_breaks_ties_by_candidate_order():
    dfg = get_dfg("dwconv")
    arch = build_arch("st")
    mapping = map_kernel("pathfinder", dfg, arch, _seeds("dwconv"))
    other = map_kernel("pathfinder", get_dfg("dwconv"), arch,
                       _seeds("dwconv"))
    assert mapping.total_cycles() == other.total_cycles()
    assert select_winner([(0, mapping), (1, other)]) is mapping
    assert select_winner([(1, mapping), (0, other)]) is other
    assert select_winner([]) is None


def test_best_tie_breaks_by_registry_candidate_order():
    """gemm_u4 on st is a real tie (both candidates land on the same
    total cycles): ``best`` must keep the first-listed candidate, and a
    composite listing the candidates in the opposite order must keep the
    other — the rule is (min cycles, then candidate order)."""
    arch = build_arch("st")
    seeds = _seeds("gemm_u4")
    outcomes = {}
    for key in ("pathfinder", "sa"):
        outcomes[key] = map_kernel(key, get_dfg("gemm_u4"), arch, seeds)
    assert outcomes["pathfinder"].total_cycles() \
        == outcomes["sa"].total_cycles(), \
        "precondition: gemm_u4/st is the tie this test exercises"

    best = map_kernel("best", get_dfg("gemm_u4"), arch, seeds)
    assert best.stats.mapper == "pathfinder"

    register_mapper("best-reversed-for-test", kind="composite",
                    candidates=("sa", "pathfinder"),
                    description="tie-break order probe (test-only)")
    reversed_best = map_kernel("best-reversed-for-test",
                               get_dfg("gemm_u4"), arch, seeds)
    assert reversed_best.stats.mapper == "sa"


def test_best_candidate_stats_recorded():
    arch = build_arch("st")
    best = map_kernel("best", get_dfg("dwconv"), arch, _seeds("dwconv"))
    assert [c.key for c in best.stats.candidates] \
        == list(get_mapper("best").candidates)
    outcomes = [c.outcome for c in best.stats.candidates]
    assert outcomes.count("won") == 1
    assert set(outcomes) <= {"won", "lost", "failed"}
    assert all(c.seconds > 0.0 for c in best.stats.candidates)


def test_registry_race_entry():
    info = get_mapper("race")
    assert info.kind == "composite"
    assert info.candidates == get_mapper("best").candidates


def test_race_candidate_stats_recorded():
    arch = build_arch("st")
    raced = map_kernel("race", get_dfg("dwconv"), arch, _seeds("dwconv"))
    info = get_mapper("race")
    assert [c.key for c in raced.stats.candidates] == list(info.candidates)
    outcomes = {c.key: c.outcome for c in raced.stats.candidates}
    assert outcomes[raced.stats.mapper] == "won"
    winner_stats = next(c for c in raced.stats.candidates
                        if c.key == raced.stats.mapper)
    assert winner_stats.ii == raced.ii
    assert winner_stats.total_cycles == raced.total_cycles()
    assert winner_stats.attempts == raced.stats.attempts
    assert all(c.outcome in ("won", "lost", "failed")
               for c in raced.stats.candidates)


def test_race_identical_under_sweep_worker_config():
    """A sweep worker evaluates a ``race`` cell exactly as the parent
    process evaluates ``best``, apart from the mapper name."""
    best = evaluate_kernel("atax_u2", "st", "best")
    clear_caches()
    index, payload, error, _, _, _ = parallel._worker_evaluate(
        (3, ("atax_u2", "st", "race"), None))
    assert index == 3 and error is None
    assert payload == result_to_dict(dataclasses.replace(best,
                                                         mapper="race"))


def test_interrupted_race_tears_down_and_recovers(monkeypatch):
    """Ctrl-C inside a candidate's search propagates (it is not recorded
    as a failed candidate), and the next composite mapping in the same
    process is still bit-identical to ``best``."""
    arch = build_arch("st")
    dfg = get_dfg("dwconv")
    real = common.route_edge
    calls = []

    def interrupted(*args, **kwargs):
        # pathfinder routes dwconv's 5 edges in one attempt, so the 8th
        # route call lands inside sa's search.
        calls.append(None)
        if len(calls) == 8:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(common, "route_edge", interrupted)
        with pytest.raises(KeyboardInterrupt):
            map_kernel("race", dfg, arch, _seeds("dwconv"))
    assert len(calls) == 8                  # interrupted mid-search

    best = map_kernel("best", get_dfg("dwconv"), arch, _seeds("dwconv"))
    raced = map_kernel("race", get_dfg("dwconv"), arch, _seeds("dwconv"))
    _assert_bit_identical(raced, best, "recovery after interrupt")


@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_race_alias_evaluates_like_best(workload):
    assert get_mapper("race").candidates == get_mapper("best").candidates
    best = evaluate_kernel(workload, "st", "best")
    race = evaluate_kernel(workload, "st", "race")
    assert race.mapper == "race"
    assert dataclasses.replace(race, mapper="best") == best


@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_race_fingerprints_match_existing_stores(workload):
    assert evaluation_fingerprint(workload, "st", "race") \
        == RACE_FINGERPRINTS[workload]
