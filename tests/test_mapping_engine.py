"""Tests for the unified mapping engine: registry, II-search driver, and
MRRG charge accounting."""

import inspect

import pytest

from mrrg_helpers import step_route
from repro.arch import make_spatio_temporal
from repro.arch.mrrg import MRRG
from repro.errors import MappingError, ReproError
from repro.eval.harness import _seed_for
from repro.mapping import (
    MapperStrategy, PathFinderMapper, available_mappers, get_mapper,
    map_kernel, minimum_ii, register_mapper,
)
from repro.workloads import get_dfg


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_lists_all_mappers():
    keys = {info.key for info in available_mappers()}
    assert {"pathfinder", "sa", "plaid", "greedy", "spatial",
            "best"} <= keys


def test_registry_kinds():
    assert get_mapper("pathfinder").kind == "temporal"
    assert get_mapper("spatial").kind == "spatial"
    best = get_mapper("best")
    assert best.kind == "composite"
    assert best.candidates == ("pathfinder", "sa")


def test_unknown_mapper_key_raises():
    with pytest.raises(ReproError, match="unknown mapper key 'bogus'"):
        get_mapper("bogus")


def test_composite_entry_has_no_factory():
    with pytest.raises(ReproError, match="composite"):
        get_mapper("best").make(seed=1)


def test_register_mapper_is_idempotent():
    info = get_mapper("pathfinder")
    again = register_mapper("pathfinder", PathFinderMapper,
                            description=info.description)
    assert get_mapper("pathfinder") is again
    assert again.factory is PathFinderMapper


def test_mapper_factories_take_no_tuning_parameters():
    """Search budgets and annealing schedules are class constants: a
    factory takes the seed, the II cap and (PathFinder only) the
    negotiation-oracle switch, nothing else."""
    for info in available_mappers():
        if info.kind == "composite":
            continue
        allowed = {"seed", "max_ii"}
        if info.key == "pathfinder":
            allowed.add("incremental")
        params = set(inspect.signature(info.factory).parameters)
        assert params <= allowed, (info.key, params - allowed)


def test_available_mappers_kind_filter():
    temporal = available_mappers(kind="temporal")
    assert [info.key for info in temporal] \
        == sorted(info.key for info in temporal)
    assert all(info.kind == "temporal" for info in temporal)
    assert {"pathfinder", "sa", "plaid", "greedy"} \
        == {info.key for info in temporal}


# ---------------------------------------------------------------------------
# map_kernel / composite selection
# ---------------------------------------------------------------------------
def test_map_kernel_best_is_min_of_candidates():
    dfg = get_dfg("dwconv")
    arch = make_spatio_temporal(4, 4)

    def seed_for(key):
        return _seed_for("dwconv", "st", key)

    best = map_kernel("best", dfg, arch, seed_for)
    candidates = []
    for key in ("pathfinder", "sa"):
        candidates.append(map_kernel(key, dfg, arch, seed_for))
    assert best.total_cycles() == min(c.total_cycles() for c in candidates)


# ---------------------------------------------------------------------------
# MRRG charge accounting
# ---------------------------------------------------------------------------
def test_mrrg_usage_counts_survive_charge_discharge_cycles():
    arch = make_spatio_temporal(4, 4)
    mrrg = MRRG(arch, 2)
    resource = ("place", 0)
    # Two routes of one fanout net share a segment: one capacity charge,
    # refcounted until the LAST sharing route releases it.
    first, second = step_route(7, resource, 4), step_route(7, resource, 4)
    mrrg.commit_route(first)
    mrrg.commit_route(second)
    assert mrrg.usage_count(resource, 0) == 1
    mrrg.uncommit_route(first)
    assert mrrg.usage_count(resource, 0) == 1
    mrrg.uncommit_route(second)
    assert mrrg.usage_count(resource, 0) == 0
    assert mrrg.occupancy_snapshot() == {}


# ---------------------------------------------------------------------------
# II-search driver behaviour
# ---------------------------------------------------------------------------
def test_engine_failure_message_and_attempt_budget():
    dfg = get_dfg("atax_u2")
    arch = make_spatio_temporal(4, 4)
    mii = minimum_ii(dfg, arch)
    assert mii > 1                      # memory-bound kernel
    mapper = PathFinderMapper(seed=1, max_ii=mii - 1)
    with pytest.raises(MappingError,
                       match=rf"PathFinder could not map .* II <= {mii - 1}"):
        mapper.map(dfg, arch)


def test_max_ii_beyond_config_memory_is_clamped():
    """A ``max_ii`` deeper than the config memory stops the II search at
    the config depth with the standard failure, not an MRRG error."""
    dfg = get_dfg("atax_u2")
    arch = make_spatio_temporal(4, 4)
    arch.config_entries = minimum_ii(dfg, arch)
    mapper = PathFinderMapper(seed=1, max_ii=arch.config_entries + 1)
    with pytest.raises(
            MappingError,
            match=rf"PathFinder could not map .* II <= {arch.config_entries}"
    ) as failure:
        mapper.map(dfg, arch)
    assert failure.value.attempts == PathFinderMapper.RESTARTS
    assert failure.value.seconds > 0


def test_strategy_base_requires_attempt_ii():
    class Incomplete(MapperStrategy):
        name = "incomplete"

    with pytest.raises(NotImplementedError):
        Incomplete().map(get_dfg("dwconv"), make_spatio_temporal(4, 4))


def test_new_strategy_registers_and_maps():
    """Adding a mapper = one strategy class + one register_mapper call."""

    class EagerPathFinder(PathFinderMapper):
        name = "eager-pf"
        failure_label = "eager PathFinder"

    register_mapper("eager-pf", EagerPathFinder,
                    description="test-only pathfinder variant")
    try:
        dfg = get_dfg("dwconv")
        arch = make_spatio_temporal(4, 4)
        mapping = map_kernel("eager-pf", dfg, arch, lambda key: 5)
        mapping.validate()
        assert mapping.stats.mapper == "eager-pf"
        assert "eager-pf" in {info.key for info in available_mappers()}
    finally:
        from repro.mapping.engine import _REGISTRY
        _REGISTRY.pop("eager-pf", None)
