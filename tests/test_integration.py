"""End-to-end integration: frontend -> motifs -> map -> config -> simulate.

Each test runs the whole toolchain on real workloads and verifies the
simulated scratchpad against the reference interpreter — the same check
the paper uses its cycle-accurate simulator for.
"""

import pytest

from repro.arch import make_plaid, make_plaid_ml, make_spatial, make_spatio_temporal
from repro.eval.harness import build_arch, evaluate_kernel
from repro.ir.interpreter import DFGInterpreter
from repro.mapping import (
    GreedyRepairMapper, PathFinderMapper, PlaidMapper, SimulatedAnnealingMapper,
    SpatialMapper, minimum_ii,
)
from repro.sim import CGRASimulator, SpatialSimulator, encode_mapping
from repro.workloads import get_dfg

# A cross-section: one memory-bound reduction, one stencil with
# memory-carried recurrences, one ML kernel, one tiny kernel.
KERNELS = ["gesum_u2", "seidel", "conv2x2", "dwconv"]


@pytest.mark.parametrize("name", KERNELS)
def test_plaid_end_to_end(name):
    dfg = get_dfg(name)
    plaid = make_plaid()
    mapping = PlaidMapper(seed=3).map(dfg, plaid)
    mapping.validate()
    config = encode_mapping(mapping)
    assert config.unpack(config.pack()) == config.entries
    memory = DFGInterpreter(dfg).prepare_memory(fill=7)
    report = CGRASimulator(mapping).run(memory, iterations=6)
    assert report.verified, report.mismatches[:3]


@pytest.mark.parametrize("name", KERNELS)
def test_st_end_to_end(name):
    dfg = get_dfg(name)
    st = make_spatio_temporal()
    mapping = PathFinderMapper(seed=3).map(dfg, st)
    mapping.validate()
    memory = DFGInterpreter(dfg).prepare_memory(fill=7)
    report = CGRASimulator(mapping).run(memory, iterations=6)
    assert report.verified, report.mismatches[:3]


@pytest.mark.parametrize("name", KERNELS)
def test_spatial_end_to_end(name):
    dfg = get_dfg(name)
    mapping = SpatialMapper(seed=3).map(dfg, make_spatial())
    mapping.validate()
    memory = DFGInterpreter(dfg).prepare_memory(fill=7)
    assert SpatialSimulator(mapping).simulate(
        memory, iterations=6).mismatches == []


def test_sa_end_to_end():
    dfg = get_dfg("dwconv")
    mapping = SimulatedAnnealingMapper(seed=3).map(
        dfg, make_spatio_temporal())
    memory = DFGInterpreter(dfg).prepare_memory(fill=7)
    assert CGRASimulator(mapping).run(memory, iterations=6).verified


def test_greedy_mapper_end_to_end():
    dfg = get_dfg("gesum_u2")
    mapping = GreedyRepairMapper(seed=3).map(dfg, make_spatio_temporal())
    memory = DFGInterpreter(dfg).prepare_memory(fill=7)
    assert CGRASimulator(mapping).run(memory, iterations=6).verified


def test_plaid_ml_end_to_end():
    dfg = get_dfg("conv2x2")
    mapping = PlaidMapper(seed=3).map(dfg, make_plaid_ml())
    memory = DFGInterpreter(dfg).prepare_memory(fill=7)
    assert CGRASimulator(mapping).run(memory, iterations=6).verified


def test_harness_evaluates_and_caches():
    r1 = evaluate_kernel("dwconv", "plaid")
    r2 = evaluate_kernel("dwconv", "plaid")
    assert r1 is r2                     # memoized
    assert r1.cycles > 0 and r1.energy > 0
    assert r1.power.total_mw > 0
    assert r1.perf_per_area > 0


def test_harness_best_baseline_at_least_as_good_as_each():
    best = evaluate_kernel("dwconv", "st", "best")
    pf = evaluate_kernel("dwconv", "st", "pathfinder")
    assert best.cycles <= pf.cycles


def test_build_arch_keys():
    for key in ("st", "spatial", "plaid", "plaid3x3", "st-ml", "plaid-ml"):
        arch = build_arch(key)
        assert arch.fus
