"""Tests for the spatial partition-and-map baseline."""

import pytest

from repro.arch import make_spatial, make_spatio_temporal
from repro.errors import MappingError
from repro.frontend import compile_kernel
from repro.ir.builder import DFGBuilder
from repro.ir.interpreter import DFGInterpreter
from repro.ir.ops import Opcode
from repro.mapping import SpatialMapper
from repro.sim import SpatialSimulator


def small_kernel():
    return compile_kernel("""
    for (i = 0; i < 8; i++) {
      y[i] = (x[i] + 1) * 3;
    }
    """, name="small")


def big_kernel():
    return compile_kernel("""
    #pragma plaid unroll(4)
    for (i = 0; i < 8; i++) {
      for (j = 0; j < 8; j++) {
        y[i] += A[i][j] * x[j];
        z[j] = (B[i][j] + x[j]) >> 1;
      }
    }
    """, name="big", array_shapes={"A": (8, 8), "B": (8, 8)})


def test_rejects_non_spatial_arch():
    with pytest.raises(MappingError):
        SpatialMapper(seed=1).map(small_kernel(), make_spatio_temporal())


def test_small_kernel_single_phase():
    mapping = SpatialMapper(seed=1).map(small_kernel(), make_spatial())
    assert len(mapping.phases) == 1
    assert mapping.spilled_values == 0
    mapping.validate()


def test_big_kernel_partitions_with_spills():
    mapping = SpatialMapper(seed=1).map(big_kernel(), make_spatial())
    assert len(mapping.phases) >= 2
    assert mapping.spilled_values > 0
    mapping.validate()


def test_recurrence_circuit_stays_in_one_phase():
    mapping = SpatialMapper(seed=1).map(big_kernel(), make_spatial())
    dfg = mapping.dfg
    phase_of = {}
    for phase in mapping.phases:
        for item in phase.items:
            if item.kind == "node":
                phase_of[item.node_id] = phase.index
    for edge in dfg.edges:
        if edge.distance > 0:
            assert phase_of[edge.src] == phase_of[edge.dst]


def test_accumulator_phase_ii_covers_recurrence():
    dfg = compile_kernel("""
    for (i = 0; i < 16; i++) {
      acc[0] += x[i];
    }
    """, name="acc")
    mapping = SpatialMapper(seed=1).map(dfg, make_spatial())
    # load-add-store circuit: phase II >= 3
    assert any(phase.ii >= 3 for phase in mapping.phases)


def test_memory_pressure_raises_ii():
    dfg = compile_kernel("""
    for (i = 0; i < 8; i++) {
      o[i] = a[i] + b[i] + c[i] + d[i] + e[i] + f[i] + g[i];
    }
    """, name="loads8")
    mapping = SpatialMapper(seed=1).map(dfg, make_spatial())
    # 8 memory items over 4 ports in one phase -> II >= 2 (or 2 phases).
    assert mapping.ii_sum >= 2


def test_total_cycles_include_reconfiguration():
    mapping = SpatialMapper(seed=1).map(big_kernel(), make_spatial())
    arch = mapping.arch
    reconfig = int(arch.params["reconfig_cycles"])
    steady = sum(
        phase.cycles(mapping.dfg.iterations) for phase in mapping.phases
    )
    assert mapping.total_cycles() == steady + reconfig * len(mapping.phases)


def test_phase_routes_exist_for_all_edges():
    mapping = SpatialMapper(seed=1).map(big_kernel(), make_spatial())
    for phase in mapping.phases:
        for index, (src_key, dst_key) in enumerate(phase.edges):
            path = phase.paths[index]
            assert path[0] == phase.placement[src_key]
            assert path[-1] == phase.placement[dst_key]


def test_spatial_simulation_matches_interpreter():
    dfg = big_kernel()
    mapping = SpatialMapper(seed=1).map(dfg, make_spatial())
    memory = DFGInterpreter(dfg).prepare_memory(fill=5)
    assert SpatialSimulator(mapping).run(memory, iterations=8) == []


def test_in_place_stencil_spatial_verifies():
    dfg = compile_kernel("""
    for (i = 0; i < 1; i++) {
      for (j = 0; j < 12; j++) {
        A[i][j + 1] = (A[i][j] + A[i][j + 2]) >> 1;
      }
    }
    """, name="stencil", array_shapes={"A": (1, 14)})
    mapping = SpatialMapper(seed=1).map(dfg, make_spatial())
    memory = DFGInterpreter(dfg).prepare_memory(fill=9)
    assert SpatialSimulator(mapping).run(memory) == []


# ---------------------------------------------------------------------------
# Phase RecMII: the shared Bellman-Ford against the mapper's old search
# ---------------------------------------------------------------------------
def _recurrence_mii_subset(dfg, members: set[int]) -> int:
    """The spatial mapper's former phase RecMII, kept as the oracle:
    Bellman-Ford over the circuits inside ``members``, searched upward
    from II = 1 and capped at 32."""
    from repro.ir.ops import OP_LATENCY

    edges = [
        (e.src, e.dst, OP_LATENCY[dfg.node(e.src).op], e.distance)
        for e in dfg.edges
        if e.src in members and e.dst in members
    ]
    if not any(dist > 0 for _s, _t, _l, dist in edges):
        return 1
    for ii in range(1, 33):
        sigma = {nid: 0 for nid in members}
        for _ in range(len(members) + 1):
            changed = False
            for src, dst, lat, dist in edges:
                bound = sigma[src] + lat - ii * dist
                if bound > sigma[dst]:
                    sigma[dst] = bound
                    changed = True
            if not changed:
                return ii
    return 32


def test_phase_recurrence_mii_matches_subset_oracle():
    """Every phase of every workload and curated variant on the spatial
    fabric gets the RecMII the old per-phase search computed."""
    from repro.eval.harness import build_arch
    from repro.ir.analysis import recurrence_mii
    from repro.workloads import get_dfg
    from repro.workloads.registry import expand_families

    arch = build_arch("spatial")
    phases = 0
    looped = 0
    for workload in expand_families():
        dfg = get_dfg(workload)
        mapping = SpatialMapper(seed=1).map(dfg, arch)
        for phase in mapping.phases:
            members = {item.node_id for item in phase.items
                       if item.kind == "node"}
            want = _recurrence_mii_subset(dfg, members)
            assert recurrence_mii(dfg, members=members) == want, (
                workload, phase.index)
            phases += 1
            looped += want > 1
    assert phases > 100 and looped > 0
