"""Tests for motif types, pattern matching, and Algorithm 1."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MotifError
from repro.frontend import compile_kernel
from repro.ir.builder import DFGBuilder
from repro.ir.ops import Opcode
from repro.motifs import (
    Motif, MotifKind, build_hierarchy, generate_motifs, match_kind,
)
from repro.motifs import generation
from repro.motifs.generation import group_cycle
from repro.motifs.hierarchy import HierarchyEdge
from repro.motifs.patterns import Adjacency, find_motif_for_node
from repro.motifs.types import MOTIF_SIZE
from repro.workloads import get_dfg
from repro.workloads.registry import all_workloads


def chain_dfg(n_compute=6):
    """load -> add -> add -> ... -> store."""
    b = DFGBuilder("chain", trip_counts=(8,))
    prev = b.load("x", coeffs=(1,))
    for _ in range(n_compute):
        prev = b.op(Opcode.ADD, prev, const=1)
    b.store("y", prev, coeffs=(1,))
    return b.build()


def tree_dfg():
    """Four loads reduced by an add tree (fan-in shapes)."""
    b = DFGBuilder("tree", trip_counts=(8,))
    loads = [b.load(f"x{i}", coeffs=(1,)) for i in range(4)]
    a = b.op(Opcode.ADD, loads[0], loads[1])
    c = b.op(Opcode.ADD, loads[2], loads[3])
    root = b.op(Opcode.ADD, a, c)
    b.store("y", root, coeffs=(1,))
    return b.build()


def fanout_dfg():
    """One producer feeding two consumers."""
    b = DFGBuilder("fan", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    p = b.op(Opcode.MUL, x, const=3)
    c1 = b.op(Opcode.ADD, p, const=1)
    c2 = b.op(Opcode.SUB, p, const=1)
    b.store("y1", c1, coeffs=(1,))
    b.store("y2", c2, coeffs=(1,))
    return b.build()


# ---------------------------------------------------------------------------
# Motif type invariants
# ---------------------------------------------------------------------------
def test_motif_size_enforced():
    with pytest.raises(MotifError):
        Motif(MotifKind.FAN_IN, (1, 2))


def test_motif_distinct_nodes_enforced():
    with pytest.raises(MotifError):
        Motif(MotifKind.UNICAST, (1, 1, 2))


def test_validate_against_checks_edges():
    dfg = chain_dfg(3)
    compute = [n.node_id for n in dfg.compute_nodes]
    good = Motif(MotifKind.UNICAST, tuple(compute))
    good.validate_against(dfg)
    bad = Motif(MotifKind.FAN_OUT, tuple(compute))
    with pytest.raises(MotifError):
        bad.validate_against(dfg)


def test_memory_nodes_rejected_from_motifs():
    dfg = chain_dfg(2)
    load_id = dfg.memory_nodes[0].node_id
    compute = [n.node_id for n in dfg.compute_nodes]
    motif = Motif(MotifKind.PAIR, (load_id, compute[0]))
    with pytest.raises(MotifError):
        motif.validate_against(dfg)


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------
def test_unicast_found_in_chain():
    dfg = chain_dfg(3)
    compute = {n.node_id for n in dfg.compute_nodes}
    motif = find_motif_for_node(dfg, min(compute), set(compute))
    assert motif is not None and motif.kind is MotifKind.UNICAST


def test_fan_in_found_in_tree():
    dfg = tree_dfg()
    compute = {n.node_id for n in dfg.compute_nodes}
    root = max(compute)     # the final add
    motif = find_motif_for_node(dfg, root, set(compute))
    assert motif is not None
    assert motif.kind in (MotifKind.FAN_IN, MotifKind.UNICAST)


def test_fan_out_found():
    dfg = fanout_dfg()
    compute = {n.node_id for n in dfg.compute_nodes}
    producer = min(compute)
    motif = find_motif_for_node(dfg, producer, set(compute))
    assert motif is not None


def test_no_motif_for_isolated_node():
    b = DFGBuilder("iso", trip_counts=(4,))
    x = b.load("x", coeffs=(1,))
    n = b.op(Opcode.ADD, x, const=1)
    b.store("y", n, coeffs=(1,))
    dfg = b.build()
    motif = find_motif_for_node(dfg, n.node_id, {n.node_id})
    assert motif is None


def test_match_kind_classifies_triangle_as_basic():
    b = DFGBuilder("tri", trip_counts=(4,))
    x = b.load("x", coeffs=(1,))
    n3 = b.op(Opcode.ADD, x, const=0)
    n1 = b.op(Opcode.ADD, n3, const=1)
    n2 = b.op(Opcode.ADD, n1, n3)
    b.store("y", n2, coeffs=(1,))
    dfg = b.build()
    # n3->n1, n3->n2, n1->n2: the acyclic triangle
    kind = match_kind(dfg, (n1.node_id, n2.node_id, n3.node_id))
    assert kind in (MotifKind.UNICAST, MotifKind.FAN_IN, MotifKind.FAN_OUT)


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------
def test_chain_fully_covered():
    dfg = chain_dfg(6)
    result = generate_motifs(dfg, seed=1)
    assert len(result.covered_nodes) == 6
    assert not result.standalone


def test_chain_of_seven_leaves_one_standalone_or_pair():
    dfg = chain_dfg(7)
    result = generate_motifs(dfg, seed=1)
    assert len(result.covered_nodes) == 6
    assert len(result.standalone) == 1


def test_pairs_pick_up_leftovers():
    dfg = chain_dfg(8)
    result = generate_motifs(dfg, seed=1)
    assert len(result.covered_nodes) == 6
    # remaining two nodes form a pair
    assert any(m.kind is MotifKind.PAIR for m in result.motifs)
    assert not result.standalone


def test_generation_is_deterministic_per_seed():
    dfg = tree_dfg()
    r1 = generate_motifs(dfg, seed=7)
    r2 = generate_motifs(dfg, seed=7)
    assert r1.motifs == r2.motifs


def test_generation_validates_itself():
    dfg = tree_dfg()
    generate_motifs(dfg, seed=3).validate()


def test_realistic_kernel_coverage():
    source = """
    #pragma plaid
    for (i = 0; i < 8; i++) {
      for (j = 0; j < 8; j++) {
        y[i] += A[i][j] * x[j];
        z[j] = (x[j] >> 2) + 1;
      }
    }
    """
    dfg = compile_kernel(source, array_shapes={"A": (8, 8)}, unroll=2)
    result = generate_motifs(dfg, seed=0)
    # This kernel's best 3-node coverage is 3 of 8 compute nodes (one
    # fan-in over the multiplies); pairs pick up most of the rest.
    assert result.coverage >= 0.3
    assert len(result.collective_nodes) >= 6
    histogram = result.kind_histogram()
    assert sum(histogram.values()) == len(result.motifs)


@settings(deadline=None, max_examples=20)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 999))
def test_partition_property_on_chains(n, seed):
    dfg = chain_dfg(n)
    result = generate_motifs(dfg, seed=seed)
    result.validate()   # disjointness + partition invariants
    # 3-node motif count can never exceed floor(n/3).
    three = [m for m in result.motifs if m.size == 3]
    assert len(three) <= n // 3


def crossing_dfg():
    """The unicast 1 -> 5 -> 6 is not convex: 1 also feeds 2, which feeds
    5, so grouping {1, 5, 6} apart from 2 closes a group cycle."""
    b = DFGBuilder("crossing", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    n1 = b.op(Opcode.ADD, x, const=23)
    n2 = b.op(Opcode.MUL, n1, x)
    n3 = b.op(Opcode.MUL, n2, const=-20)
    n4 = b.op(Opcode.AND, x, const=100)
    n5 = b.op(Opcode.MUL, n1, n2)
    n6 = b.op(Opcode.XOR, n5, const=82)
    acc = b.op(Opcode.ADD, n2)
    b.recurrence(acc, acc, operand_index=1, distance=1)
    for index, node in enumerate((n3, n4, n6)):
        b.store(f"y{index}", node, coeffs=(1,))
    return b.build()


def test_group_cycle_finds_crossing_motifs():
    dfg = crossing_dfg()
    crossing = {1: 0, 5: 0, 6: 0, 2: 1, 3: 1, 7: 1}
    assert sorted(group_cycle(dfg, crossing)) == [0, 1]
    assert group_cycle(dfg, {2: 1, 3: 1, 7: 1}) is None
    assert group_cycle(dfg, {}) is None


@pytest.mark.parametrize("seed", [0, 7, 11, 23, 35])
def test_generation_dissolves_cyclic_motifs(seed):
    dfg = crossing_dfg()
    result = generate_motifs(dfg, seed=seed)
    node_to_group = {
        node_id: index for index, motif in enumerate(result.motifs)
        for node_id in motif.nodes
    }
    assert group_cycle(dfg, node_to_group) is None
    result.validate()


# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------
def test_hierarchy_rejects_group_cycle():
    dfg = crossing_dfg()
    hierarchy = build_hierarchy(dfg, seed=0)
    groups = [Motif(MotifKind.UNICAST, (1, 5, 6)),
              Motif(MotifKind.FAN_OUT, (2, 3, 7))]
    groups += [Motif(MotifKind.SINGLETON, (n,)) for n in (0, 4, 8, 9, 10)]
    hierarchy.groups = groups
    hierarchy.node_to_group = {
        node_id: index for index, motif in enumerate(groups)
        for node_id in motif.nodes
    }
    hierarchy.inter_edges = [
        HierarchyEdge(hierarchy.node_to_group[e.src],
                      hierarchy.node_to_group[e.dst], e)
        for e in dfg.edges
        if hierarchy.node_to_group[e.src] != hierarchy.node_to_group[e.dst]
        or e.distance > 0
    ]
    with pytest.raises(MotifError, match="dependence cycle"):
        hierarchy.validate()


def test_hierarchy_covers_all_nodes():
    dfg = tree_dfg()
    hierarchy = build_hierarchy(dfg, seed=0)
    assert set(hierarchy.node_to_group) == {n.node_id for n in dfg.nodes}


def test_hierarchy_edge_partition():
    dfg = fanout_dfg()
    hierarchy = build_hierarchy(dfg, seed=0)
    hierarchy.validate()
    internal = sum(
        len(hierarchy.internal_edges(i)) for i in range(len(hierarchy.groups))
    )
    inter_data = [h for h in hierarchy.inter_edges if not h.edge.is_ordering]
    assert internal + len(inter_data) == len(dfg.data_edges)


def test_dependency_order_respects_dataflow():
    dfg = chain_dfg(6)
    hierarchy = build_hierarchy(dfg, seed=0)
    order = hierarchy.dependency_order()
    position = {g: i for i, g in enumerate(order)}
    for hedge in hierarchy.inter_edges:
        if hedge.edge.distance == 0 and not hedge.edge.is_ordering:
            assert position[hedge.src_group] < position[hedge.dst_group]


def test_memory_nodes_are_singletons():
    dfg = chain_dfg(3)
    hierarchy = build_hierarchy(dfg, seed=0)
    for node in dfg.memory_nodes:
        group = hierarchy.groups[hierarchy.group_of(node.node_id)]
        assert group.kind is MotifKind.SINGLETON


# ---------------------------------------------------------------------------
# Algorithm 1's adjacency against a per-lookup scan
# ---------------------------------------------------------------------------
def _scan_adjacency(dfg, available):
    """Oracle: the distance-0 adjacency scanned from the DFG's edges with
    both ends in ``available``, for every available node."""
    succs = {nid: [] for nid in available}
    preds = {nid: [] for nid in available}
    for edge in dfg.data_edges:
        if edge.distance != 0:
            continue
        if edge.src in available and edge.dst in available \
                and edge.src != edge.dst:
            if edge.dst not in succs[edge.src]:
                succs[edge.src].append(edge.dst)
            if edge.src not in preds[edge.dst]:
                preds[edge.dst].append(edge.src)
    return succs, preds


class _ScanAdjacency:
    """:class:`Adjacency` stand-in that rescans the DFG on each view."""

    def __init__(self, dfg):
        self.dfg = dfg

    def restrict(self, available):
        return _scan_adjacency(self.dfg, available)


TABLE2 = tuple(spec.name for spec in all_workloads())


@pytest.mark.parametrize("workload", TABLE2)
def test_adjacency_views_match_scan(workload):
    """Restricted views of the once-built adjacency list every available
    node's neighbours exactly as the scan does, on random subsets."""
    dfg = get_dfg(workload)
    compute = [node.node_id for node in dfg.compute_nodes]
    adjacency = Adjacency(dfg)
    rng = random.Random(workload)
    for size in (len(compute), len(compute) // 2, len(compute) // 4, 3):
        available = set(rng.sample(compute, min(size, len(compute))))
        succs, preds = adjacency.restrict(available)
        want_succs, want_preds = _scan_adjacency(dfg, available)
        for node_id in available:
            assert succs[node_id] == want_succs[node_id], node_id
            assert preds[node_id] == want_preds[node_id], node_id


@pytest.mark.parametrize("workload", TABLE2)
def test_generation_matches_scanned_adjacency(workload, monkeypatch):
    """Algorithm 1 finds the same motifs with the once-built adjacency
    as with a rescan per matcher call, for the mappers' motif seeds."""
    dfg = get_dfg(workload)
    got = [generate_motifs(dfg, seed=seed) for seed in (11, 23, 35)]
    monkeypatch.setattr(generation, "Adjacency", _ScanAdjacency)
    want = [generate_motifs(dfg, seed=seed) for seed in (11, 23, 35)]
    for got_result, want_result in zip(got, want):
        assert got_result.motifs == want_result.motifs
        assert got_result.standalone == want_result.standalone
        assert got_result.rounds == want_result.rounds
