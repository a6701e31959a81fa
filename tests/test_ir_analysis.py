"""Tests for the DFG graph algorithms (topological order, SCCs,
longest paths) and the scheduling analyses: ASAP/ALAP, critical path,
RecMII."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DFGError
from repro.ir.builder import DFGBuilder
from repro.ir.analysis import (
    alap_schedule, asap_schedule, critical_path_length, longest_paths,
    recurrence_mii, strongly_connected_components, topological_order,
)
from repro.ir.ops import Opcode


def diamond():
    b = DFGBuilder("diamond", trip_counts=(4,))
    x = b.load("x", coeffs=(1,))
    l = b.op(Opcode.ADD, x, const=1)
    r = b.op(Opcode.MUL, x, const=2)
    top = b.op(Opcode.ADD, l, r)
    b.store("y", top, coeffs=(1,))
    return b.build()


def test_topological_order_respects_edges():
    dfg = diamond()
    order = topological_order(dfg)
    position = {nid: i for i, nid in enumerate(order)}
    for edge in dfg.edges:
        if edge.distance == 0:
            assert position[edge.src] < position[edge.dst]


def test_asap_diamond():
    dfg = diamond()
    asap = asap_schedule(dfg)
    assert asap[0] == 0          # load
    assert asap[1] == asap[2] == 1
    assert asap[3] == 2
    assert asap[4] == 3          # store


def test_alap_bounds_asap():
    dfg = diamond()
    asap = asap_schedule(dfg)
    alap = alap_schedule(dfg)
    for nid in asap:
        assert asap[nid] <= alap[nid]


def test_critical_path_diamond():
    assert critical_path_length(diamond()) == 4


def test_recmii_without_recurrence_is_one():
    assert recurrence_mii(diamond()) == 1


def test_recmii_self_accumulator():
    b = DFGBuilder("acc", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    acc = b.op(Opcode.ADD, x)
    b.recurrence(acc, acc, operand_index=1, distance=1)
    b.store("y", acc, coeffs=(1,))
    dfg = b.build()
    assert recurrence_mii(dfg) == 1     # 1-cycle loop, distance 1


def test_recmii_three_stage_loop():
    b = DFGBuilder("loop3", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    n1 = b.op(Opcode.ADD, x)
    n2 = b.op(Opcode.MUL, n1, const=3)
    n3 = b.op(Opcode.ADD, n2, const=1)
    b.recurrence(n3, n1, operand_index=1, distance=1)
    b.store("y", n3, coeffs=(1,))
    dfg = b.build()
    # Circuit n1 -> n2 -> n3 -> n1 with total latency 3, distance 1.
    assert recurrence_mii(dfg) == 3


def test_recmii_distance_two_halves_constraint():
    b = DFGBuilder("loopd2", trip_counts=(8,))
    x = b.load("x", coeffs=(1,))
    n1 = b.op(Opcode.ADD, x)
    n2 = b.op(Opcode.MUL, n1, const=3)
    n3 = b.op(Opcode.ADD, n2, const=1)
    b.recurrence(n3, n1, operand_index=1, distance=2)
    b.store("y", n3, coeffs=(1,))
    dfg = b.build()
    assert recurrence_mii(dfg) == 2     # ceil(3 / 2)


def cyclic_dfg():
    """Two nodes feeding each other at distance 0 (validate() would
    refuse it, so the edges go in raw)."""
    from repro.ir.graph import DFG
    dfg = DFG("bad")
    a = dfg.add_node(Opcode.ADD, const=0)
    b2 = dfg.add_node(Opcode.ADD, const=0)
    dfg.add_edge(a, b2, operand_index=0)
    dfg.add_edge(b2, a, operand_index=0)
    return dfg


def test_unschedulable_raises():
    with pytest.raises(DFGError):
        recurrence_mii(cyclic_dfg())


def test_distance_zero_cycle_has_one_message():
    """validate() and the sort it runs report a cycle the same way."""
    dfg = cyclic_dfg()
    message = "intra-iteration edges of 'bad' contain a cycle"
    with pytest.raises(DFGError, match=message):
        topological_order(dfg)
    with pytest.raises(DFGError, match=message):
        topological_order(dfg, members={0, 1})
    with pytest.raises(DFGError, match=message):
        dfg.validate()
    # Restricted to one endpoint the subgraph is acyclic.
    assert topological_order(dfg, members={1}) == [1]


# ---------------------------------------------------------------------------
# Strongly connected components against mutual reachability
# ---------------------------------------------------------------------------
def _reachable(successors, start):
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in successors[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@st.composite
def digraphs(draw):
    """node -> successors over 0..n-1; self-loops, duplicate edges and
    isolated nodes all occur."""
    n = draw(st.integers(min_value=0, max_value=12))
    if n == 0:
        return {}
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    successors = {node: [] for node in range(n)}
    for src, dst in edges:
        successors[src].append(dst)
    return successors


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_matches_mutual_reachability(successors):
    components = strongly_connected_components(successors)
    reach = {node: _reachable(successors, node) for node in successors}
    want = {frozenset(other for other in reach[node] if node in reach[other])
            for node in successors}
    assert {frozenset(c) for c in components} == want
    assert sorted(n for c in components for n in c) == sorted(successors)
    # Reverse topological order: an edge never points to a later component.
    position = {node: i for i, c in enumerate(components) for node in c}
    for src, succs in successors.items():
        for dst in succs:
            assert position[dst] <= position[src]


def test_longest_paths_fixpoint_and_positive_cycle():
    edges = [(0, 1, 2), (1, 2, 3), (0, 2, 1), (3, 0, -4)]
    assert longest_paths(range(4), edges) == {0: 0, 1: 2, 2: 5, 3: 0}
    assert longest_paths(range(2), [(0, 1, 1), (1, 0, 0)]) is None
    assert longest_paths(range(2), [(0, 1, 1), (1, 0, -1)]) == {0: 0, 1: 1}
    assert longest_paths([], []) == {}


# ---------------------------------------------------------------------------
# Phase order: the shared sort against the spatial simulator's old one
# ---------------------------------------------------------------------------
def _phase_order(dfg, member_set):
    """The spatial simulator's former phase sort, kept as the oracle."""
    in_deg = {nid: 0 for nid in member_set}
    for edge in dfg.edges:
        if edge.distance == 0 and edge.src in member_set \
                and edge.dst in member_set and edge.src != edge.dst:
            in_deg[edge.dst] += 1
    ready = sorted(n for n, d in in_deg.items() if d == 0)
    order = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for edge in dfg.out_edges(current):
            if edge.distance == 0 and edge.dst in member_set \
                    and edge.dst != edge.src:
                in_deg[edge.dst] -= 1
                if in_deg[edge.dst] == 0:
                    ready.append(edge.dst)
    assert len(order) == len(member_set)
    return order


def test_phase_topological_order_matches_old_phase_sort():
    """Every phase the spatial mapper builds on the Table-2 workloads is
    ordered as the simulator's own sort ordered it."""
    from repro.eval.harness import build_arch
    from repro.mapping import SpatialMapper
    from repro.workloads import get_dfg
    from repro.workloads.registry import all_workloads

    arch = build_arch("spatial")
    phases = 0
    for spec in all_workloads():
        dfg = get_dfg(spec.name)
        for phase in SpatialMapper(seed=1).map(dfg, arch).phases:
            members = {item.node_id for item in phase.items
                       if item.kind == "node"}
            assert topological_order(dfg, members=members) \
                == _phase_order(dfg, members), (spec.name, phase.index)
            phases += 1
    assert phases > 30
