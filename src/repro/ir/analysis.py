"""DFG graph algorithms and the scheduling analyses built on them.

The one home of the compiler's graph algorithms: the Kahn topological
sort, strongly connected components (iterative Tarjan) and the
Bellman-Ford longest-path fixpoint.  On them sit the modulo-scheduling
mappers' inputs: ASAP/ALAP schedules for placement priorities and the
recurrence-constrained minimum initiation interval (RecMII).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.errors import DFGError
from repro.ir.ops import OP_LATENCY

if TYPE_CHECKING:
    from repro.ir.graph import DFG


def topological_order(dfg: DFG, members: "set[int] | None" = None
                      ) -> list[int]:
    """Node ids in a topological order of the intra-iteration DAG.

    ``members`` restricts the sort to the subgraph those nodes induce (a
    spatial phase).  Sources come first in id order, then every other
    node in the order it becomes ready.  Raises :class:`DFGError` on a
    distance-0 cycle.
    """
    ids = (node.node_id for node in dfg.nodes) if members is None else members
    in_degree = dict.fromkeys(ids, 0)
    for edge in dfg.edges:
        if edge.distance == 0 and edge.src in in_degree \
                and edge.dst in in_degree:
            in_degree[edge.dst] += 1
    # ``order`` doubles as the FIFO queue of ready nodes.
    order = sorted(nid for nid, deg in in_degree.items() if deg == 0)
    for current in order:
        for edge in dfg.out_edges(current):
            if edge.distance == 0 and edge.dst in in_degree:
                in_degree[edge.dst] -= 1
                if in_degree[edge.dst] == 0:
                    order.append(edge.dst)
    if len(order) != len(in_degree):
        raise DFGError(
            f"intra-iteration edges of '{dfg.name}' contain a cycle")
    return order


def asap_schedule(dfg: DFG) -> dict[int, int]:
    """Earliest start cycle per node, ignoring resource limits."""
    schedule: dict[int, int] = {}
    for node_id in topological_order(dfg):
        earliest = 0
        for edge in dfg.in_edges(node_id):
            if edge.distance != 0:
                continue
            latency = OP_LATENCY[dfg.node(edge.src).op]
            earliest = max(earliest, schedule[edge.src] + latency)
        schedule[node_id] = earliest
    return schedule


def alap_schedule(dfg: DFG, horizon: int | None = None) -> dict[int, int]:
    """Latest start cycle per node against ``horizon`` (default: ASAP span)."""
    asap = asap_schedule(dfg)
    if horizon is None:
        horizon = max(asap.values(), default=0)
    schedule: dict[int, int] = {}
    for node_id in reversed(topological_order(dfg)):
        latest = horizon
        latency = OP_LATENCY[dfg.node(node_id).op]
        for edge in dfg.out_edges(node_id):
            if edge.distance != 0:
                continue
            latest = min(latest, schedule[edge.dst] - latency)
        schedule[node_id] = latest
    return schedule


def critical_path_length(dfg: DFG) -> int:
    """Length (cycles) of the longest intra-iteration dependence chain."""
    asap = asap_schedule(dfg)
    if not asap:
        return 0
    return max(
        asap[node.node_id] + OP_LATENCY[node.op] for node in dfg.nodes
    )


def strongly_connected_components(
        successors: dict[int, Iterable[int]]) -> list[list[int]]:
    """Strongly connected components of the digraph ``successors`` (node
    -> its successors; every node is a key), by an iterative Tarjan walk.

    Components come out in reverse topological order of the
    condensation; every node, isolated or not, is in exactly one.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []
    work: list[tuple[int, Iterator[int]]] = []

    def visit(node: int) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(successors[node])))

    for root in successors:
        if root in index:
            continue
        visit(root)
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    visit(child)
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = [stack.pop()]
                    while component[-1] != node:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    components.append(component)
    return components


def longest_paths(ids: Iterable[int],
                  edges: list[tuple[int, int, int]]
                  ) -> dict[int, int] | None:
    """Bellman-Ford longest-path fixpoint from 0 at every node.

    The least ``sigma`` with ``sigma(dst) >= sigma(src) + weight`` for
    every ``(src, dst, weight)`` edge and ``sigma >= 0``, or None when a
    positive-weight cycle leaves no fixpoint.
    """
    sigma = dict.fromkeys(ids, 0)
    for _ in range(len(sigma) + 1):
        changed = False
        for src, dst, weight in edges:
            candidate = sigma[src] + weight
            if candidate > sigma[dst]:
                sigma[dst] = candidate
                changed = True
        if not changed:
            return sigma
    return None


def _feasible_at_ii(ids: list[int], edges: list[tuple[int, int, int, int]],
                    ii: int) -> bool:
    """Whether the constraints sigma(dst) >= sigma(src) + latency - II *
    distance for every ``(src, dst, latency, distance)`` edge have a
    solution.

    They have none exactly when some recurrence circuit needs more than
    ``ii`` cycles per iteration of slack (a positive-weight cycle).
    """
    return longest_paths(ids, [(src, dst, latency - ii * distance)
                               for src, dst, latency, distance in edges]
                         ) is not None


def recurrence_mii(dfg: DFG, max_ii: int = 64,
                   members: "set[int] | None" = None) -> int:
    """Smallest II for which every recurrence circuit is schedulable.

    ``members`` restricts the check to the circuits of the subgraph
    those nodes induce (a spatial phase).  Returns 1 when the graph has
    no loop-carried cycles.  Raises :class:`DFGError` if no II up to
    ``max_ii`` works (which indicates a malformed graph, e.g. a
    distance-0 cycle).
    """
    ids = ([node.node_id for node in dfg.nodes] if members is None
           else list(members))
    edges = [(edge.src, edge.dst, OP_LATENCY[dfg.node(edge.src).op],
              edge.distance) for edge in dfg.edges
             if members is None or (edge.src in members
                                    and edge.dst in members)]
    low, high = 1, max_ii
    if not _feasible_at_ii(ids, edges, high):
        raise DFGError(f"'{dfg.name}' unschedulable even at II={max_ii}")
    if not any(distance > 0 for _s, _d, _l, distance in edges):
        return 1
    while low < high:
        mid = (low + high) // 2
        if _feasible_at_ii(ids, edges, mid):
            high = mid
        else:
            low = mid + 1
    return low
