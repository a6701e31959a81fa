"""Scheduling-oriented DFG analyses.

These feed the modulo-scheduling mappers: topological order and ASAP/ALAP
schedules for placement priorities, and the recurrence-constrained minimum
initiation interval (RecMII) via a Bellman-Ford feasibility check.
"""

from __future__ import annotations

from repro.errors import DFGError
from repro.ir.graph import DFG
from repro.ir.ops import OP_LATENCY


def topological_order(dfg: DFG) -> list[int]:
    """Node ids in a topological order of the intra-iteration DAG."""
    in_degree = {node.node_id: 0 for node in dfg.nodes}
    for edge in dfg.edges:
        if edge.distance == 0:
            in_degree[edge.dst] += 1
    ready = sorted(nid for nid, deg in in_degree.items() if deg == 0)
    order: list[int] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for edge in dfg.out_edges(current):
            if edge.distance != 0:
                continue
            in_degree[edge.dst] -= 1
            if in_degree[edge.dst] == 0:
                ready.append(edge.dst)
    if len(order) != dfg.num_nodes:
        raise DFGError(f"'{dfg.name}' intra-iteration edges are cyclic")
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


def _feasible_at_ii(ids: list[int], edges: list[tuple[int, int, int, int]],
                    ii: int) -> bool:
    """Bellman-Ford feasibility of constraints sigma(dst) >= sigma(src)
    + latency - II * distance for every ``(src, dst, latency, distance)``
    edge.

    Infeasible iff the constraint graph has a positive-weight cycle, which
    happens exactly when some recurrence circuit needs more than ``ii``
    cycles per iteration of slack.
    """
    sigma = dict.fromkeys(ids, 0)
    weighted = [(src, dst, latency - ii * distance)
                for src, dst, latency, distance in edges]
    for _ in range(len(ids)):
        changed = False
        for src, dst, weight in weighted:
            candidate = sigma[src] + weight
            if candidate > sigma[dst]:
                sigma[dst] = candidate
                changed = True
        if not changed:
            return True
    # One more relaxation round still changing => positive cycle.
    for src, dst, weight in weighted:
        if sigma[src] + weight > sigma[dst]:
            return False
    return True


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
