"""Time-expanded Dijkstra routing over the MRRG (Algorithm 2, line 10).

A route carries one producer's value from its execution cycle to one
consumer's execution cycle through places (register sites) and moves
(wires), charging MRRG resources along the way.  Costs are congestion-aware
via :meth:`MRRG.step_cost`; segments already charged by the same net are
free, which makes fanout nets share wires naturally.

:func:`route_edge` runs the compiled integer-state search
(:mod:`repro.mapping.routecore`).  The interpreted loop here is kept as
:func:`route_edge_reference`, the conformance oracle that tests and
benchmarks call directly.  Both read and charge the same MRRG state,
and they are bit-identical by invariant (``tests/test_routecore.py``).
Every :func:`route_edge` call, and every failure (span out of range, no
path), ticks :data:`repro.mapping.routecore.ROUTING` so mapping stats
and failure messages can surface them.

The least latency between two FUs (:func:`transport_latency_table`) is
read off the fabric's moves, so it cannot disagree with the router.
"""

from __future__ import annotations

import heapq

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route, RouteStep
from repro.mapping import routecore
from repro.mapping.routecore import (
    MAX_TRANSPORT_CYCLES, ROUTING, RoutingHistory,
)

__all__ = [
    "MAX_TRANSPORT_CYCLES", "ROUTING", "RoutingHistory", "route_edge",
    "route_edge_reference", "router_adjacency", "transport_latency_table",
]


def transport_latency_table(arch: Architecture) -> tuple[tuple[int, ...], ...]:
    """FU x FU minimum producer-to-consumer latency, built once per fabric.

    A route enters the producer's output place the cycle after execution
    and moves at most once per cycle, so ``table[src][dst]`` is the
    fewest moves from there to a consume place of ``dst``
    (:func:`~repro.mapping.routecore.fewest_moves_to_consume`) plus one:
    the least span the pair routes at.  An unreachable pair reads
    ``MAX_TRANSPORT_CYCLES + 1``, a span no route takes.
    """
    def build() -> tuple[tuple[int, ...], ...]:
        need = routecore.fewest_moves_to_consume(arch)
        return tuple(
            tuple(need[dst_fu][arch.produce_place[src_fu]] + 1
                  for dst_fu in range(len(arch.fus)))
            for src_fu in range(len(arch.fus)))

    return arch.memo("transport_latency_table", build)


def router_adjacency(arch: Architecture
                     ) -> tuple[tuple[tuple[int, tuple[str, str]], ...], ...]:
    """Per-place outgoing transitions, flattened for the Dijkstra loop.

    ``adjacency[place]`` is a tuple of ``(dst_place, ("res", name))``
    pairs in the fabric's move-declaration order — the same order
    :meth:`Architecture.moves_from` yields, so search tie-breaking is
    unchanged.  Built once per fabric and shared by every MRRG over it.
    """
    def build() -> tuple[tuple[tuple[int, tuple[str, str]], ...], ...]:
        outgoing: list[list[tuple[int, tuple[str, str]]]] = [
            [] for _ in arch.places
        ]
        for move in arch.moves:
            outgoing[move.src].append((move.dst, ("res", move.resource)))
        return tuple(tuple(entries) for entries in outgoing)

    return arch.memo("router_adjacency", build)


def route_edge(mrrg: MRRG, net: int, src_fu: int, depart_cycle: int,
               dst_fu: int, arrive_cycle: int,
               history: RoutingHistory | None = None,
               commit: bool = True) -> Route | None:
    """Route a value produced at (src_fu, depart_cycle) to be consumed at
    (dst_fu, arrive_cycle); returns None when no path exists.

    ``arrive_cycle`` is in absolute time: inter-iteration edges pass
    ``consumer_cycle + distance * II``.  With ``commit`` the route's
    charges are applied to the MRRG immediately.  ``history`` is
    PathFinder's :class:`~repro.mapping.routecore.RoutingHistory` over
    this MRRG's fabric and II, or None.
    """
    ROUTING.calls += 1
    core = routecore.route_core_for(mrrg.arch, mrrg.ii)
    hist = core.zero_hist if history is None else history.array
    route = routecore.route_edge_compiled(
        mrrg, core, net, src_fu, depart_cycle, dst_fu, arrive_cycle,
        hist, commit)
    if route is None:
        ROUTING.failures += 1
    return route


def route_edge_reference(mrrg: MRRG, net: int, src_fu: int,
                         depart_cycle: int, dst_fu: int, arrive_cycle: int,
                         history: dict | None = None,
                         commit: bool = True) -> Route | None:
    """The interpreted Dijkstra — the compiled core's conformance oracle.

    Bit-identical to :func:`routecore.route_edge_compiled` by invariant;
    benchmarks and conformance tests call it directly to check and price
    the compiled path.  Unlike :func:`route_edge` it does not tick
    :data:`~repro.mapping.routecore.ROUTING`.
    """
    arch = mrrg.arch
    span = arrive_cycle - depart_cycle
    if span < 1 or span > MAX_TRANSPORT_CYCLES:
        return None

    # Free bypass path (Plaid motif compute unit, producer -> right ALU).
    if (src_fu, dst_fu) in arch.bypass_pairs and span == 1:
        route = Route(net=net, steps=(), src_fu=src_fu, dst_fu=dst_fu,
                      depart_cycle=depart_cycle, arrive_cycle=arrive_cycle,
                      bypass=True)
        if commit:
            mrrg.commit_route(route)
        return route

    start_place = arch.produce_place[src_fu]
    goals = arch.consume_places[dst_fu]
    start_cycle = depart_cycle + 1

    # Dijkstra over (place, cycle).
    start_cost = mrrg.step_cost(net, ("place", start_place), start_cycle,
                                history)
    frontier: list[tuple[float, int, int]] = [
        (start_cost, start_place, start_cycle)
    ]
    best: dict[tuple[int, int], float] = {(start_place, start_cycle): start_cost}
    parents: dict[tuple[int, int],
                  tuple[int, int, tuple[str, str] | None]] = {}

    # The consume-side wire charge differs per goal place (a congested
    # remote read can cost far more than landing locally), so goals are
    # compared on cost *including* their read charge.
    adjacency = router_adjacency(arch)
    goal_state: tuple[int, int] | None = None
    goal_cost = float("inf")
    while frontier:
        cost, place, cycle = heapq.heappop(frontier)
        if cost >= goal_cost:
            break          # no remaining state can beat the best goal
        if cost > best.get((place, cycle), float("inf")):
            continue
        if cycle == arrive_cycle:
            if place in goals:
                read = goals[place]
                read_cost = 0.0 if read is None else mrrg.step_cost(
                    net, ("res", read), arrive_cycle, history)
                if cost + read_cost < goal_cost:
                    goal_cost = cost + read_cost
                    goal_state = (place, cycle)
            continue
        # Hold in place for a cycle.
        _push(mrrg, net, history, best, frontier, parents,
              place, cycle, place, cycle + 1, cost, None)
        # Moves to connected places.
        for dst_place, move_resource in adjacency[place]:
            _push(mrrg, net, history, best, frontier, parents,
                  place, cycle, dst_place, cycle + 1, cost, move_resource)

    if goal_state is None:
        return None

    # Reconstruct occupancy/move steps.
    steps: list[RouteStep] = []
    places: list[tuple[int, int]] = []
    state = goal_state
    while True:
        place, cycle = state
        steps.append(RouteStep("occupy", ("place", place), cycle))
        places.append((place, cycle))
        parent = parents.get(state)
        if parent is None:
            break
        prev_place, prev_cycle, move_resource = parent
        if move_resource is not None:
            steps.append(RouteStep("move", move_resource, prev_cycle))
        state = (prev_place, prev_cycle)
    steps.reverse()
    places.reverse()

    # Consume-side wire charge.
    read_resource = goals[goal_state[0]]
    if read_resource is not None:
        steps.append(RouteStep("read", ("res", read_resource), arrive_cycle))

    route = Route(
        net=net,
        steps=tuple(steps),
        src_fu=src_fu,
        dst_fu=dst_fu,
        depart_cycle=depart_cycle,
        arrive_cycle=arrive_cycle,
        places=tuple(places),
    )
    if commit:
        mrrg.commit_route(route)
    return route


def _push(mrrg: MRRG, net: int, history, best, frontier, parents,
          place: int, cycle: int, next_place: int, next_cycle: int,
          cost: float, move_resource: tuple[str, str] | None) -> bool:
    """Relax one Dijkstra transition; returns True when it improved.

    ``move_resource`` is the ``("res", name)`` key the transfer charges
    (``None`` for a hold); the :class:`RouteStep` itself is materialized
    only during path reconstruction, so the hot loop allocates nothing
    for transitions that don't improve.
    """
    if move_resource is not None:
        move_cost = mrrg.step_cost(net, move_resource, cycle, history)
    else:
        move_cost = 0.0
    occupy_cost = mrrg.step_cost(net, ("place", next_place), next_cycle,
                                 history)
    new_cost = cost + move_cost + occupy_cost
    key = (next_place, next_cycle)
    if new_cost < best.get(key, float("inf")):
        best[key] = new_cost
        parents[key] = (place, cycle, move_resource)
        heapq.heappush(frontier, (new_cost, next_place, next_cycle))
        return True
    return False
