"""Compiled routing core: integer-state Dijkstra over flat cost arrays.

:func:`repro.mapping.router.route_edge` is the hottest loop left in the
mapper: the interpreted search walks ``(place, cycle)`` tuple keys and
pays two :meth:`~repro.arch.mrrg.MRRG.step_cost` calls — each a tuple
construction plus several dict probes — per relaxed transition.  This
module compiles everything that is invariant per *(architecture, II)*
into a :class:`RouteCore` once, following the repo's
engine pattern (PR 2 mapping engine, PR 3 compiled simulator):

* every routable resource — ``("place", p)`` and ``("res", name)`` — has
  the dense integer id (*rid*) that :func:`repro.arch.mrrg.resource_index`
  assigns once per fabric; the search reads the MRRG's own flat
  ``cost_base[rid * II + slot]`` array and per-net charge map, the same
  state :meth:`MRRG.commit_route`/:meth:`MRRG.uncommit_route` maintain
  for every engine;
* search states are single integers ``place * MAX_TRANSPORT_CYCLES +
  relative_cycle``; ``dist``/``parent`` are preallocated flat arrays
  reset by epoch stamping, so a search allocates nothing but its heap
  entries;
* PathFinder's negotiated-congestion history is a
  :class:`RoutingHistory`: one flat ``hist[rid * II + slot]`` array.

**Invariant:** :func:`route_edge_compiled` is bit-identical to
:func:`repro.mapping.router.route_edge_reference` — same float
arithmetic in the same order, same heap tie-breaking (state ids order
exactly like the reference ``(place, cycle)`` tuples), same goal
selection, same :class:`~repro.arch.mrrg.Route` steps.
``tests/test_routecore.py`` locks this per-route and across whole mapper
searches on the golden grid.

Cores are memoized on the architecture instance, one per II, like the
fabric's :func:`~repro.arch.mrrg.resource_index` and the router's
adjacency and latency tables.

The interpreted oracle stays out of production: tests and benchmarks
call :func:`~repro.mapping.router.route_edge_reference` directly.
"""

from __future__ import annotations

import heapq

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route, RouteStep, resource_index

#: Routing gives up beyond this many cycles of transport (the router
#: re-exports it; defined here so the core can size its state arrays
#: without a circular import).
MAX_TRANSPORT_CYCLES = 64


def active_engine() -> str:
    """Always ``"compiled"``: routing has one production engine.

    Exists only for ``perfbench/worker.py``, which prints the engine
    names in its output header.
    """
    return "compiled"


class RoutingCounters:
    """Process-wide routing attempt accounting.

    ``route_edge`` failures (span out of range, no path at the requested
    arrival) used to vanish silently; the engine snapshots these counters
    around each search and surfaces the delta in
    :class:`~repro.mapping.base.MappingStats` and mapping-failure
    messages.
    """

    __slots__ = ("calls", "failures")

    def __init__(self) -> None:
        self.calls = 0
        self.failures = 0

    def reset(self) -> None:
        self.calls = self.failures = 0


ROUTING = RoutingCounters()


class RoutingHistory:
    """PathFinder's negotiated-congestion history, one flat array.

    ``array[rid * II + slot]`` accumulates the history cost of each
    modulo slot; the compiled router reads it directly, and the
    reference router reads it through :meth:`get` (the ``(resource,
    slot)`` view :meth:`MRRG.step_cost` consumes).
    """

    __slots__ = ("core", "array")

    def __init__(self, core: "RouteCore") -> None:
        self.core = core
        self.array = [0.0] * (core.n_rids * core.ii)

    @classmethod
    def for_mrrg(cls, mrrg: MRRG) -> "RoutingHistory":
        """History over ``mrrg``'s fabric and II."""
        return cls(route_core_for(mrrg.arch, mrrg.ii))

    def add(self, resource, slot: int, amount: float) -> None:
        self.array[self.core.rid_of[resource] * self.core.ii + slot] += amount

    def get(self, key, default: float = 0.0) -> float:
        """``history.get((resource, slot), default)`` as the reference
        router's :meth:`MRRG.step_cost` asks it; every resource it asks
        about has a rid, so ``default`` is never needed."""
        resource, slot = key
        return self.array[self.core.rid_of[resource] * self.core.ii + slot]


class RouteCore:
    """Per-(architecture, II) compiled routing tables.

    Static state only (plus per-search scratch arrays): the dynamic
    congestion arrays live on each :class:`~repro.arch.mrrg.MRRG`, so
    every MRRG over one fabric and II shares one core.
    """

    def __init__(self, arch: Architecture, ii: int) -> None:
        # No reference to ``arch`` is kept: the core is memoized on the
        # architecture, and the tables below already carry everything
        # the search needs.
        self.ii = ii
        n_places = len(arch.places)

        # Dense resource ids come from the fabric's ResourceIndex
        # (places first, rid == place_id, then wires).
        index = resource_index(arch)
        rid_of = index.rid_of

        # Adjacency in arch.moves declaration order — the same order
        # Architecture.moves_from / router_adjacency yield, so search
        # tie-breaking matches the reference exactly.
        outgoing: list[list[tuple[int, int]]] = [[] for _ in range(n_places)]
        for move in arch.moves:
            outgoing[move.src].append(
                (move.dst, rid_of[("res", move.resource)]))
        self.adj: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(entries) for entries in outgoing)

        # Goal tables: per consumer FU, a place-indexed row of
        # -1 (not a consume place), -2 (free same-tile read), or the rid
        # of the consume-side wire charge.
        n_fus = len(arch.fus)
        self.produce_place = tuple(
            arch.produce_place[fu_id] for fu_id in range(n_fus))
        goal_rid: list[list[int]] = []
        for fu_id in range(n_fus):
            row = [-1] * n_places
            for place_id, read in arch.consume_places[fu_id].items():
                row[place_id] = -2 if read is None else rid_of[("res", read)]
            goal_rid.append(row)
        self.goal_rid = goal_rid
        self.bypass_pairs = frozenset(arch.bypass_pairs)

        self.rid_of = rid_of
        self.key_of = index.key_of
        self.n_rids = len(index.key_of)

        #: Shared all-zero history for history-free callers (never written).
        self.zero_hist = [0.0] * (self.n_rids * ii)

        # Per-search scratch, reset by epoch stamping.
        size = n_places * MAX_TRANSPORT_CYCLES
        self._dist = [0.0] * size
        self._stamp = [0] * size
        self._parent_state = [0] * size
        self._parent_move = [0] * size
        self._epoch = 0


def route_core_for(arch: Architecture, ii: int) -> RouteCore:
    """The compiled core for (arch, ii), memoized on the instance."""
    cores = arch.memo("route_cores", dict)
    core = cores.get(ii)
    if core is None:
        core = cores[ii] = RouteCore(arch, ii)
    return core


def route_edge_compiled(mrrg: MRRG, core: RouteCore, net: int, src_fu: int,
                        depart_cycle: int, dst_fu: int, arrive_cycle: int,
                        hist: list[float], commit: bool) -> Route | None:
    """Integer-state Dijkstra, bit-identical to ``route_edge_reference``.

    ``hist`` is a flat ``rid * II + slot`` float array (``core.zero_hist``
    for history-free calls).  Cost arithmetic reproduces
    :meth:`MRRG.step_cost` term by term — ``cost_base`` already holds
    ``1.0 + present_factor * overuse`` — and the heap orders ``(cost,
    state)`` exactly like the reference ``(cost, place, cycle)`` tuples,
    so ties resolve identically.
    """
    span = arrive_cycle - depart_cycle
    if span < 1 or span > MAX_TRANSPORT_CYCLES:
        return None

    if span == 1 and (src_fu, dst_fu) in core.bypass_pairs:
        route = Route(net=net, steps=(), src_fu=src_fu, dst_fu=dst_fu,
                      depart_cycle=depart_cycle, arrive_cycle=arrive_cycle,
                      bypass=True)
        if commit:
            mrrg.commit_route(route)
        return route

    ii = core.ii
    base = mrrg._cost_base
    stride = MAX_TRANSPORT_CYCLES
    start_place = core.produce_place[src_fu]
    start_cycle = depart_cycle + 1

    if span == 1:
        # Single-state search: the value sits in the producer's place for
        # exactly the arrival cycle — either that place feeds the
        # consumer (possibly over a read wire) or there is no route.
        # Cost never influences the result, so no search state is needed;
        # the Route matches the reference's one-pop search verbatim.
        read = core.goal_rid[dst_fu][start_place]
        if read == -1:
            return None
        key_of = core.key_of
        steps = [RouteStep("occupy", key_of[start_place], arrive_cycle)]
        if read != -2:
            steps.append(RouteStep("read", key_of[read], arrive_cycle))
        route = Route(
            net=net,
            steps=tuple(steps),
            src_fu=src_fu,
            dst_fu=dst_fu,
            depart_cycle=depart_cycle,
            arrive_cycle=arrive_cycle,
            places=((start_place, arrive_cycle),),
        )
        if commit:
            mrrg.commit_route(route)
        return route

    # Segments already charged by this net are free (fanout sharing):
    # charges maps rid * II + slot -> {absolute cycle: refs} for exactly
    # this net's committed steps.  Place ids and res ids occupy disjoint
    # index ranges, so one membership probe per cost suffices.
    charges = mrrg._net_charges.get(net) or None
    has_charges = charges is not None

    sslot = start_cycle % ii
    sidx = start_place * ii + sslot
    if has_charges and sidx in charges and start_cycle in charges[sidx]:
        start_cost = 0.0
    else:
        start_cost = base[sidx] + hist[sidx]

    dist = core._dist
    stamp = core._stamp
    pstate = core._parent_state
    pmove = core._parent_move
    core._epoch += 1
    epoch = core._epoch
    adj = core.adj
    goal_row = core.goal_rid[dst_fu]
    rel_goal = span - 1
    arrive_slot = arrive_cycle % ii

    state0 = start_place * stride
    dist[state0] = start_cost
    stamp[state0] = epoch
    pstate[state0] = -1
    pmove[state0] = -1
    heap = [(start_cost, state0)]
    push = heapq.heappush
    pop = heapq.heappop

    goal_state = -1
    goal_read = -1
    goal_cost = float("inf")
    # Two copies of the relaxation loop: nets with committed charges or a
    # negotiation history pay the shared-segment membership probes and
    # history reads; the common case (first route of a net, no history)
    # runs the probe-free variant.  Both produce the identical float
    # stream — a hold charges no move resource, every history term is
    # exactly 0.0, and x + 0.0 == x for these non-negative costs, so
    # skipping the zero terms keeps costs bit-identical to the reference.
    if not has_charges and hist is core.zero_hist:
        while heap:
            cost, state = pop(heap)
            if cost >= goal_cost:
                break      # no remaining state can beat the best goal
            if cost > dist[state]:
                continue
            place = state // stride
            rel = state - place * stride
            if rel == rel_goal:
                read = goal_row[place]
                if read != -1:
                    if read == -2:
                        total = cost
                    else:
                        total = cost + base[read * ii + arrive_slot]
                    if total < goal_cost:
                        goal_cost = total
                        goal_state = state
                        goal_read = read
                continue
            cycle = start_cycle + rel
            cslot = cycle % ii
            nslot = (cycle + 1) % ii
            # Hold in place for a cycle.
            new_cost = cost + base[place * ii + nslot]
            nstate = state + 1
            if stamp[nstate] != epoch:
                stamp[nstate] = epoch
                dist[nstate] = new_cost
                pstate[nstate] = state
                pmove[nstate] = -1
                push(heap, (new_cost, nstate))
            elif new_cost < dist[nstate]:
                dist[nstate] = new_cost
                pstate[nstate] = state
                pmove[nstate] = -1
                push(heap, (new_cost, nstate))
            # Moves to connected places.
            nrel = rel + 1
            for dst_place, move_rid in adj[place]:
                new_cost = cost + base[move_rid * ii + cslot] \
                    + base[dst_place * ii + nslot]
                nstate = dst_place * stride + nrel
                if stamp[nstate] != epoch:
                    stamp[nstate] = epoch
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))
                elif new_cost < dist[nstate]:
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))
    else:
        while heap:
            cost, state = pop(heap)
            if cost >= goal_cost:
                break
            if cost > dist[state]:
                continue
            place = state // stride
            rel = state - place * stride
            if rel == rel_goal:
                read = goal_row[place]
                if read != -1:
                    if read == -2:
                        read_cost = 0.0
                    else:
                        ridx = read * ii + arrive_slot
                        if has_charges and ridx in charges:
                            read_cost = 0.0
                        else:
                            read_cost = base[ridx] + hist[ridx]
                    total = cost + read_cost
                    if total < goal_cost:
                        goal_cost = total
                        goal_state = state
                        goal_read = read
                continue
            cycle = start_cycle + rel
            next_cycle = cycle + 1
            cslot = cycle % ii
            nslot = next_cycle % ii
            # Hold in place for a cycle.
            oidx = place * ii + nslot
            if has_charges and oidx in charges \
                    and next_cycle in charges[oidx]:
                occupy_cost = 0.0
            else:
                occupy_cost = base[oidx] + hist[oidx]
            new_cost = cost + occupy_cost
            nstate = state + 1
            if stamp[nstate] != epoch:
                stamp[nstate] = epoch
                dist[nstate] = new_cost
                pstate[nstate] = state
                pmove[nstate] = -1
                push(heap, (new_cost, nstate))
            elif new_cost < dist[nstate]:
                dist[nstate] = new_cost
                pstate[nstate] = state
                pmove[nstate] = -1
                push(heap, (new_cost, nstate))
            # Moves to connected places.
            nrel = rel + 1
            for dst_place, move_rid in adj[place]:
                midx = move_rid * ii + cslot
                if has_charges and midx in charges:
                    move_cost = 0.0
                else:
                    move_cost = base[midx] + hist[midx]
                oidx = dst_place * ii + nslot
                if has_charges and oidx in charges \
                        and next_cycle in charges[oidx]:
                    occupy_cost = 0.0
                else:
                    occupy_cost = base[oidx] + hist[oidx]
                new_cost = cost + move_cost + occupy_cost
                nstate = dst_place * stride + nrel
                if stamp[nstate] != epoch:
                    stamp[nstate] = epoch
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))
                elif new_cost < dist[nstate]:
                    dist[nstate] = new_cost
                    pstate[nstate] = state
                    pmove[nstate] = move_rid
                    push(heap, (new_cost, nstate))

    if goal_state == -1:
        return None

    # Reconstruct occupancy/move steps (identical step order to the
    # reference: backward walk, then reverse, then the consume read).
    key_of = core.key_of
    steps: list[RouteStep] = []
    places: list[tuple[int, int]] = []
    state = goal_state
    while True:
        place, rel = divmod(state, stride)
        cycle = start_cycle + rel
        steps.append(RouteStep("occupy", key_of[place], cycle))
        places.append((place, cycle))
        parent = pstate[state]
        if parent == -1:
            break
        move_rid = pmove[state]
        if move_rid != -1:
            steps.append(RouteStep("move", key_of[move_rid], cycle - 1))
        state = parent
    steps.reverse()
    places.reverse()

    if goal_read != -2:
        steps.append(RouteStep("read", key_of[goal_read], arrive_cycle))

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
