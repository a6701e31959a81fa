"""Modulo Routing Resource Graph (MRRG).

The MRRG folds the architecture's transport graph over an initiation
interval: usage of any resource at absolute cycle ``t`` lands on modulo slot
``t mod II``, and every (resource, slot) pair has finite capacity.  Because
a value that stays alive longer than II cycles overlaps with the next
iteration's copy of itself, occupancy is counted per *(net, absolute
cycle)*: the same net occupying the same modulo slot at two absolute cycles
charges the slot twice (two in-flight iterations), while two sinks of the
same net sharing a segment charge it once.

Resources tracked:

* ``("fu", fu_id)`` — one executed node per cycle slot;
* ``("place", place_id)`` — register occupancy (capacity = register count);
* ``("res", name)`` — named wires/ports shared by moves and reads.

Every routable resource (places and wires) has a dense integer id, its
*rid*, fixed once per fabric by :func:`resource_index`.  Route occupancy
lives in flat arrays indexed ``rid * II + slot`` plus one per-net
``{index: {cycle: refs}}`` refcount map; the compiled router in
:mod:`repro.mapping.routecore` reads the same arrays, so there is one
charge path for every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.base import Architecture
from repro.errors import MappingError

ResourceKey = tuple[str, object]

#: PathFinder's present-congestion factor: a charge costs 1.0 plus this
#: much per unit of overuse it would leave on its slot.
PRESENT_FACTOR = 4.0


class ResourceIndex:
    """Dense resource ids for one fabric, built once per architecture.

    Places come first (``rid == place_id``), then named wires/ports in
    first-reference order: move resources in ``arch.moves`` declaration
    order, then consume-side read wires per consumer FU.  ``caps[rid]``
    is the per-cycle capacity.  Immutable, so copies share it.
    """

    __slots__ = ("rid_of", "key_of", "caps", "n_places")

    def __init__(self, arch: Architecture) -> None:
        rid_of: dict[ResourceKey, int] = {}
        key_of: list[ResourceKey] = []
        caps: list[int] = []
        for place in arch.places:
            key = ("place", place.place_id)
            rid_of[key] = len(key_of)
            key_of.append(key)
            caps.append(place.capacity)
        wires = [move.resource for move in arch.moves]
        for fu_id in range(len(arch.fus)):
            wires.extend(read for read in arch.consume_places[fu_id].values()
                         if read is not None)
        for name in wires:
            key = ("res", name)
            if key not in rid_of:
                rid_of[key] = len(key_of)
                key_of.append(key)
                caps.append(arch.resource_caps.get(name, 1))
        self.rid_of = rid_of
        self.key_of = tuple(key_of)
        self.caps = tuple(caps)
        self.n_places = len(arch.places)

    def __copy__(self) -> "ResourceIndex":
        return self

    def __deepcopy__(self, memo) -> "ResourceIndex":
        return self


def resource_index(arch: Architecture) -> ResourceIndex:
    """The fabric's :class:`ResourceIndex`, memoized on the instance."""
    return arch.memo("resource_index", lambda: ResourceIndex(arch))


@dataclass(frozen=True)
class RouteStep:
    """One unit of resource usage by a routed value.

    kind: 'occupy' (place holds net at cycle), 'move' (resource charged for
    a transfer departing at cycle), or 'read' (consume-side wire charge).
    """

    kind: str
    resource: ResourceKey
    cycle: int          # absolute cycle of the charge


@dataclass
class Route:
    """A routed dependence: the occupancy/move/read steps plus endpoints."""

    net: int                        # producer node id
    steps: tuple[RouteStep, ...]
    src_fu: int
    dst_fu: int
    depart_cycle: int               # producer execution cycle
    arrive_cycle: int               # consumer execution cycle
    places: tuple[tuple[int, int], ...] = ()   # (place_id, cycle) occupancy
    bypass: bool = False
    #: Charge plan ``(resource index, II, entries)`` with one ``(flat
    #: index, cycle, is_res, capacity)`` entry per step.  The compiled
    #: router builds it with the route; :meth:`MRRG._charge_plan`
    #: derives and memoizes it for any other route.  Derived state only:
    #: excluded from equality.
    charge_plan: tuple | None = field(default=None, compare=False,
                                      repr=False)


class MRRG:
    """Mutable modulo resource accounting over an architecture.

    The mapper owns one MRRG per candidate II.  Nodes are committed with
    :meth:`place_node` / :meth:`unplace_node`; routed edges with
    :meth:`commit_route` / :meth:`uncommit_route`.  ``overuse()`` reports
    capacity violations (PathFinder tolerates them transiently; final
    mappings must be violation-free).  Construction is cheap — a few
    flat arrays over the fabric's memoized :class:`ResourceIndex` — so
    mappers build a fresh MRRG whenever they need an empty one.
    """

    def __init__(self, arch: Architecture, ii: int) -> None:
        if ii < 1:
            raise MappingError("II must be >= 1")
        if ii > arch.config_entries:
            raise MappingError(
                f"II {ii} exceeds the {arch.config_entries}-entry config "
                "memory"
            )
        self.arch = arch
        self.ii = ii
        self._index = resource_index(arch)
        # fu occupancy: (fu, slot) -> node_id
        self._fu_nodes: dict[tuple[int, int], int] = {}
        size = len(self._index.key_of) * ii
        # Capacity-relevant usage per flat index rid * II + slot (see
        # usage_count), and the history-free cost of one more charge by
        # a non-sharing net, 1.0 + PRESENT_FACTOR * overuse — what the
        # compiled router reads.
        self._counts = [0] * size
        self._cost_base = [1.0] * size
        # net -> {flat index: {absolute cycle: refcount}}.  Refcounts
        # matter because several routes of one fanout net share
        # segments: the shared charge must survive until the LAST
        # sharing route is uncommitted.
        self._net_charges: dict[int, dict[int, dict[int, int]]] = {}
        # Flat indices currently over capacity (index -> None; a dict for
        # its insertion order, i.e. when each slot first went over), and
        # the total amount of overuse, so overuse() and the mappers'
        # objective terms are O(violations).
        self._overused: dict[int, None] = {}
        self._over_sum = 0

    # ------------------------------------------------------------------
    # Resource ids
    # ------------------------------------------------------------------
    def _rid(self, resource: ResourceKey) -> int:
        rid = self._index.rid_of.get(resource)
        if rid is None:
            raise MappingError(
                f"resource {resource!r} does not exist on {self.arch.name}")
        return rid

    def usage_count(self, resource: ResourceKey, slot: int) -> int:
        """Capacity-relevant usage of one modulo slot.

        Register places hold live values: the same net alive at two
        absolute cycles congruent mod II has two in-flight copies, so each
        distinct cycle counts.  Wires/ports ('res') are combinational: the
        slot's select is programmed once per net, so a net counts once no
        matter how many iterations' values cross it.
        """
        return self._counts[self._rid(resource) * self.ii + slot]

    def slot(self, cycle: int) -> int:
        return cycle % self.ii

    # ------------------------------------------------------------------
    # FU placement
    # ------------------------------------------------------------------
    def fu_free(self, fu_id: int, cycle: int) -> bool:
        return (fu_id, self.slot(cycle)) not in self._fu_nodes

    def node_at(self, fu_id: int, cycle: int) -> int | None:
        return self._fu_nodes.get((fu_id, self.slot(cycle)))

    def place_node(self, node_id: int, fu_id: int, cycle: int) -> None:
        key = (fu_id, self.slot(cycle))
        if key in self._fu_nodes:
            raise MappingError(
                f"FU {fu_id} slot {key[1]} already holds node "
                f"{self._fu_nodes[key]}"
            )
        self._fu_nodes[key] = node_id

    def unplace_node(self, node_id: int, fu_id: int, cycle: int) -> None:
        key = (fu_id, self.slot(cycle))
        if self._fu_nodes.get(key) != node_id:
            raise MappingError(f"node {node_id} not on FU {fu_id} @{key[1]}")
        del self._fu_nodes[key]

    # ------------------------------------------------------------------
    # Route accounting
    # ------------------------------------------------------------------
    def _charge_plan(self, route: Route) -> tuple:
        """Per-step ``(flat index, cycle, is_res, capacity)`` entries,
        memoized on the route for this fabric and II.  Resolving every
        step first makes a route naming an unknown resource raise before
        anything is charged."""
        index = self._index
        ii = self.ii
        plan = route.charge_plan
        if plan is not None and plan[0] is index and plan[1] == ii:
            return plan[2]
        n_places = index.n_places
        caps = index.caps
        entries = []
        for step in route.steps:
            rid = self._rid(step.resource)
            entries.append((rid * ii + step.cycle % ii, step.cycle,
                            rid >= n_places, caps[rid]))
        entries = tuple(entries)
        route.charge_plan = (index, ii, entries)
        return entries

    def commit_route(self, route: Route) -> None:
        plan = self._charge_plan(route)
        if not plan:
            return      # a bypass charges nothing
        net = route.net
        charges = self._net_charges.get(net)
        if charges is None:
            charges = self._net_charges[net] = {}
        for index, cycle, is_res, cap in plan:
            cycles = charges.get(index)
            if cycles is None:
                # First charge of this net on the slot: a wire counts
                # distinct nets, a place distinct (net, cycle) pairs.
                charges[index] = {cycle: 1}
                self._count(index, cap, 1)
            elif cycle in cycles:
                cycles[cycle] += 1
            else:
                cycles[cycle] = 1
                if not is_res:
                    self._count(index, cap, 1)

    def uncommit_route(self, route: Route) -> None:
        """Release a route's charges; steps never charged are no-ops."""
        plan = self._charge_plan(route)
        net = route.net
        charges = self._net_charges.get(net)
        if charges is None:
            return
        for index, cycle, is_res, cap in plan:
            cycles = charges.get(index)
            if cycles is None:
                continue
            refs = cycles.get(cycle)
            if refs is None:
                continue
            if refs > 1:
                cycles[cycle] = refs - 1
                continue
            del cycles[cycle]
            if not is_res:
                self._count(index, cap, -1)
            if not cycles:
                del charges[index]
                if is_res:
                    self._count(index, cap, -1)
                if not charges:
                    del self._net_charges[net]

    def _count(self, index: int, cap: int, delta: int) -> None:
        """Move one slot's usage by ``delta`` (+1/-1), keeping the
        overused set, the overuse total and the cost array in step."""
        count = self._counts[index] + delta
        self._counts[index] = count
        if delta > 0:
            if count > cap:
                self._overused[index] = None
                self._over_sum += 1
        elif count >= cap:
            if count == cap:
                del self._overused[index]
            self._over_sum -= 1
        over = count + 1 - cap
        self._cost_base[index] = \
            1.0 + PRESENT_FACTOR * over if over > 0 else 1.0

    # ------------------------------------------------------------------
    # Congestion queries
    # ------------------------------------------------------------------
    def step_cost(self, net: int, resource: ResourceKey, cycle: int,
                  history=None) -> float:
        """Congestion-aware cost of charging one step.

        Re-charging a (net, cycle) pair already present is free (shared
        segment of a fanout net).  Otherwise cost grows with how close the
        slot is to (or beyond) capacity, PathFinder-style, with an optional
        historical-congestion term read as ``history.get((resource,
        slot), 0.0)``.
        """
        slot = cycle % self.ii
        rid = self._rid(resource)
        index = rid * self.ii + slot
        charges = self._net_charges.get(net)
        if charges is not None:
            cycles = charges.get(index)
            if cycles is not None \
                    and (resource[0] == "res" or cycle in cycles):
                return 0.0
        base = 1.0
        over = self._counts[index] + 1 - self._index.caps[rid]
        congestion = PRESENT_FACTOR * over if over > 0 else 0.0
        hist = 0.0
        if history is not None:
            hist = history.get((resource, slot), 0.0)
        return base + congestion + hist

    def overuse(self) -> list[tuple[ResourceKey, int, int, int]]:
        """(resource, slot, used, capacity) for every violated slot, in
        the order the slots first went over.  O(violations), so the
        negotiation loops can poll this after every commit for free."""
        ii = self.ii
        key_of = self._index.key_of
        caps = self._index.caps
        counts = self._counts
        return [(key_of[index // ii], index % ii, counts[index],
                 caps[index // ii])
                for index in self._overused]

    def overused_indices(self) -> set[int]:
        """Flat indices (``resource id * II + slot``) of the slots over
        capacity now: a snapshot that later charges leave unchanged."""
        return set(self._overused)

    def route_touches(self, route: Route, indices: set[int]) -> bool:
        """Whether any step of a committed route charges one of the flat
        slot ``indices``, read from its memoized charge plan."""
        for entry in self._charge_plan(route):
            if entry[0] in indices:
                return True
        return False

    def total_overuse(self) -> int:
        """Total charges beyond capacity, summed over every slot — the
        mappers' congestion objective term, maintained incrementally."""
        return self._over_sum

    def is_legal(self) -> bool:
        return not self._overused

    def occupancy_snapshot(self) -> dict[tuple[ResourceKey, int], int]:
        """Charged (net, cycle) pairs per (resource, slot)."""
        ii = self.ii
        key_of = self._index.key_of
        snapshot: dict[tuple[ResourceKey, int], int] = {}
        for charges in self._net_charges.values():
            for index, cycles in charges.items():
                key = (key_of[index // ii], index % ii)
                snapshot[key] = snapshot.get(key, 0) + len(cycles)
        return snapshot
