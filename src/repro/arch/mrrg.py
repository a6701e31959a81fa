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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.arch.base import Architecture
from repro.errors import MappingError

ResourceKey = tuple[str, object]

#: Marker charge plan for routes the bound fast path cannot index.
#: ``False`` rather than a fresh object(): the marker must survive
#: pickling/deepcopy of a Route by identity, and False is a singleton.
_NO_PLAN = False


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
    #: Memoized commit plan for core-bound MRRGs (one precomputed
    #: (key, cycle, flat index, is_res, capacity) tuple per step) — the
    #: annealing mappers commit/uncommit the same route many times while
    #: trialing candidates.  Derived state only: excluded from equality.
    charge_plan: tuple | None = field(default=None, compare=False,
                                      repr=False)


class MRRG:
    """Mutable modulo resource accounting over an architecture.

    The mapper owns one MRRG per candidate II.  Nodes are committed with
    :meth:`place_node` / :meth:`unplace_node`; routed edges with
    :meth:`commit_route` / :meth:`uncommit_route`.  ``overuse()`` reports
    capacity violations (PathFinder tolerates them transiently; final
    mappings must be violation-free).  :meth:`reset` clears all occupancy
    in place so the mapping engine's pool can recycle instances instead
    of reconstructing them on every restart.
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
        # usage[(resource, slot)] = {net: {absolute cycle: refcount}}.
        # Refcounts matter because several routes of one fanout net share
        # segments: the shared charge must survive until the LAST sharing
        # route is uncommitted.  Capacity counts distinct (net, cycle)
        # pairs — sharing routes occupy the wire once.
        self._usage: dict[tuple[ResourceKey, int],
                          dict[int, dict[int, int]]] = defaultdict(dict)
        # fu occupancy: (fu, slot) -> node_id
        self._fu_nodes: dict[tuple[int, int], int] = {}
        # Capacity-relevant usage per (resource, slot), maintained
        # incrementally by _charge/_discharge in lock-step with _usage
        # (same insertion and deletion order) so the congestion queries
        # the router hammers are O(1) instead of per-net sums.
        self._counts: dict[tuple[ResourceKey, int], int] = {}
        # Slots currently over capacity (key -> None; a dict for its
        # deterministic insertion order), and the total amount of
        # overuse.  Maintained by _count_up/_count_down so overuse()
        # and the mappers' objective terms are O(violations), not
        # O(all charged slots) — PathFinder and the annealers poll
        # these after every move.
        self._overused: dict[tuple[ResourceKey, int], None] = {}
        self._over_sum = 0
        # Capacities derive from the immutable arch; memoized per resource.
        self._cap_cache: dict[ResourceKey, int] = {}
        # Compiled routing state (bind_core): the RouteCore's static
        # tables plus two incremental views the compiled Dijkstra reads —
        # cost_base[rid * II + slot] = 1.0 + present_factor * overuse
        # (the history-free step cost of a non-sharing net), and
        # net_charges[net][rid * II + slot] -> {cycle: refs}, aliasing
        # the _usage cycle dicts (the fanout-sharing free-segment test).
        # Both are maintained by _charge/_discharge in lock-step with
        # _usage/_counts; unbound MRRGs pay nothing.
        self._core = None
        self._cost_base: list[float] | None = None
        self._net_charges: dict[int, dict[int, dict[int, int]]] = {}

    def reset(self) -> None:
        """Clear every placement and route charge in place.

        A reset MRRG must be indistinguishable from a freshly constructed
        ``MRRG(arch, ii)`` — the pool in :mod:`repro.mapping.engine`
        relies on this to recycle graphs across restarts, II escalations,
        and whole mapper runs without perturbing results.  Only occupancy
        state is dropped; the capacity cache is arch-derived and survives.
        """
        self._usage.clear()
        self._fu_nodes.clear()
        self._counts.clear()
        self._overused.clear()
        self._over_sum = 0
        if self._cost_base is not None:
            self._cost_base[:] = self._core.ones
            self._net_charges.clear()

    def bind_core(self, core) -> None:
        """Attach a compiled :class:`~repro.mapping.routecore.RouteCore`.

        Rebuilds the flat congestion arrays from the current usage dicts,
        so binding is correct at any point in an MRRG's life (the router
        binds lazily on first use).  From here on _charge/_discharge keep
        the arrays in lock-step incrementally.
        """
        if core.ii != self.ii:
            raise MappingError(
                f"route core compiled for II {core.ii}, MRRG has {self.ii}")
        self._core = core
        ii = self.ii
        base = list(core.ones)
        rid_of = core.rid_of
        for (resource, slot), count in self._counts.items():
            rid = rid_of.get(resource)
            if rid is None:
                continue
            over = count + 1 - self.capacity(resource)
            if over > 0:
                base[rid * ii + slot] = 1.0 + 4.0 * over
        self._cost_base = base
        charges: dict[int, dict[int, dict[int, int]]] = {}
        for (resource, slot), nets in self._usage.items():
            rid = rid_of.get(resource)
            if rid is None:
                continue
            index = rid * ii + slot
            for net, cycles in nets.items():
                charges.setdefault(net, {})[index] = cycles
        self._net_charges = charges

    # ------------------------------------------------------------------
    # Capacity helpers
    # ------------------------------------------------------------------
    def capacity(self, resource: ResourceKey) -> int:
        cached = self._cap_cache.get(resource)
        if cached is not None:
            return cached
        kind, ident = resource
        if kind == "fu":
            cap = 1
        elif kind == "place":
            cap = self.arch.place(ident).capacity
        elif kind == "res":
            cap = self.arch.resource_caps.get(ident, 1)
        else:
            raise MappingError(f"unknown resource kind {kind}")
        self._cap_cache[resource] = cap
        return cap

    def usage_count(self, resource: ResourceKey, slot: int) -> int:
        """Capacity-relevant usage of one modulo slot.

        Register places hold live values: the same net alive at two
        absolute cycles congruent mod II has two in-flight copies, so each
        distinct cycle counts.  Wires/ports ('res') are combinational: the
        slot's select is programmed once per net, so a net counts once no
        matter how many iterations' values cross it.
        """
        return self._counts.get((resource, slot), 0)

    def slot(self, cycle: int) -> int:
        return cycle % self.ii

    # ------------------------------------------------------------------
    # FU placement
    # ------------------------------------------------------------------
    def fu_free(self, fu_id: int, cycle: int) -> bool:
        return (fu_id, self.slot(cycle)) not in self._fu_nodes

    def node_at(self, fu_id: int, cycle: int) -> int | None:
        return self._fu_nodes.get((fu_id, self.slot(cycle)))

    def first_free_cycle(self, fu_id: int, lo: int, hi: int) -> int | None:
        """First cycle in ``[lo, hi]`` whose modulo slot on ``fu_id`` is
        free, or None.  Occupancy repeats every II cycles, so at most II
        cycles are scanned."""
        fu_nodes = self._fu_nodes
        ii = self.ii
        for cycle in range(lo, min(hi, lo + ii - 1) + 1):
            if (fu_id, cycle % ii) not in fu_nodes:
                return cycle
        return None

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
    def _charge(self, net: int, resource: ResourceKey, cycle: int) -> None:
        key = (resource, self.slot(cycle))
        slot_usage = self._usage[key]
        cycles = slot_usage.get(net)
        if cycles is None:
            cycles = slot_usage[net] = {}
            if self._cost_base is not None:
                rid = self._core.rid_of.get(resource)
                if rid is not None:
                    self._net_charges.setdefault(net, {})[
                        rid * self.ii + key[1]] = cycles
            if resource[0] == "res":        # wires count distinct nets
                self._count_up(key)
        refs = cycles.get(cycle)
        if refs is None:
            cycles[cycle] = 1
            if resource[0] != "res":        # places count (net, cycle) pairs
                self._count_up(key)
        else:
            cycles[cycle] = refs + 1

    def _count_up(self, key: tuple[ResourceKey, int]) -> None:
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        cap = self._cap_cache.get(key[0])
        if cap is None:
            cap = self.capacity(key[0])
        if count > cap:
            self._overused[key] = None
            self._over_sum += 1
        if self._cost_base is not None:
            self._refresh_cost(key, count, cap)

    def _count_down(self, key: tuple[ResourceKey, int]) -> None:
        remaining = self._counts[key] - 1
        if remaining:
            self._counts[key] = remaining
        else:
            del self._counts[key]
        cap = self._cap_cache.get(key[0])
        if cap is None:
            cap = self.capacity(key[0])
        if remaining >= cap:
            if remaining == cap:
                del self._overused[key]
            self._over_sum -= 1
        if self._cost_base is not None:
            self._refresh_cost(key, remaining, cap)

    def _refresh_cost(self, key: tuple[ResourceKey, int], count: int,
                      cap: int) -> None:
        """Re-derive one cost_base cell after its count changed.

        Mirrors :meth:`step_cost` exactly: the stored value is the cost a
        *non-sharing* net pays to add one more charge, history excluded.
        """
        rid = self._core.rid_of.get(key[0])
        if rid is None:
            return
        over = count + 1 - cap
        self._cost_base[rid * self.ii + key[1]] = \
            1.0 + 4.0 * over if over > 0 else 1.0

    def _discharge(self, net: int, resource: ResourceKey, cycle: int) -> None:
        key = (resource, self.slot(cycle))
        slot_usage = self._usage.get(key)
        if not slot_usage or net not in slot_usage:
            return
        cycles = slot_usage[net]
        count = cycles.get(cycle, 0)
        if count <= 1:
            if cycles.pop(cycle, None) is not None \
                    and resource[0] != "res":
                self._count_down(key)
        else:
            cycles[cycle] = count - 1
        if not cycles:
            del slot_usage[net]
            if self._cost_base is not None:
                net_map = self._net_charges.get(net)
                if net_map is not None:
                    rid = self._core.rid_of.get(resource)
                    if rid is not None:
                        net_map.pop(rid * self.ii + key[1], None)
                    if not net_map:
                        del self._net_charges[net]
            if resource[0] == "res":
                self._count_down(key)
        if not slot_usage:
            del self._usage[key]

    def commit_route(self, route: Route) -> None:
        if self._cost_base is not None:
            plan = route.charge_plan
            if plan is None:
                plan = route.charge_plan = self._charge_plan(route)
            if plan is not _NO_PLAN:
                net = route.net
                for key, cycle, index, is_res, cap in plan:
                    self._charge_bound(net, key, cycle, index, is_res, cap)
                return
        for step in route.steps:
            self._charge(route.net, step.resource, step.cycle)

    def uncommit_route(self, route: Route) -> None:
        if self._cost_base is not None:
            plan = route.charge_plan
            if plan is None:
                plan = route.charge_plan = self._charge_plan(route)
            if plan is not _NO_PLAN:
                net = route.net
                for key, cycle, index, is_res, cap in plan:
                    self._discharge_bound(net, key, cycle, index,
                                          is_res, cap)
                return
        for step in route.steps:
            self._discharge(route.net, step.resource, step.cycle)

    def _charge_plan(self, route: Route):
        """Precompute per-step charge state for the bound fast path.

        Valid for any MRRG over a structurally equal fabric at the same
        II (routes never outlive either).  ``_NO_PLAN`` marks routes
        touching resources the core does not index (only possible for
        hand-built routes) — those keep the generic path.
        """
        core = self._core
        rid_of = core.rid_of
        ii = self.ii
        plan = []
        for step in route.steps:
            resource = step.resource
            rid = rid_of.get(resource)
            if rid is None:
                return _NO_PLAN
            slot = step.cycle % ii
            plan.append(((resource, slot), step.cycle, rid * ii + slot,
                         resource[0] == "res", self.capacity(resource)))
        return tuple(plan)

    def _charge_bound(self, net: int, key, cycle: int, index: int,
                      is_res: bool, cap: int) -> None:
        """:meth:`_charge` with every derived value precomputed; must
        mutate _usage/_counts/_overused/arrays in the exact same order."""
        slot_usage = self._usage[key]
        cycles = slot_usage.get(net)
        if cycles is None:
            cycles = slot_usage[net] = {}
            net_map = self._net_charges.get(net)
            if net_map is None:
                net_map = self._net_charges[net] = {}
            net_map[index] = cycles
            if is_res:
                self._count_up_bound(key, index, cap)
        refs = cycles.get(cycle)
        if refs is None:
            cycles[cycle] = 1
            if not is_res:
                self._count_up_bound(key, index, cap)
        else:
            cycles[cycle] = refs + 1

    def _count_up_bound(self, key, index: int, cap: int) -> None:
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count > cap:
            self._overused[key] = None
            self._over_sum += 1
        over = count + 1 - cap
        self._cost_base[index] = 1.0 + 4.0 * over if over > 0 else 1.0

    def _discharge_bound(self, net: int, key, cycle: int, index: int,
                         is_res: bool, cap: int) -> None:
        slot_usage = self._usage.get(key)
        if not slot_usage or net not in slot_usage:
            return
        cycles = slot_usage[net]
        count = cycles.get(cycle, 0)
        if count <= 1:
            if cycles.pop(cycle, None) is not None and not is_res:
                self._count_down_bound(key, index, cap)
        else:
            cycles[cycle] = count - 1
        if not cycles:
            del slot_usage[net]
            net_map = self._net_charges.get(net)
            if net_map is not None:
                net_map.pop(index, None)
                if not net_map:
                    del self._net_charges[net]
            if is_res:
                self._count_down_bound(key, index, cap)
        if not slot_usage:
            del self._usage[key]

    def _count_down_bound(self, key, index: int, cap: int) -> None:
        remaining = self._counts[key] - 1
        if remaining:
            self._counts[key] = remaining
        else:
            del self._counts[key]
        if remaining >= cap:
            if remaining == cap:
                del self._overused[key]
            self._over_sum -= 1
        over = remaining + 1 - cap
        self._cost_base[index] = 1.0 + 4.0 * over if over > 0 else 1.0

    # ------------------------------------------------------------------
    # Congestion queries
    # ------------------------------------------------------------------
    def step_cost(self, net: int, resource: ResourceKey, cycle: int,
                  history: dict | None = None,
                  present_factor: float = 4.0) -> float:
        """Congestion-aware cost of charging one step.

        Re-charging a (net, cycle) pair already present is free (shared
        segment of a fanout net).  Otherwise cost grows with how close the
        slot is to (or beyond) capacity, PathFinder-style, with an optional
        historical-congestion term.
        """
        slot = self.slot(cycle)
        nets = self._usage.get((resource, slot))
        if nets and net in nets \
                and (resource[0] == "res" or cycle in nets[net]):
            return 0.0
        count = self.usage_count(resource, slot)
        cap = self.capacity(resource)
        base = 1.0
        over = count + 1 - cap
        congestion = present_factor * over if over > 0 else 0.0
        hist = 0.0
        if history is not None:
            hist = history.get((resource, slot), 0.0)
        return base + congestion + hist

    def overuse(self) -> list[tuple[ResourceKey, int, int, int]]:
        """(resource, slot, used, capacity) for every violated slot.

        O(violations): _count_up/_count_down track the overused key set
        incrementally (ordered by when each slot first went over), so the
        negotiation loops can poll this after every commit for free.
        """
        counts = self._counts
        return [(key[0], key[1], counts[key], self.capacity(key[0]))
                for key in self._overused]

    def total_overuse(self) -> int:
        """Total charges beyond capacity, summed over every slot — the
        mappers' congestion objective term, maintained incrementally."""
        return self._over_sum

    def is_legal(self) -> bool:
        return not self._overused

    def occupancy_snapshot(self) -> dict[tuple[ResourceKey, int], int]:
        """Usage counts per (resource, slot) — the activity statistics the
        power model consumes."""
        return {
            key: sum(len(times) for times in nets.values())
            for key, nets in self._usage.items()
        }

    def utilization(self) -> dict[str, float]:
        """Aggregate utilization statistics for the power model."""
        fu_busy = len(self._fu_nodes)
        fu_total = len(self.arch.fus) * self.ii
        move_charges = 0
        place_charges = 0
        for (resource, _slot), nets in self._usage.items():
            count = sum(len(times) for times in nets.values())
            if resource[0] == "res":
                move_charges += count
            elif resource[0] == "place":
                place_charges += count
        wire_total = max(1, len(self.arch.resource_caps) * self.ii)
        reg_total = max(
            1, sum(p.capacity for p in self.arch.places) * self.ii)
        return {
            "fu": fu_busy / fu_total if fu_total else 0.0,
            "wires": min(1.0, move_charges / wire_total),
            "registers": min(1.0, place_charges / reg_total),
        }
