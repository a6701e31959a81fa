"""Mapping result container and validation.

A mapping binds every DFG node to an (FU, absolute cycle) pair and every
data edge to a committed :class:`~repro.arch.mrrg.Route`.  Validation
rebuilds a fresh MRRG and replays the whole mapping, so it catches stale
bookkeeping in mappers as well as genuinely illegal mappings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG, Route
from repro.errors import MappingError
from repro.ir.graph import DFG


@dataclass
class CandidateStats:
    """One composite candidate's outcome (``best`` records one of these
    per candidate on the winning mapping's stats).

    ``outcome`` is ``"won"`` (selected), ``"lost"`` (completed but not
    selected), or ``"failed"`` (exhausted its II budget without a
    mapping).  ``ii``/``total_cycles`` are ``None`` unless the candidate
    completed.  ``attempts``/``seconds`` cover the candidate's whole
    search.
    """

    key: str
    outcome: str
    ii: int | None = None
    total_cycles: int | None = None
    attempts: int = 0
    seconds: float = 0.0


@dataclass
class MappingStats:
    """Bookkeeping the evaluation harness and power model consume."""

    mapper: str = ""
    attempts: int = 0
    routed_edges: int = 0
    bypass_edges: int = 0
    transport_steps: int = 0
    #: route_edge calls that returned None during the search (span out of
    #: range or no path) — previously silent; surfaced by
    #: ``repro map --verbose`` and mapping-failure messages.
    routing_failures: int = 0
    seconds: float = 0.0
    #: Per-candidate outcomes when this mapping came out of a composite
    #: (``best``); empty for a standalone mapper run.  The
    #: winner's own search fields above are untouched — they stay
    #: bit-identical to its standalone evaluation.
    candidates: "list[CandidateStats]" = field(default_factory=list)


@dataclass
class Mapping:
    """A complete modulo-scheduled mapping of ``dfg`` on ``arch``."""

    dfg: DFG
    arch: Architecture
    ii: int
    placement: dict[int, tuple[int, int]] = field(default_factory=dict)
    routes: dict[int, Route] = field(default_factory=dict)   # edge index
    stats: MappingStats = field(default_factory=MappingStats)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        """Cycles from the first issue to the last retirement within one
        iteration's schedule."""
        if not self.placement:
            return 0
        return max(cycle for _fu, cycle in self.placement.values()) + 1

    def total_cycles(self, iterations: int | None = None) -> int:
        """Pipelined execution time: (iterations-1) * II + makespan."""
        iters = self.dfg.iterations if iterations is None else iterations
        if iters <= 0:
            return 0
        return (iters - 1) * self.ii + self.makespan

    def fu_utilization(self) -> float:
        """Fraction of FU issue slots used per II window."""
        total = len(self.arch.fus) * self.ii
        return len(self.placement) / total if total else 0.0

    def transport_utilization(self) -> float:
        """Average committed transport charges per wire slot (activity
        proxy for the power model)."""
        wires = max(1, len(self.arch.resource_caps) * self.ii)
        steps = sum(
            1 for route in self.routes.values()
            for step in route.steps if step.kind in ("move", "read")
        )
        return min(1.0, steps / wires)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def rebuild_mrrg(self) -> MRRG:
        """Fresh MRRG with every placement and route committed."""
        mrrg = MRRG(self.arch, self.ii)
        for node_id, (fu_id, cycle) in self.placement.items():
            mrrg.place_node(node_id, fu_id, cycle)
        for route in self.routes.values():
            mrrg.commit_route(route)
        return mrrg

    def validate(self) -> None:
        """Raise :class:`MappingError` unless the mapping is legal.

        Checks: every node placed on a supporting FU; every data edge
        routed with endpoints and timing consistent with the placement
        (inter-iteration edges offset by distance * II); ordering edges'
        schedule constraints satisfied; no resource slot over capacity.
        """
        for node in self.dfg.nodes:
            if node.node_id not in self.placement:
                raise MappingError(f"node '{node.name}' not placed")
            fu_id, cycle = self.placement[node.node_id]
            fu = self.arch.fu(fu_id)
            if not fu.supports(node.op):
                raise MappingError(
                    f"'{node.name}' ({node.op.name}) placed on {fu.name} "
                    "which does not support it"
                )
            if cycle < 0:
                raise MappingError(f"'{node.name}' scheduled before cycle 0")

        for index, edge in enumerate(self.dfg.edges):
            src_fu, src_cycle = self.placement[edge.src]
            dst_fu, dst_cycle = self.placement[edge.dst]
            effective_arrival = dst_cycle + edge.distance * self.ii
            if edge.is_ordering:
                if effective_arrival < src_cycle + 1:
                    raise MappingError(
                        f"ordering edge {edge.src}->{edge.dst} violated"
                    )
                continue
            route = self.routes.get(index)
            if route is None:
                raise MappingError(
                    f"data edge {edge.src}->{edge.dst} not routed"
                )
            if route.src_fu != src_fu or route.dst_fu != dst_fu:
                raise MappingError(
                    f"route endpoints stale for edge {edge.src}->{edge.dst}"
                )
            if route.depart_cycle != src_cycle \
                    or route.arrive_cycle != effective_arrival:
                raise MappingError(
                    f"route timing stale for edge {edge.src}->{edge.dst}"
                )
            if route.bypass:
                if (src_fu, dst_fu) not in self.arch.bypass_pairs:
                    raise MappingError(
                        f"bypass claimed on non-bypass pair {src_fu}->{dst_fu}"
                    )
                if effective_arrival != src_cycle + 1:
                    raise MappingError("bypass must arrive exactly 1 cycle on")

        mrrg = self.rebuild_mrrg()
        violations = mrrg.overuse()
        if violations:
            worst = violations[:3]
            raise MappingError(
                f"mapping overuses {len(violations)} resource slots, e.g. "
                + "; ".join(
                    f"{res} slot {slot}: {used}/{cap}"
                    for res, slot, used, cap in worst
                )
            )

    def is_valid(self) -> bool:
        try:
            self.validate()
        except MappingError:
            return False
        return True

    def summary(self) -> str:
        return (
            f"{self.dfg.name} on {self.arch.name}: II={self.ii}, "
            f"makespan={self.makespan}, "
            f"cycles={self.total_cycles()}, "
            f"fu_util={self.fu_utilization():.2f}"
        )
