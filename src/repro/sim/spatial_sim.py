"""Functional simulator for phased spatial mappings.

A spatial mapping executes phase by phase: every phase re-runs the whole
iteration space in pipelined dataflow order, with cut values spilled to
(and reloaded from) per-value SPM arrays indexed by the flat iteration
number.  The simulator executes exactly that program against real data and
verifies the final arrays against the reference interpreter, which checks
the partitioner's correctness: phase coverage, spill bookkeeping, and the
constraint that loop-carried circuits never straddle phases.  Each node
runs through the interpreter's :func:`~repro.ir.interpreter.execute_step`;
the simulator only resolves where its operands come from (in-phase
values and history, or the spills of earlier phases).

Report accounting and verification share the engine layer
(:mod:`repro.sim.engine`): :meth:`SpatialSimulator.simulate` returns the
same :class:`~repro.sim.engine.SimulationReport` the temporal simulator
produces — firings per node execution, SPM traffic including spill
stores/reloads, the phased mapping's cycle model, and the tri-state
``verified`` flag — so the harness and CLI print one report format for
every fabric style.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.ir.graph import DFG
from repro.ir.interpreter import (
    LOAD, STORE, MemoryImage, NodeStep, execute_step,
)
from repro.mapping.spatial_mapper import SpatialMapping
from repro.sim.engine import SimulationReport, finish_verify
from repro.sim.trace import TraceRecorder


def _spill_name(net: int) -> str:
    return f"__spill_{net}"


class SpatialSimulator:
    """Execute a phased spatial mapping functionally."""

    def __init__(self, mapping: SpatialMapping,
                 trace: TraceRecorder | None = None) -> None:
        self.mapping = mapping
        self.dfg: DFG = mapping.dfg
        self.trace = trace

    def simulate(self, memory: MemoryImage, iterations: int | None = None,
                 verify: bool = True,
                 engine: str = "compiled") -> SimulationReport:
        """Run all phases and return the shared simulation report.

        ``engine`` exists only for ``perfbench/worker.py``, which passes
        ``"compiled"``; any other value raises :class:`ValueError`."""
        if engine != "compiled":
            raise ValueError(f"unknown simulation engine {engine!r}")
        dfg = self.dfg
        total_iters = dfg.iterations if iterations is None else iterations
        if total_iters < 1:
            raise SimulationError("need at least one iteration")
        reference = memory.copy()
        working = memory.copy()
        spills: dict[str, list[int]] = {}
        report = SimulationReport(
            iterations=total_iters,
            cycles=self.mapping.total_cycles(total_iters),
        )

        steps = {node.node_id: NodeStep(dfg, node) for node in dfg.nodes}
        for phase in self.mapping.phases:
            members = [item.node_id for item in phase.items
                       if item.kind == "node"]
            member_set = set(members)
            order = [steps[node_id]
                     for node_id in self._phase_order(member_set)]
            history: dict[int, list[int]] = {nid: [] for nid in members}
            for k in range(total_iters):
                indices = dfg.iteration_indices(k)
                for step in order:
                    value = self._execute(step, k, indices, member_set,
                                          history, working, spills, report)
                    history[step.node_id].append(value)
                    if self.trace is not None:
                        self.trace.record(phase.index, "exec",
                                          node=step.node_id, iteration=k,
                                          phase=phase.index, value=value)
                # Spill stores for cut values.
                for item in phase.items:
                    if item.kind == "spill_store":
                        report.spm_writes += 1
                        report.transport_occupancies += 1
                        spills.setdefault(
                            _spill_name(item.node_id),
                            [0] * total_iters,
                        )[k] = history[item.node_id][k]

        return finish_verify(report, dfg, reference, working, total_iters,
                             verify)

    # ------------------------------------------------------------------
    def _phase_order(self, member_set: set[int]) -> list[int]:
        """Topological order of phase members over distance-0 edges."""
        in_deg = {nid: 0 for nid in member_set}
        for edge in self.dfg.edges:
            if edge.distance == 0 and edge.src in member_set \
                    and edge.dst in member_set and edge.src != edge.dst:
                in_deg[edge.dst] += 1
        ready = sorted(n for n, d in in_deg.items() if d == 0)
        order = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for edge in self.dfg.out_edges(current):
                if edge.distance == 0 and edge.dst in member_set \
                        and edge.dst != edge.src:
                    in_deg[edge.dst] -= 1
                    if in_deg[edge.dst] == 0:
                        ready.append(edge.dst)
        if len(order) != len(member_set):
            raise SimulationError("phase members are cyclic at distance 0")
        return order

    def _execute(self, step: NodeStep, k: int, indices, member_set,
                 history, working: MemoryImage,
                 spills: dict[str, list[int]],
                 report: SimulationReport) -> int:
        """Resolve ``step``'s sources (in-phase values and history, or
        spills of earlier phases), count the firing, execute it."""
        vals: list[int] = []
        for edge in step.sources:
            if edge.distance == 0:
                if edge.src in member_set:
                    vals.append(history[edge.src][k])
                else:
                    spill = spills.get(_spill_name(edge.src))
                    if spill is None:
                        raise SimulationError(
                            f"phase reads unspilled value of node {edge.src}"
                        )
                    report.spm_reads += 1
                    report.transport_occupancies += 1
                    vals.append(spill[k])
            else:
                src_iter = k - edge.distance
                if edge.src not in member_set:
                    raise SimulationError(
                        "loop-carried dependence crosses phases"
                    )
                vals.append(step.init_value if src_iter < 0
                            else history[edge.src][src_iter])

        report.fu_firings += 1
        if step.kind == LOAD:
            report.spm_reads += 1
        elif step.kind == STORE:
            report.spm_writes += 1
        return execute_step(step, vals, working, indices)
