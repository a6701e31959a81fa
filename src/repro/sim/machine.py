"""Cycle-accurate simulator for modulo-scheduled mappings (ST and Plaid).

The simulator executes the mapping's static schedule over a window of
iterations with real 16-bit data:

* each cycle, FUs whose slot fires execute their node — loads/stores hit
  the scratchpad, ALU ops evaluate on operand values fetched from the
  fabric's register places (or over a bypass path);
* values travel between places exactly per the routed occupancy tables;
  a consumer failing to find its operand in the expected place at the
  expected cycle is a hard error;
* register-place capacity and SPM ports are enforced every cycle.

After the window, the scratchpad contents are compared word-for-word with
the reference interpreter run over the same iterations — the end-to-end
check the paper uses its cycle-accurate simulator for.

Execution runs through the compiled engine (:mod:`repro.sim.engine`):
:meth:`CGRASimulator.run` compiles the mapping once into per-phase
firing/transport tables and replays them; one simulator reuses that
compiled schedule for every window it runs.  The original interpreted
loop is kept as :meth:`CGRASimulator.run_reference`: the conformance
oracle the compiled engine must match bit for bit (same report, same
trace, same errors; ``tests/test_sim_engine.py`` locks this).  Only
tests and benchmarks call it.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SimulationError
from repro.ir.graph import DFG
from repro.ir.interpreter import MemoryImage
from repro.ir.ops import OP_ARITY, Opcode, evaluate, to_unsigned
from repro.mapping.base import Mapping
from repro.sim.engine import (
    CompiledSchedule, SimulationReport, compile_mapping, finish_verify,
)
from repro.sim.spm import Scratchpad
from repro.sim.trace import TraceRecorder

__all__ = ["CGRASimulator", "SimulationReport"]


class CGRASimulator:
    """Replay a mapping's configuration against real data."""

    def __init__(self, mapping: Mapping,
                 trace: TraceRecorder | None = None) -> None:
        self.mapping = mapping
        self.dfg: DFG = mapping.dfg
        self.arch = mapping.arch
        self.trace = trace
        self._compiled: CompiledSchedule | None = None

    # ------------------------------------------------------------------
    def compiled(self) -> CompiledSchedule:
        """The mapping's compiled schedule (compiled once, then reused
        across every window this simulator runs)."""
        if self._compiled is None:
            self._compiled = compile_mapping(self.mapping)
        return self._compiled

    def run(self, memory: MemoryImage, iterations: int | None = None,
            verify: bool = True,
            engine: str = "compiled") -> SimulationReport:
        """Simulate ``iterations`` pipelined iterations starting from
        ``memory`` (which is left untouched; the SPM gets a copy).

        Running several windows means calling ``run`` once per window:
        the compiled schedule is built on the first call and reused.
        ``engine`` exists only for ``perfbench/worker.py``, which passes
        ``"compiled"``; any other value raises :class:`ValueError`."""
        if engine != "compiled":
            raise ValueError(f"unknown simulation engine {engine!r}")
        return self.compiled().execute(memory, iterations=iterations,
                                       verify=verify, trace=self.trace)

    # ------------------------------------------------------------------
    def run_reference(self, memory: MemoryImage,
                      iterations: int | None = None,
                      verify: bool = True) -> SimulationReport:
        """The interpreted simulator: re-derives the schedule per run with
        per-cycle dict building.  Kept as the conformance oracle for the
        compiled engine (and as the baseline the simulation-time benchmark
        measures against)."""
        dfg = self.dfg
        mapping = self.mapping
        ii = mapping.ii
        total_iters = dfg.iterations if iterations is None else iterations
        if total_iters < 1:
            raise SimulationError("need at least one iteration")

        reference = memory.copy()
        spm = Scratchpad(self.arch.spm_banks, self.arch.spm_bytes_per_bank)
        spm.load_image(memory.copy())

        end_cycle = (total_iters - 1) * ii + mapping.makespan - 1

        # Static tables: executions and occupancies per absolute cycle.
        exec_at: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for node in dfg.nodes:
            fu_id, sigma = mapping.placement[node.node_id]
            for k in range(total_iters):
                cycle = sigma + k * ii
                if cycle <= end_cycle:
                    exec_at[cycle].append((node.node_id, k))
        occupancy_at: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        total_occ = 0
        for route in mapping.routes.values():
            for k in range(total_iters):
                for place, cycle in route.places:
                    abs_cycle = cycle + k * ii
                    if abs_cycle <= end_cycle:
                        occupancy_at[abs_cycle].append((place, route.net, k))
                        total_occ += 1

        # Edge -> route-index resolution by structural key (edge identity
        # does not survive ``dfg.edges`` returning copies).
        edge_index = {
            (e.src, e.dst, e.operand_index, e.distance): i
            for i, e in enumerate(dfg.edges)
        }

        outputs: dict[tuple[int, int], int] = {}
        place_values: dict[int, dict[tuple[int, int], int]] = {}
        report = SimulationReport(iterations=total_iters,
                                  cycles=end_cycle + 1)
        report.transport_occupancies = total_occ

        for cycle in range(end_cycle + 1):
            spm.begin_cycle()
            # 1. Execute firings using the *current* place contents.
            fired: list[tuple[int, int, int]] = []
            for node_id, k in exec_at.get(cycle, ()):
                value = self._fire(node_id, k, cycle, place_values,
                                   outputs, spm, report, edge_index)
                fired.append((node_id, k, value))
            for node_id, k, value in fired:
                outputs[(node_id, k)] = value
                if self.trace is not None:
                    fu_id, _sigma = self.mapping.placement[node_id]
                    self.trace.record(cycle, "exec",
                                      node=node_id, iteration=k,
                                      fu=fu_id, value=value)
            # 2. Advance transport: place contents for the NEXT cycle.
            next_values: dict[int, dict[tuple[int, int], int]] = {}
            for place, net, k in occupancy_at.get(cycle + 1, ()):
                value = outputs.get((net, k))
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle + 1}: occupancy of ({net},{k}) at "
                        f"place {place} before production"
                    )
                bucket = next_values.setdefault(place, {})
                bucket[(net, k)] = value
            for place, bucket in next_values.items():
                capacity = self.arch.place(place).capacity
                if len(bucket) > capacity:
                    raise SimulationError(
                        f"cycle {cycle + 1}: place "
                        f"{self.arch.place(place).name} holds {len(bucket)} "
                        f"values, capacity {capacity}"
                    )
            place_values = next_values

        report.bank_conflicts = spm.bank_conflicts
        final = spm.dump_image()
        return finish_verify(report, dfg, reference, final, total_iters,
                             verify)

    # ------------------------------------------------------------------
    def _fire(self, node_id: int, k: int, cycle: int, place_values,
              outputs, spm: Scratchpad, report: SimulationReport,
              edge_index: dict) -> int:
        dfg = self.dfg
        node = dfg.node(node_id)
        operands: dict[int, int] = {}
        for edge in dfg.in_edges(node_id):
            if edge.is_ordering:
                continue
            producer_iter = k - edge.distance
            if producer_iter < 0:
                operands[edge.operand_index] = to_unsigned(
                    int(node.annotations.get("init", 0)))
                continue
            index = edge_index[(edge.src, edge.dst, edge.operand_index,
                                edge.distance)]
            route = self.mapping.routes[index]
            key = (edge.src, producer_iter)
            if route.bypass:
                value = outputs.get(key)
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: bypass operand {key} missing for "
                        f"'{node.name}'"
                    )
            else:
                final_place = route.places[-1][0]
                fu_id, _sigma = self.mapping.placement[node_id]
                if final_place not in self.arch.consume_places[fu_id]:
                    raise SimulationError(
                        f"cycle {cycle}: '{node.name}' on "
                        f"{self.arch.fu(fu_id).name} cannot read place "
                        f"{self.arch.place(final_place).name}"
                    )
                bucket = place_values.get(final_place, {})
                value = bucket.get(key)
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: '{node.name}' expected value "
                        f"{key} in place "
                        f"{self.arch.place(final_place).name}, not there"
                    )
            operands[edge.operand_index] = value

        report.fu_firings += 1
        indices = dfg.iteration_indices(k)
        if node.op is Opcode.LOAD:
            report.spm_reads += 1
            return spm.read(node.access.array, node.access.address(indices))
        if node.op is Opcode.STORE:
            report.spm_writes += 1
            value = operands.get(0)
            if value is None and node.const is not None:
                value = to_unsigned(node.const)
            if value is None:
                raise SimulationError(f"store '{node.name}' without a value")
            spm.write(node.access.array, node.access.address(indices), value)
            return value
        return self._alu(node, operands)

    def _alu(self, node, operands: dict[int, int]) -> int:
        arity = OP_ARITY[node.op]
        args: list[int] = []
        const_used = False
        for slot in range(arity):
            if slot in operands:
                args.append(operands[slot])
            elif node.const is not None and not const_used:
                args.append(to_unsigned(node.const))
                const_used = True
            elif node.op is Opcode.SEL and slot == 2:
                args.append(1)
            else:
                raise SimulationError(
                    f"'{node.name}' missing operand {slot} at execution"
                )
        return evaluate(node.op, args)
