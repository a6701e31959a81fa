"""Compiled, table-driven simulation engine.

The interpreted simulator re-derived the modulo schedule on every run:
per-cycle ``defaultdict`` buckets for firings and occupancies, per-firing
``in_edges`` copies, edge-index and route dict chains, and a fresh
dict-of-dicts of place contents every cycle.  This module compiles a
:class:`~repro.mapping.base.Mapping` **once** into a steady-state
schedule and executes it with flat-list inner loops:

* **Per-phase firing tables.**  A node placed at cycle ``sigma`` fires at
  every ``sigma + k * II``; all firings of phase ``sigma % II`` share one
  precompiled entry carrying the FU, the operand-resolution plan, and the
  node's :class:`~repro.ir.interpreter.NodeStep`.  At cycle ``c`` the
  iteration is recovered as ``k = (c - sigma) // II`` — arithmetic, not
  dict building.  A firing resolves its operands from places and
  bypasses, then :func:`~repro.ir.interpreter.execute_step` applies the
  node, the same node semantics the interpreter and the spatial
  simulator run.
* **Per-phase transport tables.**  Each route occupancy ``(place, rel)``
  lands in the table of phase ``rel % II`` with its iteration offset;
  place contents live in one flat ``(place, net, k) -> value`` dict (no
  per-cycle dict-of-dicts), with per-place counters for the capacity
  check.
* **Prebuilt operand sources.**  Edge -> route resolution and the
  consume-place legality check happen at compile time; the hot loop sees
  a tuple per operand, not a dict-of-dict place lookup.

One loop runs every cycle, ramp-up and drain included; it skips each
table entry whose iteration lies outside the window.

The engine is the execution core behind both
:class:`~repro.sim.machine.CGRASimulator` (which keeps the interpreted
loop as ``run_reference`` — the conformance oracle, which only tests
and benchmarks call) and the spatial simulator's report accounting.
**Invariant:** compiled execution is bit-identical to the interpreted
simulator — same :class:`SimulationReport` counters, same verify
results, same errors on the same malformed mappings — locked by
``tests/test_sim_engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.ir.interpreter import (
    LOAD, STORE, DFGInterpreter, MemoryImage, NodeStep, execute_step,
)
from repro.sim.spm import Scratchpad
from repro.sim.trace import TraceRecorder

__all__ = [
    "CompiledSchedule", "SimulationReport", "compare_images",
    "compile_mapping", "finish_verify", "simulation_engine",
]


def simulation_engine() -> str:
    """Always ``"compiled"``: temporal simulation has one production
    engine.

    Exists only for ``perfbench/worker.py``, which prints the engine
    names in its output header.
    """
    return "compiled"


# ---------------------------------------------------------------------------
# The one report type every simulator front end produces
# ---------------------------------------------------------------------------
@dataclass
class SimulationReport:
    """Outcome of one simulation window.

    ``verified`` is tri-state: ``True`` after a successful check against
    the reference interpreter, ``False`` when the check found
    mismatches, and ``None`` when verification was skipped
    (``verify=False``) — a skipped check must never read as "VERIFIED".
    """

    iterations: int
    cycles: int
    fu_firings: int = 0
    spm_reads: int = 0
    spm_writes: int = 0
    transport_occupancies: int = 0
    bank_conflicts: int = 0
    verified: bool | None = None
    mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.verified is None:
            status = "UNVERIFIED"
        elif self.verified:
            status = "VERIFIED"
        else:
            status = "MISMATCH"
        return (
            f"{status}: {self.iterations} iterations in {self.cycles} "
            f"cycles, {self.fu_firings} firings, "
            f"{self.spm_reads}r/{self.spm_writes}w SPM"
        )


def compare_images(expected: MemoryImage, actual: MemoryImage) -> list[str]:
    """Word-for-word array comparison (first ~10 mismatches reported)."""
    mismatches: list[str] = []
    for name in expected.names:
        want = expected.array(name)
        if name not in actual.names:
            mismatches.append(f"array '{name}' missing from SPM")
            continue
        got = actual.array(name)
        for index, (w, g) in enumerate(zip(want, got)):
            if w != g:
                mismatches.append(
                    f"'{name}'[{index}]: expected {w}, got {g}"
                )
                if len(mismatches) > 10:
                    return mismatches
    return mismatches


def finish_verify(report: SimulationReport, dfg, reference: MemoryImage,
                  final: MemoryImage, total_iters: int,
                  verify: bool) -> SimulationReport:
    """Shared verification tail: run the reference interpreter and set the
    tri-state ``verified`` field (``None`` when the check is skipped)."""
    if verify:
        DFGInterpreter(dfg).run(reference, iterations=total_iters)
        report.mismatches = compare_images(reference, final)
        report.verified = not report.mismatches
    else:
        report.verified = None
    return report


# ---------------------------------------------------------------------------
# Compiled form
# ---------------------------------------------------------------------------
#: Operand-source modes (spec field ``mode``).
_SRC_PLACE = 0          # read (net, k') from a register place
_SRC_BYPASS = 1         # read the producer's output over the bypass path
_SRC_DEFERRED = 2       # malformed route: replay the interpreted lookup


class CompiledNode:
    """One node's firing entry: its :class:`~repro.ir.interpreter.NodeStep`
    plus where it fires and how its sources arrive, resolved at compile
    time."""

    __slots__ = ("step", "sigma", "fu_id", "specs")

    def __init__(self, step: NodeStep, sigma: int, fu_id: int,
                 specs: tuple) -> None:
        self.step = step
        self.sigma = sigma
        self.fu_id = fu_id
        #: One spec per ``step.sources`` entry (error parity):
        #: (src, distance, mode, final_place, readable, edge_index).
        self.specs = specs


class CompiledSchedule:
    """A mapping compiled into per-phase firing/transport tables.

    Compile once (:func:`compile_mapping`), execute many windows — the
    tables are independent of the iteration count, so every
    :meth:`execute` after the first reuses them.
    """

    def __init__(self, mapping) -> None:
        self.mapping = mapping
        self.dfg = mapping.dfg
        self.arch = mapping.arch
        self.ii = mapping.ii
        self.makespan = mapping.makespan
        ii = self.ii

        dfg = self.dfg
        # Edge index by structural key (edge objects are frozen
        # dataclasses; identity does not survive ``dfg.edges`` copies).
        edge_index = {
            (e.src, e.dst, e.operand_index, e.distance): i
            for i, e in enumerate(dfg.edges)
        }

        # ---- firing tables -------------------------------------------
        #: phase -> CompiledNode list in node-id order (matches the
        #: interpreted simulator's per-cycle execution order).
        self.fire_phase: list[list[CompiledNode]] = [[] for _ in range(ii)]
        for node in dfg.nodes:
            fu_id, sigma = mapping.placement[node.node_id]
            entry = self._compile_node(node, fu_id, sigma, edge_index)
            self.fire_phase[sigma % ii].append(entry)

        # ---- transport tables ----------------------------------------
        #: phase -> [(place, net, rel_cycle)] ordered exactly as the
        #: interpreted simulator materializes one absolute cycle: routes
        #: in dict order; within a route, iteration offset ascending
        #: (= rel cycle descending), ties in ``route.places`` order.
        self.occ_phase: list[list[tuple[int, int, int]]] = \
            [[] for _ in range(ii)]
        rels: list[int] = []
        for route in mapping.routes.values():
            by_phase: dict[int, list[tuple[int, int, int]]] = {}
            for place, rel in route.places:
                by_phase.setdefault(rel % ii, []).append(
                    (place, route.net, rel))
                rels.append(rel)
            for phase, entries in by_phase.items():
                entries.sort(key=lambda item: -item[2])      # stable
                self.occ_phase[phase].extend(entries)
        self._occ_rels = rels

    # ------------------------------------------------------------------
    # Compilation helpers
    # ------------------------------------------------------------------
    def _compile_node(self, node, fu_id: int, sigma: int,
                      edge_index: dict) -> CompiledNode:
        step = NodeStep(self.dfg, node)
        specs: list[tuple] = []
        for edge in step.sources:
            index = edge_index[(edge.src, edge.dst, edge.operand_index,
                                edge.distance)]
            route = self.mapping.routes.get(index)
            if route is None or (not route.bypass and not route.places):
                # Malformed mapping: replay the interpreted lookup at
                # fire time so the error (KeyError / IndexError) is
                # raised at the same point with the same payload.
                spec = (edge.src, edge.distance, _SRC_DEFERRED, -1,
                        False, index)
            elif route.bypass:
                spec = (edge.src, edge.distance, _SRC_BYPASS, -1,
                        True, index)
            else:
                final_place = route.places[-1][0]
                readable = final_place in self.arch.consume_places[fu_id]
                spec = (edge.src, edge.distance, _SRC_PLACE, final_place,
                        readable, index)
            specs.append(spec)
        return CompiledNode(step, sigma, fu_id, tuple(specs))

    # ------------------------------------------------------------------
    # Derived counts
    # ------------------------------------------------------------------
    def count_occupancies(self, total_iters: int, end_cycle: int) -> int:
        """Committed transport occupancies over the window — the number
        of (route place entry, iteration) pairs landing at or before
        ``end_cycle`` — computed arithmetically instead of by unrolling
        every iteration."""
        ii = self.ii
        total = 0
        for rel in self._occ_rels:
            if rel > end_cycle:
                continue
            total += min(total_iters - 1, (end_cycle - rel) // ii) + 1
        return total

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, memory: MemoryImage, iterations: int | None = None,
                verify: bool = True,
                trace: TraceRecorder | None = None) -> SimulationReport:
        """Simulate ``iterations`` pipelined iterations starting from
        ``memory`` (left untouched; the SPM gets a copy)."""
        dfg = self.dfg
        ii = self.ii
        total = dfg.iterations if iterations is None else iterations
        if total < 1:
            raise SimulationError("need at least one iteration")

        reference = memory.copy()
        spm = Scratchpad(self.arch.spm_banks, self.arch.spm_bytes_per_bank)
        spm.load_image(memory.copy())

        end_cycle = (total - 1) * ii + self.makespan - 1
        report = SimulationReport(iterations=total, cycles=end_cycle + 1)
        report.transport_occupancies = self.count_occupancies(total,
                                                              end_cycle)

        num_nodes = dfg.num_nodes
        out_buf: list[int | None] = [None] * (total * num_nodes)
        indices_of = [dfg.iteration_indices(k) for k in range(total)]

        cur: dict[tuple[int, int, int], int] = {}
        nxt: dict[tuple[int, int, int], int] = {}
        counts = [0] * len(self.arch.places)
        caps: dict[int, int] = {}
        touched: list[int] = []
        fire_phase = self.fire_phase
        occ_phase = self.occ_phase
        fire = self._fire
        record = trace.record if trace is not None else None

        for cycle in range(end_cycle + 1):
            spm.begin_cycle()
            # 1. Execute firings against the *current* place contents.
            fired = []
            for cn in fire_phase[cycle % ii]:
                k = (cycle - cn.sigma) // ii
                if k < 0 or k >= total:
                    continue
                value = fire(cn, k, cycle, cur, out_buf, num_nodes,
                             spm, report, indices_of[k])
                fired.append((cn, k, value))
            for cn, k, value in fired:
                node_id = cn.step.node_id
                out_buf[k * num_nodes + node_id] = value
                if record is not None:
                    record(cycle, "exec", node=node_id, iteration=k,
                           fu=cn.fu_id, value=value)
            # 2. Advance transport: place contents for the NEXT cycle.
            arrive = cycle + 1
            for place in touched:
                counts[place] = 0
            touched.clear()
            nxt.clear()
            if arrive <= end_cycle:
                for place, net, rel in occ_phase[arrive % ii]:
                    k = (arrive - rel) // ii
                    if k < 0 or k >= total:
                        continue
                    value = out_buf[k * num_nodes + net]
                    if value is None:
                        raise SimulationError(
                            f"cycle {arrive}: occupancy of ({net},{k}) "
                            f"at place {place} before production"
                        )
                    before = len(nxt)
                    nxt[(place, net, k)] = value
                    if len(nxt) != before:
                        if counts[place] == 0:
                            touched.append(place)
                        counts[place] += 1
                for place in touched:
                    capacity = caps.get(place)
                    if capacity is None:
                        capacity = self.arch.place(place).capacity
                        caps[place] = capacity
                    if counts[place] > capacity:
                        raise SimulationError(
                            f"cycle {arrive}: place "
                            f"{self.arch.place(place).name} holds "
                            f"{counts[place]} values, capacity "
                            f"{capacity}"
                        )
            cur, nxt = nxt, cur

        report.bank_conflicts = spm.bank_conflicts
        final = spm.dump_image()
        return finish_verify(report, dfg, reference, final, total, verify)

    # ------------------------------------------------------------------
    def _fire(self, cn: CompiledNode, k: int, cycle: int, cur, out_buf,
              num_nodes: int, spm: Scratchpad,
              report: SimulationReport, indices) -> int:
        step = cn.step
        vals: list[int] = []
        for src, distance, mode, final_place, readable, index in cn.specs:
            pk = k - distance
            if pk < 0:
                vals.append(step.init_value)
                continue
            if mode == _SRC_BYPASS:
                value = out_buf[pk * num_nodes + src]
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: bypass operand ({src}, {pk}) "
                        f"missing for '{step.name}'"
                    )
            elif mode == _SRC_PLACE:
                if not readable:
                    raise SimulationError(
                        f"cycle {cycle}: '{step.name}' on "
                        f"{self.arch.fu(cn.fu_id).name} cannot read place "
                        f"{self.arch.place(final_place).name}"
                    )
                value = cur.get((final_place, src, pk))
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: '{step.name}' expected value "
                        f"({src}, {pk}) in place "
                        f"{self.arch.place(final_place).name}, not there"
                    )
            else:
                # Malformed route: replay the interpreted resolution so
                # the raised error is identical (KeyError on a missing
                # route, IndexError on an empty place list).
                route = self.mapping.routes[index]
                route.places[-1]
                raise SimulationError(           # pragma: no cover
                    f"route for edge {index} changed after compilation"
                )
            vals.append(value)

        report.fu_firings += 1
        if step.kind == LOAD:
            report.spm_reads += 1
        elif step.kind == STORE:
            report.spm_writes += 1
        return execute_step(step, vals, spm, indices)


def compile_mapping(mapping) -> CompiledSchedule:
    """Compile a mapping into its steady-state schedule (once per
    mapping; :class:`~repro.sim.machine.CGRASimulator` caches this)."""
    return CompiledSchedule(mapping)
