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
  ALU argument plan.  At cycle ``c`` the iteration is recovered as
  ``k = (c - sigma) // II`` — arithmetic, not dict building.
* **Per-phase transport tables.**  Each route occupancy ``(place, rel)``
  lands in the table of phase ``rel % II`` with its iteration offset;
  place contents live in one flat ``(place, net, k) -> value`` dict (no
  per-cycle dict-of-dicts), with per-place counters for the capacity
  check.
* **Prebuilt operand sources.**  Edge -> route resolution and the
  consume-place legality check happen at compile time; the hot loop sees
  a tuple per operand, not a dict-of-dict place lookup.
* **Prologue / steady state / epilogue.**  In the steady window every
  table entry is live, so the inner loops skip the iteration-bounds
  checks entirely; ramp-up and drain cycles take the checked path.

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
from repro.ir.interpreter import DFGInterpreter, MemoryImage
from repro.ir.ops import OP_ARITY, Opcode, evaluate, to_unsigned
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

#: ALU argument-plan entry kinds.
_ARG_OPERAND = 0        # payload = position in the operand-spec tuple
_ARG_CONST = 1          # payload = unsigned constant value
_ARG_ONE = 2            # unpredicated SEL predicate
_ARG_MISSING = 3        # payload = slot number; raises at execution

#: Node execution kinds.
_EXEC_ALU = 0
_EXEC_LOAD = 1
_EXEC_STORE = 2


class CompiledNode:
    """One node's firing entry: everything :meth:`CompiledSchedule._fire`
    needs, resolved at compile time."""

    __slots__ = (
        "node_id", "name", "sigma", "fu_id", "op", "kind", "access",
        "specs", "arg_plan", "store_pos", "const_u", "init_value",
    )

    def __init__(self, node_id: int, name: str, sigma: int, fu_id: int,
                 op: Opcode, kind: int, access, specs: tuple,
                 arg_plan: tuple, store_pos: int, const_u: int | None,
                 init_value: int) -> None:
        self.node_id = node_id
        self.name = name
        self.sigma = sigma
        self.fu_id = fu_id
        self.op = op
        self.kind = kind
        self.access = access
        #: Operand specs in ``in_edges`` order (error parity):
        #: (src, distance, mode, final_place, readable, edge_index).
        self.specs = specs
        self.arg_plan = arg_plan
        self.store_pos = store_pos          # spec position feeding slot 0
        self.const_u = const_u
        self.init_value = init_value


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
        sigmas: list[int] = []
        for node in dfg.nodes:
            fu_id, sigma = mapping.placement[node.node_id]
            entry = self._compile_node(node, fu_id, sigma, edge_index)
            self.fire_phase[sigma % ii].append(entry)
            sigmas.append(sigma)

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

        # ---- steady-state window (per-iteration-count bounds derive
        # from these at run time) -------------------------------------
        self._max_sigma = max(sigmas) if sigmas else None
        self._min_sigma = min(sigmas) if sigmas else None
        self._max_rel = max(rels) if rels else None
        self._min_rel = min(rels) if rels else None

    # ------------------------------------------------------------------
    # Compilation helpers
    # ------------------------------------------------------------------
    def _compile_node(self, node, fu_id: int, sigma: int,
                      edge_index: dict) -> CompiledNode:
        dfg = self.dfg
        arch = self.arch
        mapping = self.mapping
        init_value = to_unsigned(int(node.annotations.get("init", 0)))
        const_u = to_unsigned(node.const) if node.const is not None else None

        specs: list[tuple] = []
        slot_to_pos: dict[int, int] = {}
        for edge in dfg.in_edges(node.node_id):
            if edge.is_ordering:
                continue
            index = edge_index[(edge.src, edge.dst, edge.operand_index,
                                edge.distance)]
            route = mapping.routes.get(index)
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
                readable = final_place in arch.consume_places[fu_id]
                spec = (edge.src, edge.distance, _SRC_PLACE, final_place,
                        readable, index)
            slot_to_pos[edge.operand_index] = len(specs)
            specs.append(spec)

        if node.op is Opcode.LOAD:
            kind = _EXEC_LOAD
            arg_plan: tuple = ()
            store_pos = -1
        elif node.op is Opcode.STORE:
            kind = _EXEC_STORE
            arg_plan = ()
            store_pos = slot_to_pos.get(0, -1)
        else:
            kind = _EXEC_ALU
            store_pos = -1
            plan: list[tuple[int, int]] = []
            const_used = False
            for slot in range(OP_ARITY[node.op]):
                if slot in slot_to_pos:
                    plan.append((_ARG_OPERAND, slot_to_pos[slot]))
                elif const_u is not None and not const_used:
                    plan.append((_ARG_CONST, const_u))
                    const_used = True
                elif node.op is Opcode.SEL and slot == 2:
                    plan.append((_ARG_ONE, 0))
                else:
                    plan.append((_ARG_MISSING, slot))
            arg_plan = tuple(plan)

        return CompiledNode(node.node_id, node.name, sigma, fu_id, node.op,
                            kind, node.access, tuple(specs), arg_plan,
                            store_pos, const_u, init_value)

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

    def _steady_window(self, total_iters: int,
                       end_cycle: int) -> tuple[int, int]:
        """Cycle range in which every firing and occupancy entry is live
        (no iteration-bounds checks needed)."""
        span = (total_iters - 1) * self.ii
        lo = 0
        hi = end_cycle
        if self._max_sigma is not None:
            lo = max(lo, self._max_sigma)
            hi = min(hi, self._min_sigma + span)
        if self._max_rel is not None:
            # Transport for cycle c materializes occupancies of c + 1.
            lo = max(lo, self._max_rel - 1)
            hi = min(hi, self._min_rel + span - 1, end_cycle - 1)
        return lo, hi

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

        def span(start: int, stop: int, checked: bool) -> None:
            nonlocal cur, nxt
            for cycle in range(start, stop):
                spm.begin_cycle()
                # 1. Execute firings against the *current* place contents.
                fired = []
                for cn in fire_phase[cycle % ii]:
                    k = (cycle - cn.sigma) // ii
                    if checked and (k < 0 or k >= total):
                        continue
                    value = fire(cn, k, cycle, cur, out_buf, num_nodes,
                                 spm, report, indices_of[k])
                    fired.append((cn, k, value))
                for cn, k, value in fired:
                    out_buf[k * num_nodes + cn.node_id] = value
                    if record is not None:
                        record(cycle, "exec", node=cn.node_id, iteration=k,
                               fu=cn.fu_id, value=value)
                # 2. Advance transport: place contents for the NEXT cycle.
                arrive = cycle + 1
                for place in touched:
                    counts[place] = 0
                touched.clear()
                nxt.clear()
                if not checked or arrive <= end_cycle:
                    for place, net, rel in occ_phase[arrive % ii]:
                        k = (arrive - rel) // ii
                        if checked and (k < 0 or k >= total):
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

        steady_lo, steady_hi = self._steady_window(total, end_cycle)
        if steady_lo > steady_hi:
            span(0, end_cycle + 1, True)
        else:
            span(0, steady_lo, True)                     # prologue
            span(steady_lo, steady_hi + 1, False)        # steady state
            span(steady_hi + 1, end_cycle + 1, True)     # epilogue

        report.bank_conflicts = spm.bank_conflicts
        final = spm.dump_image()
        return finish_verify(report, dfg, reference, final, total, verify)

    # ------------------------------------------------------------------
    def _fire(self, cn: CompiledNode, k: int, cycle: int, cur, out_buf,
              num_nodes: int, spm: Scratchpad,
              report: SimulationReport, indices) -> int:
        vals: list[int] = []
        for src, distance, mode, final_place, readable, index in cn.specs:
            pk = k - distance
            if pk < 0:
                vals.append(cn.init_value)
                continue
            if mode == _SRC_BYPASS:
                value = out_buf[pk * num_nodes + src]
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: bypass operand ({src}, {pk}) "
                        f"missing for '{cn.name}'"
                    )
            elif mode == _SRC_PLACE:
                if not readable:
                    raise SimulationError(
                        f"cycle {cycle}: '{cn.name}' on "
                        f"{self.arch.fu(cn.fu_id).name} cannot read place "
                        f"{self.arch.place(final_place).name}"
                    )
                value = cur.get((final_place, src, pk))
                if value is None:
                    raise SimulationError(
                        f"cycle {cycle}: '{cn.name}' expected value "
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
        if cn.kind == _EXEC_LOAD:
            report.spm_reads += 1
            return spm.read(cn.access.array, cn.access.address(indices))
        if cn.kind == _EXEC_STORE:
            report.spm_writes += 1
            if cn.store_pos >= 0:
                value = vals[cn.store_pos]
            elif cn.const_u is not None:
                value = cn.const_u
            else:
                raise SimulationError(
                    f"store '{cn.name}' without a value")
            spm.write(cn.access.array, cn.access.address(indices), value)
            return value
        args: list[int] = []
        for arg_kind, payload in cn.arg_plan:
            if arg_kind == _ARG_OPERAND:
                args.append(vals[payload])
            elif arg_kind == _ARG_CONST:
                args.append(payload)
            elif arg_kind == _ARG_ONE:
                args.append(1)
            else:
                raise SimulationError(
                    f"'{cn.name}' missing operand {payload} at execution"
                )
        return evaluate(cn.op, args)


def compile_mapping(mapping) -> CompiledSchedule:
    """Compile a mapping into its steady-state schedule (once per
    mapping; :class:`~repro.sim.machine.CGRASimulator` caches this)."""
    return CompiledSchedule(mapping)
