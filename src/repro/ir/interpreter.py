"""Reference interpreter and the one statement of DFG node semantics.

:class:`NodeStep` and :func:`execute_step` say what a node does with its
operand values: a load reads memory, a store writes its operand 0 (or
else its constant), and an ALU op fills each unfed argument slot from
the instruction's constant (first unfed slot only) or, for an unfed SEL
predicate, with 1.  An operand from before iteration 0 reads the node's
``init`` value (0 unless a node annotation says otherwise), matching how
the statically scheduled fabric primes its registers.  Every engine
builds one step per node and resolves the step's sources its own way:
the interpreter from its value history, the compiled engine from
register places and bypasses, the spatial simulator from in-phase
values, spills and history.

The interpreter executes a DFG over its whole iteration space with exact
16-bit semantics: the golden model the simulators are checked against.
Values crossing iterations (``distance > 0`` edges) are read from the
producing node's value ``distance`` iterations ago.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SimulationError
from repro.ir.analysis import topological_order
from repro.ir.graph import DFG
from repro.ir.ops import OP_ARITY, Opcode, evaluate, to_unsigned


class MemoryImage:
    """A named collection of 16-bit word arrays (models SPM contents)."""

    def __init__(self, arrays: dict[str, list[int]] | None = None) -> None:
        self._arrays: dict[str, list[int]] = {}
        for name, values in (arrays or {}).items():
            self._arrays[name] = [to_unsigned(value) for value in values]

    def ensure(self, name: str, size: int) -> None:
        """Create ``name`` zero-filled (or grow it) to at least ``size``."""
        current = self._arrays.setdefault(name, [])
        if len(current) < size:
            current.extend([0] * (size - len(current)))

    def read(self, name: str, offset: int) -> int:
        try:
            array = self._arrays[name]
        except KeyError:
            raise SimulationError(f"read from unknown array '{name}'") from None
        if not 0 <= offset < len(array):
            raise SimulationError(
                f"read '{name}'[{offset}] out of bounds (size {len(array)})"
            )
        return array[offset]

    def write(self, name: str, offset: int, value: int) -> None:
        try:
            array = self._arrays[name]
        except KeyError:
            raise SimulationError(f"write to unknown array '{name}'") from None
        if not 0 <= offset < len(array):
            raise SimulationError(
                f"write '{name}'[{offset}] out of bounds (size {len(array)})"
            )
        array[offset] = to_unsigned(value)

    def array(self, name: str) -> list[int]:
        """A copy of one array's contents."""
        return list(self._arrays[name])

    @property
    def names(self) -> list[str]:
        return sorted(self._arrays)

    def copy(self) -> "MemoryImage":
        return MemoryImage({name: list(vals) for name, vals in self._arrays.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        return self._arrays == other._arrays


def required_array_sizes(dfg: DFG) -> dict[str, int]:
    """Max element offset + 1 touched per array over the iteration space.

    Walks the corner points of the iteration space per access (affine
    accesses reach their extrema at corners), so it is exact and cheap.
    """
    sizes: dict[str, int] = defaultdict(int)
    for node in dfg.memory_nodes:
        access = node.access
        assert access is not None
        max_offset = access.base
        for dim, coeff in enumerate(access.coeffs):
            extent = dfg.trip_counts[dim] - 1 if dim < len(dfg.trip_counts) else 0
            if coeff > 0:
                max_offset += coeff * extent
        sizes[access.array] = max(sizes[access.array], max_offset + 1)
    return dict(sizes)


#: :attr:`NodeStep.kind` values.
ALU, LOAD, STORE = 0, 1, 2
_KINDS = {Opcode.LOAD: LOAD, Opcode.STORE: STORE}

#: Argument-plan sources below 0 (entries >= 0 are source positions).
_LITERAL = -1           # payload = the argument's value
_MISSING = -2           # payload = slot number; raises at execution


class NodeStep:
    """One node's semantics, resolved once per DFG.

    ``sources`` are the node's data in-edges in ``in_edges`` order; a
    caller resolves them to a list of values in the same order (an
    operand from before iteration 0 reads ``init_value``) and hands that
    to :func:`execute_step`.  ``arg_plan`` has one ``(source position,
    0)``, ``(_LITERAL, value)`` or ``(_MISSING, slot)`` entry per operand
    slot: an ALU op's arguments, or the value a store writes.
    """

    __slots__ = ("node_id", "name", "op", "kind", "access", "sources",
                 "arg_plan", "init_value")

    def __init__(self, dfg: DFG, node) -> None:
        self.node_id = node.node_id
        self.name = node.name
        self.op = node.op
        self.kind = _KINDS.get(node.op, ALU)
        self.access = node.access
        self.sources = tuple(edge for edge in dfg.in_edges(node.node_id)
                             if not edge.is_ordering)
        self.init_value = to_unsigned(int(node.annotations.get("init", 0)))
        # A slot fed twice reads its last in-edge.
        position = {edge.operand_index: pos
                    for pos, edge in enumerate(self.sources)}
        plan = []
        const_used = node.const is None
        for slot in range(OP_ARITY[node.op]):
            if slot in position:
                plan.append((position[slot], 0))
            elif not const_used:        # the constant fills one slot
                plan.append((_LITERAL, to_unsigned(node.const)))
                const_used = True
            elif node.op is Opcode.SEL and slot == 2:
                plan.append((_LITERAL, 1))      # unpredicated: input 0
            else:
                plan.append((_MISSING, slot))
        self.arg_plan = tuple(plan)


def execute_step(step: NodeStep, vals: list[int], memory,
                 indices: tuple[int, ...]) -> int:
    """Execute one node on its resolved source values ``vals``.

    ``memory`` is anything with ``read``/``write`` (a
    :class:`MemoryImage` or a scratchpad); ``indices`` are the loop
    indices of the executing iteration.  Returns the node's value (a
    store returns the value it wrote).
    """
    kind = step.kind
    if kind == LOAD:
        return memory.read(step.access.array, step.access.address(indices))
    args = []
    for pos, payload in step.arg_plan:
        if pos >= 0:
            args.append(vals[pos])
        elif pos == _LITERAL:
            args.append(payload)
        elif kind == STORE:
            raise SimulationError(f"store '{step.name}' without a value")
        else:
            raise SimulationError(
                f"'{step.name}' missing operand {payload} at execution")
    if kind == STORE:
        memory.write(step.access.array, step.access.address(indices),
                     args[0])
        return args[0]
    return evaluate(step.op, args)


class DFGInterpreter:
    """Execute a DFG over its iteration space against a memory image."""

    def __init__(self, dfg: DFG) -> None:
        self.dfg = dfg
        self._steps = [NodeStep(dfg, dfg.node(node_id))
                       for node_id in topological_order(dfg)]

    def prepare_memory(self, memory: MemoryImage | None = None,
                       fill: int | None = None) -> MemoryImage:
        """Size every array the DFG touches; optionally pattern-fill reads.

        With ``fill`` given, arrays that are read get deterministic nonzero
        contents ``(fill + 7 * index) mod 2^16`` so simulator mismatches
        cannot hide behind zeros.
        """
        memory = memory or MemoryImage()
        sizes = required_array_sizes(self.dfg)
        for name, size in sizes.items():
            memory.ensure(name, size)
        if fill is not None:
            for name in self.dfg.arrays_read():
                array = memory.array(name)
                memory.ensure(name, len(array))
                for index in range(len(array)):
                    if array[index] == 0:
                        memory.write(name, index,
                                     to_unsigned(fill + 7 * index))
        return memory

    def run(self, memory: MemoryImage, iterations: int | None = None,
            ) -> dict[int, list[int]]:
        """Execute ``iterations`` points (default: all); mutates ``memory``.

        Returns the per-node value history: ``history[node_id][k]`` is the
        value node produced in iteration ``k`` (STORE nodes record the value
        they wrote).  Steps run in topological order, so every source
        reads the history: a distance-``d`` edge reads its producer's
        value ``d`` iterations back, or the step's ``init_value`` before
        iteration 0.
        """
        dfg = self.dfg
        total = dfg.iterations if iterations is None else iterations
        history: dict[int, list[int]] = {
            node.node_id: [] for node in dfg.nodes
        }
        feeds = [(step, [(history[edge.src], edge.distance)
                         for edge in step.sources], history[step.node_id])
                 for step in self._steps]
        for k in range(total):
            indices = dfg.iteration_indices(k)
            for step, sources, out in feeds:
                vals = [produced[k - distance] if k >= distance
                        else step.init_value
                        for produced, distance in sources]
                out.append(execute_step(step, vals, memory, indices))
        return history
