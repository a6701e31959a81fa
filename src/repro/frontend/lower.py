"""Lower a parsed kernel AST to a dataflow graph.

Responsibilities (mirroring the paper's DFG-generation step):

* flatten the (perfect) loop nest into an iteration space;
* linearize affine array subscripts into :class:`AffineAccess` descriptors
  using caller-provided array shapes;
* common-subexpression-eliminate loads and pure compute nodes;
* constant-fold and fold immediates into instruction constants;
* recognize ``+=`` reductions: contributions are tree-summed, then committed
  through a single load-add-store (array accumulators) or a loop-carried
  add (scalar accumulators);
* run a memory dependence pass adding ordering edges for loop-carried
  flow/anti/output dependences (in-place stencils like seidel).

Loop restructuring (unrolling included) is *not* lowering's business:
``compile_kernel`` applies the ``#pragma plaid unroll`` factor and any
transform recipe as AST→AST passes (:mod:`repro.frontend.transforms`)
before handing the nest to :class:`_Lowering`, which only accepts perfect
nests whose innermost loop may carry multiple statements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FrontendError
from repro.frontend.cast import (
    ArrayRef, Assign, BinOp, Call, ForLoop, IntLit, Kernel, UnaryOp, VarRef,
)
from repro.frontend.parser import parse_kernel
from repro.ir.graph import DFG, ORDERING
from repro.ir.node import AffineAccess, DFGNode
from repro.ir.ops import Opcode, evaluate, to_unsigned

_BINOP_OPCODES = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "<<": Opcode.SHL,
    ">>": Opcode.SHR,
    "&": Opcode.AND,
    "|": Opcode.OR,
    "^": Opcode.XOR,
}

_CALL_OPCODES = {"min": Opcode.MIN, "max": Opcode.MAX, "abs": Opcode.ABS}

#: Maximum magnitude for a foldable instruction immediate (the Plaid
#: configuration format carries 8-bit constants).
_IMM_LIMIT = 255


@dataclass(frozen=True)
class _Affine:
    """Affine form of an index expression: ``const + sum coeff[var]*var``."""

    const: int
    coeffs: tuple[tuple[str, int], ...]   # sorted (var, coeff) pairs

    @staticmethod
    def constant(value: int) -> "_Affine":
        return _Affine(value, ())

    @staticmethod
    def variable(name: str) -> "_Affine":
        return _Affine(0, ((name, 1),))

    def add(self, other: "_Affine", sign: int = 1) -> "_Affine":
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs:
            coeffs[var] = coeffs.get(var, 0) + sign * coeff
        cleaned = tuple(sorted(
            (var, coeff) for var, coeff in coeffs.items() if coeff != 0
        ))
        return _Affine(self.const + sign * other.const, cleaned)

    def scale(self, factor: int) -> "_Affine":
        coeffs = tuple(
            (var, coeff * factor) for var, coeff in self.coeffs if coeff * factor
        )
        return _Affine(self.const * factor, coeffs)


class _Lowering:
    """Single-use lowering context for one kernel."""

    def __init__(self, kernel: Kernel,
                 array_shapes: dict[str, tuple[int, ...]]) -> None:
        self.kernel = kernel
        self.array_shapes = array_shapes
        self.loop_vars: list[str] = []
        self.trip_counts: list[int] = []
        self.statements: list[Assign] = []
        self._collect_nest()
        self.dfg = DFG(kernel.name, loop_dims=len(self.loop_vars),
                       trip_counts=tuple(self.trip_counts))
        # CSE tables and memory state, reset per kernel.
        self._load_cse: dict[AffineAccess, DFGNode] = {}
        self._compute_cse: dict[tuple, DFGNode] = {}
        self._forward: dict[AffineAccess, DFGNode] = {}
        self._scalars: dict[str, DFGNode] = {}
        self._accumulators: dict[object, list[DFGNode]] = {}
        self._acc_targets: dict[object, AffineAccess | str] = {}
        self._store_order: list[DFGNode] = []
        #: Dependence depth per node (loads 0), used to build Huffman-style
        #: sum trees that keep recurrence circuits shallow.
        self._node_depth: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Nest shape
    # ------------------------------------------------------------------
    def _collect_nest(self) -> None:
        if len(self.kernel.loops) != 1:
            raise FrontendError("kernel must have exactly one outermost loop")
        loop = self.kernel.loops[0]
        while True:
            if loop.bound <= 0:
                raise FrontendError(f"loop '{loop.var}' has bound {loop.bound}")
            if loop.var in self.loop_vars:
                raise FrontendError(f"duplicate loop variable '{loop.var}'")
            self.loop_vars.append(loop.var)
            self.trip_counts.append(loop.bound)
            inner_loops = [s for s in loop.body if isinstance(s, ForLoop)]
            stmts = [s for s in loop.body if isinstance(s, Assign)]
            if inner_loops and stmts:
                raise FrontendError(
                    f"loop '{loop.var}' mixes statements and inner loops "
                    "(imperfect nests are not supported)"
                )
            if inner_loops:
                if len(inner_loops) != 1:
                    raise FrontendError("only perfect loop nests are supported")
                loop = inner_loops[0]
                continue
            self.statements = stmts
            return

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def lower(self) -> DFG:
        for statement in self.statements:
            self._lower_statement(statement)
        self._commit_accumulators()
        self._memory_dependence_pass()
        self.dfg.validate()
        return self.dfg

    # ------------------------------------------------------------------
    # Index / access handling
    # ------------------------------------------------------------------
    def _affine_index(self, expr: object, line: int) -> _Affine:
        if isinstance(expr, IntLit):
            return _Affine.constant(expr.value)
        if isinstance(expr, VarRef):
            if expr.name not in self.loop_vars:
                raise FrontendError(
                    f"line {line}: subscript uses non-loop variable "
                    f"'{expr.name}'"
                )
            return _Affine.variable(expr.name)
        if isinstance(expr, UnaryOp) and expr.op == "-":
            return self._affine_index(expr.operand, line).scale(-1)
        if isinstance(expr, BinOp):
            if expr.op == "+":
                return self._affine_index(expr.left, line).add(
                    self._affine_index(expr.right, line))
            if expr.op == "-":
                return self._affine_index(expr.left, line).add(
                    self._affine_index(expr.right, line), sign=-1)
            if expr.op == "*":
                left = self._affine_index(expr.left, line)
                right = self._affine_index(expr.right, line)
                if not left.coeffs:
                    return right.scale(left.const)
                if not right.coeffs:
                    return left.scale(right.const)
                raise FrontendError(
                    f"line {line}: non-affine subscript (variable * variable)"
                )
        raise FrontendError(f"line {line}: subscript is not affine")

    def _linearize(self, ref: ArrayRef, line: int) -> AffineAccess:
        """Turn a multi-dim affine subscript into a flat AffineAccess."""
        shape = self.array_shapes.get(ref.name)
        if shape is None:
            if len(ref.indices) != 1:
                raise FrontendError(
                    f"line {line}: array '{ref.name}' needs a declared shape "
                    f"for {len(ref.indices)}-D subscripts"
                )
            shape = (0,)   # pitch unused for 1-D
        if len(shape) != len(ref.indices):
            raise FrontendError(
                f"line {line}: array '{ref.name}' subscripted with "
                f"{len(ref.indices)} indices but shaped {shape}"
            )
        # Combine per-dimension affine forms with row-major pitches.
        total = _Affine.constant(0)
        for dim, index_expr in enumerate(ref.indices):
            affine = self._affine_index(index_expr, line)
            pitch = 1
            for later in shape[dim + 1:]:
                pitch *= later
            total = total.add(affine.scale(pitch))
        coeff_map = dict(total.coeffs)
        coeffs = tuple(coeff_map.get(var, 0) for var in self.loop_vars)
        return AffineAccess(ref.name, base=total.const, coeffs=coeffs)

    # ------------------------------------------------------------------
    # Expression lowering
    # ------------------------------------------------------------------
    def _lower_expr(self, expr: object, line: int) -> DFGNode | int:
        """Returns a node or a Python int (a constant value)."""
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, VarRef):
            if expr.name in self.loop_vars:
                raise FrontendError(
                    f"line {line}: loop variable '{expr.name}' used as a "
                    "value (not supported; hoist it into an array)"
                )
            node = self._scalars.get(expr.name)
            if node is None:
                raise FrontendError(
                    f"line {line}: scalar '{expr.name}' read before assignment"
                )
            return node
        if isinstance(expr, ArrayRef):
            return self._lower_load(expr, line)
        if isinstance(expr, UnaryOp):
            value = self._lower_expr(expr.operand, line)
            if isinstance(value, int):
                folded = -value if expr.op == "-" else ~value
                return to_unsigned(folded)
            if expr.op == "~":
                return self._emit(Opcode.NOT, [value], line=line)
            return self._emit(Opcode.SUB, [0, value], line=line)
        if isinstance(expr, Call):
            args = [self._lower_expr(arg, line) for arg in expr.args]
            opcode = _CALL_OPCODES[expr.func]
            if all(isinstance(arg, int) for arg in args):
                return evaluate(opcode, [to_unsigned(a) for a in args])
            return self._emit(opcode, args, line=line)
        if isinstance(expr, BinOp):
            if expr.op == "+":
                return self._lower_sum(expr, line)
            left = self._lower_expr(expr.left, line)
            right = self._lower_expr(expr.right, line)
            opcode = _BINOP_OPCODES[expr.op]
            if isinstance(left, int) and isinstance(right, int):
                return evaluate(opcode,
                                [to_unsigned(left), to_unsigned(right)])
            return self._emit(opcode, [left, right], line=line)
        raise FrontendError(f"line {line}: cannot lower expression {expr!r}")

    def _lower_sum(self, expr: BinOp, line: int) -> DFGNode | int:
        """Reassociate a ``+`` spine into a balanced add tree.

        Source-level sums are left-associative, which would serialize
        stencil kernels (a 9-point sum becomes an 8-deep chain and blows
        up the recurrence MII of in-place sweeps); rebalancing keeps the
        dependence depth logarithmic, as production compilers do.
        """
        terms: list[object] = []

        def collect(node: object) -> None:
            if isinstance(node, BinOp) and node.op == "+":
                collect(node.left)
                collect(node.right)
            else:
                terms.append(node)

        collect(expr)
        lowered = [self._lower_expr(term, line) for term in terms]
        const_total = sum(v for v in lowered if isinstance(v, int))
        nodes = [v for v in lowered if not isinstance(v, int)]
        if not nodes:
            return to_unsigned(const_total)
        total = self._tree_sum(nodes)
        if const_total:
            return self._emit(Opcode.ADD, [total, const_total], line=line)
        return total

    def _emit(self, opcode: Opcode, operands: list[DFGNode | int],
              line: int = 0) -> DFGNode:
        """Create (or CSE-reuse) a compute node.

        At most one operand may be a Python int; it becomes the instruction
        immediate filling that operand slot.
        """
        const: int | None = None
        node_operands: list[tuple[int, DFGNode]] = []
        for slot, operand in enumerate(operands):
            if isinstance(operand, int):
                if const is not None:
                    raise FrontendError(
                        f"line {line}: two constant operands survived folding"
                    )
                if not -_IMM_LIMIT <= operand <= _IMM_LIMIT:
                    raise FrontendError(
                        f"line {line}: immediate {operand} exceeds the 8-bit "
                        "instruction constant"
                    )
                const = operand
            else:
                node_operands.append((slot, operand))
        key = (opcode, const,
               tuple((slot, node.node_id) for slot, node in node_operands))
        cached = self._compute_cse.get(key)
        if cached is not None:
            return cached
        node = self.dfg.add_node(opcode, const=const)
        for slot, operand in node_operands:
            self.dfg.add_edge(operand, node, operand_index=slot)
        self._compute_cse[key] = node
        self._node_depth[node.node_id] = 1 + max(
            (self._node_depth.get(op.node_id, 0)
             for _slot, op in node_operands), default=0)
        return node

    def _lower_load(self, ref: ArrayRef, line: int) -> DFGNode:
        access = self._linearize(ref, line)
        forwarded = self._forward.get(access)
        if forwarded is not None:
            return forwarded
        cached = self._load_cse.get(access)
        if cached is not None:
            return cached
        node = self.dfg.add_node(Opcode.LOAD, access=access)
        self._load_cse[access] = node
        return node

    # ------------------------------------------------------------------
    # Statement lowering
    # ------------------------------------------------------------------
    def _lower_statement(self, statement: Assign) -> None:
        line = statement.line
        value = self._lower_expr(statement.expr, line)
        if isinstance(statement.target, VarRef):
            name = statement.target.name
            if name in self.loop_vars:
                raise FrontendError(
                    f"line {line}: cannot assign loop variable '{name}'"
                )
            if statement.op == "+=":
                self._accumulators.setdefault(("scalar", name), []).append(value)
                self._acc_targets[("scalar", name)] = name
            else:
                if isinstance(value, int):
                    raise FrontendError(
                        f"line {line}: scalar '{name}' assigned a constant "
                        "(fold it into its uses instead)"
                    )
                self._scalars[name] = value
            return
        assert isinstance(statement.target, ArrayRef)
        access = self._linearize(statement.target, line)
        if statement.op == "+=":
            key = ("array", access)
            self._accumulators.setdefault(key, []).append(value)
            self._acc_targets[key] = access
            return
        # Plain store; a constant value rides in the instruction immediate.
        if isinstance(value, int):
            self._check_imm(value, line)
            store = self.dfg.add_node(Opcode.STORE, access=access,
                                      const=value)
        else:
            store = self.dfg.add_node(Opcode.STORE, access=access)
            self.dfg.add_edge(value, store, operand_index=0)
        self._store_order.append(store)
        # A store invalidates load CSE for its array and forwards its value.
        self._load_cse = {
            acc: node for acc, node in self._load_cse.items()
            if acc.array != access.array
        }
        self._forward[access] = value

    @staticmethod
    def _check_imm(value: int, line: int) -> None:
        if not -_IMM_LIMIT <= value <= _IMM_LIMIT:
            raise FrontendError(
                f"line {line}: constant {value} exceeds the 8-bit immediate"
            )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _commit_accumulators(self) -> None:
        for key, contributions in self._accumulators.items():
            const_total = sum(c for c in contributions if isinstance(c, int))
            nodes = [c for c in contributions if not isinstance(c, int)]
            total: DFGNode | None = self._tree_sum(nodes) if nodes else None
            if total is not None and const_total:
                self._check_imm(const_total, 0)
                total = self._emit(Opcode.ADD, [total, const_total])
            target = self._acc_targets[key]
            if isinstance(target, str):
                # Scalar accumulator: loop-carried add, initialized to 0.
                acc = self.dfg.add_node(Opcode.ADD, name=f"acc_{target}")
                if total is None:
                    self._check_imm(const_total, 0)
                    acc.const = const_total
                else:
                    self.dfg.add_edge(total, acc, operand_index=0)
                self.dfg.add_edge(acc, acc,
                                  operand_index=0 if total is None else 1,
                                  distance=1)
                acc.annotations["init"] = 0
                self._scalars[target] = acc
            else:
                # Array accumulator: load-modify-store through memory.
                load = self.dfg.add_node(Opcode.LOAD, access=target)
                if total is None:
                    self._check_imm(const_total, 0)
                    add = self.dfg.add_node(Opcode.ADD, const=const_total)
                    self.dfg.add_edge(load, add, operand_index=0)
                else:
                    add = self.dfg.add_node(Opcode.ADD)
                    self.dfg.add_edge(total, add, operand_index=0)
                    self.dfg.add_edge(load, add, operand_index=1)
                store = self.dfg.add_node(Opcode.STORE, access=target)
                self.dfg.add_edge(add, store, operand_index=0)
                self._store_order.append(store)

    def _tree_sum(self, values: list[DFGNode]) -> DFGNode:
        """Huffman-style add tree: combine the shallowest values first.

        Unlike a plain balanced tree, this places deep inputs (e.g. a
        value forwarded from an earlier in-place store) near the root, so
        the dependence depth — and with it the recurrence MII of in-place
        sweeps — stays near ``depth_max + 1`` instead of
        ``depth_max + log2(n)``.
        """
        import heapq
        heap = [
            (self._node_depth.get(node.node_id, 0), index, node)
            for index, node in enumerate(values)
        ]
        heapq.heapify(heap)
        counter = len(values)
        while len(heap) > 1:
            d1, _i1, a = heapq.heappop(heap)
            d2, _i2, b = heapq.heappop(heap)
            combined = self._emit(Opcode.ADD, [a, b])
            heapq.heappush(
                heap,
                (self._node_depth.get(combined.node_id, max(d1, d2) + 1),
                 counter, combined))
            counter += 1
        return heap[0][2]

    # ------------------------------------------------------------------
    # Memory dependence pass
    # ------------------------------------------------------------------
    def _iteration_weights(self) -> list[int]:
        """Flat-iteration weight of each loop dimension."""
        weights = []
        for dim in range(len(self.trip_counts)):
            weight = 1
            for trip in self.trip_counts[dim + 1:]:
                weight *= trip
            weights.append(weight)
        return weights

    #: Enumeration guard: beyond this many candidate iteration deltas the
    #: dependence test falls back to conservative serialization.
    _MAX_DELTA_ENUM = 200_000

    def _dependence_distances(self, s_access: AffineAccess,
                              l_access: AffineAccess
                              ) -> tuple[int | None, int | None, bool] | None:
        """Exact dependence distances between two equal-coefficient
        accesses of one array.

        Solves ``coeffs . delta = base_S - base_L`` over iteration deltas
        with ``|delta_k| < trip_k`` and returns ``(flow, anti, same)``:
        the smallest positive flat distance (load reads what the store
        wrote ``flow`` iterations earlier), the smallest positive anti
        distance (store overwrites what the load read), and whether they
        can collide within one iteration.  None = not analyzable.
        """
        if s_access.coeffs != l_access.coeffs:
            return None
        import itertools
        coeffs = s_access.coeffs
        weights = self._iteration_weights()
        target = s_access.base - l_access.base
        ranges = []
        size = 1
        for trip in self.trip_counts:
            ranges.append(range(-(trip - 1), trip))
            size *= 2 * trip - 1
        if size > self._MAX_DELTA_ENUM:
            return None
        flow: int | None = None
        anti: int | None = None
        same = False
        for delta in itertools.product(*ranges):
            address_delta = sum(c * d for c, d in zip(coeffs, delta))
            if address_delta != target:
                continue
            flat = sum(w * d for w, d in zip(weights, delta))
            if flat == 0:
                same = True
            elif flat > 0:
                flow = flat if flow is None else min(flow, flat)
            else:
                anti = -flat if anti is None else min(anti, -flat)
        return (flow, anti, same)

    def _memory_dependence_pass(self) -> None:
        """Add ordering edges for loop-carried memory dependences.

        For store S and load L on the same array: if both accesses advance
        linearly with the flat iteration at the same rate ``s``, the base
        difference tells the dependence distance.  Non-linear pairs get
        conservative distance-1 edges both ways.
        """
        stores = [n for n in self.dfg.nodes if n.op is Opcode.STORE]
        loads = [n for n in self.dfg.nodes if n.op is Opcode.LOAD]
        for store in stores:
            s_access = store.access
            assert s_access is not None
            for load in loads:
                l_access = load.access
                assert l_access is not None
                if l_access.array != s_access.array:
                    continue
                self._add_pair_dependence(store, load, s_access, l_access)
        # Output dependences between stores of one array.
        for i, first in enumerate(stores):
            for second in stores[i + 1:]:
                if first.access.array != second.access.array:
                    continue
                if first.access == second.access:
                    self.dfg.add_edge(first, second,
                                      operand_index=ORDERING, distance=0)

    def _add_pair_dependence(self, store, load, s_access, l_access) -> None:
        distances = self._dependence_distances(s_access, l_access)
        if distances is None:
            # Not analyzable: conservative serialization across iterations.
            self.dfg.add_edge(store, load, operand_index=ORDERING, distance=1)
            self.dfg.add_edge(load, store, operand_index=ORDERING, distance=1)
            return
        flow, anti, same = distances
        if flow is not None:
            # Flow: load at iteration k reads store from iteration k - flow.
            self.dfg.add_edge(store, load, operand_index=ORDERING,
                              distance=flow)
        if anti is not None:
            # Anti: store at iteration k + anti overwrites what load reads.
            self.dfg.add_edge(load, store, operand_index=ORDERING,
                              distance=anti)
        if same and not self._reaches(load.node_id, store.node_id):
            # Same address, same iteration: forwarding already resolved
            # identical accesses; keep program order for the rest.
            self.dfg.add_edge(load, store, operand_index=ORDERING,
                              distance=0)

    def _reaches(self, src: int, dst: int) -> bool:
        """True if dst is reachable from src over distance-0 edges."""
        seen = {src}
        frontier = [src]
        while frontier:
            current = frontier.pop()
            if current == dst:
                return True
            for edge in self.dfg.out_edges(current):
                if edge.distance == 0 and edge.dst not in seen:
                    seen.add(edge.dst)
                    frontier.append(edge.dst)
        return False


def compile_kernel(source: str, name: str = "kernel",
                   array_shapes: dict[str, tuple[int, ...]] | None = None,
                   unroll: int | None = None,
                   recipe: "str | object | None" = None) -> DFG:
    """Compile annotated-C kernel source into a validated DFG.

    Args:
        source: kernel text (``#pragma plaid`` + a perfect loop nest).
        name: DFG name (defaults to "kernel").
        array_shapes: shapes for multi-dimensional arrays, e.g.
            ``{"A": (16, 16)}``; 1-D arrays need no entry.
        unroll: overrides the pragma's unroll factor when given.
        recipe: optional transform recipe — a spec string like
            ``"t4x4_u2"`` or a :class:`~repro.frontend.transforms.Recipe`
            — applied to the AST before the pragma/override unroll factor.
    """
    from repro.frontend import transforms
    kernel = parse_kernel(source, name=name)
    factor = unroll if unroll is not None else kernel.unroll
    if recipe:
        kernel = transforms.as_recipe(recipe).apply(kernel)
    if factor != 1:
        # The pragma unroll is itself just an AST transform now; lowering
        # sees the already-replicated innermost body.
        kernel = transforms.unroll(kernel, kernel.innermost().var, factor)
    lowering = _Lowering(kernel, array_shapes or {})
    return lowering.lower()
