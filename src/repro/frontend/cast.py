"""Abstract syntax tree for the annotated-C kernel subset.

Expression and statement nodes are frozen (shareable between trees); loops
and kernels are mutable containers.  Loop bodies are ordered lists mixing
:class:`Assign` statements and nested :class:`ForLoop`\\ s, so the tree can
represent multi-statement and imperfect nests — transforms
(:mod:`repro.frontend.transforms`) produce such shapes freely; lowering
(:mod:`repro.frontend.lower`) decides which shapes it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class IntLit:
    """Integer literal."""

    value: int


@dataclass(frozen=True)
class VarRef:
    """Reference to a loop variable or scalar temporary."""

    name: str


@dataclass(frozen=True)
class ArrayRef:
    """``name[idx0][idx1]...`` — each index is an expression that lowering
    requires to be affine in loop variables."""

    name: str
    indices: tuple[object, ...]


@dataclass(frozen=True)
class UnaryOp:
    """``-x`` or ``~x``."""

    op: str
    operand: object


@dataclass(frozen=True)
class BinOp:
    """Binary expression; ``op`` in ``+ - * << >> & | ^``."""

    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    """Intrinsic call: ``min(a, b)``, ``max(a, b)``, ``abs(a)``."""

    func: str
    args: tuple[object, ...]


@dataclass(frozen=True)
class Assign:
    """``target = expr;`` or ``target += expr;`` (target array or scalar)."""

    target: object          # ArrayRef | VarRef
    op: str                 # '=' or '+='
    expr: object
    line: int = 0


@dataclass
class ForLoop:
    """``for (v = 0; v < bound; v++) { body }`` (step 1, lower bound 0)."""

    var: str
    bound: int
    body: list[object] = field(default_factory=list)   # ForLoop | Assign


@dataclass
class Kernel:
    """A parsed kernel: pragma options plus the outermost loop nest."""

    name: str
    unroll: int
    loops: list[ForLoop]

    def innermost(self) -> ForLoop:
        """The innermost loop of the (perfect) nest."""
        loop = self.loops[0]
        while loop.body and isinstance(loop.body[0], ForLoop) \
                and len(loop.body) == 1:
            loop = loop.body[0]
        return loop


# ----------------------------------------------------------------------
# Tree helpers (used by the transform passes and structural checks)
# ----------------------------------------------------------------------

def clone_loop(loop: ForLoop) -> ForLoop:
    """Deep-copy a loop subtree (frozen statement nodes are shared)."""
    return ForLoop(loop.var, loop.bound, [
        clone_loop(item) if isinstance(item, ForLoop) else item
        for item in loop.body
    ])


def clone_kernel(kernel: Kernel) -> Kernel:
    """Deep-copy a kernel so transforms never alias their input."""
    return Kernel(kernel.name, kernel.unroll,
                  [clone_loop(loop) for loop in kernel.loops])


def walk_loops(root: Kernel | ForLoop) -> Iterator[ForLoop]:
    """Pre-order iterator over every loop in the tree."""
    stack = list(reversed(root.loops if isinstance(root, Kernel)
                          else [root]))
    while stack:
        loop = stack.pop()
        yield loop
        stack.extend(reversed([c for c in loop.body
                               if isinstance(c, ForLoop)]))


def loop_vars(kernel: Kernel) -> list[str]:
    """All loop variables, pre-order."""
    return [loop.var for loop in walk_loops(kernel)]


def nest_chain(kernel: Kernel) -> list[ForLoop]:
    """The perfect spine of the nest: from the first outermost loop, descend
    while the body is exactly one nested loop.  The chain ends at the first
    loop carrying statements (or siblings)."""
    chain = [kernel.loops[0]]
    while len(chain[-1].body) == 1 and isinstance(chain[-1].body[0], ForLoop):
        chain.append(chain[-1].body[0])
    return chain


def _canon_expr(expr: object, renames: dict[str, str]) -> object:
    if isinstance(expr, VarRef):
        return ("var", renames.get(expr.name, expr.name))
    if isinstance(expr, IntLit):
        return ("int", expr.value)
    if isinstance(expr, ArrayRef):
        return ("array", expr.name,
                tuple(_canon_expr(i, renames) for i in expr.indices))
    if isinstance(expr, UnaryOp):
        return ("unary", expr.op, _canon_expr(expr.operand, renames))
    if isinstance(expr, BinOp):
        return ("bin", expr.op, _canon_expr(expr.left, renames),
                _canon_expr(expr.right, renames))
    if isinstance(expr, Call):
        return ("call", expr.func,
                tuple(_canon_expr(a, renames) for a in expr.args))
    return ("other", repr(expr))


def _canon_item(item: object, renames: dict[str, str]) -> object:
    if isinstance(item, ForLoop):
        renames = dict(renames)
        renames[item.var] = f"L{len(renames)}"
        return ("for", renames[item.var], item.bound,
                tuple(_canon_item(child, renames) for child in item.body))
    assert isinstance(item, Assign)
    return ("assign", item.op, _canon_expr(item.target, renames),
            _canon_expr(item.expr, renames))


def structurally_equal(a: Kernel, b: Kernel) -> bool:
    """Alpha-insensitive structural equality of two kernel nests.

    Loop variables are canonically renamed in pre-order, so nests that
    differ only in loop-variable spelling (e.g. after tiling introduced
    ``io``/``ii``) compare equal; kernel names and source line numbers are
    ignored.
    """
    def canon(kernel: Kernel) -> tuple:
        return tuple(_canon_item(loop, {}) for loop in kernel.loops)
    return canon(a) == canon(b)
