"""Three-node (and pair) pattern matching over DFGs.

The matcher works on *available* compute nodes only (nodes not yet claimed
by another motif) and considers only distance-0 data edges: loop-carried
edges are scheduled with modulo offsets and are routed outside the motif's
collective window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.ir.graph import DFG
from repro.motifs.types import Motif, MotifKind


class Adjacency:
    """Distance-0 data adjacency between distinct nodes of a DFG, built
    once and read through :meth:`restrict`.

    Each node's successors and predecessors are listed once, in the
    order of their first edge; restricting a list to ``available`` keeps
    that order, so a restricted view equals the adjacency scanned from
    the available nodes' edges alone.
    """

    def __init__(self, dfg: DFG) -> None:
        self.succs: dict[int, list[int]] = {}
        self.preds: dict[int, list[int]] = {}
        for edge in dfg.data_edges:
            if edge.distance != 0 or edge.src == edge.dst:
                continue
            succs = self.succs.setdefault(edge.src, [])
            if edge.dst not in succs:
                succs.append(edge.dst)
            preds = self.preds.setdefault(edge.dst, [])
            if edge.src not in preds:
                preds.append(edge.src)

    def restrict(self, available: set[int]):
        """(succs, preds) over ``available`` nodes: indexing either with
        a node gives its available neighbours, filtered on lookup."""
        return (_Restricted(self.succs, available),
                _Restricted(self.preds, available))


class _Restricted:
    """One direction of an :class:`Adjacency` seen through a node set."""

    __slots__ = ("_lists", "_available")

    def __init__(self, lists: dict[int, list[int]],
                 available: set[int]) -> None:
        self._lists = lists
        self._available = available

    def __getitem__(self, node_id: int) -> list[int]:
        available = self._available
        return [other for other in self._lists.get(node_id, ())
                if other in available]


def _try_unicast(node: int, succs, preds) -> Motif | None:
    # node as head: node -> b -> c
    for b in succs[node]:
        for c in succs[b]:
            if c != node:
                return Motif(MotifKind.UNICAST, (node, b, c))
    # node as middle: a -> node -> c
    for a in preds[node]:
        for c in succs[node]:
            if c != a:
                return Motif(MotifKind.UNICAST, (a, node, c))
    # node as tail: a -> b -> node
    for b in preds[node]:
        for a in preds[b]:
            if a != node:
                return Motif(MotifKind.UNICAST, (a, b, node))
    return None


def _try_fan_in(node: int, succs, preds) -> Motif | None:
    # node as consumer: a -> node, b -> node
    sources = preds[node]
    if len(sources) >= 2:
        return Motif(MotifKind.FAN_IN, (sources[0], sources[1], node))
    # node as one producer: node -> c, b -> c
    for c in succs[node]:
        for b in preds[c]:
            if b != node:
                return Motif(MotifKind.FAN_IN, (node, b, c))
    return None


def _try_fan_out(node: int, succs, preds) -> Motif | None:
    # node as producer: node -> a, node -> b
    sinks = succs[node]
    if len(sinks) >= 2:
        return Motif(MotifKind.FAN_OUT, (node, sinks[0], sinks[1]))
    # node as one consumer: p -> node, p -> b
    for p in preds[node]:
        for b in succs[p]:
            if b != node:
                return Motif(MotifKind.FAN_OUT, (p, node, b))
    return None


#: Pattern priority.  Unicast chains dominate arithmetic DFGs, so they are
#: tried first; fan-in next (reduction trees); fan-out last.
_MATCHERS: tuple[Callable, ...] = (_try_unicast, _try_fan_in, _try_fan_out)


def find_motif_for_node(dfg: DFG, node_id: int, available: set[int],
                        adjacency: Adjacency | None = None) -> Motif | None:
    """Find any three-node motif containing ``node_id`` whose members are
    all in ``available``; None when no pattern matches.  ``adjacency``
    is ``dfg``'s :class:`Adjacency`, built here when omitted."""
    if node_id not in available:
        return None
    succs, preds = (adjacency or Adjacency(dfg)).restrict(available)
    for matcher in _MATCHERS:
        motif = matcher(node_id, succs, preds)
        if motif is not None:
            return motif
    return None


def find_pair_for_node(dfg: DFG, node_id: int, available: set[int],
                       adjacency: Adjacency | None = None) -> Motif | None:
    """Find a two-node motif (single edge) containing ``node_id``."""
    if node_id not in available:
        return None
    succs, preds = (adjacency or Adjacency(dfg)).restrict(available)
    for dst in succs[node_id]:
        return Motif(MotifKind.PAIR, (node_id, dst))
    for src in preds[node_id]:
        return Motif(MotifKind.PAIR, (src, node_id))
    return None


def match_kind(dfg: DFG, nodes: Iterable[int]) -> MotifKind | None:
    """Classify the sub-DFG induced by three nodes as a motif kind.

    Returns the kind whose pattern edges are a subset of the present
    distance-0 edges (acyclic triangles classify as the basic motif they
    extend, per Section 3.2); None if no basic motif fits.
    """
    members = tuple(nodes)
    present = {
        (edge.src, edge.dst)
        for edge in dfg.subgraph_edges(members)
        if edge.distance == 0 and not edge.is_ordering
    }
    if len(members) == 2:
        a, b = members
        if (a, b) in present:
            return MotifKind.PAIR
        if (b, a) in present:
            return MotifKind.PAIR
        return None
    if len(members) != 3:
        return None
    import itertools
    # Try every role assignment; prefer UNICAST (covers 2 edges in a chain),
    # then FAN_IN / FAN_OUT.
    for kind in (MotifKind.UNICAST, MotifKind.FAN_IN, MotifKind.FAN_OUT):
        from repro.motifs.types import PATTERN_EDGES
        for perm in itertools.permutations(members):
            needed = {
                (perm[src_role], perm[dst_role])
                for src_role, dst_role in PATTERN_EDGES[kind]
            }
            if needed <= present:
                return kind
    return None
