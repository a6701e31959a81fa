"""Algorithm 1: motif generation.

Greedy seeding followed by iterative "break one motif, re-grow from
standalone nodes" refinement, exactly as the paper describes:

    1  Generate the initial motifs greedily;
    2  while the motif number increases do
    3      Randomly break down one motif;
    4      Randomly sort standalone nodes;
    5      foreach standalone node do
    6          if find a motif pattern with this node then
    7              Generate the motif and update standalone nodes;

The loop also stops when the number of motifs exceeds the number of
standalone nodes (to keep both the motif compute unit and the ALSU busy).
Finally, motifs that close a distance-0 cycle between groups (a motif
whose output feeds, through other groups, back into one of its own
inputs) are dissolved: such a decomposition has no dependency order, so
no mapper could place its motifs as units.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.ir.analysis import topological_order
from repro.ir.graph import DFG
from repro.motifs.patterns import (
    Adjacency, find_motif_for_node, find_pair_for_node,
)
from repro.motifs.types import Motif, MotifKind
from repro.utils.rng import make_rng

#: Refinement rounds without improvement before Algorithm 1 stops.
MAX_ROUNDS = 40


@dataclass
class MotifGenerationResult:
    """Outcome of Algorithm 1 on one DFG."""

    dfg: DFG
    motifs: list[Motif] = field(default_factory=list)
    standalone: list[int] = field(default_factory=list)   # compute node ids
    rounds: int = 0

    @property
    def covered_nodes(self) -> set[int]:
        """Compute nodes inside three-node motifs."""
        return {
            node_id for motif in self.motifs if motif.size == 3
            for node_id in motif.nodes
        }

    @property
    def collective_nodes(self) -> set[int]:
        """Compute nodes inside any collective motif (size >= 2)."""
        return {
            node_id for motif in self.motifs if motif.is_collective
            for node_id in motif.nodes
        }

    @property
    def coverage(self) -> float:
        """Fraction of compute nodes covered by three-node motifs."""
        compute = len(self.dfg.compute_nodes)
        if compute == 0:
            return 0.0
        return len(self.covered_nodes) / compute

    def kind_histogram(self) -> dict[MotifKind, int]:
        histogram: dict[MotifKind, int] = {}
        for motif in self.motifs:
            histogram[motif.kind] = histogram.get(motif.kind, 0) + 1
        return histogram

    def validate(self) -> None:
        """Motifs are node-disjoint, well-patterned, and with the
        standalone list they partition the compute nodes."""
        seen: set[int] = set()
        for motif in self.motifs:
            motif.validate_against(self.dfg)
            for node_id in motif.nodes:
                if node_id in seen:
                    raise AssertionError(f"node {node_id} in two motifs")
                seen.add(node_id)
        compute_ids = {node.node_id for node in self.dfg.compute_nodes}
        if seen | set(self.standalone) != compute_ids:
            raise AssertionError("motifs + standalone != compute nodes")
        if seen & set(self.standalone):
            raise AssertionError("standalone node also inside a motif")


def group_cycle(dfg: DFG, node_to_group: dict[int, int]) -> list[int] | None:
    """Groups on one distance-0 dependence cycle of the quotient graph.

    ``node_to_group`` maps node ids to group ids; nodes it omits are
    their own groups.  Edges follow :meth:`HierarchicalDFG.group_dependencies`
    (distance-0 data edges between different groups).  Returns ``None``
    when the quotient graph is acyclic.
    """
    def group(node_id: int) -> tuple[int, int]:
        if node_id in node_to_group:
            return (0, node_to_group[node_id])
        return (1, node_id)

    preds: dict[tuple[int, int], set[tuple[int, int]]] = {}
    succs: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for edge in dfg.data_edges:
        src, dst = group(edge.src), group(edge.dst)
        if edge.distance == 0 and src != dst:
            preds.setdefault(dst, set()).add(src)
            succs.setdefault(src, set()).add(dst)
    # Peel groups without predecessors, then groups without successors;
    # whatever survives both lies between cycles.
    live = set(preds) | set(succs)
    for incoming in (preds, succs):
        ready = [g for g in live if not incoming.get(g, set()) & live]
        while ready:
            current = ready.pop()
            live.discard(current)
            outgoing = succs if incoming is preds else preds
            for nxt in outgoing.get(current, ()):
                if nxt in live and not incoming[nxt] & live:
                    ready.append(nxt)
    if not live:
        return None
    # Every survivor has a surviving predecessor: walk them to a repeat.
    path: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    current = min(live)
    while current not in seen:
        seen[current] = len(path)
        path.append(current)
        current = min(preds[current] & live)
    cycle = path[seen[current]:]
    return [gid for kind, gid in cycle if kind == 0]


def _dissolve_cyclic_motifs(dfg: DFG, motifs: list[Motif],
                            available: set[int]) -> None:
    """Break distance-0 cycles between groups by dissolving motifs.

    The latest-generated motif on each cycle returns its nodes to
    ``available``; repeats until the quotient graph is acyclic.  Mutates
    both arguments.
    """
    while True:
        node_to_group = {
            node_id: index for index, motif in enumerate(motifs)
            for node_id in motif.nodes
        }
        cycle = group_cycle(dfg, node_to_group)
        if cycle is None:
            return
        victim = motifs.pop(max(cycle))
        available.update(victim.nodes)


def _greedy_pass(dfg: DFG, adjacency: Adjacency, available: set[int],
                 order: list[int]) -> list[Motif]:
    """Claim three-node motifs walking ``order``; mutates ``available``."""
    found: list[Motif] = []
    for node_id in order:
        if node_id not in available:
            continue
        motif = find_motif_for_node(dfg, node_id, available, adjacency)
        if motif is not None:
            found.append(motif)
            available.difference_update(motif.nodes)
    return found


def generate_motifs(dfg: DFG, seed: int | random.Random | None = None
                    ) -> MotifGenerationResult:
    """Run Algorithm 1 on ``dfg`` and return the best decomposition found.

    Leftover standalone neighbours are then grouped into two-node motifs
    (the paper executes two-node motifs on the motif compute unit as
    well).

    Args:
        dfg: the dataflow graph (only compute nodes participate).
        seed: RNG seed (or generator) for the break/regenerate phase.
    """
    rng = make_rng(seed)
    compute_ids = [node.node_id for node in dfg.compute_nodes]
    is_compute = set(compute_ids)
    topo = [nid for nid in topological_order(dfg) if nid in is_compute]
    adjacency = Adjacency(dfg)

    # Line 1: greedy initial generation in topological order.
    available = set(compute_ids)
    motifs = _greedy_pass(dfg, adjacency, available, topo)

    best_motifs = list(motifs)
    best_available = set(available)
    rounds = 0
    # Lines 2-7: iterative deconstruction and regeneration.
    stall = 0
    while stall < MAX_ROUNDS:
        rounds += 1
        if not motifs:
            break
        working = list(motifs)
        working_available = set(available)
        # Line 3: randomly break down one motif.
        victim = rng.randrange(len(working))
        broken = working.pop(victim)
        working_available.update(broken.nodes)
        # Line 4: randomly sort standalone nodes.
        standalone = list(working_available)
        rng.shuffle(standalone)
        # Lines 5-7: regrow from standalone seeds.
        working.extend(
            _greedy_pass(dfg, adjacency, working_available, standalone))
        improved = (
            len(working) > len(best_motifs)
            or (len(working) == len(best_motifs)
                and len(working_available) < len(best_available))
        )
        if improved:
            best_motifs = list(working)
            best_available = set(working_available)
            stall = 0
        else:
            stall += 1
        motifs, available = working, working_available
        # Stop when motifs outnumber standalone nodes (utilization of the
        # motif compute unit and ALSU is already ensured).
        if len(best_motifs) > len(best_available):
            break

    motifs = best_motifs
    available = best_available

    # Group leftover neighbours into two-node motifs.
    for node_id in sorted(available):
        if node_id not in available:
            continue
        pair = find_pair_for_node(dfg, node_id, available, adjacency)
        if pair is not None:
            motifs.append(pair)
            available.difference_update(pair.nodes)

    _dissolve_cyclic_motifs(dfg, motifs, available)

    result = MotifGenerationResult(
        dfg=dfg,
        motifs=motifs,
        standalone=sorted(available),
        rounds=rounds,
    )
    result.validate()
    return result
