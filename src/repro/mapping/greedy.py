"""Greedy place-and-route with annealing repair, motif-blind.

This is Algorithm 2's search engine run over a *singleton* hierarchy
(every node its own group).  It is strictly more capable than the classic
random-move SA baseline and is offered as this library's own mapper for
non-Plaid fabrics; the paper-faithful baselines remain
:class:`~repro.mapping.pathfinder.PathFinderMapper` and
:class:`~repro.mapping.annealing.SimulatedAnnealingMapper`.

The II escalation, restart budgeting, and stats live in the shared
:func:`~repro.mapping.engine.search` driver.
"""

from __future__ import annotations

from repro.arch.base import Architecture
from repro.ir.graph import DFG
from repro.mapping.base import Mapping
from repro.mapping.engine import MapperStrategy, register_mapper


class GreedyRepairMapper(MapperStrategy):
    """Dependency-ordered greedy placement with Metropolis repair."""

    name = "greedy"
    failure_label = "greedy mapper"
    #: Repair moves per attempt, starting temperature, cooling per move,
    #: and attempts per II.
    MOVES_PER_II = 1200
    START_TEMP = 8.0
    COOLING = 0.995
    RESTARTS = 2

    def __init__(self, max_ii: int | None = None,
                 seed: int | None = None) -> None:
        self.max_ii = max_ii
        self.seed = seed

    def prepare(self, dfg: DFG, arch: Architecture, rng, **kwargs):
        from repro.mapping.plaid_mapper import singleton_hierarchy

        return singleton_hierarchy(dfg)

    def attempts_per_ii(self, ii: int, context) -> int:
        return self.RESTARTS

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng, context) -> Mapping | None:
        from repro.mapping.plaid_mapper import _State, solve_state

        state = _State(dfg, arch, context, ii, None, rng)
        return solve_state(state, self.MOVES_PER_II, self.START_TEMP,
                           self.COOLING)


register_mapper(
    "greedy", GreedyRepairMapper,
    description="motif-blind greedy placement with Metropolis repair "
                "(Algorithm 2 over a singleton hierarchy)",
)
