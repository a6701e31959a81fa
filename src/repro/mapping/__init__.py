"""Mappers: modulo-scheduled placement and routing of DFGs onto CGRAs.

Three mappers target the time-extended fabrics (spatio-temporal and Plaid):

* :class:`~repro.mapping.pathfinder.PathFinderMapper` — negotiated
  congestion routing (McMurchie–Ebeling), adapted for CGRAs as in Morpher;
* :class:`~repro.mapping.annealing.SimulatedAnnealingMapper` — joint
  placement/routing annealing (CGRA-ME style);
* :class:`~repro.mapping.plaid_mapper.PlaidMapper` — the paper's
  Algorithm 2: hierarchical, motif-aware mapping with flexible schedule
  templates.

The spatial CGRA uses :class:`~repro.mapping.spatial_mapper.SpatialMapper`,
which partitions the DFG into fixed-configuration phases with SPM spills.

All temporal mappers are per-II strategies run by the shared
:func:`~repro.mapping.engine.search` driver (II escalation, restart
budgeting, attempt accounting); every mapper self-registers
with the :mod:`repro.mapping.engine` registry, which is the single source
of truth for mapper keys across the harness, CLI, and benchmarks.
"""

from repro.mapping.mii import minimum_ii, resource_mii
from repro.mapping.base import CandidateStats, Mapping, MappingStats
from repro.mapping.engine import (
    MapperInfo, MapperStrategy, available_mappers, get_mapper, map_kernel,
    register_mapper, select_winner,
)
from repro.mapping.router import (
    route_edge, route_edge_reference, min_transport_latency,
)
from repro.mapping.routecore import RouteCore, RoutingHistory, route_core_for
from repro.mapping.pathfinder import PathFinderMapper
from repro.mapping.annealing import SimulatedAnnealingMapper
from repro.mapping.greedy import GreedyRepairMapper
from repro.mapping.plaid_mapper import PlaidMapper
from repro.mapping.spatial_mapper import SpatialMapper, SpatialMapping

__all__ = [
    "CandidateStats",
    "GreedyRepairMapper",
    "MapperInfo",
    "MapperStrategy",
    "Mapping",
    "MappingStats",
    "PathFinderMapper",
    "PlaidMapper",
    "SimulatedAnnealingMapper",
    "SpatialMapper",
    "SpatialMapping",
    "available_mappers",
    "get_mapper",
    "map_kernel",
    "min_transport_latency",
    "minimum_ii",
    "register_mapper",
    "resource_mii",
    "route_core_for",
    "route_edge",
    "route_edge_reference",
    "RouteCore",
    "RoutingHistory",
    "select_winner",
]
