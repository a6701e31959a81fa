"""The unified mapping engine: registry and II-search driver.

Every temporal mapper in this package used to hand-roll the same outer
machinery: create an RNG from its seed, compute the minimum II, escalate
``ii`` towards the config-memory limit with a per-II restart budget,
count attempts, and time the whole search.  This module owns all of that
once, in two layers:

* **Mapper registry** — :func:`register_mapper` / :func:`get_mapper` /
  :func:`available_mappers` are the single source of truth for mapper
  keys.  The evaluation harness, the ``repro sweep --mapper`` flag, the
  ``repro mappers`` listing, and the mapping-time benchmark all consult
  the registry; adding a mapper is one strategy class plus one
  ``register_mapper`` call.  Composite entries (``best``) name candidate
  keys, run them back to back and keep the candidate with the fewest
  total cycles, matching the paper's baseline methodology.

* **II-search driver** — :func:`search` runs a :class:`MapperStrategy`
  through the shared escalation loop: ``minimum_ii -> ii_limit`` outer
  loop, a strategy-declared number of restarts per II, attempt
  accounting, and wall-clock stats.  Mapper classes shrink to per-II
  strategies (:meth:`MapperStrategy.attempt_ii`) and inherit ``map()``
  from the base class.

Strategies build each :class:`~repro.arch.mrrg.MRRG` they need with
``MRRG(arch, ii)``: a graph is a handful of flat arrays, and everything
invariant per fabric (resource ids, router adjacency, transport
latencies, compiled route cores) is memoized on the architecture
instance, so construction is cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from repro.arch.base import Architecture
from repro.errors import MappingError, ReproError
from repro.ir.graph import DFG
from repro.mapping import routecore
from repro.mapping.base import CandidateStats, Mapping, MappingStats
from repro.mapping.mii import minimum_ii
from repro.utils.rng import make_rng

__all__ = [
    "MapperInfo", "MapperStrategy", "available_mappers", "default_pool",
    "get_mapper", "map_kernel", "register_mapper", "search",
    "select_winner",
]


# ---------------------------------------------------------------------------
# Strategy protocol + II-search driver
# ---------------------------------------------------------------------------
class MapperStrategy:
    """Base class for per-II mapping strategies.

    Subclasses provide :meth:`attempt_ii` (one restart at one II) and may
    override :meth:`prepare` (per-search setup such as Plaid's hierarchy
    decomposition — runs *before* the II loop) and
    :meth:`attempts_per_ii` (the restart budget).  ``map()`` is
    inherited: it runs the shared :func:`search`.
    """

    name = "mapper"
    #: Human-facing label used in the "could not map" error.
    failure_label = "mapper"
    seed: int | None = None
    max_ii: int | None = None

    def prepare(self, dfg: DFG, arch: Architecture, rng, **kwargs):
        """Per-search context built once before the II escalation."""
        return None

    def attempts_per_ii(self, ii: int, context) -> int:
        """Restart budget at one II (strategies override as needed)."""
        return 1

    def attempt_ii(self, dfg: DFG, arch: Architecture, ii: int,
                   restart: int, rng, context) -> Mapping | None:
        raise NotImplementedError

    def map(self, dfg: DFG, arch: Architecture, **prepare_kwargs) -> Mapping:
        """Map ``dfg`` onto ``arch``; raises :class:`MappingError` when no
        II up to the config-memory limit admits a mapping."""
        return search(dfg, arch, self, **prepare_kwargs)


def search(dfg: DFG, arch: Architecture, strategy: MapperStrategy,
           **prepare_kwargs) -> Mapping:
    """The shared II escalation all temporal mappers run through.

    Tries ``strategy.attempts_per_ii(ii)`` restarts at each II from the
    minimum II up to the config-memory depth (or ``strategy.max_ii``,
    whichever is lower), and stamps the first mapping found with
    :class:`MappingStats`.  A ``spatial`` fabric raises
    :class:`MappingError` once ``strategy.prepare`` has run.
    """
    start_time = time.perf_counter()
    failures_before = routecore.ROUTING.failures
    rng = make_rng(strategy.seed)
    context = strategy.prepare(dfg, arch, rng, **prepare_kwargs)
    if arch.style == "spatial":
        # The spatial fabric runs phases of one fixed configuration
        # each, which only the spatial mapper builds.  Refused at every
        # II, 1 included, so one rule says which mapper fits it.
        raise MappingError(
            f"{strategy.failure_label} time-multiplexes its fabric; "
            f"{arch.name} is a fixed-configuration spatial fabric "
            "(map it with the 'spatial' mapper)")
    mii = minimum_ii(dfg, arch)
    ii_limit = min(strategy.max_ii or arch.config_entries,
                   arch.config_entries)
    attempts = 0
    for ii in range(mii, ii_limit + 1):
        for restart in range(strategy.attempts_per_ii(ii, context)):
            attempts += 1
            mapping = strategy.attempt_ii(dfg, arch, ii, restart, rng,
                                          context)
            if mapping is not None:
                mapping.stats = MappingStats(
                    mapper=strategy.name,
                    attempts=attempts,
                    routed_edges=len(mapping.routes),
                    bypass_edges=sum(
                        1 for route in mapping.routes.values()
                        if route.bypass),
                    transport_steps=sum(
                        len(route.steps)
                        for route in mapping.routes.values()),
                    routing_failures=routecore.ROUTING.failures
                    - failures_before,
                    seconds=time.perf_counter() - start_time,
                )
                return mapping
    failures = routecore.ROUTING.failures - failures_before
    detail = f" ({failures} edge-routing attempts failed)" \
        if failures else ""
    error = MappingError(
        f"{strategy.failure_label} could not map '{dfg.name}' on "
        f"{arch.name} within II <= {ii_limit}{detail}"
    )
    # Per-candidate aggregation for the composite driver: how much
    # work the exhausted search burned (attribute-only — the message
    # and type are unchanged for every existing caller).
    error.attempts = attempts
    error.seconds = time.perf_counter() - start_time
    raise error


# ---------------------------------------------------------------------------
# Mapper registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MapperInfo:
    """One registry entry.

    ``kind`` is ``"temporal"`` (modulo-scheduling strategies),
    ``"spatial"`` (phase-partitioned fabrics), or ``"composite"``
    (selects among ``candidates`` — no factory of its own).
    """

    key: str
    kind: str
    description: str
    factory: Callable[..., object] | None = None
    candidates: tuple[str, ...] = ()

    def make(self, seed: int | None = None):
        """Instantiate the mapper with a seed."""
        if self.factory is None:
            raise ReproError(
                f"mapper '{self.key}' is composite over "
                f"{list(self.candidates)}; use map_kernel() to run it"
            )
        return self.factory(seed=seed)


_REGISTRY: dict[str, MapperInfo] = {}


def register_mapper(key: str, factory: Callable[..., object] | None = None,
                    *, kind: str = "temporal", description: str = "",
                    candidates: tuple[str, ...] = ()) -> MapperInfo:
    """Register (or replace) a mapper under ``key``.

    Mapper modules self-register at import time, so re-registration is
    idempotent by design (module reloads must not crash).
    """
    info = MapperInfo(key=key, kind=kind, description=description,
                      factory=factory, candidates=tuple(candidates))
    _REGISTRY[key] = info
    return info


def get_mapper(key: str) -> MapperInfo:
    """Registry lookup; raises :class:`ReproError` for unknown keys."""
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ReproError(
            f"unknown mapper key '{key}' (registered: {known})"
        ) from None


def available_mappers(kind: str | None = None) -> list[MapperInfo]:
    """Every registered mapper, sorted by key (optionally one kind)."""
    infos = sorted(_REGISTRY.values(), key=lambda info: info.key)
    if kind is not None:
        infos = [info for info in infos if info.kind == kind]
    return infos


def select_winner(entries):
    """The composite selection rule.

    ``entries`` are ``(candidate order, Mapping)`` pairs; the winner is
    the minimum by **(total cycles, candidate order)** — fewest total
    cycles first, ties broken by position in the registry's candidate
    tuple (first listed wins).  Returns ``None`` for no entries.
    """
    best = None
    for order, mapping in entries:
        rank = (mapping.total_cycles(), order)
        if best is None or rank < best[0]:
            best = (rank, mapping)
    return best[1] if best is not None else None


def map_kernel(mapper_key: str, dfg: DFG, arch: Architecture,
               seed_for: Callable[[str], int | None] = lambda key: None):
    """Map ``dfg`` with the registered mapper ``mapper_key``.

    ``seed_for(key)`` supplies the seed per mapper key — composites run
    each candidate with the seed its standalone evaluation would use, so
    ``best`` is exactly min over the individual mapper results (and
    never worse than either of them).  The winner of a composite is
    chosen by :func:`select_winner`.
    """
    info = get_mapper(mapper_key)
    if info.kind == "composite":
        return _run_composite(info, dfg, arch, seed_for)
    return info.make(seed=seed_for(mapper_key)).map(dfg, arch)


def _run_composite(info: MapperInfo, dfg: DFG, arch: Architecture,
                   seed_for) -> Mapping:
    """Run every candidate to completion, in registry order, and keep
    the :func:`select_winner` pick; the winner's ``stats.candidates``
    records one :class:`CandidateStats` per candidate.

    Candidates run through the module-level :func:`map_kernel` name, so
    a wrapper patched over it sees each candidate mapping.
    """
    outcomes, reasons = [], []
    for order, key in enumerate(info.candidates):
        try:
            mapping = map_kernel(key, dfg, arch, seed_for)
        except MappingError as failure:
            reasons.append(f"{key}: {failure}")
            outcomes.append((order, None, CandidateStats(
                key=key, outcome="failed",
                attempts=getattr(failure, "attempts", 0),
                seconds=getattr(failure, "seconds", 0.0))))
            continue
        outcomes.append((order, mapping, CandidateStats(
            key=key, outcome="lost", ii=mapping.ii,
            total_cycles=mapping.total_cycles(),
            attempts=mapping.stats.attempts,
            seconds=mapping.stats.seconds)))
    winner = select_winner(
        (order, mapping) for order, mapping, _ in outcomes
        if mapping is not None)
    if winner is None:
        raise MappingError(
            f"no baseline mapper could map '{dfg.name}' on {arch.name} "
            f"({'; '.join(reasons)})")
    for _, mapping, stats in outcomes:
        if mapping is winner:
            stats.outcome = "won"
    winner.stats.candidates = [stats for _, _, stats in outcomes]
    return winner


#: The paper's baseline methodology for spatio-temporal fabrics: map with
#: both generic mappers, keep the higher-performing result.
register_mapper(
    "best", kind="composite", candidates=("pathfinder", "sa"),
    description="better of pathfinder/sa (paper baseline methodology)",
)

#: An alias of ``best``: result-store entries are keyed by mapper name,
#: so existing ``race`` entries and ``--mapper race`` invocations must
#: keep resolving.
register_mapper(
    "race", kind="composite", candidates=("pathfinder", "sa"),
    description="alias of 'best' (kept for existing stores and scripts)",
)


# ---------------------------------------------------------------------------
# Benchmark compatibility
# ---------------------------------------------------------------------------
_NO_POOL = SimpleNamespace(clear=lambda: None)


def default_pool() -> SimpleNamespace:
    """A no-op stub kept for ``perfbench/worker.py``, which calls
    ``engine.default_pool().clear()`` before every grid pass.  Mapping
    keeps no pooled state, so ``clear()`` does nothing."""
    return _NO_POOL
