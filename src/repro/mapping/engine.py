"""The unified mapping engine: registry, II-search driver, MRRG pool.

Every temporal mapper in this package used to hand-roll the same outer
machinery: create an RNG from its seed, compute the minimum II, escalate
``ii`` towards the config-memory limit with a per-II restart budget,
count attempts, time the whole search, and rebuild an MRRG from scratch
for every attempt.  This module owns all of that once, in three layers:

* **Mapper registry** — :func:`register_mapper` / :func:`get_mapper` /
  :func:`available_mappers` are the single source of truth for mapper
  keys.  The evaluation harness, the ``repro sweep --mapper`` flag, the
  ``repro mappers`` listing, and the mapping-time benchmark all consult
  the registry; adding a mapper is one strategy class plus one
  ``register_mapper`` call.  Composite entries (``best``) name candidate
  keys, run them back to back and keep the candidate with the fewest
  total cycles, matching the paper's baseline methodology.

* **II-search driver** — :meth:`MappingEngine.search` runs a
  :class:`MapperStrategy` through the shared escalation loop:
  ``minimum_ii -> ii_limit`` outer loop, a strategy-declared number of
  restarts per II, attempt accounting, and wall-clock stats.  Mapper
  classes shrink to per-II strategies (:meth:`MapperStrategy.attempt_ii`)
  and inherit ``map()`` from the base class.

* **MRRG pool** — :class:`MRRGPool` recycles
  :class:`~repro.arch.mrrg.MRRG` instances keyed by
  ``(architecture structural signature, II)``.  Strategies draw "fresh"
  graphs from an :class:`MRRGLease`; the pool satisfies each request by
  resetting a pooled instance in place instead of reconstructing it.
  The contract (enforced by ``tests/test_mapping_engine.py``) is that a
  reset MRRG is *indistinguishable from a reconstruction*: pooled and
  unpooled searches produce bit-identical placements, routes, IIs, and
  stats.  The pool also benefits from the per-fabric flattened
  adjacency/latency tables (:func:`repro.mapping.router.router_adjacency`,
  :func:`repro.mapping.router.transport_latency_table`) that keep the
  router hot path allocation-free.

The pool is per-process (sweep workers each build their own) and not
thread-safe; all mapping in this package is process-parallel only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.arch.base import Architecture
from repro.arch.mrrg import MRRG
from repro.errors import MappingError, ReproError
from repro.ir.graph import DFG
from repro.mapping import routecore
from repro.mapping.base import CandidateStats, Mapping, MappingStats
from repro.mapping.mii import minimum_ii
from repro.utils.rng import make_rng
from repro.utils.signature import arch_structural_key

__all__ = [
    "MapperInfo", "MapperStrategy", "MappingEngine", "MRRGLease",
    "MRRGPool", "PoolStats", "available_mappers", "default_engine",
    "default_pool", "get_mapper", "map_kernel", "register_mapper",
    "select_winner",
]


# ---------------------------------------------------------------------------
# MRRG pool
# ---------------------------------------------------------------------------
@dataclass
class PoolStats:
    """Reuse accounting for one :class:`MRRGPool`."""

    created: int = 0            # MRRGs constructed from scratch
    adopted: int = 0            # pooled instances picked up by a lease
    resets: int = 0             # in-place resets serving a fresh() call

    def reset(self) -> None:
        self.created = self.adopted = self.resets = 0


class MRRGPool:
    """Recycles MRRG instances keyed by (arch structural signature, II).

    Structural keying (:func:`repro.utils.signature.arch_structural_key`)
    makes two separately built but identical fabrics share a pool slot: a
    pooled MRRG may reference an older — structurally equal — arch
    instance, which is observationally identical for mapping.  Instances
    handed back by a lease are reset before reuse; ``max_free_per_key``
    bounds retained memory.
    """

    def __init__(self, max_free_per_key: int = 2) -> None:
        self._free: dict[tuple[str, int], list[MRRG]] = {}
        self.max_free_per_key = max_free_per_key
        self.stats = PoolStats()

    def acquire(self, arch: Architecture, ii: int) -> MRRG:
        """A reset MRRG for (arch, ii) — pooled when available."""
        key = (arch_structural_key(arch), ii)
        free = self._free.get(key)
        if free:
            mrrg = free.pop()
            mrrg.reset()
            self.stats.adopted += 1
            return mrrg
        self.stats.created += 1
        return MRRG(arch, ii)

    def release(self, arch: Architecture, ii: int, mrrg: MRRG) -> None:
        """Return an MRRG for later reuse (dropped beyond the bound)."""
        key = (arch_structural_key(arch), ii)
        free = self._free.setdefault(key, [])
        if len(free) < self.max_free_per_key:
            free.append(mrrg)

    def clear(self) -> None:
        self._free.clear()
        self.stats.reset()


class MRRGLease:
    """Hands a strategy "fresh" MRRGs for one (arch, II) search window.

    ``fresh()`` replaces every ``MRRG(arch, ii)`` construction inside a
    mapper: with a pool it reuses one instance, resetting it in place per
    request; without a pool (``pool=None``) it constructs a brand-new
    MRRG every time — the reference behaviour the pooled path must match
    bit for bit.  Strategies never need two live MRRGs at once, so a
    single recycled instance per lease suffices.
    """

    def __init__(self, pool: MRRGPool | None, arch: Architecture,
                 ii: int) -> None:
        self.pool = pool
        self.arch = arch
        self.ii = ii
        self._mrrg: MRRG | None = None

    def fresh(self) -> MRRG:
        if self.pool is None:
            mrrg = MRRG(self.arch, self.ii)
        elif self._mrrg is None:
            mrrg = self._mrrg = self.pool.acquire(self.arch, self.ii)
        else:
            mrrg = self._mrrg
            mrrg.reset()
            self.pool.stats.resets += 1
        return mrrg

    def release(self) -> None:
        """Hand the recycled instance back to the pool (lease is done).

        Safe because a finished :class:`~repro.mapping.base.Mapping`
        copies its placement/route dicts and never references the MRRG.
        """
        if self.pool is not None and self._mrrg is not None:
            self.pool.release(self.arch, self.ii, self._mrrg)
            self._mrrg = None


# ---------------------------------------------------------------------------
# Strategy protocol + II-search driver
# ---------------------------------------------------------------------------
class MapperStrategy:
    """Base class for per-II mapping strategies.

    Subclasses provide :meth:`attempt_ii` (one restart at one II, drawing
    MRRGs from the lease) and may override :meth:`prepare` (per-search
    setup such as Plaid's hierarchy decomposition — runs *before* the II
    loop) and :meth:`attempts_per_ii` (the restart budget).  ``map()`` is
    inherited: it routes through the shared :func:`default_engine`.
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
                   restart: int, rng, lease: MRRGLease,
                   context) -> Mapping | None:
        raise NotImplementedError

    def map(self, dfg: DFG, arch: Architecture, **prepare_kwargs) -> Mapping:
        """Map ``dfg`` onto ``arch``; raises :class:`MappingError` when no
        II up to the config-memory limit admits a mapping."""
        return default_engine().search(dfg, arch, self, **prepare_kwargs)


class MappingEngine:
    """The shared II-escalation driver all temporal mappers run through.

    Owns the ``minimum_ii -> ii_limit`` loop, per-II restart budgeting,
    attempt accounting, wall-clock stats, and MRRG leasing.  Construct
    with ``pool=None`` to disable pooling (every ``lease.fresh()`` then
    reconstructs) — results are identical either way.
    """

    def __init__(self, pool: MRRGPool | None = None) -> None:
        self.pool = pool

    def search(self, dfg: DFG, arch: Architecture,
               strategy: MapperStrategy, **prepare_kwargs) -> Mapping:
        start_time = time.perf_counter()
        failures_before = routecore.ROUTING.failures
        rng = make_rng(strategy.seed)
        context = strategy.prepare(dfg, arch, rng, **prepare_kwargs)
        mii = minimum_ii(dfg, arch)
        ii_limit = strategy.max_ii or arch.config_entries
        attempts = 0
        for ii in range(mii, ii_limit + 1):
            lease = MRRGLease(self.pool, arch, ii)
            try:
                for restart in range(strategy.attempts_per_ii(ii, context)):
                    attempts += 1
                    mapping = strategy.attempt_ii(
                        dfg, arch, ii, restart, rng, lease, context)
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
            finally:
                lease.release()
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
    outcomes = []
    for order, key in enumerate(info.candidates):
        try:
            mapping = map_kernel(key, dfg, arch, seed_for)
        except MappingError as failure:
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
            f"no baseline mapper could map '{dfg.name}' on {arch.name}"
        )
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
# Process-wide default engine
# ---------------------------------------------------------------------------
_DEFAULT_POOL = MRRGPool()
_DEFAULT_ENGINE = MappingEngine(pool=_DEFAULT_POOL)


def default_engine() -> MappingEngine:
    """The pooled engine ``MapperStrategy.map`` routes through."""
    return _DEFAULT_ENGINE


def default_pool() -> MRRGPool:
    """The process-wide MRRG pool (benchmarks read its stats)."""
    return _DEFAULT_POOL
