"""The cached evaluation pipeline: workload x architecture x mapper.

``evaluate_kernel(workload, arch_key, mapper_key)`` maps the workload,
derives cycles over the full iteration space (performance is deterministic
at compile time, as the paper notes), extracts activity statistics, and
prices power/energy/area.  Results are memoized per process and — when a
persistent store is active (``configure_store`` or ``$REPRO_CACHE_DIR``)
— shared across processes and runs through
:class:`repro.eval.cache.ResultStore`, so every benchmark, experiment and
sweep worker pays for each configuration exactly once.  It is
:func:`lookup`, the one cache cascade, followed on a miss by
:func:`compute_kernel`; serial sweeps, pooled sweeps and the result
service call the two steps apart, so each cell is looked up once.

Baseline methodology follows the paper: the spatio-temporal baselines are
mapped with both PathFinder and simulated annealing and the better result
is kept ("We use two mappers for these baselines and select the one with
higher performance") — the ``best`` composite entry of the mapper
registry.  Mapper dispatch goes through :mod:`repro.mapping.engine`: the
registry is the single source of truth for mapper keys, so adding a
mapper never touches this module.  Mapper seeds come from a *stable*
digest of the configuration (not the per-process-salted builtin
``hash``), so results are bit-identical across processes — the property
the persistent store and the parallel sweep engine rely on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

from repro.arch.base import Architecture
from repro.arch.plaid import make_plaid
from repro.arch.spatial import make_spatial
from repro.arch.spatio_temporal import make_spatio_temporal
from repro.arch.specialize import make_plaid_ml, make_st_ml
from repro.errors import ReproError
from repro.eval import cache as result_cache
from repro.mapping import engine as mapping_engine
from repro.power.model import (
    ActivityFactors, AreaReport, PowerReport, activity_from_mapping,
    fabric_area, fabric_power,
)
from repro.power.report import energy_nj, perf_per_area
from repro.utils import signature
from repro.workloads.registry import get_dfg, get_workload

#: Fabric builder per architecture key.  The lambdas look the ``make_*``
#: builders up at call time, so wrapping them on this module wraps
#: every build.
_ARCH_BUILDERS = {
    "st": lambda: make_spatio_temporal(4, 4),
    "spatial": lambda: make_spatial(4, 4),
    "plaid": lambda: make_plaid(2, 2),
    "plaid3x3": lambda: make_plaid(3, 3),
    "st-ml": lambda: make_st_ml(4, 4),
    "plaid-ml": lambda: make_plaid_ml(2, 2),
}

#: Architecture keys the experiments, the CLI and the service accept.
ARCH_KEYS = tuple(_ARCH_BUILDERS)


#: Alias kept only because ``perfbench/tracing.py``, which stays fixed
#: between the commits it compares, wraps this name.
activity_from_spatial = activity_from_mapping


def check_arch_key(key: str) -> str:
    """``key`` itself if :func:`build_arch` knows it; raises
    :class:`ReproError` otherwise."""
    if key not in _ARCH_BUILDERS:
        raise ReproError(f"unknown architecture key '{key}'")
    return key


@lru_cache(maxsize=None)
def build_arch(key: str) -> Architecture:
    """Architecture instance per key (cached: fabrics are immutable)."""
    return _ARCH_BUILDERS[check_arch_key(key)]()


@dataclass(frozen=True)
class KernelResult:
    """One (workload, architecture, mapper) evaluation."""

    workload: str
    arch_key: str
    mapper: str
    ii: int                     # steady-state cycles per iteration point(s)
    cycles: int                 # full iteration space
    makespan: int
    activity: ActivityFactors
    power: PowerReport
    area: AreaReport
    energy: float               # nJ over the full run

    @property
    def perf_per_area(self) -> float:
        return perf_per_area(self.cycles, self.area)


def _seed_for(workload: str, arch_key: str, mapper_key: str,
              salt: int = 0) -> int:
    """Stable mapper seed for one configuration.

    Deliberately *not* the builtin ``hash``: string hashing is salted per
    process (``PYTHONHASHSEED``), which would give every run and every
    sweep worker a different seed and make results uncacheable.  CRC-32
    of the key string is identical everywhere, forever.  A nonzero
    ``salt`` appends itself to the key, drawing an independent seed for
    seed-spread studies; salt 0 is the published seed.
    """
    key = f"{workload}\x1f{arch_key}\x1f{mapper_key}"
    if salt:
        key += f"\x1f{salt}"
    return (zlib.crc32(key.encode("utf-8")) & 0x7FFFFFFF) or 1


def default_mapper(arch_key: str) -> str:
    """The paper's methodology per architecture."""
    if arch_key.startswith("plaid"):
        return "plaid"
    if arch_key == "spatial":
        return "spatial"
    return "best"


@dataclass
class EvalStats:
    """Where this process's results came from."""

    computed: int = 0           # full map+price evaluations run here
    store_hits: int = 0         # served from the persistent store

    def reset(self) -> None:
        self.computed = self.store_hits = 0


#: In-process memo: (workload, arch_key, resolved mapper_key) -> result.
_MEMO: dict[tuple[str, str, str], KernelResult] = {}

#: Deterministic failures (mapping is seeded, so a failing configuration
#: fails identically every time) — memoized so sweeps and figures don't
#: re-run doomed mapping attempts.
_FAILED: dict[tuple[str, str, str], ReproError] = {}

#: Persistent layer; ``None`` with ``_STORE_RESOLVED`` means "disabled".
_STORE: result_cache.ResultStore | None = None
_STORE_RESOLVED = False

EVAL_STATS = EvalStats()

#: Seed salt of this process's evaluations (see :func:`set_seed_salt`).
_SALT = 0

#: Fingerprint memo: configs are immutable between clear_caches() calls
#: (build_arch is cached the same way), and sharding fingerprints whole
#: grids at once.  The fabric's signature text is
#: already memoized on its instance; this saves the workload signature
#: and the hashing on repeat lookups of one cell.
_FP_MEMO: dict[tuple[str, str, str], str] = {}


def seed_salt() -> int:
    """The seed salt evaluations in this process use (0 by default)."""
    return _SALT


def set_seed_salt(salt: int) -> int:
    """Evaluate with seeds drawn under ``salt`` from now on; returns the
    previous salt.

    The in-process memos hold one salt's results, so a change drops
    them.  The persistent store needs nothing: the seed is part of every
    fingerprint, so salted results never collide with published ones.
    """
    global _SALT
    previous = _SALT
    if salt != previous:
        _MEMO.clear()
        _FAILED.clear()
        _FP_MEMO.clear()
        _SALT = salt
    return previous


def configure_store(store: result_cache.ResultStore | str | None
                    ) -> result_cache.ResultStore | None:
    """Install the persistent result store (``None`` disables it).

    Accepts a ready :class:`ResultStore` or a directory path.  An
    explicit setting — including the explicit ``None`` — overrides the
    ``$REPRO_CACHE_DIR`` environment default until :func:`clear_caches`.
    """
    global _STORE, _STORE_RESOLVED
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = result_cache.ResultStore(store)
    _STORE = store
    _STORE_RESOLVED = True
    return _STORE


def active_store() -> result_cache.ResultStore | None:
    """The persistent store in effect (explicit beats environment)."""
    global _STORE, _STORE_RESOLVED
    if not _STORE_RESOLVED:
        _STORE = result_cache.default_store()
        _STORE_RESOLVED = True
    return _STORE


def resolve_mapper(arch_key: str, mapper_key: str | None) -> str:
    """Canonical mapper key (``None`` -> the paper's default)."""
    return mapper_key or default_mapper(arch_key)


def evaluation_fingerprint(workload: str, arch_key: str,
                           mapper_key: str | None = None) -> str:
    """Persistent-store key for one configuration."""
    mapper_key = resolve_mapper(arch_key, mapper_key)
    key = (workload, arch_key, mapper_key)
    cached = _FP_MEMO.get(key)
    if cached is not None:
        return cached
    seed = _seed_for(workload, arch_key, mapper_key, _SALT)
    fp = result_cache.fingerprint(
        get_workload(workload), build_arch(arch_key), mapper_key, seed)
    _FP_MEMO[key] = fp
    return fp


def try_fingerprint(workload: str, arch_key: str,
                    mapper_key: str | None = None) -> str | None:
    """:func:`evaluation_fingerprint`, tolerant of unresolvable cells.

    A grid may name an unknown workload or architecture (the sweep
    reports those as per-cell failures rather than refusing the run);
    such cells have no fingerprint — callers that key on fingerprints
    (shard assignment) get ``None`` and fall back to a digest of the raw
    cell key.
    """
    try:
        return evaluation_fingerprint(workload, arch_key, mapper_key)
    except ReproError:
        return None


def lookup(workload: str, arch_key: str, mapper_key: str | None = None,
           *, use_store: bool = True) -> "KernelResult | None":
    """The cached answer for one configuration, or ``None`` on a miss.

    The one cache cascade every evaluation path shares: the in-process
    memo, then the failure memo, then the persistent store (when one is
    active and ``use_store`` holds).  A stored result is also memoized.
    A memoized or stored failure is raised (a stored one is memoized
    first), as is the :class:`ReproError` of fingerprinting a cell whose
    workload or architecture is unknown, which is memoized the same way.
    """
    mapper_key = resolve_mapper(arch_key, mapper_key)
    key = (workload, arch_key, mapper_key)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    failed = _FAILED.get(key)
    if failed is not None:
        raise failed
    store = active_store() if use_store else None
    if store is None:
        return None
    try:
        stored = store.get(evaluation_fingerprint(*key))
    except ReproError as error:         # e.g. an unknown workload name
        _FAILED[key] = error
        raise
    if isinstance(stored, result_cache.CachedFailure):
        error = stored.to_error()
        EVAL_STATS.store_hits += 1
        _FAILED[key] = error
        raise error
    if stored is not None:
        EVAL_STATS.store_hits += 1
        _MEMO[key] = stored
    return stored


def evaluate_kernel(workload: str, arch_key: str,
                    mapper_key: str | None = None, *,
                    use_store: bool = True) -> KernelResult:
    """Map + price one workload on one architecture.

    :func:`lookup` first; on a miss, :func:`compute_kernel`.  Identical
    calls in one process return the same object.  ``use_store=False``
    (the sweep engine's ``--no-cache``) bypasses the persistent store
    both ways while keeping in-process memoization.
    """
    return lookup(workload, arch_key, mapper_key, use_store=use_store) \
        or compute_kernel(workload, arch_key, mapper_key,
                          use_store=use_store)


def compute_kernel(workload: str, arch_key: str,
                   mapper_key: str | None = None, *,
                   use_store: bool = True) -> KernelResult:
    """Evaluate one configuration without asking any cache layer, and
    write the result, or its deterministic failure, back to every
    enabled one.  Callers that may hold a cached answer run
    :func:`lookup` first."""
    mapper_key = resolve_mapper(arch_key, mapper_key)
    key = (workload, arch_key, mapper_key)
    store = active_store() if use_store else None
    fp = evaluation_fingerprint(*key) if store is not None else None
    try:
        result = _evaluate_uncached(*key)
    except ReproError as error:
        _FAILED[key] = error
        if store is not None:
            store.put_failure(fp, error)
        raise
    EVAL_STATS.computed += 1
    _MEMO[key] = result
    if store is not None:
        store.put(fp, result)
    return result


def map_cell(dfg, arch_key: str, mapper_key: str | None = None):
    """The mapping the sweep prices for ``dfg`` on ``arch_key``: the
    registry mapper (``None`` -> :func:`default_mapper`) under the
    stable seeds of ``dfg.name``, a registry DFG's workload name.  The
    one place that decides how a cell is mapped."""

    def seed_for(key: str) -> int:
        # Composites ("best") run each candidate with the seed its
        # standalone evaluation would use, so their result is exactly
        # min over the individual mapper results.
        return _seed_for(dfg.name, arch_key, key, _SALT)

    return mapping_engine.map_kernel(resolve_mapper(arch_key, mapper_key),
                                     dfg, build_arch(arch_key), seed_for)


def _evaluate_uncached(workload: str, arch_key: str,
                       mapper_key: str) -> KernelResult:
    """The actual pipeline: map, derive cycles, price power/energy/area."""
    arch = build_arch(arch_key)
    mapping = map_cell(get_dfg(workload), arch_key, mapper_key)
    cycles = mapping.total_cycles()
    activity = activity_from_mapping(mapping)
    power = fabric_power(arch, activity)
    area = fabric_area(arch)
    return KernelResult(
        workload=workload,
        arch_key=arch_key,
        mapper=mapper_key,
        ii=mapping.ii,
        cycles=cycles,
        makespan=mapping.makespan,
        activity=activity,
        power=power,
        area=area,
        energy=energy_nj(power, cycles),
    )


def simulate_kernel(dfg, arch_key: str, mapper_key: str | None = None, *,
                    iterations: int | None = 8, fill: int = 3,
                    trace=None):
    """Map ``dfg`` and run the cycle-accurate simulator (repro simulate).

    The mapping is :func:`map_cell`'s, the one the metrics pipeline
    prices; :func:`repro.sim.simulate_mapping` returns the shared
    :class:`~repro.sim.engine.SimulationReport` for every fabric style.
    """
    from repro.ir.interpreter import DFGInterpreter
    from repro.sim import simulate_mapping

    mapping = map_cell(dfg, arch_key, mapper_key)
    memory = DFGInterpreter(dfg).prepare_memory(fill=fill)
    return simulate_mapping(mapping, memory, iterations=iterations,
                            trace=trace)


def seed_memo(result: KernelResult) -> None:
    """Install an externally computed result (sweep workers hand results
    back to the parent through this)."""
    _MEMO[(result.workload, result.arch_key, result.mapper)] = result


def seed_failure(workload: str, arch_key: str, mapper_key: str,
                 error: ReproError) -> None:
    """Record a deterministic failure observed in a sweep worker."""
    _FAILED[(workload, arch_key, mapper_key)] = error


def clear_caches() -> None:
    """Drop memoized evaluations (tests that tweak parameters use this).

    Also detaches any configured persistent store and resets the seed
    salt, so tests can't leak a tmpdir store or a salt into each other.
    """
    global _STORE, _STORE_RESOLVED, _SALT
    _MEMO.clear()
    _FAILED.clear()
    _FP_MEMO.clear()
    _SALT = 0
    _STORE = None
    _STORE_RESOLVED = False
    EVAL_STATS.reset()
    build_arch.cache_clear()
    signature.clear_memos()
    result_cache.clear_memos()
    from repro.workloads import registry
    registry.clear_dfg_caches()   # variant expansion multiplies cached DFGs
