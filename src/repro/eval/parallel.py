"""Parallel sweep engine over the (workload x architecture x mapper) grid.

``run_sweep`` fans the evaluation grid out over a ``ProcessPoolExecutor``
with chunking, captures per-cell failures (one failing cell — a
:class:`MappingError` or any unexpected exception — must never kill a
90-cell sweep), and returns outcomes in deterministic grid order
regardless of worker scheduling.  Workers share the persistent
:class:`~repro.eval.cache.ResultStore` when one is active, so a sweep
both *uses* and *fills* the cross-process cache; results are also handed
back to the parent's in-process memo, which is how the experiment and
benchmark drivers pre-warm their grids.

Evaluations are deterministic (stable seeds, see
:func:`repro.eval.harness._seed_for`), so serial and parallel sweeps
produce bit-identical metrics — the regression suite in
``tests/test_parallel_sweep.py`` locks that down.  Mapping inside each
worker runs through the unified :mod:`repro.mapping.engine`: mapper keys
resolve via its registry (``--mapper`` accepts any registered key).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.eval import harness
from repro.eval.cache import CachedFailure, result_from_dict, result_to_dict

#: Environment knob: default worker count for prewarmed experiments.
JOBS_ENV = "REPRO_JOBS"

#: The grid the paper's main figures sweep (Table 2 workloads x the
#: three headline fabrics).
DEFAULT_ARCH_KEYS = ("st", "spatial", "plaid")


# ---------------------------------------------------------------------------
# Grid description
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepCell:
    """One point of the evaluation grid (mapper already resolved)."""

    workload: str
    arch_key: str
    mapper: str

    def key(self) -> tuple[str, str, str]:
        return (self.workload, self.arch_key, self.mapper)


@dataclass(frozen=True)
class CellOutcome:
    """Result or captured failure of one cell."""

    cell: SweepCell
    result: "harness.KernelResult | None" = None
    error: str | None = None
    error_type: str | None = None
    from_cache: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepReport:
    """Every cell's outcome, in grid order, plus sweep bookkeeping."""

    outcomes: list[CellOutcome]
    jobs: int
    seconds: float = 0.0
    evaluated: int = 0          # cells actually computed (not cache hits)
    cached: int = 0             # cells served from memo or store
    store_stats: dict = field(default_factory=dict)

    @property
    def results(self) -> list["harness.KernelResult"]:
        return [o.result for o in self.outcomes if o.result is not None]

    @property
    def failures(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        return (f"{len(self.outcomes)} cells: {self.evaluated} evaluated, "
                f"{self.cached} from cache, {len(self.failures)} failed "
                f"({self.jobs} jobs, {self.seconds:.2f}s)")


def build_grid(workloads: "list[str] | None" = None,
               arch_keys: "list[str] | None" = None,
               mapper: str | None = None) -> list[SweepCell]:
    """The cross-product grid, in deterministic registry order.

    ``mapper=None`` resolves each architecture's paper-default mapper.
    Unknown workload names are kept in the grid — the sweep reports them
    as per-cell failures instead of refusing the whole run — but known
    names are listed in registry order for reproducible output.
    """
    from repro.workloads.registry import all_workloads

    if workloads is None:
        workloads = [spec.name for spec in all_workloads()]
    if arch_keys is None:
        arch_keys = list(DEFAULT_ARCH_KEYS)
    return [
        SweepCell(workload=w, arch_key=a,
                  mapper=mapper or harness.default_mapper(a))
        for w in workloads for a in arch_keys
    ]


def cell_fingerprint(cell: SweepCell) -> str | None:
    """Persistent-store fingerprint of one grid cell (``None`` when the
    cell cannot be fingerprinted, e.g. an unknown workload — those cells
    sweep to per-cell failures, and shard/manifest bookkeeping falls
    back to a digest of the raw key, see :mod:`repro.eval.distributed`).
    """
    return harness.try_fingerprint(*cell.key())


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (defaults to 1 = serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _worker_evaluate(task: tuple[int, tuple[str, str, str], str | None,
                                 int]
                     ) -> tuple[int, dict | None, str | None, str | None,
                                float, dict]:
    """Evaluate one cell in a worker process.

    Runs with its own memo under the parent's seed salt; attaches the
    parent's persistent store (by path) so warm cells are read, cold
    cells written, across processes.
    Returns plain dicts — cheaper and more version-tolerant to pickle
    than the nested dataclasses — plus the store-activity delta of this
    call, so the parent's sweep report covers worker I/O too.
    """
    index, (workload, arch_key, mapper), store_root, salt = task
    harness.set_seed_salt(salt)
    store = _ensure_worker_store(store_root)
    before = store.stats.as_dict() if store is not None else {}
    start = time.perf_counter()
    try:
        result = harness.evaluate_kernel(workload, arch_key, mapper)
    except Exception as error:      # noqa: BLE001 — the sweep contract:
        # one failing cell (ReproError or an unexpected bug in one
        # evaluation) must never kill the whole pool.map; it becomes a
        # structured per-cell failure outcome instead.
        return (index, None, str(error), type(error).__name__,
                time.perf_counter() - start,
                _stats_delta(store, before))
    return (index, result_to_dict(result), None, None,
            time.perf_counter() - start, _stats_delta(store, before))


def _stats_delta(store, before: dict) -> dict:
    if store is None:
        return {}
    after = store.stats.as_dict()
    return {key: after[key] - before.get(key, 0) for key in after}


#: Last store root this worker configured (workers process many cells;
#: reconstructing the store per cell would re-run its mkdir every time).
_WORKER_STORE_ROOT: list = [Ellipsis]       # Ellipsis = never configured


def _ensure_worker_store(store_root: str | None):
    if _WORKER_STORE_ROOT[0] != store_root:
        harness.configure_store(store_root)   # None disables env fallback
        _WORKER_STORE_ROOT[0] = store_root
    return harness.active_store()


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------
def _chunk_size(cells: int, jobs: int) -> int:
    """Amortize IPC without starving workers at the tail."""
    return max(1, cells // (jobs * 4))


def run_sweep(cells: list[SweepCell], jobs: int = 1,
              use_cache: bool = True,
              chunk_size: int | None = None) -> SweepReport:
    """Evaluate every cell; never abort on a per-cell failure.

    Outcomes come back in the order of ``cells`` whatever the worker
    scheduling.  With ``use_cache=False`` the persistent store is
    bypassed (the in-process memo still dedupes repeated cells within
    this run).  ``jobs=1`` runs in-process — no executor, no pickling —
    and is the reference the parallel path must match bit-for-bit.
    """
    start = time.perf_counter()
    store = harness.active_store() if use_cache else None
    store_before = store.stats.as_dict() if store is not None else {}
    evaluated_before = harness.EVAL_STATS.computed
    cached = 0
    outcomes: list[CellOutcome] = []

    if jobs <= 1 or len(cells) <= 1:
        for cell in cells:
            outcomes.append(_run_cell_local(cell, use_cache))
        cached = sum(1 for o in outcomes if o.from_cache)
        return _finish_report(outcomes, 1, start, evaluated_before,
                              cached, store, store_before)

    # Resolve cache hits in the parent (cheap, no process round-trip);
    # fan only the cold cells out to the pool.
    pending: list[tuple[int, tuple[str, str, str], str | None, int]] = []
    slots: list[CellOutcome | None] = [None] * len(cells)
    seen: dict[tuple[str, str, str], int] = {}
    store_root = str(store.root) if store is not None else None
    for index, cell in enumerate(cells):
        if harness.memo_contains(*cell.key()):
            slots[index] = _run_cell_local(cell, use_cache)
            cached += 1
            continue
        failed = harness.failure_for(*cell.key())
        if failed is not None:          # known-doomed: don't re-dispatch
            slots[index] = CellOutcome(cell=cell, error=str(failed),
                                       error_type=type(failed).__name__)
            continue
        if store is not None:
            try:
                stored = store.get(
                    harness.evaluation_fingerprint(*cell.key()))
            except ReproError as error:     # e.g. unknown workload name
                harness.seed_failure(*cell.key(), error)
                slots[index] = CellOutcome(
                    cell=cell, error=str(error),
                    error_type=type(error).__name__)
                continue
            if isinstance(stored, CachedFailure):
                error = stored.to_error()
                harness.seed_failure(*cell.key(), error)
                harness.EVAL_STATS.store_hits += 1
                slots[index] = CellOutcome(
                    cell=cell, error=str(error),
                    error_type=type(error).__name__)
                continue
            if stored is not None:
                harness.seed_memo(stored)
                harness.EVAL_STATS.store_hits += 1
                slots[index] = CellOutcome(cell=cell, result=stored,
                                           from_cache=True)
                cached += 1
                continue
        first = seen.setdefault(cell.key(), index)
        if first != index:
            continue                    # duplicate cell: fill in after
        pending.append((index, cell.key(),
                        store_root if use_cache else None,
                        harness.seed_salt()))

    worker_stats: dict[str, int] = {}
    if pending:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = chunk_size or _chunk_size(len(pending), jobs)
            for (index, payload, error, error_type, seconds,
                 stats_delta) in pool.map(
                    _worker_evaluate, pending, chunksize=chunk):
                for stat_key, value in stats_delta.items():
                    worker_stats[stat_key] = \
                        worker_stats.get(stat_key, 0) + value
                cell = cells[index]
                if payload is None:
                    slots[index] = CellOutcome(
                        cell=cell, error=error, error_type=error_type,
                        seconds=seconds)
                    failure = CachedFailure(error_type or "",
                                            error or "").to_error()
                    # Memoize only faithfully reconstructed ReproErrors;
                    # unexpected exception types (a worker bug) are
                    # reported but not treated as deterministic.
                    if type(failure).__name__ == (error_type or ""):
                        harness.seed_failure(*cell.key(), failure)
                    continue
                result = result_from_dict(payload)
                harness.seed_memo(result)
                harness.EVAL_STATS.computed += 1
                slots[index] = CellOutcome(cell=cell, result=result,
                                           seconds=seconds)

    for index, slot in enumerate(slots):
        if slot is None:                # duplicate of an earlier cell
            primary = slots[seen[cells[index].key()]]
            slots[index] = CellOutcome(
                cell=cells[index], result=primary.result,
                error=primary.error, error_type=primary.error_type,
                from_cache=primary.ok)
            if primary.ok:
                cached += 1
    return _finish_report([s for s in slots if s is not None], jobs,
                          start, evaluated_before, cached, store,
                          store_before, worker_stats)


def _run_cell_local(cell: SweepCell, use_cache: bool) -> CellOutcome:
    """Serial-path evaluation of one cell with failure capture.

    The lookup cascade (memo -> failure memo -> store -> compute) lives
    in :func:`harness.evaluate_kernel`; this wrapper only captures
    :class:`ReproError`s per cell — including errors raised while
    fingerprinting an unknown workload — and attributes ``from_cache``
    by whether the call had to compute anything.
    """
    key = cell.key()
    start = time.perf_counter()
    computed_before = harness.EVAL_STATS.computed
    try:
        result = harness.evaluate_kernel(*key, use_store=use_cache)
    except ReproError as error:
        harness.seed_failure(*key, error)
        return CellOutcome(cell=cell, error=str(error),
                           error_type=type(error).__name__,
                           seconds=time.perf_counter() - start)
    except Exception as error:      # noqa: BLE001 — sweep contract: an
        # unexpected bug in one evaluation is a per-cell failure, not a
        # sweep abort.  Deliberately NOT memoized: only deterministic
        # ReproErrors are safe to serve from the failure memo.
        return CellOutcome(cell=cell, error=str(error),
                           error_type=type(error).__name__,
                           seconds=time.perf_counter() - start)
    return CellOutcome(
        cell=cell, result=result,
        from_cache=harness.EVAL_STATS.computed == computed_before,
        seconds=time.perf_counter() - start)


def _finish_report(outcomes, jobs, start, evaluated_before, cached,
                   store, store_before, worker_stats=None) -> SweepReport:
    # Per-sweep store activity: the parent's delta over this run (the
    # store object may have served earlier sweeps) plus what the
    # workers did — on a cold parallel sweep the parent only records
    # its pre-dispatch misses, while every write happens in a worker.
    stats = _stats_delta(store, store_before)
    for stat_key, value in (worker_stats or {}).items():
        stats[stat_key] = stats.get(stat_key, 0) + value
    return SweepReport(
        outcomes=outcomes,
        jobs=jobs,
        seconds=time.perf_counter() - start,
        evaluated=harness.EVAL_STATS.computed - evaluated_before,
        cached=cached,
        store_stats=stats,
    )


def prewarm(cells: list[SweepCell], jobs: int | None = None) -> SweepReport:
    """Populate the in-process memo for a grid (experiments call this).

    With ``jobs=None`` the worker count comes from ``$REPRO_JOBS``;
    per-cell failures are captured, matching the tolerant behaviour the
    figure drivers had when they looped serially.
    """
    return run_sweep(cells, jobs=jobs if jobs is not None else default_jobs())
