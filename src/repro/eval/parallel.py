"""Parallel sweep engine over the (workload x architecture x mapper) grid.

``run_sweep`` fans the evaluation grid out over a ``ProcessPoolExecutor``
with chunking, captures per-cell failures (one failing cell — a
:class:`MappingError` or any unexpected exception — must never kill a
90-cell sweep), and returns outcomes in deterministic grid order
regardless of worker scheduling.  Workers share the persistent
:class:`~repro.eval.cache.ResultStore` when one is active, so a sweep
both *uses* and *fills* the cross-process cache; results are also handed
back to the parent's in-process memo, which is how the experiment and
benchmark drivers pre-warm their grids.  Cached cells are answered
through :func:`repro.eval.harness.lookup` on every path.

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
        text = (f"{len(self.outcomes)} cells: {self.evaluated} evaluated, "
                f"{self.cached} from cache, {len(self.failures)} failed "
                f"({self.jobs} jobs, {self.seconds:.2f}s)")
        # A failed put is swallowed (the cell is still answered), so
        # this is where a blocked or unwritable store shows.
        write_errors = self.store_stats.get("write_errors", 0)
        if write_errors:
            text += f", {write_errors} store writes failed"
        return text


def build_grid(workloads: "list[str] | None" = None,
               arch_keys: "list[str] | None" = None,
               mapper: str | None = None) -> list[SweepCell]:
    """The cross-product grid, in deterministic registry order.

    ``mapper=None`` resolves each architecture's paper-default mapper.
    An unknown architecture or mapper key raises :class:`ReproError`:
    no cell of such a grid could evaluate.  Unknown workload names are
    kept in the grid — the sweep reports them as per-cell failures
    instead of refusing the whole run — but known names are listed in
    registry order for reproducible output.
    """
    from repro.mapping.engine import get_mapper
    from repro.workloads.registry import all_workloads

    if workloads is None:
        workloads = [spec.name for spec in all_workloads()]
    if arch_keys is None:
        arch_keys = list(DEFAULT_ARCH_KEYS)
    for arch_key in arch_keys:
        harness.check_arch_key(arch_key)
    if mapper:
        get_mapper(mapper)
    return [
        SweepCell(workload=w, arch_key=a,
                  mapper=mapper or harness.default_mapper(a))
        for w in workloads for a in arch_keys
    ]


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
    """Compute one cell the parent's :func:`answer_from_cache` missed,
    in a worker process (see :func:`absorb_reply`), without looking the
    store up again (see :func:`_run_cell_local` for the tradeoff).

    Runs with its own memo under the parent's seed salt; attaches the
    parent's persistent store (by path) so the result is written there.
    Returns plain dicts — cheaper and more version-tolerant to pickle
    than the nested dataclasses — plus the store-activity delta of this
    call, so the parent's sweep report covers worker I/O too.
    """
    index, key, store_root, salt = task
    harness.set_seed_salt(salt)
    store = _ensure_worker_store(store_root)
    before = store.stats.as_dict() if store is not None else {}
    outcome = _run_cell_local(SweepCell(*key), use_cache=True)
    payload = result_to_dict(outcome.result) if outcome.ok else None
    return (index, payload, outcome.error, outcome.error_type,
            outcome.seconds, _stats_delta(store, before))


def absorb_reply(cell: SweepCell, reply: tuple) -> CellOutcome:
    """Install one :func:`_worker_evaluate` reply in this process's
    memos and return the cell's outcome."""
    _index, payload, error, error_type, seconds, _stats = reply
    if payload is None:
        # Memoize only faithfully reconstructed ReproErrors; unexpected
        # exception types (a worker bug) are reported but not treated
        # as deterministic.
        failure = CachedFailure(error_type, error).to_error()
        if type(failure).__name__ == error_type:
            harness.seed_failure(*cell.key(), failure)
        return CellOutcome(cell=cell, error=error, error_type=error_type,
                           seconds=seconds)
    result = result_from_dict(payload)
    harness.seed_memo(result)
    return CellOutcome(cell=cell, result=result, seconds=seconds)


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
              use_cache: bool = True) -> SweepReport:
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

    if jobs <= 1 or len(cells) <= 1:
        outcomes = [answer_from_cache(cell, use_cache)
                    or _run_cell_local(cell, use_cache) for cell in cells]
        return _finish_report(outcomes, 1, start, store, store_before)

    # Answer cache hits in the parent (cheap, no process round-trip);
    # fan only the cold cells out to the pool.
    slots = [answer_from_cache(cell, use_cache) for cell in cells]
    pending: list[tuple[int, tuple[str, str, str], str | None, int]] = []
    seen: dict[tuple[str, str, str], int] = {}
    store_root = str(store.root) if store is not None else None
    for index, cell in enumerate(cells):
        if slots[index] is None and \
                seen.setdefault(cell.key(), index) == index:
            pending.append((index, cell.key(), store_root,
                            harness.seed_salt()))

    worker_stats: dict[str, int] = {}
    if pending:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for reply in pool.map(_worker_evaluate, pending,
                                  chunksize=_chunk_size(len(pending),
                                                        jobs)):
                for stat_key, value in reply[-1].items():
                    worker_stats[stat_key] = \
                        worker_stats.get(stat_key, 0) + value
                index = reply[0]
                slots[index] = absorb_reply(cells[index], reply)

    for index, slot in enumerate(slots):
        if slot is None:                # duplicate of an earlier cell
            primary = slots[seen[cells[index].key()]]
            slots[index] = CellOutcome(
                cell=cells[index], result=primary.result,
                error=primary.error, error_type=primary.error_type,
                from_cache=primary.ok)
    return _finish_report(slots, jobs, start, store, store_before,
                          worker_stats)


def answer_from_cache(cell: SweepCell, use_cache: bool
                      ) -> CellOutcome | None:
    """The cell's outcome from :func:`harness.lookup`'s cache layers
    (a cached failure included), or ``None`` when it must be evaluated.
    ``use_cache=False`` skips the persistent store."""
    try:
        result = harness.lookup(*cell.key(), use_store=use_cache)
    except ReproError as error:
        return CellOutcome(cell=cell, error=str(error),
                           error_type=type(error).__name__)
    if result is None:
        return None
    return CellOutcome(cell=cell, result=result, from_cache=True)


def _run_cell_local(cell: SweepCell, use_cache: bool) -> CellOutcome:
    """Compute one cell that missed every cache layer, in this process,
    with failure capture.

    Every path asks :func:`answer_from_cache` first and hands only its
    misses here, so this computes without a second lookup.  The cost: a
    cell another process sharing the store finished after that lookup
    (a second sweep or server on one cache directory, or a ``repro
    serve`` cell held behind its queue) is computed and written again.
    Results are deterministic, so only compute is spent.  A
    :class:`ReproError` is memoized; any unexpected exception is not.
    """
    key = cell.key()
    start = time.perf_counter()
    try:
        result = harness.compute_kernel(*key, use_store=use_cache)
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
    return CellOutcome(cell=cell, result=result,
                       seconds=time.perf_counter() - start)


def _finish_report(outcomes, jobs, start, store, store_before,
                   worker_stats=None) -> SweepReport:
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
        evaluated=sum(1 for o in outcomes if o.ok and not o.from_cache),
        cached=sum(1 for o in outcomes if o.from_cache),
        store_stats=stats,
    )


def prewarm(cells: list[SweepCell], jobs: int | None = None) -> SweepReport:
    """Populate the in-process memo for a grid (experiments call this).

    With ``jobs=None`` the worker count comes from ``$REPRO_JOBS``;
    per-cell failures are captured, matching the tolerant behaviour the
    figure drivers had when they looped serially.
    """
    return run_sweep(cells, jobs=jobs if jobs is not None else default_jobs())
