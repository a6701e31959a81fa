"""The parallel sweep engine: serial/parallel equivalence, failure
capture, determinism across worker counts, and cache interplay."""

import pytest

from repro.eval import harness, parallel
from repro.eval.cache import result_to_dict
from repro.eval.harness import clear_caches, configure_store

#: A small but representative grid: two domains, one recurrence-heavy
#: kernel, both baseline fabrics and Plaid.
WORKLOADS = ["dwconv", "conv2x2", "gesum_u2"]
ARCH_KEYS = ["st", "plaid"]


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)
    yield
    clear_caches()


def _metrics(report):
    """The paper-facing numbers per cell, grid-ordered."""
    return [
        (o.cell.key(), result_to_dict(o.result)) if o.ok
        else (o.cell.key(), (o.error_type, o.error))
        for o in report.outcomes
    ]


def test_build_grid_is_deterministic_and_resolves_mappers():
    grid = parallel.build_grid(WORKLOADS, ARCH_KEYS)
    assert len(grid) == len(WORKLOADS) * len(ARCH_KEYS)
    assert grid == parallel.build_grid(WORKLOADS, ARCH_KEYS)
    assert {cell.mapper for cell in grid if cell.arch_key == "st"} \
        == {"best"}
    assert {cell.mapper for cell in grid if cell.arch_key == "plaid"} \
        == {"plaid"}


def test_default_grid_covers_table2_fleet():
    grid = parallel.build_grid()
    assert len(grid) == 30 * 3
    assert len({cell.workload for cell in grid}) == 30


def test_parallel_matches_serial_bit_for_bit():
    cells = parallel.build_grid(WORKLOADS, ARCH_KEYS)
    serial = parallel.run_sweep(cells, jobs=1)
    assert not serial.failures

    clear_caches()
    configure_store(None)
    fanned = parallel.run_sweep(cells, jobs=4)
    # Byte-identical metrics: every int and float equal, in the same order.
    assert _metrics(fanned) == _metrics(serial)
    assert fanned.jobs == 4 and serial.jobs == 1


def test_jobs_1_vs_jobs_4_deterministic_across_repeats():
    cells = parallel.build_grid(WORKLOADS, ARCH_KEYS)
    seen = []
    for jobs in (1, 4, 1, 4):
        clear_caches()
        configure_store(None)
        seen.append(_metrics(parallel.run_sweep(cells, jobs=jobs)))
    assert seen[0] == seen[1] == seen[2] == seen[3]


@pytest.mark.parametrize("jobs", [1, 3])
def test_per_cell_failures_do_not_abort_the_sweep(jobs):
    cells = parallel.build_grid(
        ["dwconv", "no-such-kernel", "conv2x2"], ["plaid"])
    report = parallel.run_sweep(cells, jobs=jobs)
    assert len(report.outcomes) == 3
    ok = [o for o in report.outcomes if o.ok]
    assert [o.cell.workload for o in ok] == ["dwconv", "conv2x2"]
    (failure,) = report.failures
    assert failure.cell.workload == "no-such-kernel"
    assert failure.error_type == "WorkloadError"
    assert "no-such-kernel" in failure.error
    assert failure.result is None


@pytest.mark.parametrize("jobs", [1, 3])
def test_failures_with_active_store_do_not_abort(tmp_path, jobs):
    """Regression: fingerprinting an unknown workload while the
    persistent store is active must be a per-cell error, not a sweep
    abort (the fingerprint resolves the workload spec, which raises)."""
    configure_store(tmp_path / "store")
    cells = parallel.build_grid(["dwconv", "bogus"], ["plaid"])
    report = parallel.run_sweep(cells, jobs=jobs)
    assert len(report.outcomes) == 2
    assert report.outcomes[0].ok
    assert report.outcomes[1].error_type == "WorkloadError"

    # And a rerun in the same process serves the doomed cell from the
    # failure memo instead of re-dispatching it.
    again = parallel.run_sweep(cells, jobs=jobs)
    assert [o.ok for o in again.outcomes] == [True, False]
    assert again.evaluated == 0


def test_poisoned_cell_reported_not_fatal(monkeypatch):
    """Regression: a cell raising a non-ReproError (a bug in one
    evaluation) must become a per-cell failure, not a sweep abort."""
    real = harness.evaluate_kernel

    def poisoned(workload, arch_key, mapper_key=None, **kwargs):
        if workload == "conv2x2":
            raise RuntimeError("poisoned cell")
        return real(workload, arch_key, mapper_key, **kwargs)

    monkeypatch.setattr(harness, "evaluate_kernel", poisoned)
    cells = parallel.build_grid(WORKLOADS, ["plaid"])
    report = parallel.run_sweep(cells, jobs=1)
    assert [o.ok for o in report.outcomes] == [True, False, True]
    (failure,) = report.failures
    assert failure.error_type == "RuntimeError"
    assert "poisoned cell" in failure.error
    # Unexpected exceptions are not memoized as deterministic failures.
    assert harness.failure_for("conv2x2", "plaid") is None


def test_worker_returns_structured_failure_for_unexpected_exception(
        monkeypatch):
    """The worker function itself (the code that runs inside pool.map)
    must capture arbitrary exceptions into its structured return."""
    def boom(workload, arch_key, mapper_key=None, **kwargs):
        raise ValueError("worker bug")

    monkeypatch.setattr(harness, "evaluate_kernel", boom)
    index, payload, error, error_type, seconds, stats = \
        parallel._worker_evaluate(
            (5, ("dwconv", "plaid", "plaid"), None))
    assert index == 5
    assert payload is None
    assert error_type == "ValueError" and "worker bug" in error
    assert seconds >= 0.0 and stats == {}


def test_poisoned_cell_parallel_pool(monkeypatch):
    """End to end through the process pool (fork start method inherits
    the poisoned harness): the sweep completes with one failed cell."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("poisoning workers requires fork inheritance")
    real = harness.evaluate_kernel

    def poisoned(workload, arch_key, mapper_key=None, **kwargs):
        if workload == "conv2x2":
            raise RuntimeError("poisoned cell")
        return real(workload, arch_key, mapper_key, **kwargs)

    monkeypatch.setattr(harness, "evaluate_kernel", poisoned)
    cells = parallel.build_grid(WORKLOADS, ["plaid"])
    report = parallel.run_sweep(cells, jobs=2)
    assert [o.ok for o in report.outcomes] == [True, False, True]
    (failure,) = report.failures
    assert failure.error_type == "RuntimeError"
    assert "poisoned cell" in failure.error


def test_mapping_failures_are_captured_per_cell():
    """A generic mapper failing on the trimmed Plaid fabric (the Fig. 18
    scenario) is reported, not raised."""
    cells = parallel.build_grid(None, ["plaid"], mapper="pathfinder")
    report = parallel.run_sweep(cells[:8], jobs=2)
    assert len(report.outcomes) == 8
    for outcome in report.failures:
        assert outcome.error_type == "MappingError"
    # Whatever failed, every cell has a definite outcome.
    assert all(o.ok or o.error for o in report.outcomes)


def test_duplicate_cells_evaluate_once():
    cell = parallel.build_grid(["dwconv"], ["plaid"])[0]
    report = parallel.run_sweep([cell, cell, cell], jobs=2)
    assert report.evaluated == 1
    assert len(report.outcomes) == 3
    assert all(o.ok for o in report.outcomes)
    first = result_to_dict(report.outcomes[0].result)
    assert all(result_to_dict(o.result) == first for o in report.outcomes)


def test_sweep_fills_and_reuses_persistent_store(tmp_path):
    configure_store(tmp_path / "store")
    cells = parallel.build_grid(WORKLOADS, ARCH_KEYS)
    cold = parallel.run_sweep(cells, jobs=2)
    assert cold.evaluated == len(cells) and cold.cached == 0

    # Worker-side store writes are folded into the report's stats.
    assert cold.store_stats["writes"] == len(cells)

    clear_caches()                              # fresh process, same store
    configure_store(tmp_path / "store")
    warm = parallel.run_sweep(cells, jobs=2)
    assert warm.evaluated == 0                  # zero re-evaluations
    assert warm.cached == len(cells)
    assert _metrics(warm) == _metrics(cold)
    # store_stats are per-sweep deltas, not store-lifetime cumulative:
    # the warm run wrote nothing and only read hits.
    assert warm.store_stats["writes"] == 0
    assert warm.store_stats["hits"] == len(cells)


def test_no_cache_bypasses_store(tmp_path):
    store = configure_store(tmp_path / "store")
    cells = parallel.build_grid(["dwconv"], ARCH_KEYS)
    parallel.run_sweep(cells, jobs=1)
    assert len(store) == len(cells)

    clear_caches()
    store = configure_store(tmp_path / "store")
    report = parallel.run_sweep(cells, jobs=1, use_cache=False)
    assert report.evaluated == len(cells)       # recomputed despite store
    assert store.stats.hits == 0


def test_prewarm_populates_memo():
    cells = parallel.build_grid(["dwconv"], ["plaid"])
    parallel.prewarm(cells)
    assert harness.memo_contains("dwconv", "plaid")
    before = harness.EVAL_STATS.computed
    harness.evaluate_kernel("dwconv", "plaid")
    assert harness.EVAL_STATS.computed == before


def test_failed_cells_memoized_not_reattempted():
    cells = parallel.build_grid(["no-such-kernel"], ["plaid"])
    parallel.run_sweep(cells, jobs=1)
    computed = harness.EVAL_STATS.computed
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        harness.evaluate_kernel("no-such-kernel", "plaid")
    assert harness.EVAL_STATS.computed == computed
