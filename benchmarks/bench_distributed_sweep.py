"""Distributed-sweep plumbing time: shard partition and store merge.

Sharding fingerprints every grid cell and a merge re-reads every entry
of every source store, so both must stay negligible next to the
evaluations they orchestrate — a shard assignment of the full Table-2
grid and a four-way merge of a thousand entries are the artifacts
timed here.  The budget (:data:`BUDGET_S`) guards against
pathological regressions (per-cell arch re-signatures, per-entry
re-parsing in quadratic loops, non-atomic write fallbacks).
"""

import json
import time

from repro.eval import parallel
from repro.eval.cache import ResultStore
from repro.eval.distributed import ShardSpec, merge_stores, shard_cells
from repro.eval.harness import clear_caches, configure_store, evaluate_kernel

#: Hard budget per timed stage, in seconds.
BUDGET_S = 30.0

#: Synthetic merge load: shards x entries-per-shard.
MERGE_SHARDS = 4
ENTRIES_PER_SHARD = 250


def _synthetic_shards(root):
    """Shard stores holding byte-realistic entries under synthetic keys."""
    clear_caches()
    configure_store(None)
    seed_result = evaluate_kernel("dwconv", "plaid", use_store=False)
    template = ResultStore(root / "template")
    template.put("0" * 64, seed_result)
    text = template.entry_path("0" * 64).read_text()
    clear_caches()

    shard_roots = []
    for shard in range(MERGE_SHARDS):
        store = ResultStore(root / f"shard{shard}")
        for index in range(ENTRIES_PER_SHARD):
            fp = f"{shard * ENTRIES_PER_SHARD + index:064x}"
            store.put_raw(fp, text)
        shard_roots.append(store.root)
    return shard_roots


def test_distributed_plumbing_time(benchmark, tmp_path):
    cells = parallel.build_grid()               # the full Table-2 grid
    shard_roots = _synthetic_shards(tmp_path)

    def run():
        timings = {}
        start = time.perf_counter()
        subsets = [shard_cells(cells, ShardSpec(index, MERGE_SHARDS))
                   for index in range(1, MERGE_SHARDS + 1)]
        timings["shard_partition"] = time.perf_counter() - start
        start = time.perf_counter()
        report = merge_stores(shard_roots, tmp_path / "merged")
        timings["merge"] = time.perf_counter() - start
        return timings, subsets, report

    timings, subsets, report = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    assert sum(len(s) for s in subsets) == len(cells)   # disjoint cover
    assert report.clean
    assert report.added == MERGE_SHARDS * ENTRIES_PER_SHARD
    print()
    print(f"  shard partition ({len(cells)} cells x "
          f"{MERGE_SHARDS} shards): {timings['shard_partition']:.3f}s")
    print(f"  merge ({report.added} entries from {MERGE_SHARDS} "
          f"stores): {timings['merge']:.3f}s")
    over = {stage: seconds for stage, seconds in timings.items()
            if seconds >= BUDGET_S}
    assert not over, f"stages over the {BUDGET_S:.0f}s budget: {over}"


def test_warm_merged_resweep_time(benchmark, tmp_path):
    """A warm re-sweep over a merged store is pure store reads — it must
    stay in the same class as the merge itself, not the evaluations."""
    grid = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]
    arches = ["st", "spatial", "plaid"]
    cells = parallel.build_grid(grid, arches)
    shard_dirs = []
    for index in (1, 2):
        clear_caches()
        shard_dir = tmp_path / f"host{index}"
        configure_store(shard_dir)
        report = parallel.run_sweep(
            shard_cells(cells, ShardSpec(index, 2)), jobs=1)
        assert not report.failures
        shard_dirs.append(shard_dir)
    clear_caches()
    merge_stores(shard_dirs, tmp_path / "merged")

    def run():
        clear_caches()
        configure_store(tmp_path / "merged")
        return parallel.run_sweep(cells, jobs=1)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    clear_caches()
    assert report.evaluated == 0
    assert report.cached == len(cells)
    print()
    print(f"  warm merged re-sweep: {len(cells)} cells in "
          f"{report.seconds:.3f}s")
    assert report.seconds < BUDGET_S
