"""The distributed sweep subsystem: deterministic sharding, mergeable
stores, resume through the store, and the atomic-write guarantees they
stand on.

The core invariant locked here is the one the multi-host workflow is
built around: **union-of-shards == single-host sweep, bit-identical** —
same store bytes, same metrics, same summary counts — and a warm
re-sweep of the merged store evaluates zero cells.  Resuming is the
same re-sweep: against a store missing some entries (a lost shard, a
killed run) it evaluates exactly the missing cells.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.eval import parallel
from repro.eval.cache import SCHEMA_VERSION, ResultStore, result_to_dict
from repro.eval.distributed import (
    ShardSpec, gc_store, inventory, merge_stores, parse_duration,
    parse_shard, shard_cells, shard_of,
)
from repro.eval.harness import clear_caches, configure_store, try_fingerprint
from repro.eval.reporting import sweep_to_json

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_small_grid.json"


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)
    yield
    clear_caches()


def _metrics(report):
    return [
        (o.cell.key(), result_to_dict(o.result)) if o.ok
        else (o.cell.key(), (o.error_type, o.error))
        for o in report.outcomes
    ]


def _store_bytes(root) -> dict:
    """Exact entry bytes per file name (temp debris excluded)."""
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(root).glob("*.json"))
        if not path.name.startswith(".")
    }


def _golden_cells():
    grid = json.loads(GOLDEN_PATH.read_text())["grid"]
    return parallel.build_grid(grid["workloads"], grid["arch_keys"])


@pytest.fixture(scope="module")
def single_host(tmp_path_factory):
    """The reference: the golden 5x3 grid swept on one 'host'."""
    root = tmp_path_factory.mktemp("single-host-store")
    clear_caches()
    configure_store(root)
    cells = _golden_cells()
    report = parallel.run_sweep(cells, jobs=1)
    clear_caches()
    assert not report.failures, [o.error for o in report.failures]
    assert report.evaluated == len(cells)
    return {"root": root, "cells": cells, "report": report,
            "metrics": _metrics(report), "json": sweep_to_json(report)}


# ---------------------------------------------------------------------------
# Conformance: union-of-shards == single-host sweep, bit-identical
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_shards", [1, 2, 3])
def test_sharded_merge_is_bit_identical_to_single_host(
        tmp_path, single_host, num_shards):
    cells = single_host["cells"]
    shard_dirs, shard_reports, shard_subsets = [], [], []
    for index in range(1, num_shards + 1):
        clear_caches()                  # each shard is its own 'host'
        shard_dir = tmp_path / f"shard{index}"
        configure_store(shard_dir)
        subset = shard_cells(cells, ShardSpec(index, num_shards))
        report = parallel.run_sweep(subset, jobs=1)
        assert not report.failures
        assert report.evaluated == len(subset)
        shard_dirs.append(shard_dir)
        shard_reports.append(report)
        shard_subsets.append(subset)
    clear_caches()

    # The shards are a disjoint cover of the grid ...
    covered = [cell.key() for subset in shard_subsets for cell in subset]
    assert sorted(covered) == sorted(cell.key() for cell in cells)
    assert len(covered) == len(set(covered)) == len(cells)
    # ... and together they evaluated exactly the single-host workload.
    assert sum(r.evaluated for r in shard_reports) \
        == single_host["report"].evaluated

    # Union the shard stores: every entry adopted, byte-for-byte the
    # store the single host wrote.
    merged = tmp_path / "merged"
    merge_report = merge_stores(shard_dirs, merged)
    assert merge_report.clean
    assert merge_report.added == len(cells)
    assert merge_report.conflicts == []
    assert _store_bytes(merged) == _store_bytes(single_host["root"])

    # Per-cell metrics of the union match the single-host sweep exactly.
    merged_metrics = dict(m for r in shard_reports for m in _metrics(r))
    assert merged_metrics == dict(single_host["metrics"])

    # A warm re-sweep of the merged store evaluates nothing and renders
    # the same summary rows as the single-host run (modulo the cache
    # provenance flag, which is the point of the warm run).
    clear_caches()
    configure_store(merged)
    warm = parallel.run_sweep(cells, jobs=1)
    clear_caches()
    assert warm.evaluated == 0
    assert warm.cached == len(cells)
    assert not warm.failures
    warm_json = json.loads(sweep_to_json(warm))
    single_json = json.loads(single_host["json"])
    assert warm_json["cells"] \
        == [dict(c, cached=True) for c in single_json["cells"]]
    assert warm_json["summary"]["total"] == single_json["summary"]["total"]
    assert warm_json["summary"]["failed"] == single_json["summary"]["failed"]


def _cold_cells(report):
    return [o.cell.key() for o in report.outcomes if not o.from_cache]


def test_resweep_evaluates_only_cells_missing_from_the_store(
        tmp_path, single_host):
    """Resume is a plain re-sweep of the same grid against the store:
    only cells whose fingerprint has no entry are evaluated, and the
    store ends byte-identical to a single-host cold sweep's."""
    cells = single_host["cells"]

    # A lost shard: both shards swept into their own stores, but only
    # shard 1's store reaches the merge.
    for index in (1, 2):
        clear_caches()
        configure_store(tmp_path / f"shard{index}")
        subset = shard_cells(cells, ShardSpec(index, 2))
        assert parallel.run_sweep(subset, jobs=1).evaluated == len(subset)
    clear_caches()
    partial = tmp_path / "partial"
    assert merge_stores([tmp_path / "shard1"], partial).clean
    configure_store(partial)
    resumed = parallel.run_sweep(cells, jobs=1)
    clear_caches()
    lost = [c.key() for c in shard_cells(cells, ShardSpec(2, 2))]
    assert 0 < len(lost) < len(cells)
    assert _cold_cells(resumed) == lost
    assert resumed.evaluated == len(lost)
    assert resumed.cached == len(cells) - len(lost)
    assert not resumed.failures
    assert _metrics(resumed) == single_host["metrics"]
    assert _store_bytes(partial) == _store_bytes(single_host["root"])

    # A shard killed mid-run: a complete store missing two entries.
    killed = tmp_path / "killed"
    killed.mkdir()
    for name, data in _store_bytes(single_host["root"]).items():
        (killed / name).write_bytes(data)
    missing = [cells[1], cells[-2]]
    for cell in missing:
        ResultStore(killed).entry_path(
            try_fingerprint(*cell.key())).unlink()
    configure_store(killed)
    resumed = parallel.run_sweep(cells, jobs=1)
    clear_caches()
    assert _cold_cells(resumed) == [cell.key() for cell in missing]
    assert resumed.evaluated == len(missing)
    assert resumed.cached == len(cells) - len(missing)
    assert _metrics(resumed) == single_host["metrics"]
    assert _store_bytes(killed) == _store_bytes(single_host["root"])


def test_sharded_sweep_metrics_invariant_under_jobs(tmp_path):
    cells = parallel.build_grid(["dwconv", "conv2x2", "gesum_u2"],
                                ["st", "plaid"])
    subset = shard_cells(cells, ShardSpec(1, 2))
    assert subset, "golden grid shard 1/2 unexpectedly empty"
    runs = []
    for jobs in (1, 2):
        clear_caches()
        configure_store(tmp_path / f"jobs{jobs}")
        runs.append(parallel.run_sweep(subset, jobs=jobs))
    clear_caches()
    assert _metrics(runs[0]) == _metrics(runs[1])
    assert _store_bytes(tmp_path / "jobs1") == _store_bytes(tmp_path / "jobs2")


def test_shard_assignment_ignores_grid_ordering_and_duplicates():
    cells = parallel.build_grid(["dwconv", "conv2x2"], ["st", "plaid"])
    spec = ShardSpec(1, 3)
    shuffled = list(reversed(cells)) + [cells[0]]        # reorder + dup
    forward = {c.key() for c in shard_cells(cells, spec)}
    backward = {c.key() for c in shard_cells(shuffled, spec)}
    assert forward == backward


def test_unfingerprintable_cells_land_in_exactly_one_shard():
    bogus = parallel.SweepCell(workload="no-such-kernel",
                               arch_key="plaid", mapper="plaid")
    assert try_fingerprint(*bogus.key()) is None
    count = 4
    owners = [index for index in range(1, count + 1)
              if bogus in shard_cells([bogus], ShardSpec(index, count))]
    assert owners == [shard_of(bogus, count)]


def test_parse_shard_accepts_and_rejects():
    assert parse_shard("2/3") == ShardSpec(2, 3)
    assert parse_shard("1/1") == ShardSpec(1, 1)
    for bad in ("0/3", "4/3", "x/3", "3", "1/0", "-1/2", "1/2/3"):
        with pytest.raises(ReproError):
            parse_shard(bad)


# ---------------------------------------------------------------------------
# Merge: corruption, schema skew, and conflict policy
# ---------------------------------------------------------------------------
def _seed_store(root, names=("dwconv", "conv2x2"), arch="plaid"):
    """A real store holding evaluations of ``names`` (fresh metrics)."""
    clear_caches()
    store = configure_store(root)
    cells = parallel.build_grid(list(names), [arch])
    report = parallel.run_sweep(cells, jobs=1)
    assert not report.failures
    clear_caches()
    return ResultStore(root)


def test_merge_skips_and_reports_truncated_entries(tmp_path):
    src = _seed_store(tmp_path / "src")
    fps = sorted(src.fingerprints())
    src.entry_path(fps[0]).write_text("{\"schema\":")       # truncated
    report = merge_stores([src.root], tmp_path / "dst")
    assert report.corrupt_skipped == 1
    assert report.added == len(fps) - 1
    assert not report.clean
    # Sources are never modified: the damaged file is still there.
    assert src.entry_path(fps[0]).exists()
    # And the destination only holds healthy entries.
    inv = inventory(tmp_path / "dst")
    assert inv.entries == len(fps) - 1 and inv.corrupt == 0


def test_merge_skips_schema_stale_source_entries(tmp_path):
    src = _seed_store(tmp_path / "src")
    fps = sorted(src.fingerprints())
    entry = json.loads(src.entry_path(fps[0]).read_text())
    entry["schema"] = SCHEMA_VERSION + 7
    src.entry_path(fps[0]).write_text(json.dumps(entry))
    report = merge_stores([src.root], tmp_path / "dst")
    assert report.schema_skipped == 1
    assert report.added == len(fps) - 1
    assert not report.clean
    assert fps[0] not in ResultStore(tmp_path / "dst")


def test_merge_never_overwrites_newer_schema_destination(tmp_path):
    src = _seed_store(tmp_path / "src")
    fp = sorted(src.fingerprints())[0]
    dst = ResultStore(tmp_path / "dst")
    newer = json.loads(src.entry_path(fp).read_text())
    newer["schema"] = SCHEMA_VERSION + 1
    newer_text = json.dumps(newer)
    dst.entry_path(fp).write_text(newer_text)

    report = merge_stores([src.root], dst)
    assert report.protected == 1
    assert dst.entry_path(fp).read_text() == newer_text     # untouched
    assert fp not in report.conflicts


def test_merge_heals_corrupt_and_older_schema_destination(tmp_path):
    src = _seed_store(tmp_path / "src")
    fps = sorted(src.fingerprints())
    dst = ResultStore(tmp_path / "dst")
    dst.entry_path(fps[0]).write_text("garbage{{{")          # corrupt
    older = json.loads(src.entry_path(fps[1]).read_text())
    older["schema"] = SCHEMA_VERSION - 1
    dst.entry_path(fps[1]).write_text(json.dumps(older))     # older schema

    report = merge_stores([src.root], dst)
    assert report.healed == 2
    assert report.clean
    assert _store_bytes(dst.root) == _store_bytes(src.root)


def test_merge_conflicts_reported_and_order_independent(tmp_path):
    """Two stores disagreeing on one fingerprint resolve to the same
    winner whatever order the sources are listed in."""
    a = _seed_store(tmp_path / "a")
    b = ResultStore(tmp_path / "b")
    fp = sorted(a.fingerprints())[0]
    disagreement = json.loads(a.entry_path(fp).read_text())
    disagreement["result"]["cycles"] = 10**9                 # version skew
    b.entry_path(fp).write_text(
        json.dumps(disagreement, indent=0))

    merged_ab = merge_stores([a.root, b.root], tmp_path / "ab")
    merged_ba = merge_stores([b.root, a.root], tmp_path / "ba")
    assert merged_ab.conflicts == [fp] and merged_ba.conflicts == [fp]
    assert not merged_ab.clean
    assert merged_ab.source_won + merged_ab.dest_won == 1
    assert _store_bytes(tmp_path / "ab") == _store_bytes(tmp_path / "ba")


def test_merge_conflict_prefers_result_over_failure(tmp_path):
    src = _seed_store(tmp_path / "src")
    fp = sorted(src.fingerprints())[0]
    result_text = src.entry_path(fp).read_text()
    failing = ResultStore(tmp_path / "failing")
    failing.put_failure(fp, ReproError("doomed on the other host"))

    # A result arriving at a store that recorded a failure: result wins.
    dst = ResultStore(tmp_path / "dst")
    merge_stores([failing.root], dst)
    report = merge_stores([src.root], dst)
    assert report.conflicts == [fp] and report.source_won == 1
    assert dst.entry_path(fp).read_text() == result_text

    # A failure arriving at a store that holds the result: result kept.
    dst2 = ResultStore(tmp_path / "dst2")
    merge_stores([src.root], dst2)
    report2 = merge_stores([failing.root], dst2)
    assert report2.conflicts == [fp] and report2.dest_won == 1
    assert dst2.entry_path(fp).read_text() == result_text


def test_merge_rejects_destination_as_source(tmp_path):
    src = _seed_store(tmp_path / "src")
    with pytest.raises(ReproError, match="also listed as a source"):
        merge_stores([src.root], src.root)


def test_merge_rejects_missing_source(tmp_path):
    with pytest.raises(ReproError, match="does not exist"):
        merge_stores([tmp_path / "nope"], tmp_path / "dst")
    # Regression: source validation runs before the destination store is
    # constructed — a typo'd source must not leave an empty dest behind.
    assert not (tmp_path / "dst").exists()


def test_merge_reports_each_conflicting_fingerprint_once(tmp_path):
    """Three sources disagreeing on one fingerprint is one conflict."""
    src = _seed_store(tmp_path / "a", names=("dwconv",))
    fp = sorted(src.fingerprints())[0]
    base = json.loads(src.entry_path(fp).read_text())
    for name, cycles in (("b", 111), ("c", 222)):
        other = ResultStore(tmp_path / name)
        altered = dict(base)
        altered["result"] = dict(base["result"], cycles=cycles)
        other.entry_path(fp).write_text(json.dumps(altered, indent=0))
    report = merge_stores(
        [tmp_path / "a", tmp_path / "b", tmp_path / "c"], tmp_path / "dst")
    assert report.conflicts == [fp]
    assert report.source_won + report.dest_won == 2


def test_inventory_and_gc_refuse_missing_dir(tmp_path):
    """Read/prune operations never create a store as a side effect."""
    with pytest.raises(ReproError, match="no store directory"):
        inventory(tmp_path / "nope")
    with pytest.raises(ReproError, match="no store directory"):
        gc_store(tmp_path / "nope")
    assert not (tmp_path / "nope").exists()


def test_every_store_view_agrees_on_which_paths_are_entries(tmp_path):
    """``len``, ``fingerprints()``, inventory, merge and gc share one
    definition of an entry: a regular ``<fp>.json`` file that is not
    ``.tmp-`` debris.  A directory named like an entry, a stray text
    file and temp debris are not entries; a corrupt entry is one."""
    store = _seed_store(tmp_path / "store")
    valid = sorted(store.fingerprints())
    assert len(valid) == 2
    corrupt = "c" * 64
    store.entry_path(corrupt).write_text("{garbage")
    store.entry_path("d" * 64).mkdir()
    (store.root / ".tmp-x.json").write_text("{}")
    (store.root / "notes.txt").write_text("not an entry")
    entries = sorted(valid + [corrupt])

    inv = inventory(store.root)
    merged = merge_stores([store.root], tmp_path / "dst")
    assert len(store) == inv.entries == merged.scanned == len(entries)
    assert sorted(store.fingerprints()) == entries
    assert merged.added + merged.corrupt_skipped == len(entries)
    gc = gc_store(store.root)
    assert (gc.kept + gc.removed_corrupt + gc.removed_schema
            + gc.removed_old) == len(entries)
    assert inv.temp_files == gc.removed_temp == 1


def test_directory_at_an_entry_path_is_reported_and_gc_clears_it(
        tmp_path, capsys):
    """A directory at ``<fp>.json`` keeps that cell out of the store, so
    every sweep re-evaluates it.  Stats count it as ``blocked``; gc
    removes it when empty (never its contents); after that the next
    sweep stores the cell and the one after reads it back."""
    root = tmp_path / "store"
    cells = parallel.build_grid(["dwconv"], ["plaid"])
    blocked = ResultStore(root).entry_path(try_fingerprint(*cells[0].key()))
    blocked.mkdir()
    full = ResultStore(root).entry_path("e" * 64)
    full.mkdir()
    (full / "keep.txt").write_text("not the store's to delete")

    def sweep():
        clear_caches()
        configure_store(root)
        report = parallel.run_sweep(cells, jobs=1)
        clear_caches()
        assert not report.failures
        return report.evaluated, report.cached

    assert sweep() == (1, 0)
    assert sweep() == (1, 0)                    # nothing could be stored
    inv = inventory(root)
    assert (inv.entries, inv.blocked) == (0, 2)
    assert cli_main(["cache", "stats", str(root)]) == 0
    assert "blocked: 2" in capsys.readouterr().out
    assert cli_main(["cache", "stats", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["blocked"] == 2

    report = gc_store(root)
    assert (report.removed_blocked, report.removed, report.kept) == (1, 1, 0)
    assert not blocked.exists() and (full / "keep.txt").exists()
    assert inventory(root).blocked == 1
    assert sweep() == (1, 0)
    assert blocked.is_file()
    assert sweep() == (0, 1)


# ---------------------------------------------------------------------------
# Atomic writes: a killed writer never corrupts what readers see
# ---------------------------------------------------------------------------
def test_sweep_output_killed_mid_write_keeps_previous_file(
        tmp_path, monkeypatch, capsys):
    """Regression: ``repro sweep --output`` once wrote in place; a kill
    mid-write could leave a truncated results file.  Now the previous
    complete file survives any interrupted rewrite."""
    from repro.cli import main
    from repro.utils import atomicio

    out = tmp_path / "sweep.json"
    args = ["sweep", "--workloads", "dwconv", "--arch", "plaid",
            "--no-cache", "--format", "json", "--output", str(out)]
    assert main(args) == 0
    before = out.read_bytes()
    json.loads(before.decode())                 # complete, parseable

    def killed(src, dst):
        raise OSError(5, "killed mid-rename")

    monkeypatch.setattr(atomicio.os, "replace", killed)
    clear_caches()
    with pytest.raises(OSError):
        main(args)
    monkeypatch.undo()
    assert out.read_bytes() == before           # old file intact
    assert not [p for p in tmp_path.glob(".tmp-*")]


def test_atomic_writes_honor_umask(tmp_path):
    """Regression: mkstemp creates 0600 temp files; the replaced file
    must end up with the ordinary umask-governed mode, or other users
    on a shared host cannot read merged stores/manifests/outputs."""
    from repro.utils.atomicio import atomic_write_text

    previous = os.umask(0o022)
    try:
        target = tmp_path / "shared.json"
        atomic_write_text(target, "{}")
        assert target.stat().st_mode & 0o777 == 0o644
    finally:
        os.umask(previous)


# ---------------------------------------------------------------------------
# CLI: the shard / cache command surface
# ---------------------------------------------------------------------------
def _run_cli(args):
    from repro.cli import main
    return main(args)


def test_cli_two_shard_merge_warm_resweep(tmp_path, capsys):
    """The sweep-shard-smoke scenario end to end through the CLI."""
    grid = ["--workloads", "dwconv,conv2x2,gesum_u2",
            "--arch", "st", "--arch", "plaid"]
    for index in (1, 2):
        clear_caches()
        assert _run_cli(["sweep", *grid, "--shard", f"{index}/2",
                         "--cache-dir", str(tmp_path / f"cache{index}"),
                         "--format", "json",
                         "--output", str(tmp_path / f"s{index}.json")]) == 0
    clear_caches()
    assert _run_cli(["cache", "merge", str(tmp_path / "cache1"),
                     str(tmp_path / "cache2"),
                     "--into", str(tmp_path / "merged")]) == 0
    assert _run_cli(["sweep", *grid, "--cache-dir", str(tmp_path / "merged"),
                     "--format", "json",
                     "--output", str(tmp_path / "warm.json")]) == 0
    clear_caches()
    warm = json.loads((tmp_path / "warm.json").read_text())
    assert warm["summary"]["evaluated"] == 0
    assert warm["summary"]["cached"] == 6
    shard_totals = [
        json.loads((tmp_path / f"s{i}.json").read_text())["summary"]
        for i in (1, 2)
    ]
    assert sum(s["evaluated"] for s in shard_totals) == 6
    assert sum(s["total"] for s in shard_totals) == 6


def test_cli_resweep_after_lost_shard(tmp_path, capsys):
    """Resuming through the CLI: merge the shards that arrived, re-sweep
    the same grid, and only the lost shard's cells are evaluated."""
    grid = ["--workloads", "dwconv,conv2x2,gesum_u2",
            "--arch", "st", "--arch", "plaid"]
    for index in (1, 2):
        clear_caches()
        assert _run_cli(["sweep", *grid, "--shard", f"{index}/2",
                         "--cache-dir", str(tmp_path / f"cache{index}"),
                         "--format", "json",
                         "--output", str(tmp_path / f"s{index}.json")]) == 0
    clear_caches()
    assert _run_cli(["cache", "merge", str(tmp_path / "cache1"),
                     "--into", str(tmp_path / "partial")]) == 0
    assert _run_cli(["sweep", *grid, "--cache-dir", str(tmp_path / "partial"),
                     "--format", "json",
                     "--output", str(tmp_path / "resume.json")]) == 0
    clear_caches()
    shards = [json.loads((tmp_path / f"s{i}.json").read_text())
              for i in (1, 2)]
    resume = json.loads((tmp_path / "resume.json").read_text())
    assert resume["summary"]["evaluated"] == shards[1]["summary"]["total"]
    assert resume["summary"]["cached"] == shards[0]["summary"]["total"]
    assert resume["summary"]["failed"] == 0
    lost = {(c["workload"], c["arch"]) for c in shards[1]["cells"]}
    assert {(c["workload"], c["arch"]) for c in resume["cells"]
            if not c["cached"]} == lost


def test_cli_sweep_rejects_bad_shard_spec(capsys):
    assert _run_cli(["sweep", "--workloads", "dwconv", "--arch", "plaid",
                     "--no-cache", "--shard", "5/2"]) == 2
    assert "bad shard spec" in capsys.readouterr().err


def test_cli_cache_merge_flags_conflicts(tmp_path, capsys):
    a = _seed_store(tmp_path / "a", names=("dwconv",))
    b = ResultStore(tmp_path / "b")
    fp = sorted(a.fingerprints())[0]
    altered = json.loads(a.entry_path(fp).read_text())
    altered["result"]["cycles"] = 123456789
    b.entry_path(fp).write_text(json.dumps(altered, indent=0))

    assert _run_cli(["cache", "merge", str(a.root), str(b.root),
                     "--into", str(tmp_path / "dst")]) == 1
    out = capsys.readouterr().out
    assert "1 conflicts" in out and f"conflict: {fp}" in out


def test_cli_cache_stats_json(tmp_path, capsys):
    store = _seed_store(tmp_path / "store")
    entries = len(store)
    assert _run_cli(["cache", "stats", str(store.root), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"] == entries
    assert data["results"] == entries
    assert data["by_schema"] == {str(SCHEMA_VERSION): entries}


def test_cli_cache_stats_missing_dir(tmp_path, capsys):
    assert _run_cli(["cache", "stats", str(tmp_path / "nope")]) == 2
    assert "no store directory" in capsys.readouterr().err


def test_cli_cache_gc(tmp_path, capsys):
    store = _seed_store(tmp_path / "store")
    entries = len(store)
    fps = sorted(store.fingerprints())
    # One corrupt entry, one schema-stale entry, one abandoned temp file.
    store.entry_path(fps[0]).write_text("garbage{{{")
    stale = {"schema": SCHEMA_VERSION + 5, "fingerprint": "x"}
    (store.root / f"{'f' * 64}.json").write_text(json.dumps(stale))
    (store.root / ".tmp-dead.json").write_text("{")

    assert _run_cli(["cache", "gc", str(store.root),
                     "--schema", str(SCHEMA_VERSION)]) == 0
    out = capsys.readouterr().out
    assert "removed 3" in out
    inv = inventory(store.root)
    assert inv.entries == entries - 1
    assert inv.corrupt == 0 and inv.stale == 0 and inv.temp_files == 0


def test_cache_stats_and_gc_cover_native(tmp_path, capsys):
    """A leftover ``native/`` artifact directory is neither counted nor
    pruned: stats and gc see only the store's own entries."""
    store = tmp_path / "store"
    native = store / "native"
    native.mkdir(parents=True)
    names = ["route-v1-aabbccdd00112233.c", "route-v1-aabbccdd00112233.so",
             "route-v1-aa.lock", ".tmp-sim-v1-bb-99.so"]
    for name in names:
        (native / name).write_text("artifact")

    from repro.eval.distributed import gc_store, inventory

    inv = inventory(store)
    assert inv.entries == 0 and inv.temp_files == 0
    assert inv.total_bytes == 0

    report = gc_store(store)
    assert report.removed == 0 and report.kept == 0
    assert sorted(p.name for p in native.iterdir()) == sorted(names)

    assert cli_main(["cache", "stats", str(store)]) == 0
    assert "native" not in capsys.readouterr().out.replace(str(store), "")
    assert cli_main(["cache", "gc", str(store)]) == 0
    assert "removed 0" in capsys.readouterr().out
    assert sorted(p.name for p in native.iterdir()) == sorted(names)


def test_gc_older_than_removes_expired_entries(tmp_path):
    store = _seed_store(tmp_path / "store")
    fps = sorted(store.fingerprints())
    old = store.entry_path(fps[0])
    ancient = old.stat().st_mtime - 10_000
    os.utime(old, (ancient, ancient))
    report = gc_store(store.root, older_than=3600)
    assert report.removed_old == 1
    assert report.kept == len(fps) - 1
    assert fps[0] not in ResultStore(tmp_path / "store")


def test_gc_tolerates_future_mtimes_from_clock_skew(tmp_path):
    """An entry rsync'd from a host whose clock ran ahead carries a
    future mtime; gc must keep it (not treat it as infinitely fresh
    forever), rewrite its mtime to now, and expire it normally once it
    ages past the threshold from that first observation."""
    store = _seed_store(tmp_path / "store")
    fps = sorted(store.fingerprints())
    skewed = store.entry_path(fps[0])
    now = skewed.stat().st_mtime
    os.utime(skewed, (now + 50_000, now + 50_000))

    report = gc_store(store.root, older_than=3600, now=now)
    assert report.removed_old == 0
    assert report.kept == len(fps)
    assert fps[0] in ResultStore(tmp_path / "store")
    # Normalized: the entry ages from this pass, not from the future.
    assert abs(skewed.stat().st_mtime - now) < 1.0
    later = gc_store(store.root, older_than=3600, now=now + 7200)
    assert later.removed_old == len(fps)
    assert fps[0] not in ResultStore(tmp_path / "store")


def test_parse_duration():
    assert parse_duration("90") == 90.0
    assert parse_duration("90s") == 90.0
    assert parse_duration("15m") == 900.0
    assert parse_duration("6h") == 21600.0
    assert parse_duration("7d") == 604800.0
    assert parse_duration("2w") == 1209600.0
    for bad in ("", "x", "7y", "-3", "nan", "inf", "1e400"):
        with pytest.raises(ReproError):
            parse_duration(bad)
    with pytest.raises(ReproError, match="bad duration 'xh'"):
        parse_duration("xh")
    with pytest.raises(ReproError, match="duration '1e400s' is not finite"):
        parse_duration("1e400s")
