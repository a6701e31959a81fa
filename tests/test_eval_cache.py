"""The persistent result store: round-trips, fingerprints, schema
versioning, and corruption recovery."""

import json

import pytest

from repro.eval import cache
from repro.eval.harness import (
    build_arch, clear_caches, configure_store, evaluate_kernel,
    evaluation_fingerprint, EVAL_STATS,
)
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)
    yield
    clear_caches()


@pytest.fixture
def store(tmp_path):
    return cache.ResultStore(tmp_path / "store")


def _result(workload="dwconv", arch_key="plaid", mapper=None):
    return evaluate_kernel(workload, arch_key, mapper)


# ---------------------------------------------------------------------------
# Serialization round-trip
# ---------------------------------------------------------------------------
def test_result_roundtrip_is_exact():
    result = _result()
    clone = cache.result_from_dict(cache.result_to_dict(result))
    assert clone == result
    assert clone.energy == result.energy            # float-exact
    assert clone.power.components == result.power.components
    assert clone.perf_per_area == result.perf_per_area


def test_store_roundtrip(store):
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    assert store.get(fp) is None                    # cold miss
    store.put(fp, result)
    assert fp in store and len(store) == 1
    assert store.get(fp) == result
    assert store.stats.hits == 1 and store.stats.writes == 1


def test_store_survives_process_boundary(tmp_path):
    """A second 'process' (fresh memo) reads what the first wrote."""
    configure_store(tmp_path / "store")
    first = evaluate_kernel("dwconv", "st")
    assert EVAL_STATS.computed == 1

    clear_caches()                                  # simulate a new process
    configure_store(tmp_path / "store")
    second = evaluate_kernel("dwconv", "st")
    assert second == first
    assert EVAL_STATS.computed == 0 and EVAL_STATS.store_hits == 1
    # Derived sums too: dict equality is order-insensitive but float
    # accumulation is not, so the stored entry must preserve component
    # order bit-for-bit (regression: sort_keys reordered them once).
    assert second.power.total_mw == first.power.total_mw
    assert second.area.fabric_um2 == first.area.fabric_um2
    assert second.perf_per_area == first.perf_per_area


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
def test_fingerprint_is_stable():
    fp1 = evaluation_fingerprint("dwconv", "plaid")
    fp2 = evaluation_fingerprint("dwconv", "plaid", "plaid")
    assert fp1 == fp2                               # default mapper resolved
    assert fp1 == evaluation_fingerprint("dwconv", "plaid")
    assert len(fp1) == 64 and int(fp1, 16) >= 0


def test_fingerprint_differs_per_configuration():
    fps = {
        evaluation_fingerprint("dwconv", "plaid"),
        evaluation_fingerprint("dwconv", "plaid3x3"),   # other arch size
        evaluation_fingerprint("conv2x2", "plaid"),     # other workload
        evaluation_fingerprint("dwconv", "st", "sa"),   # other mapper
        evaluation_fingerprint("dwconv", "st", "best"),
    }
    assert len(fps) == 5


def test_fingerprint_tracks_arch_config_change():
    """Mutating the fabric (params or structure) must change the key."""
    spec = get_workload("dwconv")
    arch = build_arch("plaid")
    base = cache.fingerprint(spec, arch, "plaid", 1)

    import copy
    tweaked = copy.deepcopy(arch)
    tweaked.params["reconfig_cycles"] = 999
    assert cache.fingerprint(spec, tweaked, "plaid", 1) != base

    stripped = copy.deepcopy(arch)
    stripped.bypass_pairs.clear()
    assert cache.fingerprint(spec, stripped, "plaid", 1) != base

    # Every Architecture field is covered — retuning SPM geometry or a
    # routing capacity must invalidate too (regression: the signature
    # once listed fields by hand and missed these).
    respmmed = copy.deepcopy(arch)
    respmmed.spm_banks += 1
    assert cache.fingerprint(spec, respmmed, "plaid", 1) != base
    recapped = copy.deepcopy(arch)
    first_resource = next(iter(recapped.resource_caps))
    recapped.resource_caps[first_resource] += 1
    assert cache.fingerprint(spec, recapped, "plaid", 1) != base

    assert cache.fingerprint(spec, arch, "plaid", 2) != base     # seed
    assert cache.fingerprint(spec, arch, "plaid", 1) == base     # stable


# ---------------------------------------------------------------------------
# Schema versioning
# ---------------------------------------------------------------------------
def test_schema_bump_discards_stale_entries(tmp_path):
    root = tmp_path / "store"
    old = cache.ResultStore(root, schema_version=cache.SCHEMA_VERSION)
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    old.put(fp, result)

    new = cache.ResultStore(root, schema_version=cache.SCHEMA_VERSION + 1)
    assert new.get(fp) is None
    assert new.stats.stale == 1
    assert fp not in new                    # stale entry removed on contact
    # The slot heals: the new schema can re-populate it.
    new.put(fp, result)
    assert new.get(fp) == result


# ---------------------------------------------------------------------------
# Corruption recovery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("damage", [
    "",                                         # truncated to nothing
    "{\"schema\":",                             # cut mid-JSON
    "[1, 2, 3]",                                # wrong top-level type
    json.dumps({"schema": cache.SCHEMA_VERSION}),           # missing result
    json.dumps({"schema": cache.SCHEMA_VERSION,
                "result": {"workload": "dwconv"}}),         # partial result
])
def test_corrupt_entries_recovered_not_crashed(store, damage):
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)
    store.entry_path(fp).write_text(damage)

    assert store.get(fp) is None                # miss, no exception
    assert store.stats.corrupt + store.stats.stale >= 1
    assert fp not in store                      # damaged file deleted
    store.put(fp, result)                       # and the slot still works
    assert store.get(fp) == result


def test_binary_garbage_entry_recovered(store):
    """Non-UTF-8 bytes in an entry (disk corruption) are a miss too."""
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)
    store.entry_path(fp).write_bytes(b"\xff\xfe\x00garbage\x80")

    assert store.get(fp) is None
    assert store.stats.corrupt == 1
    assert fp not in store
    store.put(fp, result)
    assert store.get(fp) == result


def test_contains_is_false_for_stale_entries(store):
    """Regression: ``in`` once reported True for schema-stale entries
    that ``get()`` would treat as misses."""
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)

    newer = cache.ResultStore(store.root,
                              schema_version=cache.SCHEMA_VERSION + 1)
    # Membership probed BEFORE any get(): must already read as absent.
    assert fp not in newer
    # The probe is read-only: no deletion, no stats mutation.
    assert newer.entry_path(fp).exists()
    assert newer.stats.stale == 0 and newer.stats.misses == 0
    # And get() agrees (and heals the slot as usual).
    assert newer.get(fp) is None
    assert fp not in newer


def test_contains_is_false_for_corrupt_entries(store):
    """Regression: ``in`` once reported True for corrupt entries."""
    fp = evaluation_fingerprint("dwconv", "plaid")
    path = store.entry_path(fp)
    path.write_text("garbage{{{")
    assert fp not in store                  # no get() call first
    assert path.exists()                    # probe did not delete
    assert store.stats.corrupt == 0         # ... or count anything
    assert store.get(fp) is None            # get() agrees and heals
    assert not path.exists()

    path.write_bytes(b"\xff\xfe\x00garbage")    # binary damage too
    assert fp not in store
    store.put(fp, _result())
    assert fp in store                      # healthy entries still match


def test_corrupt_entry_heals_through_harness(tmp_path):
    """End to end: a damaged cache file silently recomputes."""
    configure_store(tmp_path / "store")
    first = evaluate_kernel("dwconv", "plaid")
    fp = evaluation_fingerprint("dwconv", "plaid")
    (tmp_path / "store" / f"{fp}.json").write_text("garbage{{{")

    clear_caches()
    store = configure_store(tmp_path / "store")
    again = evaluate_kernel("dwconv", "plaid")
    assert again == first
    assert EVAL_STATS.computed == 1             # recomputed, not served
    assert store.get(fp) == first               # and re-persisted


def test_unwritable_store_degrades_to_recompute(store, monkeypatch):
    """A full/unwritable cache dir must not abort the evaluation."""
    import tempfile as _tempfile

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(_tempfile, "mkstemp", refuse)
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)                       # swallowed, counted
    assert store.stats.write_errors == 1
    assert fp not in store

    monkeypatch.undo()
    store.put(fp, result)                       # recovers once writable
    assert store.get(fp) == result


def test_put_killed_before_rename_keeps_previous_entry(store, monkeypatch):
    """Kill-mid-write regression: a writer dying between the temp-file
    write and the ``os.replace`` must leave the previous entry visible
    and byte-identical — readers (and an rsync of the directory) never
    observe a truncated entry."""
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)
    before = store.entry_path(fp).read_bytes()

    from repro.utils import atomicio

    def killed(src, dst):
        raise OSError(5, "writer killed mid-rename")

    monkeypatch.setattr(atomicio.os, "replace", killed)
    store.put(fp, result)                       # swallowed, counted
    assert store.stats.write_errors == 1
    monkeypatch.undo()

    assert store.entry_path(fp).read_bytes() == before
    assert store.get(fp) == result
    # The interrupted write left no temp debris in the entry listing.
    assert list(store.fingerprints()) == [fp]


def test_deterministic_failures_persist_across_processes(tmp_path):
    """A doomed configuration is not re-attempted in a fresh process:
    the failure itself is cached (with its concrete error type)."""
    from repro.errors import ReproError

    configure_store(tmp_path / "store")
    with pytest.raises(ReproError):
        evaluate_kernel("dwconv", "st", "magic")

    clear_caches()                                  # simulate new process
    configure_store(tmp_path / "store")
    with pytest.raises(ReproError, match="magic"):
        evaluate_kernel("dwconv", "st", "magic")
    assert EVAL_STATS.computed == 0                 # served from the store
    assert EVAL_STATS.store_hits == 1


def test_leftover_temp_files_are_not_entries(store):
    """A writer killed between mkstemp and replace leaves .tmp-*.json
    behind; those must not count as entries or yield fake keys."""
    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)
    (store.root / ".tmp-dead.json").write_text("{")

    assert len(store) == 1
    assert list(store.fingerprints()) == [fp]


# ---------------------------------------------------------------------------
# Power-loss durability (fsync ordering in atomic_write_text)
# ---------------------------------------------------------------------------
def test_atomic_write_fsyncs_data_before_rename(tmp_path, monkeypatch):
    """Power-loss regression: rename atomicity is metadata-only, so the
    temp file's data must hit disk *before* os.replace commits the new
    name — otherwise journal replay can surface a zero-length entry
    under the destination name."""
    from repro.utils import atomicio

    events = []
    real_fsync, real_replace = atomicio.os.fsync, atomicio.os.replace

    def spy_fsync(fd):
        events.append("fsync")
        return real_fsync(fd)

    def spy_replace(src, dst):
        events.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr(atomicio.os, "fsync", spy_fsync)
    monkeypatch.setattr(atomicio.os, "replace", spy_replace)
    atomicio.atomic_write_text(tmp_path / "entry.json", '{"ok": 1}')
    assert events[:2] == ["fsync", "replace"]   # data durable first
    # ... and the rename record itself afterwards (directory fsync).
    assert events.count("fsync") == 2
    assert (tmp_path / "entry.json").read_text() == '{"ok": 1}'


def test_fsync_failure_keeps_previous_entry(store, monkeypatch):
    """A filesystem refusing the data fsync behaves like any other
    failed write: counted, swallowed, previous entry intact, no temp
    debris."""
    from repro.utils import atomicio

    result = _result()
    fp = evaluation_fingerprint("dwconv", "plaid")
    store.put(fp, result)
    before = store.entry_path(fp).read_bytes()

    def refuse(fd):
        raise OSError(5, "fsync refused")

    monkeypatch.setattr(atomicio.os, "fsync", refuse)
    store.put(fp, result)
    assert store.stats.write_errors == 1
    monkeypatch.undo()

    assert store.entry_path(fp).read_bytes() == before
    assert store.get(fp) == result
    assert list(store.fingerprints()) == [fp]


def test_directory_fsync_failure_is_swallowed(tmp_path, monkeypatch):
    """Platforms/filesystems that refuse to open directories still get
    a correct (merely less durable) write."""
    import os as _os

    from repro.utils import atomicio

    real_open = atomicio.os.open

    def refuse_directories(path, flags, *args):
        if flags & getattr(_os, "O_DIRECTORY", 0):
            raise OSError(22, "directory fds unsupported here")
        return real_open(path, flags, *args)

    monkeypatch.setattr(atomicio.os, "open", refuse_directories)
    atomicio.atomic_write_text(tmp_path / "f.json", "ok")
    assert (tmp_path / "f.json").read_text() == "ok"
    atomicio.fsync_dir(tmp_path / "does-not-exist")     # also a no-op


def test_inventory_counts_reader_skipped(store):
    from repro.eval.distributed import inventory

    result = _result()
    store.put(evaluation_fingerprint("dwconv", "plaid"), result)
    (store.root / ("e" * 64 + ".json")).write_text("not json at all")

    inv = inventory(store.root)
    assert inv.results == 1
    assert inv.corrupt == 1
    assert inv.reader_skipped == 1
    assert "reader-skipped: 1" in inv.render()


# ---------------------------------------------------------------------------
# Concurrent access (the serve workload in miniature)
# ---------------------------------------------------------------------------
def test_concurrent_readers_never_observe_partial_entries(tmp_path):
    """Threaded get/stats racing puts and an aggressive gc:
    readers may see an entry or its absence, never a torn one."""
    import threading
    import time as _time

    from repro.eval.distributed import gc_store

    result = _result()
    fps = [format(i, "x") * 16 for i in range(1, 17)]   # 64-hex-ish names
    root = tmp_path / "hammer"
    cache.ResultStore(root)                             # create the dir
    stop = threading.Event()
    corrupt: list = []
    errors: list = []

    def writer():
        mine = cache.ResultStore(root)
        try:
            while not stop.is_set():
                for fp in fps:
                    mine.put(fp, result)
        except BaseException as error:      # noqa: BLE001
            errors.append(error)

    def reader():
        mine = cache.ResultStore(root)
        try:
            while not stop.is_set():
                for fp in fps[::3]:
                    got = mine.get(fp)
                    assert got is None or got == result
                len(mine)
        except BaseException as error:      # noqa: BLE001
            errors.append(error)
        corrupt.append(mine.stats.corrupt)

    def collector():
        try:
            while not stop.is_set():
                # older_than=0 expires everything it scans — the most
                # hostile deletion pattern a reader can face.
                gc_store(root, older_than=0.0)
                _time.sleep(0.01)
        except BaseException as error:      # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=writer),
               threading.Thread(target=reader),
               threading.Thread(target=reader),
               threading.Thread(target=collector)]
    for thread in threads:
        thread.start()
    _time.sleep(0.8)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)

    assert not errors
    # A corrupt read would mean a reader saw a torn entry —
    # atomic_write_text's whole contract.
    assert corrupt == [0, 0]
    # The directory is still a fully usable store afterwards.
    survivor = cache.ResultStore(root)
    for fp in fps:
        survivor.put(fp, result)
    assert all(survivor.get(fp) == result for fp in fps)
