"""Distributed sweeps: sharded grids, mergeable stores, resumable runs.

The one-file-per-entry layout of :class:`~repro.eval.cache.ResultStore`
was designed so a cache directory can be shared or rsync'd between
hosts; this module adds the layer that exploits it:

* **Deterministic sharding.**  ``repro sweep --shard i/N`` partitions
  any grid by *cell fingerprint* (:func:`shard_of`): the assignment is a
  pure function of the cell's configuration, so every host — whatever
  its grid ordering, ``--jobs`` count, or code path — agrees on which
  shard owns which cell, and the N shards are a disjoint cover of the
  grid.  Cells that cannot be fingerprinted (unknown workload/arch:
  per-cell failures when swept) fall back to a digest of the raw key so
  they too land in exactly one shard.
* **Mergeable stores.**  :func:`merge_stores` unions shard cache
  directories fingerprint-by-fingerprint, copying entries *byte-for-
  byte* — evaluation is deterministic (stable seeds, canonical entry
  serialization), so the union of N shard stores is bit-identical to
  the store a single-host sweep would have written.  The conflict
  policy (see :func:`merge_stores`) is deterministic and independent of
  source order; damaged or schema-mismatched entries are skipped and
  reported, never crashed on, and a newer-schema entry already in the
  destination is never overwritten.
* **Resume through the store.**  Re-sweeping the same grid against the
  (merged) store evaluates only the cells whose fingerprint has no
  entry — after a crash, or after a shard's store was lost.

Store-maintenance helpers (:func:`inventory`, :func:`gc_store`) back the
``repro cache stats`` / ``repro cache gc`` commands.

The store directory's format (which paths are entries, how one is
read, what counts as an existing store) belongs to :mod:`repro.eval.cache`;
merge, inventory and gc here state only their policies on top of it.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.eval import harness
from repro.eval.cache import RawEntry, ResultStore, existing_store, read_entry
from repro.eval.parallel import SweepCell

__all__ = [
    "GcReport", "MergeReport", "ShardSpec", "StoreInventory", "gc_store",
    "inventory", "merge_stores", "parse_duration", "parse_shard",
    "shard_cells", "shard_of",
]


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard of an N-way grid partition (1-based: ``1/N`` .. ``N/N``)."""

    index: int
    count: int

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def parse_shard(text: str) -> ShardSpec:
    """Parse ``"i/N"`` (e.g. ``2/3``); shards are numbered 1..N."""
    try:
        index_text, count_text = text.split("/")
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ReproError(
            f"bad shard spec '{text}' (expected i/N, e.g. 2/3)") from None
    if count < 1 or not 1 <= index <= count:
        raise ReproError(
            f"bad shard spec '{text}': need 1 <= i <= N")
    return ShardSpec(index=index, count=count)


def _fallback_digest(cell: SweepCell) -> str:
    """Shard key for cells with no fingerprint (unknown workload/arch)."""
    key = "\x1f".join(cell.key())
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def shard_of(cell: SweepCell, count: int) -> int:
    """The 1-based shard owning ``cell`` in an N-way partition.

    A pure function of the cell's evaluation fingerprint, so the
    assignment is identical on every host and invariant under grid
    ordering, worker counts, and duplicates.
    """
    if count < 1:
        raise ReproError(f"shard count must be >= 1, got {count}")
    digest = harness.try_fingerprint(*cell.key()) or _fallback_digest(cell)
    return int(digest, 16) % count + 1


def shard_cells(cells: list[SweepCell], spec: ShardSpec
                ) -> list[SweepCell]:
    """The sub-grid owned by ``spec``, in the grid's original order."""
    return [cell for cell in cells
            if shard_of(cell, spec.count) == spec.index]


# ---------------------------------------------------------------------------
# Store merging
# ---------------------------------------------------------------------------
@dataclass
class MergeReport:
    """What one :func:`merge_stores` run did, per the documented policy."""

    sources: list[str]
    destination: str
    scanned: int = 0            # source entries examined
    added: int = 0              # new fingerprints written to dest
    identical: int = 0          # byte-identical to dest (no-op)
    healed: int = 0             # replaced a corrupt/older-schema dest entry
    conflicts: list[str] = field(default_factory=list)  # fingerprints
    source_won: int = 0         # conflicts resolved toward the source copy
    dest_won: int = 0           # conflicts resolved toward the dest copy
    corrupt_skipped: int = 0    # damaged source entries left behind
    schema_skipped: int = 0     # schema-mismatched source entries skipped
    protected: int = 0          # newer-schema dest entries left untouched

    @property
    def clean(self) -> bool:
        return not (self.conflicts or self.corrupt_skipped
                    or self.schema_skipped)

    def summary(self) -> str:
        return (f"merged {len(self.sources)} store(s) into "
                f"{self.destination}: {self.scanned} scanned, "
                f"{self.added} added, {self.identical} identical, "
                f"{self.healed} healed, {len(self.conflicts)} conflicts "
                f"({self.source_won} source/{self.dest_won} dest wins), "
                f"{self.corrupt_skipped} corrupt skipped, "
                f"{self.schema_skipped} schema skipped, "
                f"{self.protected} newer-schema protected")


def _entry_rank(entry: RawEntry) -> tuple[int, str]:
    """Deterministic conflict order: results beat recorded failures,
    then the lexicographically smallest canonical text wins.  Using a
    total order (rather than "first writer wins") makes the merged
    store independent of the order sources are listed in."""
    return (1 if entry.is_failure else 0, entry.text)


def merge_stores(sources: "list[Path | str | ResultStore]",
                 dest: "Path | str | ResultStore") -> MergeReport:
    """Fingerprint-keyed union of shard stores into ``dest``.

    The documented policy, applied per source entry (sources are never
    modified):

    * **corrupt** (truncated/garbled/unparseable) — skipped, counted;
    * **schema-mismatched** (entry schema differs from the
      destination's) — skipped, counted; entries are never migrated
      across schema versions;
    * **ok, new fingerprint** — copied byte-for-byte;
    * **ok, destination corrupt or older-schema at that fingerprint**
      — the destination slot is healed with the source copy;
    * **ok, destination carries a NEWER schema** — destination kept
      untouched (never silently overwrite newer-schema entries);
    * **ok, destination byte-identical** — no-op (the expected case:
      evaluation is deterministic);
    * **ok, destination differs on the same schema** — a *conflict*:
      resolved deterministically (result beats failure, then smallest
      canonical text), recorded in the report.  Conflicts mean two
      hosts disagreed on a supposedly deterministic evaluation —
      usually version skew — so they are surfaced, never silent.

    Raises :class:`ReproError` if ``dest`` is also listed as a source
    or a source directory does not exist.
    """
    # Validate every source before the destination store is even
    # constructed (constructing it mkdirs): a typo'd source must not
    # leave an empty destination directory behind.
    dest_root = dest.root if isinstance(dest, ResultStore) else Path(dest)
    if dest_root.exists() and not dest_root.is_dir():
        raise ReproError(
            f"merge destination '{dest_root}' is not a directory "
            "(--into takes a store directory, e.g. --into merged-cache)")
    stores = []
    for source in sources:
        store = existing_store(source)
        if store.root.resolve() == dest_root.resolve():
            raise ReproError(
                f"destination {dest_root} is also listed as a source")
        stores.append(store)
    report = MergeReport(sources=[str(store.root) for store in stores],
                         destination=str(dest_root))
    if not isinstance(dest, ResultStore):
        dest = ResultStore(dest_root)

    for source in stores:
        for path in source.scan()[0]:
            report.scanned += 1
            candidate = read_entry(path, dest.schema_version)
            if candidate.status == "stale":
                report.schema_skipped += 1
                continue
            if not candidate.ok:        # corrupt, or gone since the scan
                report.corrupt_skipped += 1
                continue
            fp = candidate.fingerprint
            existing = read_entry(dest.entry_path(fp), dest.schema_version)
            if existing.status == "missing":
                dest.put_raw(fp, candidate.text)
                report.added += 1
                continue
            if existing.status == "stale" and existing.schema is not None \
                    and existing.schema > dest.schema_version:
                report.protected += 1           # never clobber newer data
                continue
            if existing.status in ("corrupt", "stale"):
                dest.put_raw(fp, candidate.text)
                report.healed += 1
                continue
            if existing.text == candidate.text:
                report.identical += 1
                continue
            if fp not in report.conflicts:      # 3+ sources: report once
                report.conflicts.append(fp)
            if _entry_rank(candidate) < _entry_rank(existing):
                dest.put_raw(fp, candidate.text)
                report.source_won += 1
            else:
                report.dest_won += 1
    return report


# ---------------------------------------------------------------------------
# Store stats / gc
# ---------------------------------------------------------------------------
@dataclass
class StoreInventory:
    """What ``repro cache stats`` reports about one store directory."""

    root: str
    entries: int = 0
    results: int = 0
    failures: int = 0
    stale: int = 0
    corrupt: int = 0
    temp_files: int = 0
    #: Non-files (directories) at entry paths: their cells cannot be
    #: stored, so every sweep re-evaluates them.  gc removes empty ones.
    blocked: int = 0
    total_bytes: int = 0
    by_schema: dict = field(default_factory=dict)   # schema -> count
    #: Damaged entries a reader skips: corrupt + schema-stale.
    #: ``ResultStore.get`` reads one as a miss (and deletes it), so its
    #: cell is re-evaluated instead of answered from the store — gc the
    #: store.
    reader_skipped: int = 0

    def render(self) -> str:
        schemas = ", ".join(
            f"v{schema}: {count}"
            for schema, count in sorted(
                self.by_schema.items(),
                key=lambda item: (item[0] is None, item[0]))) or "none"
        return "\n".join([
            f"store: {self.root}",
            f"entries: {self.entries} ({self.results} results, "
            f"{self.failures} failures, {self.stale} schema-stale, "
            f"{self.corrupt} corrupt)",
            f"schemas: {schemas}",
            f"reader-skipped: {self.reader_skipped} "
            "(damaged entries readers skip; gc to heal)",
            f"temp files: {self.temp_files}",
            f"blocked: {self.blocked} (entry paths that are not files; "
            "their cells re-evaluate every sweep; gc removes empty ones)",
            f"size: {self.total_bytes} bytes",
        ])

    def as_dict(self) -> dict:
        """The JSON form (``repro cache stats --json``, ``GET /stats``):
        JSON objects can't key on None/int, so schema keys are strings."""
        data = asdict(self)
        data["by_schema"] = {str(k): v for k, v in self.by_schema.items()}
        return data


def inventory(store: "Path | str | ResultStore") -> StoreInventory:
    """Pure scan of a store directory (nothing deleted, no stats bumped)."""
    store = existing_store(store)
    entries, debris, blocked = store.scan()
    inv = StoreInventory(
        root=str(store.root), entries=len(entries), temp_files=len(debris),
        blocked=len(blocked),
        total_bytes=sum(path.stat().st_size for path in entries + debris))
    for path in entries:
        entry = read_entry(path, store.schema_version)
        inv.by_schema[entry.schema] = inv.by_schema.get(entry.schema, 0) + 1
        if entry.status == "stale":
            inv.stale += 1
        elif not entry.ok:
            inv.corrupt += 1
        elif entry.is_failure:
            inv.failures += 1
        else:
            inv.results += 1
    inv.reader_skipped = inv.stale + inv.corrupt
    return inv


@dataclass
class GcReport:
    """What one :func:`gc_store` pass removed."""

    removed_corrupt: int = 0
    removed_schema: int = 0
    removed_old: int = 0
    removed_temp: int = 0
    removed_blocked: int = 0
    kept: int = 0

    @property
    def removed(self) -> int:
        return (self.removed_corrupt + self.removed_schema + self.removed_old
                + self.removed_temp + self.removed_blocked)

    def summary(self) -> str:
        return (f"gc: removed {self.removed} "
                f"({self.removed_corrupt} corrupt, "
                f"{self.removed_schema} schema-mismatched, "
                f"{self.removed_old} expired, "
                f"{self.removed_temp} temp, "
                f"{self.removed_blocked} blocking directories), "
                f"kept {self.kept}")


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
                   "w": 604800.0}


def parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"6h"``/``"7d"``/``"2w"`` -> seconds."""
    number = text.strip().lower()
    scale = 1.0
    if number and number[-1] in _DURATION_UNITS:
        scale = _DURATION_UNITS[number[-1]]
        number = number[:-1]
    try:
        seconds = float(number) * scale
    except ValueError:
        raise ReproError(
            f"bad duration '{text}' (expected NUMBER[s|m|h|d|w])") from None
    if not math.isfinite(seconds):
        raise ReproError(f"duration '{text}' is not finite")
    if seconds < 0:
        raise ReproError(f"duration '{text}' must be >= 0")
    return seconds


def gc_store(store: "Path | str | ResultStore", *,
             schema: int | None = None,
             older_than: float | None = None,
             now: float | None = None) -> GcReport:
    """Prune a store directory.

    Always removes corrupt entries, abandoned ``.tmp-*`` files and
    empty directories blocking an entry path (do not run concurrently
    with an active sweep writing this store: a live writer whose temp
    file disappears loses that one write — it is counted and recomputed
    later, never wrong).  With ``schema``, removes entries whose
    recorded schema differs from it; with ``older_than`` (seconds),
    removes entries whose mtime is older.  Healthy, in-schema, young
    entries are always kept.

    Entries with a *future* mtime (clock skew: rsync'd from a host whose
    clock ran ahead) would otherwise read as infinitely fresh and never
    expire; gc rewrites their mtime to ``now``, so they age normally
    from the first pass that observes them.
    """
    store = existing_store(store)
    now = time.time() if now is None else now
    entries, debris, blocked = store.scan()
    for path in debris:
        path.unlink(missing_ok=True)
    report = GcReport(removed_temp=len(debris))
    for path in blocked:
        try:
            path.rmdir()
        except OSError:
            continue            # not empty, or not a directory: leave it
        report.removed_blocked += 1
    for path in entries:
        entry = read_entry(path, store.schema_version)
        if entry.status in ("corrupt", "missing"):
            path.unlink(missing_ok=True)
            report.removed_corrupt += 1
            continue
        if schema is not None and entry.schema != schema:
            path.unlink(missing_ok=True)
            report.removed_schema += 1
            continue
        if older_than is not None:
            mtime = path.stat().st_mtime
            if mtime > now:
                os.utime(path, (now, now))
                mtime = now
            if mtime < now - older_than:
                path.unlink(missing_ok=True)
                report.removed_old += 1
                continue
        report.kept += 1
    return report
