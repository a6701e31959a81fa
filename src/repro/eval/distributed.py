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
* **Resumable manifests.**  A :class:`SweepManifest` records the grid
  (cell keys + fingerprints + shard assignment) and per-cell completion;
  ``repro sweep --manifest FILE`` re-evaluates only the cells still
  missing — after a crash, or after merging the other hosts' shards.

Store-maintenance helpers (:func:`inventory`, :func:`gc_store`) back the
``repro cache stats`` / ``repro cache gc`` commands.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.eval.cache import (
    SCHEMA_VERSION, RawEntry, ResultStore, load_raw_entry,
)
from repro.eval.parallel import SweepCell, cell_fingerprint
from repro.utils.atomicio import atomic_write_text, is_temp_file

__all__ = [
    "GcReport", "MANIFEST_VERSION", "MergeReport", "ShardSpec",
    "StoreInventory", "SweepManifest", "gc_store", "inventory",
    "merge_stores", "parse_duration", "parse_shard", "shard_cells",
    "shard_of",
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


def shard_of(cell: SweepCell, count: int,
             fingerprint: str | None = None) -> int:
    """The 1-based shard owning ``cell`` in an N-way partition.

    A pure function of the cell's evaluation fingerprint (pass one to
    skip recomputing it), so the assignment is identical on every host
    and invariant under grid ordering, worker counts, and duplicates.
    """
    if count < 1:
        raise ReproError(f"shard count must be >= 1, got {count}")
    digest = fingerprint or cell_fingerprint(cell) or _fallback_digest(cell)
    return int(digest, 16) % count + 1


def shard_cells(cells: list[SweepCell], spec: ShardSpec
                ) -> list[SweepCell]:
    """The sub-grid owned by ``spec``, in the grid's original order."""
    return [cell for cell in cells
            if shard_of(cell, spec.count) == spec.index]


# ---------------------------------------------------------------------------
# Sweep manifests
# ---------------------------------------------------------------------------
MANIFEST_VERSION = 1


@dataclass
class ManifestCell:
    """One grid cell's bookkeeping inside a manifest."""

    cell: SweepCell
    fingerprint: str | None
    shard: int
    done: bool = False


@dataclass
class SweepManifest:
    """A sweep's durable plan: grid, shard assignment, completion state.

    The JSON file (written atomically) lets multiple hosts coordinate a
    grid through nothing but a shared filesystem or an rsync'd
    directory: each host sweeps its shard, the stores are merged, and a
    final ``repro sweep --manifest FILE`` pass re-evaluates only what is
    still missing.  ``verify()`` recomputes every fingerprint from the
    current code — a mismatch means the configuration or schema changed
    under the manifest, and resuming would mix incompatible results.
    """

    shards: int
    cells: list[ManifestCell]
    store_schema: int = SCHEMA_VERSION
    version: int = MANIFEST_VERSION

    # -- construction ---------------------------------------------------
    @classmethod
    def from_cells(cls, cells: list[SweepCell], shards: int = 1
                   ) -> "SweepManifest":
        entries = []
        for cell in cells:
            fp = cell_fingerprint(cell)
            entries.append(ManifestCell(
                cell=cell, fingerprint=fp,
                shard=shard_of(cell, shards, fingerprint=fp)))
        return cls(shards=shards, cells=entries)

    # -- (de)serialization ---------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "manifest_version": self.version,
            "store_schema": self.store_schema,
            "shards": self.shards,
            "cells": [
                {"workload": m.cell.workload, "arch": m.cell.arch_key,
                 "mapper": m.cell.mapper, "fingerprint": m.fingerprint,
                 "shard": m.shard, "done": m.done}
                for m in self.cells
            ],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SweepManifest":
        try:
            data = json.loads(text)
            version = int(data["manifest_version"])
            if version != MANIFEST_VERSION:
                raise ReproError(
                    f"unsupported manifest version {version} "
                    f"(this build reads {MANIFEST_VERSION})")
            manifest = cls(
                shards=int(data["shards"]),
                store_schema=int(data["store_schema"]),
                version=version,
                cells=[
                    ManifestCell(
                        cell=SweepCell(workload=str(entry["workload"]),
                                       arch_key=str(entry["arch"]),
                                       mapper=str(entry["mapper"])),
                        fingerprint=(None if entry["fingerprint"] is None
                                     else str(entry["fingerprint"])),
                        shard=int(entry["shard"]),
                        done=bool(entry["done"]),
                    )
                    for entry in data["cells"]
                ],
            )
        except ReproError:
            raise
        except (ValueError, KeyError, TypeError) as error:
            raise ReproError(f"malformed sweep manifest: {error}") from None
        if manifest.shards < 1:
            raise ReproError("malformed sweep manifest: shards < 1")
        return manifest

    def save(self, path: "Path | str") -> None:
        atomic_write_text(Path(path), self.to_json() + "\n")

    @classmethod
    def load(cls, path: "Path | str") -> "SweepManifest":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ReproError(f"cannot read manifest {path}: "
                             f"{error}") from None
        return cls.from_json(text)

    # -- queries --------------------------------------------------------
    @property
    def grid(self) -> list[SweepCell]:
        return [m.cell for m in self.cells]

    def verify(self) -> None:
        """Fail if the manifest no longer matches the current code.

        Fingerprints fold in the workload source, architecture
        structure, mapper key, seed, and store schema — if any of those
        changed since the manifest was written, its completion state
        describes results the current build would not produce.
        """
        if self.store_schema != SCHEMA_VERSION:
            raise ReproError(
                f"stale manifest: written for store schema "
                f"{self.store_schema}, current is {SCHEMA_VERSION}; "
                "start a fresh manifest")
        for m in self.cells:
            if cell_fingerprint(m.cell) != m.fingerprint:
                raise ReproError(
                    f"stale manifest: fingerprint changed for cell "
                    f"{'/'.join(m.cell.key())} (workload, architecture, "
                    "or mapper configuration edited since the manifest "
                    "was written); start a fresh manifest")

    def pending(self, store: ResultStore | None = None,
                shard: ShardSpec | None = None) -> list[SweepCell]:
        """Cells still to evaluate, in grid order.

        A cell is pending unless it is marked done or its fingerprint
        already has a (readable, current-schema) entry in ``store`` —
        which is exactly what a merge of other hosts' shards provides.
        Restricted to ``shard``'s cells when one is given.
        """
        if shard is not None and shard.count != self.shards:
            raise ReproError(
                f"shard spec {shard} does not match the manifest's "
                f"{self.shards}-way partition")
        out = []
        for m in self.cells:
            if shard is not None and m.shard != shard.index:
                continue
            if m.done:
                continue
            if store is not None and m.fingerprint is not None \
                    and m.fingerprint in store:
                continue
            out.append(m.cell)
        return out

    def mark(self, report) -> int:
        """Record a sweep report's successful cells as done.

        Failed cells stay pending in the manifest (deterministic
        failures are already sticky in the store itself, so they are
        not re-dispatched while the store is attached); returns how
        many cells flipped to done.
        """
        done_keys = {o.cell.key() for o in report.outcomes if o.ok}
        flipped = 0
        for m in self.cells:
            if not m.done and m.cell.key() in done_keys:
                m.done = True
                flipped += 1
        return flipped

    def summary(self) -> str:
        done = sum(1 for m in self.cells if m.done)
        return (f"manifest: {len(self.cells)} cells over "
                f"{self.shards} shard(s), {done} done")


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
    report = MergeReport(sources=[], destination=str(dest_root))
    roots = []
    for source in sources:
        root = source.root if isinstance(source, ResultStore) else Path(source)
        if not root.is_dir():
            detail = ("is a regular file, not a store directory"
                      if root.exists() else "does not exist")
            raise ReproError(
                f"source store '{root}' {detail} "
                "(sources must be existing result-store directories)")
        if root.resolve() == dest_root.resolve():
            raise ReproError(
                f"destination {dest_root} is also listed as a source")
        roots.append(root)
        report.sources.append(str(root))
    if not isinstance(dest, ResultStore):
        dest = ResultStore(dest_root)

    for root in roots:
        source = ResultStore(root)
        for path in source.entry_files():
            report.scanned += 1
            candidate = load_raw_entry(path, dest.schema_version)
            if candidate.status == "corrupt":
                report.corrupt_skipped += 1
                continue
            if candidate.status == "stale":
                report.schema_skipped += 1
                continue
            fp = candidate.fingerprint
            dest_path = dest.entry_path(fp)
            if not dest_path.exists():
                dest.put_raw(fp, candidate.text)
                report.added += 1
                continue
            existing = load_raw_entry(dest_path, dest.schema_version)
            if existing.status == "corrupt":
                dest.put_raw(fp, candidate.text)
                report.healed += 1
                continue
            if existing.status == "stale":
                if existing.schema is not None \
                        and existing.schema > dest.schema_version:
                    report.protected += 1       # never clobber newer data
                    continue
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
def _open_existing_store(store: "Path | str | ResultStore") -> ResultStore:
    """An existing store directory — never created as a side effect
    (constructing :class:`ResultStore` on a fresh path mkdirs it, which
    a read/prune operation must not do on a typo'd path)."""
    if isinstance(store, ResultStore):
        return store
    root = Path(store)
    if not root.is_dir():
        kind = ("'%s' is a regular file, not a store directory" % root
                if root.exists() else "no store directory at '%s'" % root)
        raise ReproError(
            f"{kind} (pass an existing result-store directory, "
            "e.g. .repro-cache or $REPRO_CACHE_DIR)")
    return ResultStore(root)


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
    total_bytes: int = 0
    by_schema: dict = field(default_factory=dict)   # schema -> count
    #: Damaged entries a history reader (``ResultStore.iter_results``)
    #: silently drops: corrupt + schema-stale.  Non-zero means "no
    #: history" answers from the serve stats endpoint may really be
    #: "unreadable history" — gc the store.
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
            "(damaged entries history readers drop; gc to heal)",
            f"temp files: {self.temp_files}",
            f"size: {self.total_bytes} bytes",
        ])


def inventory(store: "Path | str | ResultStore") -> StoreInventory:
    """Pure scan of a store directory (nothing deleted, no stats bumped)."""
    store = _open_existing_store(store)
    inv = StoreInventory(root=str(store.root))
    for path in sorted(store.root.iterdir()):
        if is_temp_file(path):
            inv.temp_files += 1
            inv.total_bytes += path.stat().st_size
            continue
        if path.suffix != ".json" or not path.is_file():
            continue
        inv.entries += 1
        inv.total_bytes += path.stat().st_size
        entry = load_raw_entry(path, store.schema_version)
        inv.by_schema[entry.schema] = inv.by_schema.get(entry.schema, 0) + 1
        if entry.status == "corrupt":
            inv.corrupt += 1
            inv.reader_skipped += 1
        elif entry.status == "stale":
            inv.stale += 1
            inv.reader_skipped += 1
        elif entry.is_failure:
            inv.failures += 1
        else:
            inv.results += 1
    return inv


@dataclass
class GcReport:
    """What one :func:`gc_store` pass removed."""

    removed_corrupt: int = 0
    removed_schema: int = 0
    removed_old: int = 0
    removed_temp: int = 0
    kept: int = 0

    @property
    def removed(self) -> int:
        return (self.removed_corrupt + self.removed_schema
                + self.removed_old + self.removed_temp)

    def summary(self) -> str:
        return (f"gc: removed {self.removed} "
                f"({self.removed_corrupt} corrupt, "
                f"{self.removed_schema} schema-mismatched, "
                f"{self.removed_old} expired, "
                f"{self.removed_temp} temp), "
                f"kept {self.kept}")


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
                   "w": 604800.0}


def parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"6h"``/``"7d"``/``"2w"`` -> seconds."""
    text = text.strip().lower()
    scale = 1.0
    if text and text[-1] in _DURATION_UNITS:
        scale = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise ReproError(
            f"bad duration '{text}' (expected NUMBER[s|m|h|d|w])") from None
    if seconds < 0:
        raise ReproError("duration must be >= 0")
    return seconds


def gc_store(store: "Path | str | ResultStore", *,
             schema: int | None = None,
             older_than: float | None = None,
             now: float | None = None) -> GcReport:
    """Prune a store directory.

    Always removes corrupt entries and abandoned ``.tmp-*`` files (do
    not run concurrently with an active sweep writing this store: a
    live writer whose temp file disappears loses that one write — it is
    counted and recomputed later, never wrong).  With ``schema``,
    removes entries whose recorded schema differs from it; with
    ``older_than`` (seconds), removes entries whose mtime is older.
    Healthy, in-schema, young entries are always kept.

    Entries with a *future* mtime (clock skew: rsync'd from a host whose
    clock ran ahead) would otherwise read as infinitely fresh and never
    expire; gc rewrites their mtime to ``now``, so they age normally
    from the first pass that observes them.
    """
    store = _open_existing_store(store)
    now = time.time() if now is None else now
    report = GcReport()
    for path in sorted(store.root.iterdir()):
        if is_temp_file(path):
            path.unlink(missing_ok=True)
            report.removed_temp += 1
            continue
        if path.suffix != ".json" or not path.is_file():
            continue
        entry = load_raw_entry(path, store.schema_version)
        if entry.status == "corrupt":
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
