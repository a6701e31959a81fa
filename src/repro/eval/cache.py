"""Persistent, process-shared store for kernel evaluation results.

The evaluation harness memoizes :class:`~repro.eval.harness.KernelResult`
per process; this module adds the durable layer underneath it: a
directory of JSON entries, one per (workload, architecture, mapper, seed)
configuration, shared by every process of a sweep and across runs.

Design points:

* **Fingerprint keys.**  Entries are keyed by a SHA-256 digest over the
  *configuration that determines the result*: the workload's source text,
  array shapes and unroll factor, a structural signature of the
  architecture instance (FUs, places, moves, bypass pairs, params), the
  mapper key, and the mapper seed.  Changing any of these — e.g. editing
  a kernel, resizing a fabric, retuning ``config_entries`` — changes the
  fingerprint, so stale numbers can never be served for a new config.
* **Schema versioning.**  Every entry records ``SCHEMA_VERSION``.  When
  the serialized shape of :class:`KernelResult` changes, bump the
  constant: old entries are treated as misses and removed on contact.
* **Corruption tolerance.**  A truncated or hand-edited entry is a miss,
  not a crash; the offending file is deleted so the slot heals itself.
* **Atomic writes.**  Entries are written to a temp file and
  ``os.replace``d into place, so concurrent sweep workers never observe
  half-written JSON.
* **One owner of the directory format.**  This module alone decides
  which paths are entries (:meth:`ResultStore.scan`), how an entry file
  is read and classified (:func:`read_entry`) and what counts as an
  existing store (:func:`existing_store`).  The merge, stats and gc
  tooling (:mod:`repro.eval.distributed`) and the CLI state only their
  policies on top, so every view of a store counts the same entries.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import ReproError
from repro.utils.atomicio import atomic_write_text, is_temp_file
from repro.utils.signature import arch_signature_text, canonical_json

__all__ = [
    "CACHE_DIR_ENV", "CachedFailure", "RawEntry", "ResultStore",
    "SCHEMA_VERSION", "StoreStats", "clear_memos", "default_store",
    "existing_store", "fingerprint", "read_entry", "result_from_dict",
    "result_to_dict", "workload_signature",
]

if TYPE_CHECKING:   # pragma: no cover - import cycle guard (harness imports us)
    from repro.arch.base import Architecture
    from repro.eval.harness import KernelResult
    from repro.workloads.registry import WorkloadSpec

#: Bump on any change that alters what a cache entry means: the
#: serialized shape of :class:`KernelResult`, or *metric-affecting
#: behavior* (mapper cost functions, power/area tables, seeding).  The
#: version is part of the fingerprint, so a bump orphans every stale
#: entry — without it a warm store would silently serve pre-change
#: numbers that the (storeless) test suite no longer validates.
SCHEMA_VERSION = 1

#: Environment variable naming the default store directory.  Unset (the
#: default for tests and library use) means "no persistent store".
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------
# The value/architecture canonicalization lives in
# :mod:`repro.utils.signature` (the distributed sweep's shard assignment
# hashes the same canonical JSON).


def workload_signature(spec: "WorkloadSpec") -> dict:
    """The part of a workload spec that determines its DFG.

    The transform recipe joins the signature only when present, so every
    recipe-free spec keeps the fingerprint it had before the variant
    layer existed — no cache invalidation for the Table-2 grid.
    """
    signature = {
        "name": spec.name,
        "kernel": spec.kernel,
        "source": spec.source,
        "shapes": [[name, list(dims)] for name, dims in spec.shapes],
        "unroll": spec.unroll,
    }
    if getattr(spec, "recipe", ""):
        signature["recipe"] = spec.recipe
    return signature


#: WorkloadSpec -> the canonical JSON text of its workload signature.
#: Specs are frozen, so a text never goes stale; :func:`clear_memos`
#: (called by ``harness.clear_caches``) empties the table.
_WORKLOAD_TEXT: dict["WorkloadSpec", str] = {}


def clear_memos() -> None:
    """Forget every memoized workload signature text."""
    _WORKLOAD_TEXT.clear()


def fingerprint(spec: "WorkloadSpec", arch: "Architecture",
                mapper_key: str, seed: int) -> str:
    """Stable hex digest identifying one evaluation configuration.

    The digest is over the canonical JSON object ``{"arch", "mapper",
    "schema", "seed", "workload"}``.  The arch part is the text
    :func:`arch_signature_text` writes and memoizes per fabric instance
    (copies drop it; fabrics are immutable after construction, so edit a
    copy), spliced in as the first key — ``arch`` sorts before
    ``mapper, schema, seed, workload`` — so the bytes hashed are exactly
    those of the whole payload.  The hash state after that first key is
    memoized on the fabric too: each cell hashes only its own rest.  The
    workload part, the last key, is spliced in the same way from a text
    encoded once per spec.
    """
    workload = _WORKLOAD_TEXT.get(spec)
    if workload is None:
        workload = _WORKLOAD_TEXT[spec] = canonical_json(
            workload_signature(spec))
    rest = canonical_json({
        "schema": SCHEMA_VERSION,
        "mapper": mapper_key,
        "seed": seed,
    })
    digest = arch.memo("fingerprint_prefix", lambda: hashlib.sha256(
        ('{"arch":' + arch_signature_text(arch) + ",").encode("utf-8"))
    ).copy()
    digest.update(f'{rest[1:-1]},"workload":{workload}}}'.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# KernelResult (de)serialization
# ---------------------------------------------------------------------------
def result_to_dict(result: "KernelResult") -> dict:
    """Plain-JSON representation of a :class:`KernelResult`."""
    return {
        "workload": result.workload,
        "arch_key": result.arch_key,
        "mapper": result.mapper,
        "ii": result.ii,
        "cycles": result.cycles,
        "makespan": result.makespan,
        "activity": {
            "fu_utilization": result.activity.fu_utilization,
            "wire_utilization": result.activity.wire_utilization,
            "config_activity": result.activity.config_activity,
        },
        "power": {
            "arch_name": result.power.arch_name,
            "components": dict(result.power.components),
        },
        "area": {
            "arch_name": result.area.arch_name,
            "components": dict(result.area.components),
            "spm_um2": result.area.spm_um2,
        },
        "energy": result.energy,
    }


def result_from_dict(data: dict) -> "KernelResult":
    """Rebuild a :class:`KernelResult` from :func:`result_to_dict` output.

    Raises ``KeyError``/``TypeError`` on malformed payloads; the store
    treats those as corruption.
    """
    from repro.eval.harness import KernelResult
    from repro.power.model import ActivityFactors, AreaReport, PowerReport

    return KernelResult(
        workload=data["workload"],
        arch_key=data["arch_key"],
        mapper=data["mapper"],
        ii=int(data["ii"]),
        cycles=int(data["cycles"]),
        makespan=int(data["makespan"]),
        activity=ActivityFactors(
            fu_utilization=float(data["activity"]["fu_utilization"]),
            wire_utilization=float(data["activity"]["wire_utilization"]),
            config_activity=float(data["activity"]["config_activity"]),
        ),
        power=PowerReport(
            arch_name=data["power"]["arch_name"],
            components={str(k): float(v)
                        for k, v in data["power"]["components"].items()},
        ),
        area=AreaReport(
            arch_name=data["area"]["arch_name"],
            components={str(k): float(v)
                        for k, v in data["area"]["components"].items()},
            spm_um2=float(data["area"]["spm_um2"]),
        ),
        energy=float(data["energy"]),
    )


# ---------------------------------------------------------------------------
# Cached failures
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CachedFailure:
    """A persisted deterministic failure (mapping is seeded, so a
    configuration that cannot map fails identically every time — no
    point re-running the doomed attempt in every process)."""

    error_type: str
    message: str

    def to_error(self):
        from repro import errors

        error_cls = getattr(errors, self.error_type, None)
        if not (isinstance(error_cls, type)
                and issubclass(error_cls, errors.ReproError)):
            error_cls = errors.ReproError
        return error_cls(self.message)


# ---------------------------------------------------------------------------
# Reading one entry file (every reader of a store goes through here)
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class RawEntry:
    """One entry file, read and classified.

    ``status`` is judged against a *target* schema version: ``ok``
    (decodes, matches the target, payload parses: ``payload`` holds
    it), ``stale`` (decodes but carries a different schema — ``schema``
    says which), ``corrupt`` (an unreadable file, truncated/garbled
    text or an unparseable payload), or ``missing`` (no file, or a
    directory, at ``path``).  ``text`` is the file's exact content, so
    copying an ``ok`` entry into another store is byte-preserving.
    """

    path: Path
    text: str
    status: str                 # 'ok' | 'stale' | 'corrupt' | 'missing'
    schema: int | None = None   # the entry's own schema, when decodable
    payload: "KernelResult | CachedFailure | None" = None

    @property
    def fingerprint(self) -> str:
        return self.path.stem

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def is_failure(self) -> bool:
        return isinstance(self.payload, CachedFailure)


def read_entry(path: Path, schema_version: int = SCHEMA_VERSION
               ) -> RawEntry:
    """Read and classify one entry file against ``schema_version``.

    One read, nothing else: no ``stat``, no stats, no deletion — what
    to do about a damaged entry is the caller's policy.
    """
    try:
        raw = path.read_text(encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError):
        return RawEntry(path, "", "missing")
    except (OSError, UnicodeDecodeError):
        return RawEntry(path, "", "corrupt")
    try:
        entry = json.loads(raw)
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        schema = entry.get("schema")
        schema = schema if isinstance(schema, int) else None
        if schema != schema_version:
            return RawEntry(path, raw, "stale", schema)
        if "failure" in entry:
            payload = CachedFailure(
                error_type=str(entry["failure"]["type"]),
                message=str(entry["failure"]["message"]),
            )
        else:
            payload = result_from_dict(entry["result"])
    except (ValueError, KeyError, TypeError):
        return RawEntry(path, raw, "corrupt")
    return RawEntry(path, raw, "ok", schema, payload)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
@dataclass
class StoreStats:
    """Hit/miss accounting for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    write_errors: int = 0
    corrupt: int = 0
    stale: int = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "write_errors": self.write_errors,
                "corrupt": self.corrupt, "stale": self.stale}


@dataclass
class ResultStore:
    """Disk-backed map from fingerprint to :class:`KernelResult`."""

    root: Path
    schema_version: int = SCHEMA_VERSION
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            # A regular file at (or inside) the store path: every CLI
            # entry point reports this as usage, never a traceback.
            raise ReproError(
                f"result store path '{self.root}' is not a directory "
                "(pass a store directory, e.g. .repro-cache)") from None

    # -- paths ----------------------------------------------------------
    def entry_path(self, fp: str) -> Path:
        """Where the entry for ``fp`` lives (whether or not it exists)."""
        return self.root / f"{fp}.json"

    # -- read -----------------------------------------------------------
    def get(self, fp: str) -> "KernelResult | CachedFailure | None":
        """The stored result (or recorded failure) for ``fp``;
        ``None`` on miss.

        Corrupt and schema-stale entries are deleted and reported as
        misses — a damaged cache degrades to recomputation, never to a
        crash or a wrong number.
        """
        path = self.entry_path(fp)
        entry = read_entry(path, self.schema_version)
        if entry.ok:
            self.stats.hits += 1
            return entry.payload
        self.stats.misses += 1
        if entry.status == "missing":
            return None
        if entry.status == "stale":
            self.stats.stale += 1
        else:
            self.stats.corrupt += 1
        self._discard(path)
        return None

    def __contains__(self, fp: str) -> bool:
        """Membership consistent with :meth:`get`: schema-stale and
        corrupt entries read as absent (``get`` would treat them as
        misses), but — unlike ``get`` — the probe neither counts stats
        nor deletes the damaged file."""
        return read_entry(self.entry_path(fp), self.schema_version).ok

    def scan(self) -> "tuple[list[Path], list[Path], list[Path]]":
        """The store's entry files, temp debris and blocked entry
        paths, each sorted.

        The one definition every tool shares: an entry is a regular
        file ``<fp>.json``; debris is a regular file a killed writer
        left behind (``.tmp-*``, see :func:`is_temp_file`); a blocked
        path is a non-file (a directory) at ``<fp>.json``, where no
        entry can be written.  Anything else is none of these, and no
        tool counts, reads or deletes it.
        """
        entries, debris, blocked = [], [], []
        for path in sorted(self.root.iterdir()):
            if is_temp_file(path):
                if path.is_file():
                    debris.append(path)
            elif path.suffix == ".json":
                (entries if path.is_file() else blocked).append(path)
        return entries, debris, blocked

    def __len__(self) -> int:
        return len(self.scan()[0])

    def fingerprints(self) -> Iterator[str]:
        return (path.stem for path in self.scan()[0])

    # -- write ----------------------------------------------------------
    def put(self, fp: str, result: "KernelResult") -> None:
        """Persist ``result`` under ``fp`` (atomic, last-writer-wins).

        Best-effort: an unwritable or full cache directory must not
        abort the evaluation that produced the result, so write
        failures are counted (``stats.write_errors``) and swallowed.
        """
        self._write_entry(fp, {"result": result_to_dict(result)})

    def put_failure(self, fp: str, error: Exception) -> None:
        """Persist a deterministic failure under ``fp`` (best-effort)."""
        self._write_entry(fp, {"failure": {
            "type": type(error).__name__,
            "message": str(error),
        }})

    def _write_entry(self, fp: str, body: dict) -> None:
        entry = {
            "schema": self.schema_version,
            "fingerprint": fp,
            **body,
        }
        # No sort_keys: the component dicts must keep their insertion
        # order, because derived sums (total_mw, fabric_um2) accumulate
        # in iteration order and float addition is not associative — a
        # reordered cache entry would differ from a fresh evaluation in
        # the last ULP.
        payload = json.dumps(entry, indent=0)
        try:
            atomic_write_text(self.entry_path(fp), payload)
        except OSError:
            self.stats.write_errors += 1
            return
        self.stats.writes += 1

    def put_raw(self, fp: str, text: str) -> None:
        """Install an entry's exact text (the merge path: byte-preserving
        adoption of another store's entry).  Unlike :meth:`put`, a write
        failure here raises — a merge must not silently drop entries."""
        atomic_write_text(self.entry_path(fp), text)
        self.stats.writes += 1

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass    # a concurrent worker already replaced or removed it


def existing_store(store: "Path | str | ResultStore") -> ResultStore:
    """``store`` as a :class:`ResultStore`, whose directory must exist.

    Constructing a :class:`ResultStore` on a fresh path mkdirs it; the
    tools that read, prune or merge from a store call this instead, so
    a typo'd path is an error before anything is created.
    """
    root = store.root if isinstance(store, ResultStore) else Path(store)
    if not root.is_dir():
        problem = "is a regular file" if root.exists() else "does not exist"
        raise ReproError(
            f"no store directory at '{root}': the path {problem} (pass an "
            "existing result-store directory, e.g. .repro-cache, or set "
            f"${CACHE_DIR_ENV})")
    return store if isinstance(store, ResultStore) else ResultStore(root)


def default_store() -> ResultStore | None:
    """Store named by ``$REPRO_CACHE_DIR``, or ``None`` when unset/empty."""
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    return ResultStore(Path(root)) if root else None
