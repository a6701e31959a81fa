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
from repro.utils.signature import (
    arch_signature, arch_signature_text, canonical_json,
)

__all__ = [
    "CACHE_DIR_ENV", "CachedFailure", "RawEntry", "ResultStore",
    "SCHEMA_VERSION", "StoreStats", "arch_signature", "default_store",
    "fingerprint", "load_raw_entry", "result_from_dict", "result_to_dict",
    "workload_signature",
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
# hashes the same canonical JSON); ``arch_signature`` is re-exported here
# because it is part of this module's fingerprint format.


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


def fingerprint(spec: "WorkloadSpec", arch: "Architecture",
                mapper_key: str, seed: int) -> str:
    """Stable hex digest identifying one evaluation configuration.

    The digest is over ``canonical_json`` of ``{"schema", "workload",
    "arch": arch_signature(arch), "mapper", "seed"}``.  The arch part is
    the text :func:`arch_signature_text` memoizes per fabric instance
    (copies drop it; fabrics are immutable after construction, so edit a
    copy), spliced in as the first key — ``arch`` sorts before
    ``mapper, schema, seed, workload`` — so the bytes hashed are exactly
    those of the whole payload.
    """
    rest = canonical_json({
        "schema": SCHEMA_VERSION,
        "workload": workload_signature(spec),
        "mapper": mapper_key,
        "seed": seed,
    })
    text = '{"arch":' + arch_signature_text(arch) + "," + rest[1:]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
# Raw entry access (the distributed merge/stats/gc tooling reads entries
# without adopting them: exact text preserved, nothing deleted on contact)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RawEntry:
    """One entry file as the merge tooling sees it.

    ``status`` is judged against a *target* schema version: ``ok``
    (decodes, matches the target, payload parses), ``stale`` (decodes
    but carries a different schema — ``schema`` says which), or
    ``corrupt`` (truncated/garbled text or an unparseable payload).
    ``text`` is the file's exact content, so copying an ``ok`` entry
    into another store is byte-preserving.
    """

    fingerprint: str
    text: str
    status: str                 # 'ok' | 'stale' | 'corrupt'
    schema: int | None          # the entry's own schema, when decodable
    is_failure: bool = False    # ok entries: CachedFailure vs result

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _classify_entry_text(raw: str, schema_version: int
                         ) -> "tuple[str, KernelResult | CachedFailure | None, int | None]":
    """Decode one entry text: (status, payload, entry schema)."""
    try:
        entry = json.loads(raw)
        if not isinstance(entry, dict):
            raise ValueError("entry is not an object")
        schema = entry.get("schema")
        schema = schema if isinstance(schema, int) else None
        if schema != schema_version:
            return "stale", None, schema
        if "failure" in entry:
            return "ok", CachedFailure(
                error_type=str(entry["failure"]["type"]),
                message=str(entry["failure"]["message"]),
            ), schema
        return "ok", result_from_dict(entry["result"]), schema
    except (ValueError, KeyError, TypeError):
        return "corrupt", None, None


def load_raw_entry(path: Path, schema_version: int = SCHEMA_VERSION
                   ) -> RawEntry:
    """Classify one entry file against ``schema_version`` (pure read)."""
    fp = path.stem
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return RawEntry(fingerprint=fp, text="", status="corrupt",
                        schema=None)
    status, payload, schema = _classify_entry_text(raw, schema_version)
    return RawEntry(fingerprint=fp, text=raw, status=status, schema=schema,
                    is_failure=isinstance(payload, CachedFailure))


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
        status, result = self._read_entry(path)
        if status == "missing":
            self.stats.misses += 1
            return None
        if status == "stale":
            self.stats.stale += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        if status == "corrupt":
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        self.stats.hits += 1
        return result

    def _read_entry(self, path: Path
                    ) -> "tuple[str, KernelResult | CachedFailure | None]":
        """Decode one entry file: ('ok'|'missing'|'stale'|'corrupt',
        payload).  Pure read — no stats, no deletion."""
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return "missing", None
        except UnicodeDecodeError:     # binary garbage in the entry
            return "corrupt", None
        status, payload, _schema = _classify_entry_text(
            raw, self.schema_version)
        return status, payload

    def __contains__(self, fp: str) -> bool:
        """Membership consistent with :meth:`get`: schema-stale and
        corrupt entries read as absent (``get`` would treat them as
        misses), but — unlike ``get`` — the probe neither counts stats
        nor deletes the damaged file."""
        return self._read_entry(self.entry_path(fp))[0] == "ok"

    def entry_files(self) -> Iterator[Path]:
        """Every entry file, sorted (the merge/stats/gc tooling)."""
        # Path.glob("*.json") also matches dot-prefixed names, so filter
        # out ".tmp-*" files a killed writer may have left behind.
        for path in sorted(self.root.glob("*.json")):
            if not is_temp_file(path):
                yield path

    def __len__(self) -> int:
        return sum(1 for _ in self.entry_files())

    def fingerprints(self) -> Iterator[str]:
        for path in self.entry_files():
            yield path.stem

    def iter_results(self, on_skip=None) -> "Iterator[KernelResult]":
        """Every decodable :class:`KernelResult` currently stored.

        Pure read (no stats, no healing deletions); cached failures and
        damaged entries are skipped.

        ``on_skip(fingerprint, status)`` — when given — is called for
        every *damaged* entry the iteration drops (``status`` is
        ``'corrupt'`` or ``'stale'``), so consumers can distinguish "no
        history" from "history I could not read"; the ``repro serve``
        stats endpoint and ``repro cache stats`` surface the tally.
        Recorded failures and entries deleted mid-iteration are healthy
        skips and are not reported.
        """
        for path in self.entry_files():
            status, payload = self._read_entry(path)
            if status == "ok" and not isinstance(payload, CachedFailure):
                yield payload
            elif status in ("corrupt", "stale") and on_skip is not None:
                on_skip(path.stem, status)

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

    def clear(self) -> int:
        """Delete every entry (and stray temp files); returns the
        number of entries removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            self._discard(path)
            if not path.name.startswith("."):
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass    # a concurrent worker already replaced or removed it


def default_store() -> ResultStore | None:
    """Store named by ``$REPRO_CACHE_DIR``, or ``None`` when unset/empty."""
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    return ResultStore(Path(root)) if root else None
