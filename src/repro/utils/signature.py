"""Canonical structural signatures for configuration objects.

Used by the persistent result store's fingerprint keys, which need a
deterministic, process-stable summary of an
:class:`~repro.arch.base.Architecture` instance so that two structurally
identical fabrics — whether or not they are the same Python object —
hash to the same key.

``encode_value`` canonicalizes arbitrary config values (dataclasses,
enums, sets, nested containers) into JSON-serializable structures with a
deterministic ordering; ``arch_signature`` applies it to every dataclass
field of an architecture.  The encodings here are part of the persistent
cache's fingerprint format: changing them orphans existing cache entries
(they degrade to misses, never to wrong numbers).
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:   # pragma: no cover - avoids an import cycle at runtime
    from repro.arch.base import Architecture


def canonical_json(payload) -> str:
    """The one canonical JSON text used for digesting configurations.

    Sorted keys, no whitespace: two structurally equal payloads always
    serialize to the same bytes, on any host.  The result-store
    fingerprints and the distributed sweep's shard assignment both hash
    this text — which is why a shard computed on one
    machine matches the shard the merge step expects on another.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_value(value) -> object:
    """Deterministic, JSON-serializable encoding of a config value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((encode_value(item) for item in value), key=repr)
    if isinstance(value, dict):
        return sorted(([repr(key), encode_value(item)]
                       for key, item in value.items()), key=repr)
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        ]
    return repr(value)


def arch_signature(arch: "Architecture") -> dict:
    """A JSON-stable structural summary of an architecture instance.

    Walks *every* dataclass field — the resource graph (FUs, places,
    moves, produce/consume wiring), bypass pairs, resource capacities,
    SPM geometry, configuration depth, and the free-form ``params``
    dict — so any edit the mapper or power model can observe changes
    the signature.  New :class:`Architecture` fields are covered
    automatically.
    """
    return {f.name: encode_value(getattr(arch, f.name))
            for f in dataclasses.fields(arch)}

