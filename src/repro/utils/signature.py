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

``arch_signature_text`` is the canonical JSON text of that signature,
memoized per instance (:meth:`Architecture.memo`): a fabric is walked
once, however many cells it is fingerprinted for.  Fabrics are immutable
after construction, so the memo never goes stale; to vary one, edit a
``copy.copy``/``copy.deepcopy`` of it — copies drop every memo and
derive their own text.
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


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_SEQUENCE_TYPES = frozenset((list, tuple))

#: Dataclass type -> its field names, in declaration order.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def encode_value(value) -> object:
    """Deterministic, JSON-serializable encoding of a config value."""
    # Exact-type dispatch first: the common shapes skip the isinstance
    # chain below, and each dataclass's field names are looked up once.
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    if kind in _SEQUENCE_TYPES:
        return [encode_value(item) for item in value]
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        return [kind.__name__] + [encode_value(getattr(value, name))
                                  for name in names]
    # Everything else — subclasses (IntEnum, str subclasses, namedtuples)
    # included — keeps this order, which decides their encoding.
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return f"{kind.__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((encode_value(item) for item in value), key=repr)
    if isinstance(value, dict):
        return sorted(([repr(key), encode_value(item)]
                       for key, item in value.items()), key=repr)
    if dataclasses.is_dataclass(value):
        names = tuple(f.name for f in dataclasses.fields(value))
        # A dataclass *class* has its metaclass as ``kind``, which other
        # classes share: only instances key the cache.
        if not isinstance(value, type):
            _FIELD_NAMES[kind] = names
        return [kind.__name__] + [encode_value(getattr(value, name))
                                  for name in names]
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


def arch_signature_text(arch: "Architecture") -> str:
    """``canonical_json(arch_signature(arch))``, memoized on the instance."""
    return arch.memo("signature_text",
                     lambda: canonical_json(arch_signature(arch)))
