"""Canonical structural signatures for configuration objects.

Used by the persistent result store's fingerprint keys, which need a
deterministic, process-stable summary of an
:class:`~repro.arch.base.Architecture` instance so that two structurally
identical fabrics — whether or not they are the same Python object —
hash to the same key.

A config value is *encoded* as a JSON value:

* ``str``, ``int``, ``float``, ``bool``, ``None`` and their subclasses
  (``IntEnum`` and ``str``-mixin enum members included) encode as
  themselves;
* any other enum member is the string ``"<Class>.<name>"``;
* lists and tuples (namedtuples included) are lists of their items'
  encodings;
* sets are lists of their items' encodings, sorted by the ``repr`` of
  those encodings;
* dicts are lists of ``[repr(key), encoding]`` pairs, sorted by the
  ``repr`` of those pairs;
* a dataclass is ``[<class name>, <field encodings in declaration
  order>...]``;
* anything else is its ``repr``.

:func:`encode_text` writes the canonical JSON text of that encoding —
the bytes ``json.dumps(encoding, sort_keys=True, separators=(",", ":"))``
gives — straight from the value, without building the encoding;
:func:`arch_signature_text` is the JSON object mapping each dataclass
field of an architecture to its encoding.  Both are part of the
persistent cache's fingerprint format: changing them orphans existing
cache entries (they degrade to misses, never to wrong numbers).

``arch_signature_text`` is memoized per instance
(:meth:`Architecture.memo`): a fabric is walked once, however many cells
it is fingerprinted for.  Fabrics are immutable after construction, so
the memo never goes stale; to vary one, edit a
``copy.copy``/``copy.deepcopy`` of it — copies drop every memo and
derive their own text.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from functools import partial
from itertools import chain, repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable

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
    return _CANONICAL.encode(payload)


#: What ``json.dumps(payload, sort_keys=True, separators=(",", ":"))``
#: builds on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------
# Each value type renders its values' encoding two ways: as JSON text,
# and as the ``repr`` that orders set items and dict entries.  A _Kind
# holds both, picked once per exact type.  A sequence whose values share
# one type is rendered through ``map`` with that type's renderer, and a
# sequence of one dataclass column by column, so most values cost no
# Python-level call of their own.

_Render = Callable[[object], str]

#: ``json.dumps``'s own string escaping (ASCII only).
_escape: _Render = json.encoder.encode_basestring_ascii

_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}

#: Key types whose distinct values have distinct reprs.
_DISTINCT_REPRS = frozenset((int, str))


def _float_text(value) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


class _Lookup(dict):
    """A dict that answers a missing key with ``fallback(key)``."""

    def __init__(self, fallback: Callable, items=()) -> None:
        super().__init__(items)
        self.fallback = fallback

    def __missing__(self, key):
        return self.fallback(key)


class _Kind:
    """How the values of one exact type render: ``text``/``key`` render
    one value, ``texts`` a sequence of them and ``set_text``, where
    given, a set of them."""

    __slots__ = ("text", "key", "texts", "set_text")

    def __init__(self, text: _Render, key: _Render,
                 texts: Callable | None = None,
                 set_text: _Render | None = None) -> None:
        self.text, self.key = text, key
        self.texts = texts or partial(map, text)
        self.set_text = set_text


def _learn(kind: type) -> _Kind:
    """Classify ``kind`` — subclasses (IntEnum, str subclasses,
    namedtuples) included, in this order, which decides their encoding
    — and remember how it renders."""
    if issubclass(kind, str):
        how = _Kind(_escape, repr)
    elif issubclass(kind, int):
        how = _Kind(int.__repr__, repr)
    elif issubclass(kind, float):
        how = _Kind(_float_text, repr)
    elif issubclass(kind, enum.Enum):
        how = _enum_kind(kind)
    elif issubclass(kind, (list, tuple)):
        how = _Kind(_list_text, _list_key)
    elif issubclass(kind, (set, frozenset)):
        how = _Kind(_set_text, _set_key)
    elif issubclass(kind, dict):
        how = _Kind(_dict_text, _dict_key, _dict_texts)
    elif issubclass(kind, type):
        # Classes share their metaclass: classify each one.
        how = _Kind(lambda value: _class_kind(value).text(value),
                    lambda value: _class_kind(value).key(value))
    elif dataclasses.is_dataclass(kind):
        how = _record_kind(kind.__name__, _field_names(kind))
    else:
        how = _Kind(_repr_text, _repr_key)
    _KINDS[kind] = how
    return how


#: Exact type -> how its values render.
_KINDS: dict[type, _Kind] = _Lookup(_learn, {
    # The texts of small ints are looked up, not formatted.
    int: _Kind(_Lookup(int.__repr__, zip(range(256), map(str, range(256))))
               .__getitem__, repr),
    bool: _Kind({True: "true", False: "false"}.__getitem__, repr),
    type(None): _Kind({None: "null"}.__getitem__, repr),
})

#: id of a frozenset of enum members -> (that frozenset, its JSON text).
#: Keyed by identity, and holding the set so that its id stays its own;
#: the one table keyed by values rather than types: :func:`clear_memos`
#: empties it.
_ENUM_SET_TEXT: dict[int, tuple[frozenset, str]] = {}


def clear_memos() -> None:
    """Forget every rendering remembered by value (the tables keyed by
    type stay: they depend on nothing else)."""
    _ENUM_SET_TEXT.clear()


def encode_text(value) -> str:
    """The canonical JSON text of ``value``'s encoding (see the module
    docstring): ``canonical_json`` of the encoded value, byte for
    byte."""
    return _KINDS[type(value)].text(value)


def _texts(values) -> Iterable[str]:
    """The JSON texts of the encodings of ``values``, a sequence."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        return _KINDS[kinds.pop()].texts(values)
    return [_KINDS[type(value)].text(value) for value in values]


def _key(value) -> str:
    """The ``repr`` of ``value``'s encoding."""
    return _KINDS[type(value)].key(value)


def _list_text(value) -> str:
    return "[" + ",".join(_texts(value)) + "]"


def _list_key(value) -> str:
    return "[" + ", ".join(map(_key, value)) + "]"


def _set_text(value) -> str:
    seen = _ENUM_SET_TEXT.get(id(value))
    if seen is not None and seen[0] is value:
        return seen[1]
    kinds = set(map(type, value))
    if len(kinds) == 1:
        set_text = _KINDS[kinds.pop()].set_text
        if set_text is not None:
            return set_text(value)
    # A stable sort: ties keep iteration order, as they do when the
    # encodings are sorted.
    return "[" + ",".join(_texts(sorted(value, key=_key))) + "]"


def _set_key(value) -> str:
    return "[" + ", ".join(sorted(map(_key, value))) + "]"


def _dict_texts(values) -> list[str]:
    """The JSON texts of the encodings of ``values``, a sequence of
    dicts, rendered as one batch of entries."""
    sizes = list(map(len, values))
    keys = list(chain.from_iterable(values))
    items = list(chain.from_iterable(map(dict.values, values)))
    kinds = set(map(type, keys))
    if kinds == {int}:
        # An int's name (repr) is its JSON text, and its entry's row,
        # ``"<name>",<item>``, sorts as its key does: distinct names
        # differ before their closing quotes, and quotes sort before
        # digits and the minus sign.
        rows = list(map(",".join, zip(map(_escape, _KINDS[int].texts(keys)),
                                      _texts(items))))
        return _entries_text(rows, sizes, sort=True)
    names = list(map(repr, keys))
    # An entry's key is ``[<repr of its name>, <key of its item>]``.  The
    # repr of a string is never a prefix of another string's repr, so
    # distinct names decide the order without the items.
    order = list(map(repr, names))
    owner = list(chain.from_iterable(map(repeat, range(len(sizes)), sizes)))
    if not kinds <= _DISTINCT_REPRS and len(
            set(zip(owner, order))) < len(order):
        order = list(map("[{}, {}]".format, order, map(_key, items)))
    index = sorted(range(len(order)), key=order.__getitem__)
    index.sort(key=owner.__getitem__)       # stable: each dict in order
    rows = list(map(",".join, zip(
        map(_escape, map(names.__getitem__, index)),
        _texts(list(map(items.__getitem__, index))))))
    return _entries_text(rows, sizes, sort=False)


def _entries_text(rows: list[str], sizes: list[int], sort: bool) -> list[str]:
    """Each dict's entry ``rows`` (``sizes`` of them per dict), sorted
    if ``sort``, as its JSON text."""
    texts = []
    end = 0
    for size in sizes:
        start, end = end, end + size
        entries = rows[start:end]
        if sort:
            entries.sort()
        texts.append("[[" + "],[".join(entries) + "]]" if size else "[]")
    return texts


def _dict_text(value) -> str:
    return _dict_texts((value,))[0]


def _dict_key(value) -> str:
    entries = map("[{}, {}]".format, map(repr, map(repr, value)),
                  map(_key, value.values()))
    return "[" + ", ".join(sorted(entries)) + "]"


def _repr_text(value) -> str:
    return _escape(repr(value))


def _repr_key(value) -> str:
    return repr(repr(value))


def _enum_kind(kind: type) -> _Kind:
    """A member renders as ``"<class name>.<member name>"``, looked up
    by member name in tables made from the class's members (the name of
    a pseudo-member falls back to rendering)."""
    prefix = kind.__name__ + "."
    # ``_name_`` is what ``Enum.name`` returns, unless a class of the
    # enum redefines ``name`` (a member called ``name`` does too).
    overridden = any("name" in vars(base) for base in kind.__mro__
                     if base is not enum.Enum)
    name = attrgetter("name" if overridden else "_name_")
    names = set(map(name, kind.__members__.values()))

    def text_of(member_name) -> str:
        return _escape(f"{prefix}{member_name}")

    def key_of(member_name) -> str:
        return repr(f"{prefix}{member_name}")

    texts = _Lookup(text_of, zip(names, map(text_of, names)))
    keys = _Lookup(key_of, zip(names, map(key_of, names)))

    def set_text(members) -> str:
        # Equal keys come from equal names, which render the same text.
        text = "[" + ",".join(map(texts.__getitem__, sorted(
            map(name, members), key=keys.__getitem__))) + "]"
        if type(members) is frozenset:
            _ENUM_SET_TEXT[id(members)] = members, text
        return text

    return _Kind(lambda member: texts[name(member)],
                 lambda member: keys[name(member)],
                 lambda members: map(texts.__getitem__, map(name, members)),
                 set_text)


def _record_kind(class_name: str, names: tuple[str, ...]) -> _Kind:
    """A dataclass renders as ``[<class name>, <fields>...]``; a
    sequence of one dataclass renders field by field, as columns."""
    head_text, head_key = _escape(class_name), repr(class_name)
    if not names:
        text, key = "[" + head_text + "]", "[" + head_key + "]"
        return _Kind(lambda value: text, lambda value: key)
    if len(names) > 1:
        fields = attrgetter(*names)
    else:           # attrgetter returns a lone field bare
        def fields(value):
            return getattr(value, names[0]),
    return _Kind(
        lambda value: "[" + ",".join([head_text,
                                      *_texts(fields(value))]) + "]",
        lambda value: "[" + ", ".join([head_key,
                                       *map(_key, fields(value))]) + "]",
        lambda values: map("[{}]".format, map(",".join, zip(
            repeat(head_text),
            *[_texts(column) for column in zip(*map(fields, values))]))))


def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _class_kind(value: type) -> _Kind:
    # A dataclass class encodes through its defaults (under its
    # metaclass's name, as ``type(value).__name__``).
    if dataclasses.is_dataclass(value):
        return _record_kind(type(value).__name__, _field_names(value))
    return _Kind(_repr_text, _repr_key)


def arch_signature_text(arch: "Architecture") -> str:
    """The canonical JSON object mapping each dataclass field of ``arch``
    to its encoding, memoized on the instance.

    It covers *every* field — the resource graph (FUs, places, moves,
    produce/consume wiring), bypass pairs, resource capacities, SPM
    geometry, configuration depth, and the free-form ``params`` dict —
    so any edit the mapper or power model can observe changes the
    signature.  New :class:`Architecture` fields are covered
    automatically.
    """
    return arch.memo("signature_text", lambda: _signature_text(arch))


def _signature_text(arch: "Architecture") -> str:
    names = sorted(f.name for f in dataclasses.fields(arch))
    values = [getattr(arch, name) for name in names]
    return "{" + ",".join(map("{}:{}".format, map(_escape, names),
                              _texts(values))) + "}"
