"""Store fingerprints are a persistent format: lock them.

``tests/data/store_fingerprints.json`` was generated before the fabric
signature became a per-instance memo.  It covers the 30 Table-2
workloads on every experiment fabric under its default mapper, the
``pathfinder`` and ``sa`` baselines on ``st``, and one transform
variant.  Every value must stay equal, and a store written at those keys
must serve a fresh process without evaluating anything.  The encoder
oracle pins :func:`encode_text` and :func:`arch_signature_text` to the
text ``json.dumps`` made of the encoding before the text was written
directly, on samples, on every fabric and on random nested values.
"""

import copy
import dataclasses
import enum
import json
import math
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import make_spatio_temporal
from repro.errors import MappingError
from repro.eval import cache, parallel
from repro.eval.harness import (
    ARCH_KEYS, build_arch, clear_caches, configure_store, evaluate_kernel,
    evaluation_fingerprint,
)
from repro.ir.ops import Opcode
from repro.utils import signature
from repro.utils.signature import arch_signature_text, encode_text

FIXTURE = Path(__file__).parent / "data" / "store_fingerprints.json"

#: The one cell the warm-store test records as a failure.
FAILED_CELL = "gemm_t4x4_u2|plaid|plaid"


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)
    yield
    clear_caches()


@pytest.fixture(scope="module")
def expected() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def _cell(name: str) -> parallel.SweepCell:
    workload, arch_key, mapper = name.split("|")
    return parallel.SweepCell(workload, arch_key, mapper)


def test_fixture_covers_the_locked_grid(expected):
    fabrics = {name.split("|")[1] for name in expected}
    assert fabrics == set(ARCH_KEYS)
    assert len(expected) == 30 * len(ARCH_KEYS) + 2 * 30 + 1
    assert FAILED_CELL in expected


def test_fingerprints_match_fixture(expected):
    actual = {name: evaluation_fingerprint(*_cell(name).key())
              for name in expected}
    assert actual == expected


def test_fixture_store_stays_warm(expected, tmp_path):
    """A store keyed by the locked fingerprints is 100% warm after a
    restart, on both the serial and the parent-lookup sweep paths."""
    template = evaluate_kernel("dwconv", "spatial")
    store = cache.ResultStore(tmp_path / "store")
    stored = {}
    for name, fp in expected.items():
        cell = _cell(name)
        if name == FAILED_CELL:
            store.put_failure(fp, MappingError("locked failure"))
            continue
        stored[name] = dataclasses.replace(
            template, workload=cell.workload, arch_key=cell.arch_key,
            mapper=cell.mapper)
        store.put(fp, stored[name])

    cells = [_cell(name) for name in expected]
    for jobs in (1, 2):
        clear_caches()
        configure_store(store.root)
        report = parallel.run_sweep(cells, jobs=jobs)
        assert report.evaluated == 0
        assert report.cached == len(stored)
        for outcome in report.outcomes:
            name = "|".join(outcome.cell.key())
            if name == FAILED_CELL:
                assert outcome.error_type == "MappingError"
                assert outcome.error == "locked failure"
            else:
                assert outcome.result == stored[name]


# ---------------------------------------------------------------------------
# Encoder oracle
# ---------------------------------------------------------------------------
def _oracle_encode_value(value) -> object:
    """``encode_value`` as it was before the exact-type dispatch
    (verbatim)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [_oracle_encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_oracle_encode_value(item) for item in value), key=repr)
    if isinstance(value, dict):
        return sorted(([repr(key), _oracle_encode_value(item)]
                       for key, item in value.items()), key=repr)
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            _oracle_encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        ]
    return repr(value)


def _oracle_text(value) -> str:
    """The canonical JSON text of the oracle's encoding."""
    return json.dumps(_oracle_encode_value(value), sort_keys=True,
                      separators=(",", ":"))


def _oracle_signature_text(arch) -> str:
    return json.dumps({f.name: _oracle_encode_value(getattr(arch, f.name))
                       for f in dataclasses.fields(arch)},
                      sort_keys=True, separators=(",", ":"))


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Color(enum.Enum):
    RED = "r"
    GREEN = "g"
    BLUE = "b"


class _Mode(str, enum.Enum):
    FAST = "fast"
    SAFE = "it's safe"


class _Named(enum.Enum):
    """Redefines ``name``: encodings must read it, not ``_name_``."""

    ONE = 1
    TWO = 2

    @property
    def name(self):
        return self._name_.lower()


class _Tag(str):
    pass


_Point = namedtuple("_Point", "x y")


@dataclasses.dataclass
class _Defaulted:
    x: int = 0


@dataclasses.dataclass(frozen=True)
class _Inner:
    level: _Level
    tags: frozenset


@dataclasses.dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    points: tuple


@dataclasses.dataclass(frozen=True)
class _Table:
    rows: dict


@dataclasses.dataclass(frozen=True)
class _Empty:
    pass


@dataclasses.dataclass(frozen=True)
class _Single:
    only: object


#: Strings whose repr order differs from their plain order.
_AWKWARD = ("a", "a b", "a!", "it's", 'say "hi"', "back\\slash", "tab\t",
            "caf\u00e9", "\u00e9t\u00e9", "\U0001f600", "", "'", '"')

SAMPLES = {
    "int_enum": _Level.HIGH,
    "str_subclass": _Tag("wire"),
    "namedtuple": _Point(3, _Level.LOW),
    "nested_frozen_dataclass": _Outer(
        "outer", _Inner(_Level.LOW, frozenset({"a", "b"})),
        (_Point(1, 2), _Inner(_Level.HIGH, frozenset()))),
    "dict_with_tuple_keys": {(1, 2): "x", (0, 5): [_Tag("y"), None]},
    "set_of_tuples": {(2, 1), (1, 2), (1, _Level.LOW)},
    # A dataclass *class* encodes through its defaults; the next class
    # object, of the same metaclass, must not reuse its field names.
    "dataclass_class": (_Defaulted, int),
    "awkward_strings_set": frozenset(_AWKWARD),
    "awkward_strings_list": list(_AWKWARD),
    "awkward_string_keys": {text: i for i, text in enumerate(_AWKWARD)},
    # Equal as sets, encoded [2,1] and [1,2]: the IntEnum members sort
    # by their own repr.
    "int_enum_set_beside_int_set": (frozenset({_Level.LOW, _Level.HIGH}),
                                    frozenset({1, 2})),
    "str_mixin_enum": (_Mode.SAFE, frozenset(_Mode), {_Mode.FAST: _Mode.SAFE}),
    "plain_enum_set": frozenset(_Color),
    "plain_enum_beside_its_text": {_Color.RED, "_Color.RED", _Color.BLUE},
    "redefined_enum_name": (_Named.ONE, frozenset(_Named)),
    "opcode_sets": (frozenset(Opcode), set(Opcode), frozenset()),
    "mixed_type_set": {1, "1", 2.5, None, True, (1,), _Color.GREEN,
                       frozenset({3}), b"raw"},
    "dict_with_enum_keys": {_Color.RED: 1, _Level.LOW: [2], _Mode.FAST: 3},
    "dict_with_mixed_keys": {1: "i", "1": "s", (1,): "t", None: "n",
                             2.5: "f", _Color.BLUE: "e"},
    "dict_with_tied_key_reprs": {float("nan"): 1, float("nan"): 0},
    "frozen_dataclass_with_dict": _Table({"b": {1, 2}, "a": {"x": None}}),
    "empty_and_single_field_dataclasses": [_Empty(), _Single(_Empty()),
                                           _Single({3: 4})],
    "dicts_of_dicts": {i: {j: (f"r{j}" if j % 2 else None)
                           for j in range(i % 4)} for i in range(7)},
    "non_finite_floats": [math.inf, -math.inf, math.nan, -0.0, 1e300],
    "large_and_negative_ints": [-1, 255, 256, 2**70, -(2**70)],
    "int_keys_with_signs": {-1: "a", 1: "b", -10: "c", 10: "d", 0: None,
                            1000: [], -(2**40): {}},
    "fallback_reprs": [b"bytes", 3j, range(2), object],
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_encoder_matches_oracle(name):
    value = SAMPLES[name]
    for _ in range(2):          # the second pass takes the cached paths
        assert encode_text(value) == _oracle_text(value)


@pytest.mark.parametrize("arch_key", ARCH_KEYS + ("st6x6",))
def test_encoder_matches_oracle_on_fabrics(arch_key):
    arch = make_spatio_temporal(6, 6) if arch_key == "st6x6" \
        else build_arch(arch_key)
    for f in dataclasses.fields(arch):
        value = getattr(arch, f.name)
        assert encode_text(value) == _oracle_text(value), f.name
    assert arch_signature_text(arch) == _oracle_signature_text(arch)


_hashables = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.text(max_size=6), st.builds(_Tag, st.text(max_size=3)),
        st.sampled_from(list(_Level) + list(_Color) + list(_Mode)
                        + list(_Named) + list(Opcode)[:6]),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
        st.builds(_Point, inner, inner),
        st.builds(_Inner, st.sampled_from(list(_Level)),
                  st.frozensets(inner, max_size=3)),
    ),
    max_leaves=8,
)

_values = st.recursive(
    _hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.sets(_hashables, max_size=4),
        st.dictionaries(_hashables, inner, max_size=4),
        st.builds(_Table, st.dictionaries(_hashables, inner, max_size=3)),
        st.builds(_Single, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_encoder_matches_oracle_on_random_values(value):
    assert encode_text(value) == _oracle_text(value)
    assert encode_text(value) == _oracle_text(value)


def _value_keyed_tables() -> dict[str, set]:
    """Each module-level dict of the encoder, with its keys that are not
    types."""
    return {name: {key for key in table if not isinstance(key, type)}
            for name, table in vars(signature).items()
            if isinstance(table, dict)}


def test_clear_caches_empties_value_keyed_encoding_memos():
    before = _value_keyed_tables()
    for arch_key in ARCH_KEYS:
        arch_signature_text(build_arch(arch_key))
    for value in SAMPLES.values():
        encode_text(value)
    grown = [name for name, keys in _value_keyed_tables().items()
             if keys - before[name]]
    clear_caches()
    after = _value_keyed_tables()
    assert all(not after[name] for name in grown), grown


def test_copied_fabric_with_distinct_equal_op_sets_gets_oracle_text():
    arch = build_arch("st")
    text = arch_signature_text(arch)
    copied = copy.deepcopy(arch)
    copied.fus = [dataclasses.replace(fu, ops=frozenset(list(fu.ops)))
                  for fu in arch.fus]
    assert all(new.ops == old.ops and new.ops is not old.ops
               for new, old in zip(copied.fus, arch.fus))
    assert arch_signature_text(copied) == _oracle_signature_text(copied)
    assert arch_signature_text(copied) == text

    # An unequal set must not be served the text of the one it replaced.
    edited = copy.deepcopy(arch)
    edited.fus[0] = dataclasses.replace(
        edited.fus[0], ops=edited.fus[0].ops - {Opcode.ADD})
    assert arch_signature_text(edited) == _oracle_signature_text(edited)
    assert arch_signature_text(edited) != text
