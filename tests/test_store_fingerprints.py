"""Store fingerprints are a persistent format: lock them.

``tests/data/store_fingerprints.json`` was generated before the fabric
signature became a per-instance memo.  It covers the 30 Table-2
workloads on every experiment fabric under its default mapper, the
``pathfinder`` and ``sa`` baselines on ``st``, and one transform
variant.  Every value must stay equal, and a store written at those keys
must serve a fresh process without evaluating anything.  The encoder
oracle pins :func:`encode_value` to the encoding it had before its
exact-type dispatch.
"""

import dataclasses
import enum
import json
from collections import namedtuple
from pathlib import Path

import pytest

from repro.errors import MappingError
from repro.eval import cache, parallel
from repro.eval.harness import (
    ARCH_KEYS, build_arch, clear_caches, configure_store, evaluate_kernel,
    evaluation_fingerprint,
)
from repro.utils.signature import canonical_json, encode_value

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


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


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
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_encoder_matches_oracle(name):
    value = SAMPLES[name]
    for _ in range(2):          # the second pass takes the cached paths
        encoded = encode_value(value)
        assert encoded == _oracle_encode_value(value)
        assert canonical_json(encoded) == \
            canonical_json(_oracle_encode_value(value))


@pytest.mark.parametrize("arch_key", ARCH_KEYS + ("st6x6",))
def test_encoder_matches_oracle_on_fabrics(arch_key):
    arch = build_arch(arch_key)
    for f in dataclasses.fields(arch):
        value = getattr(arch, f.name)
        assert canonical_json(encode_value(value)) == \
            canonical_json(_oracle_encode_value(value)), f.name
