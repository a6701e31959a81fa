"""Bit-identity lock on every mapping the Plaid mapper's ``_State`` makes.

``tests/data/plaid_mapping_digests.json`` holds one SHA-256 digest of
(II, sorted placement, sorted route steps) per (workload, arch, mapper)
cell: the golden-grid workloads on ``plaid``, ``plaid-ml`` and
``plaid3x3`` under the ``plaid`` mapper, plus the motif-blind ``greedy``
mapper (which runs the same ``_State`` search) on ``st``.  Unlike the
golden fixture, which locks II/cycles/energy, a digest moves when any
single placement or route step moves — so speed-ups of the mapper's
search must leave it untouched.

To regenerate after an intentional change to mapper behaviour, run
``PYTHONPATH=src python tests/test_plaid_mapper_identity.py`` and
explain the shift in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.eval.harness import _seed_for, build_arch
from repro.mapping import engine as mapping_engine
from repro.workloads import get_dfg

DIGEST_PATH = Path(__file__).parent / "data" / "plaid_mapping_digests.json"

WORKLOADS = ("dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2")
CELLS = tuple(
    (workload, arch_key, "plaid")
    for workload in WORKLOADS
    for arch_key in ("plaid", "plaid-ml", "plaid3x3")
) + tuple((workload, "st", "greedy") for workload in WORKLOADS)


def mapping_digest(mapping) -> str:
    """SHA-256 over the II, the placement and every route step."""
    routes = [
        (index, route.net, route.src_fu, route.dst_fu, route.depart_cycle,
         route.arrive_cycle, route.bypass, route.places,
         tuple((step.kind, step.resource, step.cycle)
               for step in route.steps))
        for index, route in sorted(mapping.routes.items())
    ]
    canonical = repr((mapping.ii, sorted(mapping.placement.items()), routes))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_digest(workload: str, arch_key: str, mapper_key: str) -> str:
    mapping = mapping_engine.map_kernel(
        mapper_key, get_dfg(workload), build_arch(arch_key),
        lambda key: _seed_for(workload, arch_key, key))
    return mapping_digest(mapping)


def cell_id(cell) -> str:
    return "/".join(cell)


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGEST_PATH.read_text())


def test_fixture_covers_every_cell(digests):
    assert sorted(digests) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_mapping_matches_digest(cell, digests):
    assert cell_digest(*cell) == digests[cell_id(cell)], (
        f"mapping of {cell_id(cell)} moved; if intentional, regenerate "
        "tests/data/plaid_mapping_digests.json (see module docstring)"
    )


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(
        {cell_id(cell): cell_digest(*cell) for cell in CELLS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CELLS)} digests to {DIGEST_PATH}")
