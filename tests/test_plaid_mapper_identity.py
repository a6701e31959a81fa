"""Bit-identity lock on every mapping the Plaid mapper's ``_State`` makes.

``tests/data/plaid_mapping_digests.json`` holds one SHA-256 digest of
(II, sorted placement, sorted route steps) per (workload, arch, mapper)
cell: the golden-grid workloads on ``plaid``, ``plaid-ml`` and
``plaid3x3`` under the ``plaid`` mapper, the motif-blind ``greedy``
mapper (which runs the same ``_State`` search) on ``st`` and
``st-ml``, and every other Table-2 workload on ``plaid`` — with the
golden-grid cells, the whole ``plaid`` column of the paper's default
grid.  Unlike the
golden fixture, which locks II/cycles/energy, a digest moves when any
single placement or route step moves — so speed-ups of the mapper's
search must leave it untouched.

Next to each digest the fixture locks the search's route calls
(``routecore.ROUTING.calls``), equal under both routers: a rise in
trial routing fails here, and a fall is committed with the fixture.

To regenerate after an intentional change to mapper behaviour, run
``PYTHONPATH=src python tests/test_plaid_mapper_identity.py`` and
explain the shift in the commit message.

The fixture locks 50 cells.  To compare a change with its parent on all
150 ``_State`` cells (``ALL_CELLS``: the 30 Table-2 workloads on
``plaid``, ``plaid-ml`` and ``plaid3x3`` under ``plaid``, and on ``st``
and ``st-ml`` under ``greedy``), run in each checkout::

    PYTHONPATH=src python tests/test_plaid_mapper_identity.py --all OUT.json

(about 10 s) and compare the two files with ``cmp``.  Equal files mean
equal mappings and route calls; a change that only saves route calls
differs in ``route_calls`` lines alone, which ``diff`` shows.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro.eval.harness import _seed_for, build_arch
from repro.mapping import engine as mapping_engine
from repro.mapping.routecore import ROUTING
from repro.workloads import get_dfg
from repro.workloads.registry import all_workloads

DIGEST_PATH = Path(__file__).parent / "data" / "plaid_mapping_digests.json"

WORKLOADS = ("dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2")
CELLS = tuple(
    (workload, arch_key, "plaid")
    for workload in WORKLOADS
    for arch_key in ("plaid", "plaid-ml", "plaid3x3")
) + tuple(
    (workload, arch_key, "greedy")
    for workload in WORKLOADS
    for arch_key in ("st", "st-ml")
) + tuple(
    (spec.name, "plaid", "plaid") for spec in all_workloads()
    if spec.name not in WORKLOADS
)
ALL_CELLS = tuple(
    (spec.name, arch_key, "plaid") for spec in all_workloads()
    for arch_key in ("plaid", "plaid-ml", "plaid3x3")
) + tuple(
    (spec.name, arch_key, "greedy") for spec in all_workloads()
    for arch_key in ("st", "st-ml")
)


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


def cell_record(workload: str, arch_key: str, mapper_key: str) -> dict:
    """The cell's mapping digest and the route calls its search made."""
    dfg, arch = get_dfg(workload), build_arch(arch_key)
    calls = ROUTING.calls
    mapping = mapping_engine.map_kernel(
        mapper_key, dfg, arch, lambda key: _seed_for(workload, arch_key, key))
    return {"digest": mapping_digest(mapping),
            "route_calls": ROUTING.calls - calls}


def cell_id(cell) -> str:
    return "/".join(cell)


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGEST_PATH.read_text())


def test_fixture_covers_every_cell(digests):
    assert sorted(digests) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_mapping_matches_digest(cell, digests):
    got = cell_record(*cell)
    want = digests[cell_id(cell)]
    assert got["digest"] == want["digest"], (
        f"mapping of {cell_id(cell)} moved; if intentional, regenerate "
        "tests/data/plaid_mapping_digests.json (see module docstring)"
    )
    assert got["route_calls"] <= want["route_calls"], (
        f"{cell_id(cell)} routes more: {got['route_calls']} calls against "
        f"{want['route_calls']} locked"
    )
    assert got["route_calls"] == want["route_calls"], (
        f"{cell_id(cell)} routes less: {got['route_calls']} calls against "
        f"{want['route_calls']} locked; regenerate the fixture to keep it"
    )


def write_records(cells, path: Path) -> None:
    path.write_text(json.dumps(
        {cell_id(cell): cell_record(*cell) for cell in cells},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} digests to {path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate the digest fixture, or with --all write "
                    "the records of all 150 _State cells to OUT.")
    parser.add_argument("--all", metavar="OUT", type=Path)
    args = parser.parse_args()
    if args.all is None:
        write_records(CELLS, DIGEST_PATH)
    else:
        write_records(ALL_CELLS, args.all)
