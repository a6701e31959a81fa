"""Seed salts: independent seeds for seed-spread studies.

Salt 0 is the published seed of every cell, so every store fingerprint,
golden value and identity digest holds under it.  A nonzero salt draws
a fresh seed per cell; it must reach sweep workers and the scorecard's
spread, and never leak into the next evaluation.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval import harness, parallel, reporting
from repro.eval.harness import (
    _seed_for, clear_caches, configure_store, evaluate_kernel,
    evaluation_fingerprint, lookup, seed_salt, set_seed_salt,
)

FIXTURE = Path(__file__).parent / "data" / "store_fingerprints.json"


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    configure_store(None)
    yield
    clear_caches()


def _locked_cells():
    return [tuple(name.split("|"))
            for name in json.loads(FIXTURE.read_text())]


def test_salt_zero_is_the_published_seed():
    for cell in _locked_cells():
        assert _seed_for(*cell) == _seed_for(*cell, salt=0)
        assert _seed_for(*cell, salt=1) != _seed_for(*cell)


def test_salted_fingerprints_leave_the_published_ones():
    expected = json.loads(FIXTURE.read_text())
    set_seed_salt(1)
    salted = {evaluation_fingerprint(*cell) for cell in _locked_cells()}
    assert not salted & set(expected.values())
    set_seed_salt(0)
    assert {name: evaluation_fingerprint(*name.split("|"))
            for name in expected} == expected


def test_changing_the_salt_drops_the_memo():
    result = evaluate_kernel("dwconv", "plaid")
    assert set_seed_salt(2) == 0
    assert seed_salt() == 2
    assert lookup("dwconv", "plaid", use_store=False) is None
    set_seed_salt(2)                        # same salt: memo kept
    salted = evaluate_kernel("dwconv", "plaid")
    assert lookup("dwconv", "plaid", use_store=False) is salted
    clear_caches()
    assert seed_salt() == 0
    assert evaluate_kernel("dwconv", "plaid") == result


def test_sweep_workers_use_the_parent_salt(tmp_path):
    """A parallel sweep under salt 3 writes each cell at its salted
    fingerprint and returns exactly the serial salted results."""
    cells = parallel.build_grid(workloads=["dwconv", "gesum_u2"],
                                arch_keys=["plaid"])
    set_seed_salt(3)
    serial = [evaluate_kernel(*cell.key()) for cell in cells]
    clear_caches()
    store = configure_store(tmp_path / "store")
    set_seed_salt(3)
    report = parallel.run_sweep(cells, jobs=2)
    assert report.evaluated == len(cells)
    assert report.results == serial
    for cell in cells:
        assert store.get(evaluation_fingerprint(*cell.key())) is not None


def test_scorecard_spread_runs_each_salt_and_restores(monkeypatch):
    monkeypatch.setattr(reporting, "measure_claims",
                        lambda: {"plaid_vs_st_performance":
                                 1.0 + harness.seed_salt()})
    monkeypatch.setattr(reporting, "plaid_column_geomeans",
                        lambda: {"plaid": 10.0 * (1 + harness.seed_salt())})
    set_seed_salt(5)
    spreads = reporting.scorecard_spread(3)
    assert seed_salt() == 5
    claim, column = spreads
    assert claim.values == (1.0, 2.0, 3.0) and claim.paper == 1.0
    assert column.name == "plaid cycles geomean" and column.paper is None
    assert column.values == (10.0, 20.0, 30.0) and column.median == 20.0
    text = reporting.render_scorecard_spread(spreads)
    assert "salt 0" in text and "median" in text
    assert "seed salts 0..2" in text


def test_seeds_option_is_scorecard_only(capsys):
    assert main(["report", "table2", "--seeds", "3"]) == 2
    assert main(["report", "scorecard", "--seeds", "0"]) == 2
    assert "--seeds" in capsys.readouterr().err
