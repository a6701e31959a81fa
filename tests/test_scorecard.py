"""The paper-conformance gate: ``repro report scorecard --check FILE``.

``tests/data/scorecard.json`` holds each headline claim's salt-0 value
at full precision, each Plaid column's cycles geomean, and ``[ii,
minimum_ii]`` for every cell the claims read.  The check recomputes all
of it (cold, ~10 s serial; CI runs it) and exits 1 naming every value
that differs and every claim outside its 25% band.  These tests drive
the check with a stand-in measurement, so they cost nothing.

To regenerate after an intentional change to results, run
``PYTHONPATH=src python tests/test_scorecard.py`` and state every
moved value in the commit message.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval import reporting
from repro.eval.harness import clear_caches

FIXTURE = Path(__file__).parent / "data" / "scorecard.json"


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture
def measured(fixture, monkeypatch) -> dict:
    """The measurement the check sees: a copy of the fixture to edit."""
    record = copy.deepcopy(fixture)
    monkeypatch.setattr(reporting, "scorecard_record", lambda: record)
    return record


def test_fixture_covers_every_claim_column_and_cell(fixture):
    assert list(fixture["claims"]) == list(reporting.PAPER_CLAIMS)
    assert list(fixture["plaid_cycles_geomean"]) \
        == list(reporting.PLAID_COLUMNS)
    assert list(fixture["cells"]) \
        == ["|".join(key) for key in reporting.claim_cells()]
    for ii, mii in fixture["cells"].values():
        assert ii is None or ii >= mii >= 1


def test_check_passes_on_equal_values(measured, capsys):
    assert main(["report", "scorecard", "--check", str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert "scorecard check passed" in out and "MISMATCH" not in out


def test_check_names_each_changed_value(measured, capsys):
    measured["claims"]["plaid_vs_st_power"] += 1e-12
    measured["cells"]["gemm_u4|st|best"][0] += 1
    assert main(["report", "scorecard", "--check", str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    mismatches = [line for line in out.splitlines()
                  if line.startswith("MISMATCH")]
    assert len(mismatches) == 2
    assert "claims plaid_vs_st_power" in mismatches[0]
    assert "cells gemm_u4|st|best" in mismatches[1]
    assert "2 mismatches" in out


def test_check_names_claims_outside_their_band(measured, tmp_path, capsys):
    measured["claims"]["scaling_3x3_speedup"] = 1.0
    record = tmp_path / "scorecard.json"
    record.write_text(json.dumps(measured))
    assert main(["report", "scorecard", "--check", str(record)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH claim scaling_3x3_speedup" in out
    assert "outside 25% of the paper's 1.71" in out


def test_check_rejects_bad_records_and_other_reports(tmp_path, capsys):
    record = tmp_path / "bad.json"
    record.write_text("[1, 2]")
    assert main(["report", "scorecard", "--check", str(record)]) == 2
    assert main(["report", "scorecard", "--check",
                 str(tmp_path / "missing.json")]) == 2
    assert main(["report", "fig12", "--check", str(FIXTURE)]) == 2
    assert main(["report", "scorecard", "--seeds", "2",
                 "--check", str(FIXTURE)]) == 2
    assert "--check" in capsys.readouterr().err


if __name__ == "__main__":
    clear_caches()
    text = json.dumps(reporting.scorecard_record(), indent=1)
    # One line per cell: "name": [ii, minimum_ii].
    text = re.sub(r"\[\s+(\S+),\s+(\S+)\s+\]", r"[\1, \2]", text)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {FIXTURE}")
