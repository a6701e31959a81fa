"""Bit-identity lock on what the simulators and the interpreter compute.

``tests/data/sim_report_digests.json`` holds two kinds of SHA-256 digest:

* per cell of the paper's default grid (every Table-2 workload on
  ``st``, ``spatial`` and ``plaid``, each under its default mapper): the
  full-iteration :class:`~repro.sim.engine.SimulationReport` (counters,
  cycles, verify result) plus the first 200 trace events, as
  :func:`~repro.eval.harness.simulate_kernel` produces them;
* per Table-2 workload: the reference interpreter's final memory image
  and per-node value history over the whole iteration space.

Any change to how a simulator or the interpreter executes a node must
leave every digest untouched.  To regenerate after an intentional
change, run ``PYTHONPATH=src python tests/test_sim_digests.py`` and
explain the shift in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.eval.harness import clear_caches, simulate_kernel
from repro.eval.parallel import DEFAULT_ARCH_KEYS
from repro.ir.interpreter import DFGInterpreter
from repro.sim import TraceRecorder
from repro.workloads import get_dfg
from repro.workloads.registry import all_workloads

DIGEST_PATH = Path(__file__).parent / "data" / "sim_report_digests.json"

WORKLOADS = tuple(spec.name for spec in all_workloads())
CELLS = tuple((workload, arch_key) for workload in WORKLOADS
              for arch_key in DEFAULT_ARCH_KEYS)
TRACE_EVENTS = 200


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def simulate_cell(workload: str, arch_key: str):
    """The cell's full-iteration report and the digest of it plus its
    trace head."""
    trace = TraceRecorder(limit=TRACE_EVENTS)
    report = simulate_kernel(get_dfg(workload), arch_key, iterations=None,
                             trace=trace)
    events = [(event.cycle, event.kind, sorted(event.detail.items()))
              for event in trace.events]
    return report, _digest((report, events))


def interpreter_digest(workload: str) -> str:
    """Digest of the interpreter's final image and value history."""
    interpreter = DFGInterpreter(get_dfg(workload))
    memory = interpreter.prepare_memory(fill=3)
    history = interpreter.run(memory)
    image = [(name, memory.array(name)) for name in memory.names]
    return _digest((image, sorted(history.items())))


def cell_id(cell) -> str:
    return "/".join(cell)


def fixture_records() -> dict:
    records = {cell_id(cell): simulate_cell(*cell)[1] for cell in CELLS}
    records.update({f"{workload}/interpreter": interpreter_digest(workload)
                    for workload in WORKLOADS})
    return records


@pytest.fixture(scope="module", autouse=True)
def _published_seeds():
    clear_caches()          # salt 0: the mappings the sweeps price
    yield
    clear_caches()


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGEST_PATH.read_text())


def test_fixture_covers_every_cell(digests):
    want = [cell_id(cell) for cell in CELLS] + [
        f"{workload}/interpreter" for workload in WORKLOADS]
    assert sorted(digests) == sorted(want)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_simulation_report_matches_digest(cell, digests):
    report, digest = simulate_cell(*cell)
    assert report.verified is True, report.mismatches[:3]
    assert digest == digests[cell_id(cell)], (
        f"simulation of {cell_id(cell)} moved; if intentional, regenerate "
        "tests/data/sim_report_digests.json (see module docstring)"
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_interpreter_matches_digest(workload, digests):
    assert interpreter_digest(workload) == \
        digests[f"{workload}/interpreter"], (
            f"interpreter run of {workload} moved; if intentional, "
            "regenerate tests/data/sim_report_digests.json")


if __name__ == "__main__":
    records = fixture_records()
    DIGEST_PATH.write_text(json.dumps(records, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(records)} digests to {DIGEST_PATH}")
