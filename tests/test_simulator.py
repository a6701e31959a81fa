"""Tests for the cycle-accurate simulator, SPM, and trace recorder."""

import pytest

from repro.arch import make_plaid, make_spatio_temporal
from repro.errors import SimulationError
from repro.frontend import compile_kernel
from repro.ir.interpreter import DFGInterpreter, MemoryImage
from repro.mapping import PathFinderMapper, PlaidMapper, SimulatedAnnealingMapper
from repro.sim import CGRASimulator, Scratchpad, TraceRecorder

GEMV = """
#pragma plaid
for (i = 0; i < 4; i++) {
  for (j = 0; j < 4; j++) {
    y[i] += A[i][j] * x[j];
  }
}
"""
SHAPES = {"A": (4, 4)}


def mapped(unroll=1, arch=None, mapper=None):
    dfg = compile_kernel(GEMV, name=f"gemv_u{unroll}", array_shapes=SHAPES,
                         unroll=unroll)
    arch = arch or make_spatio_temporal()
    mapper = mapper or SimulatedAnnealingMapper(seed=9)
    return mapper.map(dfg, arch)


# ---------------------------------------------------------------------------
# Scratchpad
# ---------------------------------------------------------------------------
def test_spm_allocate_and_roundtrip():
    spm = Scratchpad(banks=4)
    image = MemoryImage({"a": [1, 2, 3], "b": [9]})
    spm.load_image(image)
    out = spm.dump_image()
    assert out.array("a") == [1, 2, 3]
    assert out.array("b") == [9]


def test_spm_out_of_bounds():
    spm = Scratchpad()
    spm.allocate("a", 4)
    spm.begin_cycle()
    with pytest.raises(SimulationError):
        spm.read("a", 4)


def test_spm_port_limit():
    spm = Scratchpad(banks=2)
    spm.allocate("a", 8)
    spm.begin_cycle()
    spm.read("a", 0)
    spm.read("a", 1)
    with pytest.raises(SimulationError):
        spm.read("a", 2)
    spm.begin_cycle()
    spm.read("a", 2)    # new cycle resets the ports


def test_spm_exhaustion():
    spm = Scratchpad(banks=1, bytes_per_bank=16)   # 8 words
    spm.allocate("a", 8)
    with pytest.raises(SimulationError):
        spm.allocate("b", 1)


def test_spm_unknown_array():
    spm = Scratchpad()
    spm.begin_cycle()
    with pytest.raises(SimulationError):
        spm.read("ghost", 0)


def test_spm_ports_shared_by_reads_and_writes():
    """Port accounting is per access, not per direction: a read and a
    write together saturate a 2-bank SPM."""
    spm = Scratchpad(banks=2)
    spm.allocate("a", 8)
    spm.begin_cycle()
    spm.read("a", 0)
    spm.write("a", 1, 42)
    with pytest.raises(SimulationError):
        spm.write("a", 2, 43)
    # The successful accesses landed before the port check tripped.
    assert spm.accesses_this_cycle == 3


def test_spm_failed_access_still_charges_a_port():
    """An out-of-bounds access charges its port before faulting — the
    request occupied the port even though it failed."""
    spm = Scratchpad(banks=2)
    spm.allocate("a", 2)
    spm.begin_cycle()
    with pytest.raises(SimulationError):
        spm.read("a", 99)
    assert spm.accesses_this_cycle == 1
    spm.read("a", 0)                        # one port still free
    with pytest.raises(SimulationError):
        spm.read("a", 1)                    # ... but only one


def test_spm_port_counter_resets_each_cycle():
    spm = Scratchpad(banks=1)
    spm.allocate("a", 4)
    for cycle in range(3):
        spm.begin_cycle()
        assert spm.accesses_this_cycle == 0
        spm.write("a", cycle, cycle)
        assert spm.accesses_this_cycle == 1
        with pytest.raises(SimulationError):
            spm.read("a", 0)


def test_spm_exact_port_capacity_is_legal():
    spm = Scratchpad(banks=4)
    spm.allocate("a", 8)
    spm.begin_cycle()
    for index in range(4):                  # exactly banks accesses: fine
        spm.read("a", index)
    with pytest.raises(SimulationError):
        spm.read("a", 4)                    # banks + 1 trips


def test_spm_reallocate_same_or_smaller_is_idempotent():
    spm = Scratchpad(banks=1, bytes_per_bank=32)    # 16 words
    base = spm.allocate("a", 8)
    assert spm.allocate("a", 8) == base     # same size: same base
    assert spm.allocate("a", 4) == base     # smaller: same base
    with pytest.raises(SimulationError):
        spm.allocate("a", 9)                # growing is an error


def test_scratchpad_counts_bank_conflicts():
    spm = Scratchpad(banks=4, bytes_per_bank=64)
    spm.allocate("a", 16)
    spm.begin_cycle()
    spm.read("a", 0)
    spm.read("a", 4)                         # same bank (offset % 4)
    assert spm.bank_conflicts == 1
    spm.read("a", 1)                         # fresh bank: no conflict
    assert spm.bank_conflicts == 1
    spm.begin_cycle()                        # per-cycle set resets...
    spm.write("a", 8, 7)
    assert spm.bank_conflicts == 1           # ...but the total accumulates
    spm.write("a", 12, 7)
    assert spm.bank_conflicts == 2


def test_scratchpad_aggregate_port_check_unchanged():
    """The raise still belongs to the aggregate check — per-bank charges
    are diagnostic only, so historical error behavior is preserved."""
    spm = Scratchpad(banks=2, bytes_per_bank=64)
    spm.allocate("a", 8)
    spm.begin_cycle()
    spm.read("a", 0)
    spm.read("a", 2)                         # same bank: conflict, no raise
    with pytest.raises(SimulationError, match="more than 2 SPM accesses"):
        spm.read("a", 1)
    assert spm.bank_conflicts == 1


# ---------------------------------------------------------------------------
# Simulator end-to-end
# ---------------------------------------------------------------------------
def test_simulation_verifies_against_interpreter():
    mapping = mapped()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    report = CGRASimulator(mapping).run(memory, iterations=8)
    assert report.verified
    assert report.fu_firings == 8 * mapping.dfg.num_nodes


def test_simulation_full_iteration_space():
    mapping = mapped()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    report = CGRASimulator(mapping).run(memory)
    assert report.verified
    assert report.cycles == mapping.total_cycles()


def test_simulation_on_plaid():
    mapping = mapped(unroll=2, arch=make_plaid(), mapper=PlaidMapper(seed=9))
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    report = CGRASimulator(mapping).run(memory, iterations=6)
    assert report.verified


def test_simulation_with_pathfinder_mapping():
    mapping = mapped(mapper=PathFinderMapper(seed=9))
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    assert CGRASimulator(mapping).run(memory, iterations=6).verified


def test_simulation_detects_corrupted_route():
    """Redirecting a route's final place starves the consumer."""
    from dataclasses import replace
    mapping = mapped()
    victim_index = next(
        index for index, route in mapping.routes.items()
        if route.places and not route.bypass
    )
    route = mapping.routes[victim_index]
    # Redirect delivery to a place the consumer's operand muxes cannot
    # reach (guaranteed by picking outside its consume set).
    edge = next(
        e for i, e in enumerate(mapping.dfg.edges) if i == victim_index
    )
    consumer_fu = mapping.placement[edge.dst][0]
    readable = set(mapping.arch.consume_places[consumer_fu])
    other_place = next(
        p.place_id for p in mapping.arch.places
        if p.place_id not in readable
    )
    bad_places = route.places[:-1] + ((other_place, route.places[-1][1]),)
    mapping.routes[victim_index] = replace(route, places=bad_places)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    with pytest.raises(SimulationError):
        CGRASimulator(mapping).run(memory, iterations=4)


def test_simulation_counts_memory_traffic():
    mapping = mapped()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    report = CGRASimulator(mapping).run(memory, iterations=4)
    loads = len([n for n in mapping.dfg.nodes if n.op.name == "LOAD"])
    stores = len([n for n in mapping.dfg.nodes if n.op.name == "STORE"])
    assert report.spm_reads == 4 * loads
    assert report.spm_writes == 4 * stores


def test_trace_recorder_captures_executions():
    mapping = mapped()
    trace = TraceRecorder(limit=50)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    CGRASimulator(mapping, trace=trace).run(memory, iterations=2)
    execs = trace.of_kind("exec")
    assert execs
    assert "exec" in trace.render(head=1)


def test_original_memory_untouched():
    mapping = mapped()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    snapshot = memory.copy()
    CGRASimulator(mapping).run(memory, iterations=4)
    assert memory == snapshot
