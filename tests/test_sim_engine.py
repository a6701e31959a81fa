"""Conformance suite for the compiled simulation engine.

The invariant (mirroring the MRRG-pool rule): compiled execution is
**bit-identical** to the interpreted reference simulator — same
:class:`SimulationReport` counters, same verify results, same trace
events, same errors on the same malformed mappings — across the golden
small-grid mappings and the handcrafted error cases.
"""

from dataclasses import replace

import pytest

from repro.errors import SimulationError
from repro.eval.harness import (
    _seed_for, build_arch, clear_caches, resolve_mapper, simulate_kernel,
)
from repro.frontend import compile_kernel
from repro.ir.builder import DFGBuilder
from repro.ir.graph import AffineAccess
from repro.ir.interpreter import DFGInterpreter, MemoryImage
from repro.ir.ops import Opcode
from repro.mapping.engine import get_mapper, map_kernel
from repro.sim import CGRASimulator, SpatialSimulator, TraceRecorder
from repro.sim.engine import SimulationReport
from repro.workloads import get_dfg

#: The golden small grid's workloads (tests/data/golden_small_grid.json)
#: on both temporal fabric styles, with fast per-style mappers.
GOLDEN_WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]
GOLDEN_ARCHES = [("st", "pathfinder"), ("plaid", "plaid")]


@pytest.fixture(autouse=True)
def _fresh_harness():
    clear_caches()
    yield
    clear_caches()


def _mapping(workload: str, arch_key: str, mapper_key: str):
    dfg = get_dfg(workload)
    arch = build_arch(arch_key)
    return get_mapper(mapper_key).make(seed=3).map(dfg, arch)


GEMV = """
#pragma plaid
for (i = 0; i < 4; i++) {
  for (j = 0; j < 4; j++) {
    y[i] += A[i][j] * x[j];
  }
}
"""


def _small_mapping():
    dfg = compile_kernel(GEMV, name="gemv", array_shapes={"A": (4, 4)})
    arch = build_arch("st")
    return get_mapper("sa").make(seed=9).map(dfg, arch)


# ---------------------------------------------------------------------------
# Bit-identical execution across the golden grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("arch_key,mapper_key", GOLDEN_ARCHES)
@pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
def test_compiled_matches_reference_bit_for_bit(workload, arch_key,
                                                mapper_key):
    mapping = _mapping(workload, arch_key, mapper_key)
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    compiled_trace = TraceRecorder()
    reference_trace = TraceRecorder()
    got = CGRASimulator(mapping, trace=compiled_trace).run(
        memory, iterations=6)
    want = CGRASimulator(mapping, trace=reference_trace).run_reference(
        memory, iterations=6)
    assert got == want                       # every counter, every field
    assert got.verified is True, got.mismatches[:3]
    assert compiled_trace.events == reference_trace.events


@pytest.mark.parametrize("iterations", [1, 2, None])
def test_conformance_across_window_sizes(iterations):
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=5)
    got = CGRASimulator(mapping).run(memory, iterations=iterations)
    want = CGRASimulator(mapping).run_reference(memory,
                                                iterations=iterations)
    assert got == want
    assert got.verified is True


def test_compile_once_batched_windows():
    """One simulator runs several windows through one compiled schedule;
    reports equal fresh single-window runs."""
    mapping = _small_mapping()
    simulator = CGRASimulator(mapping)
    memories = [DFGInterpreter(mapping.dfg).prepare_memory(fill=f)
                for f in (1, 2, 3)]
    schedule = simulator.compiled()
    batch = [simulator.run(m, iterations=4) for m in memories]
    assert simulator.compiled() is schedule                # cached
    singles = [CGRASimulator(mapping).run(m, iterations=4)
               for m in memories]
    assert batch == singles
    assert all(r.verified for r in batch)


def test_negative_host_words_mask_like_the_scratchpad():
    """Host images may carry signed words; both engines mask them to 16
    bits on load (Scratchpad's to_unsigned) and agree bit for bit."""
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    arrays = {name: list(memory.array(name)) for name in memory.names}
    arrays["x"] = [-1, -32768, 7, 65535][:len(arrays["x"])]
    signed = MemoryImage(arrays)
    got = CGRASimulator(mapping).run(signed, iterations=4, verify=False)
    want = CGRASimulator(mapping).run_reference(signed, iterations=4,
                                                verify=False)
    assert got == want


def test_zero_iterations_rejected_by_both_engines():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    simulator = CGRASimulator(mapping)
    with pytest.raises(SimulationError, match="at least one iteration"):
        simulator.run(memory, iterations=0)
    with pytest.raises(SimulationError, match="at least one iteration"):
        simulator.run_reference(memory, iterations=0)


def test_verify_false_is_unverified_in_both_engines():
    mapping = _small_mapping()
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    got = CGRASimulator(mapping).run(memory, iterations=2, verify=False)
    want = CGRASimulator(mapping).run_reference(memory, iterations=2,
                                                verify=False)
    assert got == want
    assert got.verified is None
    assert "UNVERIFIED" in got.summary()


# ---------------------------------------------------------------------------
# Error conformance on malformed mappings
# ---------------------------------------------------------------------------
def _routed_victim(mapping):
    index = next(i for i, route in mapping.routes.items()
                 if route.places and not route.bypass)
    return index, mapping.routes[index]


def _raises_identically(mapping, iterations=4):
    """Run both engines on one (malformed) mapping; both must raise the
    same exception type with the same payload."""
    memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
    with pytest.raises(Exception) as compiled_err:
        CGRASimulator(mapping).run(memory, iterations=iterations)
    with pytest.raises(Exception) as reference_err:
        CGRASimulator(mapping).run_reference(memory, iterations=iterations)
    assert type(compiled_err.value) is type(reference_err.value)
    assert str(compiled_err.value) == str(reference_err.value)
    return compiled_err.value


def test_redirected_route_raises_identical_error():
    """Delivering to a place the consumer cannot read: same
    SimulationError, same message, from both engines."""
    mapping = _small_mapping()
    index, route = _routed_victim(mapping)
    edge = mapping.dfg.edges[index]
    consumer_fu = mapping.placement[edge.dst][0]
    readable = set(mapping.arch.consume_places[consumer_fu])
    other = next(p.place_id for p in mapping.arch.places
                 if p.place_id not in readable)
    bad = route.places[:-1] + ((other, route.places[-1][1]),)
    mapping.routes[index] = replace(route, places=bad)
    error = _raises_identically(mapping)
    assert isinstance(error, SimulationError)
    assert "cannot read place" in str(error)


def test_starved_consumer_raises_identical_error():
    """Delivering the final occupancy one cycle late starves the consumer
    with the 'expected value ... not there' error in both engines."""
    mapping = _small_mapping()
    index, route = _routed_victim(mapping)
    place, cycle = route.places[-1]
    bad = route.places[:-1] + ((place, cycle + 1),)
    mapping.routes[index] = replace(route, places=bad)
    error = _raises_identically(mapping)
    assert isinstance(error, SimulationError)
    assert "not there" in str(error)


def test_missing_route_raises_identical_error():
    mapping = _small_mapping()
    index, _route = _routed_victim(mapping)
    del mapping.routes[index]
    error = _raises_identically(mapping)
    assert isinstance(error, KeyError)


def test_overstuffed_place_same_outcome_in_both_engines():
    """Redirecting every routed delivery into one shared place: whatever
    the outcome (capacity error, starved consumer, or a still-legal run),
    both engines must agree on it exactly."""
    mapping = _small_mapping()
    indices = [i for i, r in mapping.routes.items()
               if r.places and not r.bypass]
    if len(indices) < 2:
        pytest.skip("mapping too small to overstuff a place")
    target_place = mapping.routes[indices[0]].places[-1][0]
    capacity = mapping.arch.place(target_place).capacity
    for index in indices[1:capacity + 3]:
        route = mapping.routes[index]
        bad = route.places[:-1] + ((target_place, route.places[-1][1]),)
        mapping.routes[index] = replace(route, places=bad)

    def outcome(runner):
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        try:
            return ("ok", runner(memory, iterations=4, verify=False))
        except Exception as error:      # noqa: BLE001 — outcome capture
            return ("err", type(error).__name__, str(error))

    got = outcome(CGRASimulator(mapping).run)
    want = outcome(CGRASimulator(mapping).run_reference)
    assert got == want


def _unvalidated_dfg(case: str):
    """A 4-iteration graph with one malformed node (never validated):
    an ADD fed one operand and no constant, or a STORE fed nothing."""
    builder = DFGBuilder("malformed", trip_counts=(4,))
    x = builder.load("x", coeffs=(1,))
    if case == "alu":
        builder.store("y", builder.op(Opcode.ADD, x, name="half"),
                      coeffs=(1,))
    else:
        builder.store("y", builder.op(Opcode.ADD, x, const=1), coeffs=(1,))
        builder.dfg.add_node(Opcode.STORE, name="empty",
                             access=AffineAccess("z", coeffs=(1,)))
    return builder.dfg


@pytest.mark.parametrize("case,message", [
    ("alu", "'half' missing operand 1 at execution"),
    ("store", "store 'empty' without a value"),
])
def test_malformed_node_raises_one_message_everywhere(case, message):
    """The interpreter, both temporal engines and the spatial simulator
    reject a node without its operands with the same error."""
    dfg = _unvalidated_dfg(case)
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    temporal = get_mapper("pathfinder").make(seed=1).map(
        dfg, build_arch("st"))
    spatial = get_mapper("spatial").make(seed=1).map(
        dfg, build_arch("spatial"))
    runs = [
        lambda: DFGInterpreter(dfg).run(memory.copy()),
        lambda: CGRASimulator(temporal).run(memory),
        lambda: CGRASimulator(temporal).run_reference(memory),
        lambda: SpatialSimulator(spatial).simulate(memory),
    ]
    for run in runs:
        with pytest.raises(SimulationError) as error:
            run()
        assert str(error.value) == message


# ---------------------------------------------------------------------------
# The unified report path (spatial + harness + summary)
# ---------------------------------------------------------------------------
def test_spatial_simulate_returns_shared_report():
    dfg = get_dfg("dwconv")
    arch = build_arch("spatial")
    mapping = get_mapper("spatial").make(seed=3).map(dfg, arch)
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    report = SpatialSimulator(mapping).simulate(memory, iterations=8)
    assert isinstance(report, SimulationReport)
    assert report.verified is True and not report.mismatches
    assert report.iterations == 8
    assert report.cycles == mapping.total_cycles(8)
    assert report.fu_firings > 0 and report.spm_reads > 0
    # A verified run lists no mismatches.
    assert SpatialSimulator(mapping).simulate(
        memory, iterations=8).mismatches == []
    skipped = SpatialSimulator(mapping).simulate(memory, iterations=8,
                                                 verify=False)
    assert skipped.verified is None


def test_spatial_trace_records_executions():
    dfg = get_dfg("dwconv")
    arch = build_arch("spatial")
    mapping = get_mapper("spatial").make(seed=3).map(dfg, arch)
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    trace = TraceRecorder(limit=20)
    SpatialSimulator(mapping, trace=trace).simulate(memory, iterations=2)
    assert trace.of_kind("exec")
    assert len(trace) <= 20


def _harness_reference(workload, arch_key, mapper_key=None, iterations=8):
    """The interpreted simulator's report on the mapping
    :func:`simulate_kernel` simulates (same dispatch, seeds and fill)."""
    mapper_key = resolve_mapper(arch_key, mapper_key)
    dfg = get_dfg(workload)
    mapping = map_kernel(mapper_key, dfg, build_arch(arch_key),
                         lambda key: _seed_for(workload, arch_key, key))
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    return CGRASimulator(mapping).run_reference(memory,
                                                iterations=iterations)


def test_harness_simulate_kernel_temporal_and_spatial():
    temporal = simulate_kernel(get_dfg("dwconv"), "plaid", iterations=4)
    assert temporal.verified is True
    reference = _harness_reference("dwconv", "plaid", iterations=4)
    assert reference == temporal                 # bit-identical engines
    spatial = simulate_kernel(get_dfg("dwconv"), "spatial", iterations=4)
    assert spatial.verified is True
    assert isinstance(spatial, SimulationReport)


def test_bank_conflicts_surface_on_reports_across_engines():
    report = simulate_kernel(get_dfg("gesum_u2"), "st", "pathfinder")
    assert report.bank_conflicts > 0         # golden mapping has repeats
    other = _harness_reference("gesum_u2", "st", "pathfinder")
    assert other.bank_conflicts == report.bank_conflicts
    assert other == report


def test_report_summary_tri_state():
    assert "VERIFIED" in SimulationReport(1, 1, verified=True).summary()
    assert "MISMATCH" in SimulationReport(1, 1, verified=False).summary()
    assert "UNVERIFIED" in SimulationReport(1, 1, verified=None).summary()
