"""Cycle-accurate simulation time: compiled and numpy engines vs. the
interpreted loop.

The paper's end-to-end claim rests on its cycle-accurate simulator; this
benchmark times the compiled schedule engine (:mod:`repro.sim.engine`)
and its vectorized numpy replay (:mod:`repro.sim.vector`) against the
interpreted reference loop
(:meth:`~repro.sim.machine.CGRASimulator.run_reference`) over the full
iteration space of a representative kernel set on the Plaid fabric.
All engines are bit-identical by invariant (the run asserts report
equality), so the printed per-kernel times and the geomean speedups are
the artifact; CI gates the hot paths with a per-kernel
``$REPRO_SIM_BUDGET_S`` budget, a ``$REPRO_SIM_SPEEDUP_MIN`` geomean
floor for the compiled engine (default 1.5x over interpreted), and a
``$REPRO_SIM_BATCH_SPEEDUP_MIN`` geomean floor for batched numpy
execution over sequential compiled execution (default 3x).
"""

import math
import os
import time

from repro.arch import make_plaid
from repro.ir.interpreter import DFGInterpreter
from repro.mapping.engine import get_mapper
from repro.sim import CGRASimulator
from repro.workloads import get_dfg

KERNELS = ["atax_u2", "gemm_u4", "conv3x3", "jacobi_u4", "seidel"]

#: Hard per-(kernel, engine) budget in seconds; CI tightens it.
BUDGET_S = float(os.environ.get("REPRO_SIM_BUDGET_S", "60"))

#: Geomean speedup floor of compiled over interpreted execution.
SPEEDUP_MIN = float(os.environ.get("REPRO_SIM_SPEEDUP_MIN", "1.5"))

#: Geomean speedup floor of one batched numpy pass over running the
#: compiled engine window by window (the batched-throughput claim).
BATCH_SPEEDUP_MIN = float(
    os.environ.get("REPRO_SIM_BATCH_SPEEDUP_MIN", "3"))

#: Memory windows per kernel in the batched-throughput scenario.
BATCH_WINDOWS = int(os.environ.get("REPRO_SIM_BATCH_WINDOWS", "32"))

#: Simulation windows per engine (the compiled side pays compilation
#: once, inside its timed region — the batched multi-window scenario).
ROUNDS = 3


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _mappings():
    plaid = make_plaid()
    mapper = get_mapper("plaid")
    return {name: mapper.make(seed=2).map(get_dfg(name), plaid)
            for name in KERNELS}


def test_simulation_time(benchmark):
    mappings = _mappings()

    def run():
        timings = {}
        for name, mapping in mappings.items():
            memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
            compiled_sim = CGRASimulator(mapping)
            start = time.perf_counter()
            for _ in range(ROUNDS):
                compiled_sim.run(memory, verify=False)
            compiled_s = time.perf_counter() - start
            numpy_sim = CGRASimulator(mapping)
            start = time.perf_counter()
            for _ in range(ROUNDS):
                numpy_sim.run(memory, verify=False, engine="numpy")
            numpy_s = time.perf_counter() - start
            reference_sim = CGRASimulator(mapping)
            start = time.perf_counter()
            for _ in range(ROUNDS):
                reference_sim.run_reference(memory, verify=False)
            reference_s = time.perf_counter() - start
            # Conformance ride-along: identical reports, identical verify.
            got = compiled_sim.run(memory)
            want = reference_sim.run_reference(memory)
            vectored = numpy_sim.run(memory, engine="numpy")
            assert got == want == vectored, f"{name}: engines diverge"
            assert got.verified is True, f"{name}: {got.mismatches[:3]}"
            timings[name] = (compiled_s, numpy_s, reference_s, got.cycles)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    speedups = []
    numpy_speedups = []
    for name in KERNELS:
        compiled_s, numpy_s, reference_s, cycles = timings[name]
        speedup = reference_s / compiled_s if compiled_s else float("inf")
        numpy_x = compiled_s / numpy_s if numpy_s else float("inf")
        speedups.append(speedup)
        numpy_speedups.append(numpy_x)
        print(f"  {name}: {cycles} cycles x{ROUNDS}, "
              f"compiled {compiled_s:.3f}s, numpy {numpy_s:.3f}s, "
              f"interpreted {reference_s:.3f}s "
              f"({speedup:.2f}x compiled, {numpy_x:.2f}x numpy/compiled)")
    geomean = _geomean(speedups)
    print(f"  geomean speedup: {geomean:.2f}x (floor {SPEEDUP_MIN:.2f}x); "
          f"numpy over compiled: {_geomean(numpy_speedups):.2f}x")

    over = {name: max(t[0], t[1]) for name, t in timings.items()
            if max(t[0], t[1]) >= BUDGET_S}
    assert not over, f"kernels over the {BUDGET_S:.0f}s budget: {over}"
    assert geomean >= SPEEDUP_MIN, (
        f"compiled engine geomean speedup {geomean:.2f}x below the "
        f"{SPEEDUP_MIN:.2f}x floor: {dict(zip(KERNELS, speedups))}"
    )


def test_batched_simulation_throughput(benchmark):
    """Batched numpy execution (B windows stacked on one array axis)
    vs. the compiled engine running the same windows sequentially —
    the many-input verification scenario the vector backend targets."""
    mappings = _mappings()

    def run():
        timings = {}
        for name, mapping in mappings.items():
            interpreter = DFGInterpreter(mapping.dfg)
            memories = [interpreter.prepare_memory(fill=f % 7 + 1)
                        for f in range(BATCH_WINDOWS)]
            simulator = CGRASimulator(mapping)
            start = time.perf_counter()
            batched = simulator.run_batch(memories, verify=False,
                                          engine="numpy")
            numpy_s = time.perf_counter() - start
            start = time.perf_counter()
            sequential = simulator.run_batch(memories, verify=False,
                                             engine="compiled")
            compiled_s = time.perf_counter() - start
            assert batched == sequential, f"{name}: engines diverge"
            timings[name] = (numpy_s, compiled_s)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    speedups = []
    for name in KERNELS:
        numpy_s, compiled_s = timings[name]
        speedup = compiled_s / numpy_s if numpy_s else float("inf")
        speedups.append(speedup)
        rate = BATCH_WINDOWS / numpy_s if numpy_s else float("inf")
        print(f"  {name}: {BATCH_WINDOWS} windows, batched numpy "
              f"{numpy_s:.3f}s ({rate:.0f} windows/s), sequential "
              f"compiled {compiled_s:.3f}s ({speedup:.2f}x)")
    geomean = _geomean(speedups)
    print(f"  geomean batched speedup: {geomean:.2f}x "
          f"(floor {BATCH_SPEEDUP_MIN:.2f}x)")

    over = {name: max(t) for name, t in timings.items()
            if max(t) >= BUDGET_S}
    assert not over, f"kernels over the {BUDGET_S:.0f}s budget: {over}"
    assert geomean >= BATCH_SPEEDUP_MIN, (
        f"batched numpy geomean speedup {geomean:.2f}x below the "
        f"{BATCH_SPEEDUP_MIN:.2f}x floor: {dict(zip(KERNELS, speedups))}"
    )
