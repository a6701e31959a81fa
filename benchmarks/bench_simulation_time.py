"""Cycle-accurate simulation time: the compiled engine vs. the
interpreted loop.

The paper's end-to-end claim rests on its cycle-accurate simulator; this
benchmark times the compiled schedule engine (:mod:`repro.sim.engine`)
against the interpreted reference loop
(:meth:`~repro.sim.machine.CGRASimulator.run_reference`) over the full
iteration space of a representative kernel set on the Plaid fabric.
The two engines are bit-identical by invariant (the run asserts report
equality), so the printed per-kernel times and the geomean speedup are
the artifact; CI gates the hot path with a per-kernel
``$REPRO_SIM_BUDGET_S`` budget on the compiled time and a
``$REPRO_SIM_SPEEDUP_MIN`` geomean floor for the compiled engine
(default 1.5x over interpreted).
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

#: Hard per-kernel budget on the compiled time, in seconds; CI
#: tightens it.
BUDGET_S = float(os.environ.get("REPRO_SIM_BUDGET_S", "60"))

#: Geomean speedup floor of compiled over interpreted execution.
SPEEDUP_MIN = float(os.environ.get("REPRO_SIM_SPEEDUP_MIN", "1.5"))

#: Simulation windows per engine (the compiled side pays compilation
#: once, inside its timed region, and reuses it for later windows).
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
            reference_sim = CGRASimulator(mapping)
            start = time.perf_counter()
            for _ in range(ROUNDS):
                reference_sim.run_reference(memory, verify=False)
            reference_s = time.perf_counter() - start
            # Conformance ride-along: identical reports, identical verify.
            got = compiled_sim.run(memory)
            want = reference_sim.run_reference(memory)
            assert got == want, f"{name}: engines diverge"
            assert got.verified is True, f"{name}: {got.mismatches[:3]}"
            timings[name] = (compiled_s, reference_s, got.cycles)
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    speedups = []
    for name in KERNELS:
        compiled_s, reference_s, cycles = timings[name]
        speedup = reference_s / compiled_s if compiled_s else float("inf")
        speedups.append(speedup)
        print(f"  {name}: {cycles} cycles x{ROUNDS}, "
              f"compiled {compiled_s:.3f}s, "
              f"interpreted {reference_s:.3f}s ({speedup:.2f}x)")
    geomean = _geomean(speedups)
    print(f"  geomean speedup: {geomean:.2f}x (floor {SPEEDUP_MIN:.2f}x)")

    over = {name: compiled_s
            for name, (compiled_s, _reference_s, _cycles) in timings.items()
            if compiled_s >= BUDGET_S}
    assert not over, f"kernels over the {BUDGET_S:.0f}s budget: {over}"
    assert geomean >= SPEEDUP_MIN, (
        f"compiled engine geomean speedup {geomean:.2f}x below the "
        f"{SPEEDUP_MIN:.2f}x floor: {dict(zip(KERNELS, speedups))}"
    )

