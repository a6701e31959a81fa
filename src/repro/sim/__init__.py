"""Cycle-accurate simulation and configuration generation.

The simulator replays a mapping's static configuration cycle by cycle —
functional units execute, values travel through register places per the
routed occupancy tables, the scratchpad services loads and stores — and
verifies the final memory image against the reference interpreter.  As in
the paper, performance is deterministic at compile time; "the primary
purpose of the simulation is to verify the mapping and hardware design."

Execution runs through the compiled engine (:mod:`repro.sim.engine`):
mappings are compiled once into per-phase firing/transport tables and
replayed with flat-list inner loops, bit-identical to the interpreted
reference loop kept on :meth:`CGRASimulator.run_reference`, the
conformance oracle that tests and benchmarks call directly.
:func:`simulate_mapping` simulates any mapping, modulo-scheduled or
phased spatial, and returns the shared report.
"""

from repro.sim.spm import Scratchpad
from repro.sim.engine import (
    CompiledSchedule, SimulationReport, compile_mapping, simulation_engine,
)
from repro.sim.machine import CGRASimulator
from repro.sim.spatial_sim import SpatialSimulator
from repro.sim.config import ConfigBundle, encode_mapping
from repro.sim.trace import TraceEvent, TraceRecorder
from repro.mapping.spatial_mapper import SpatialMapping

__all__ = [
    "CGRASimulator",
    "CompiledSchedule",
    "ConfigBundle",
    "Scratchpad",
    "SimulationReport",
    "SpatialSimulator",
    "TraceEvent",
    "TraceRecorder",
    "compile_mapping",
    "encode_mapping",
    "simulate_mapping",
    "simulation_engine",
]


def simulate_mapping(mapping, memory, *, iterations: int | None,
                     trace: TraceRecorder | None = None) -> SimulationReport:
    """Simulate ``mapping`` over ``iterations`` iterations (``None``: the
    whole iteration space) from ``memory`` and verify the result against
    the reference interpreter.

    A phased spatial mapping runs on :class:`SpatialSimulator`; any
    other replays its compiled schedule on :class:`CGRASimulator`.  An
    unverified run calls either simulator directly."""
    if isinstance(mapping, SpatialMapping):
        return SpatialSimulator(mapping, trace=trace).simulate(
            memory, iterations=iterations, verify=True)
    return CGRASimulator(mapping, trace=trace).run(
        memory, iterations=iterations, verify=True)
