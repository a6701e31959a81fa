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
"""

from repro.sim.spm import Scratchpad
from repro.sim.engine import (
    CompiledSchedule, SimulationReport, compile_mapping, simulation_engine,
)
from repro.sim.machine import CGRASimulator
from repro.sim.spatial_sim import SpatialSimulator
from repro.sim.config import ConfigBundle, encode_mapping
from repro.sim.trace import TraceEvent, TraceRecorder

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
    "simulation_engine",
]
