"""Power and area modeling.

We cannot run the paper's Cadence Genus flow, so the per-module library in
:mod:`repro.power.tech` transcribes the paper's reported synthesis
aggregates (Figure 2 power distributions, Figure 13 area breakdown, the
33,366 um^2 fabric) into per-tile module values; :mod:`repro.power.model`
scales them with fabric size, specialization pruning, and measured
activity (FU utilization, wire traffic, config gating) to produce
per-kernel power, energy, and performance-per-area numbers.  Everything
*relative* — the quantities the paper's claims are about — comes from our
own mapping and simulation statistics.
"""

from repro.power.model import (
    ActivityFactors,
    PowerReport,
    AreaReport,
    fabric_area,
    fabric_power,
    activity_from_mapping,
)
from repro.power.report import (
    energy_nj,
    perf_per_area,
    power_table,
    area_table,
)

__all__ = [
    "ActivityFactors",
    "AreaReport",
    "PowerReport",
    "activity_from_mapping",
    "area_table",
    "energy_nj",
    "fabric_area",
    "fabric_power",
    "perf_per_area",
    "power_table",
]
