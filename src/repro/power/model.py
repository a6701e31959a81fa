"""Fabric power and area models.

``fabric_power(arch, activity)`` returns per-module milliwatts for an
architecture instance; ``fabric_area(arch)`` the square micrometres.  Both
start from the transcribed module library (:mod:`repro.power.tech`), scale
with fabric size (tiles, SPM banks), apply specialization pruning factors,
and — for power — scale each module's dynamic part with measured activity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.base import Architecture
from repro.errors import PowerModelError
from repro.power import tech


@dataclass(frozen=True)
class ActivityFactors:
    """Measured activity levels, in absolute utilization units."""

    fu_utilization: float = tech.NOMINAL_FU_UTILIZATION
    wire_utilization: float = tech.NOMINAL_WIRE_UTILIZATION
    config_activity: float = tech.NOMINAL_CONFIG_ACTIVITY

    def scale(self, measured: float, nominal: float) -> float:
        if nominal <= 0:
            return 1.0
        lo, hi = tech.ACTIVITY_CLAMP
        return min(hi, max(lo, measured / nominal))

    @property
    def compute_factor(self) -> float:
        return self.scale(self.fu_utilization, tech.NOMINAL_FU_UTILIZATION)

    @property
    def wire_factor(self) -> float:
        return self.scale(self.wire_utilization,
                          tech.NOMINAL_WIRE_UTILIZATION)

    @property
    def config_factor(self) -> float:
        return self.scale(self.config_activity,
                          tech.NOMINAL_CONFIG_ACTIVITY)


NOMINAL_ACTIVITY = ActivityFactors()


@dataclass
class PowerReport:
    """Per-module power (mW) of one fabric under one activity profile."""

    arch_name: str
    components: dict[str, float]

    @property
    def total_mw(self) -> float:
        return sum(self.components.values())

    def breakdown(self) -> dict[str, float]:
        total = self.total_mw
        if total <= 0:
            return {name: 0.0 for name in self.components}
        return {name: mw / total for name, mw in self.components.items()}


@dataclass
class AreaReport:
    """Per-module area (um^2) of one fabric."""

    arch_name: str
    components: dict[str, float]
    spm_um2: float

    @property
    def fabric_um2(self) -> float:
        return sum(self.components.values())

    @property
    def total_um2(self) -> float:
        return self.fabric_um2 + self.spm_um2

    def breakdown(self) -> dict[str, float]:
        fabric = self.fabric_um2
        return {name: um2 / fabric for name, um2 in self.components.items()}


# ---------------------------------------------------------------------------
# Family resolution
# ---------------------------------------------------------------------------
def _family(arch: Architecture) -> str:
    if arch.style == "plaid":
        return "plaid-ml" if "hardwired_motifs" in arch.params else "plaid"
    if arch.style == "spatial":
        return "spatial"
    if arch.style == "spatio-temporal":
        return "st-ml" if "compute_scale" in arch.params else "st"
    raise PowerModelError(f"unknown architecture style {arch.style}")


def _tile_scale(arch: Architecture) -> float:
    family = _family(arch)
    if family.startswith("plaid"):
        return arch.num_tiles / tech.PLAID_REF_TILES
    return arch.num_tiles / tech.ST_REF_TILES


def _base_power(arch: Architecture) -> dict[str, float]:
    """Per-module mW at nominal activity for this fabric instance."""
    family = _family(arch)
    scale = _tile_scale(arch)
    if family.startswith("plaid"):
        total = tech.ST_FABRIC_POWER_MW * tech.PLAID_POWER_RATIO
        base = {name: frac * total * scale
                for name, frac in tech.PLAID_POWER_BREAKDOWN.items()}
        if family == "plaid-ml":
            base = {name: mw * tech.PLAID_ML_POWER_SCALES.get(name, 1.0)
                    for name, mw in base.items()}
        return base
    total = tech.ST_FABRIC_POWER_MW
    base = {name: frac * total * scale
            for name, frac in tech.ST_POWER_BREAKDOWN.items()}
    if family == "st-ml":
        base = {name: mw * tech.ST_ML_POWER_SCALES.get(name, 1.0)
                for name, mw in base.items()}
    return base


_COMPUTE_MODULES = {"compute"}
_WIRE_MODULES = {"router", "local_router", "global_router"}
_CONFIG_MODULES = {"comm_config", "compute_config"}


def fabric_power(arch: Architecture,
                 activity: ActivityFactors = NOMINAL_ACTIVITY) -> PowerReport:
    """Fabric power under a measured activity profile."""
    family = _family(arch)
    base = _base_power(arch)
    static = tech.STATIC_FRACTION
    dynamic = 1.0 - static
    components: dict[str, float] = {}
    for name, mw in base.items():
        static_part = static
        if name in _COMPUTE_MODULES:
            factor = activity.compute_factor
        elif name in _WIRE_MODULES:
            factor = activity.wire_factor
        elif name in _CONFIG_MODULES:
            factor = activity.config_factor
            if family == "spatial":
                # Clock-gated config memory with a single live entry:
                # dynamic reads mostly gone, static state much smaller.
                factor *= tech.SPATIAL_CONFIG_GATING
                static_part = static * tech.SPATIAL_CONFIG_STATIC_SCALE
        else:
            factor = 1.0
        components[name] = mw * (static_part + dynamic * factor)
    return PowerReport(arch_name=arch.name, components=components)


def fabric_area(arch: Architecture) -> AreaReport:
    """Fabric + SPM area of an architecture instance."""
    family = _family(arch)
    scale = _tile_scale(arch)
    if family.startswith("plaid"):
        total = tech.PLAID_FABRIC_AREA_UM2
        base = {name: frac * total * scale
                for name, frac in tech.PLAID_AREA_BREAKDOWN.items()}
        if family == "plaid-ml":
            base = {name: um2 * tech.PLAID_ML_AREA_SCALES.get(name, 1.0)
                    for name, um2 in base.items()}
    else:
        total = tech.ST_FABRIC_AREA_UM2
        if family == "spatial":
            total = tech.PLAID_FABRIC_AREA_UM2 * tech.SPATIAL_AREA_RATIO
        base = {name: frac * total * scale
                for name, frac in tech.ST_AREA_BREAKDOWN.items()}
        if family == "st-ml":
            base = {name: um2 * tech.ST_ML_AREA_SCALES.get(name, 1.0)
                    for name, um2 in base.items()}
    spm = tech.SPM_AREA_UM2 * arch.spm_banks / tech.REF_SPM_BANKS
    return AreaReport(arch_name=arch.name, components=base, spm_um2=spm)


# ---------------------------------------------------------------------------
# Activity extraction
# ---------------------------------------------------------------------------
def activity_from_mapping(mapping) -> ActivityFactors:
    """Measured activity of any mapping, modulo-scheduled or phased:
    its ``fu_utilization()`` and ``transport_utilization()``.  Config
    activity is nominal; spatial fabrics' gating is applied inside
    :func:`fabric_power`."""
    return ActivityFactors(
        fu_utilization=mapping.fu_utilization(),
        wire_utilization=mapping.transport_utilization(),
        config_activity=1.0,
    )
