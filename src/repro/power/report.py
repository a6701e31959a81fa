"""Energy, performance-per-area, and table rendering helpers."""

from __future__ import annotations

from repro.power import tech
from repro.power.model import AreaReport, PowerReport
from repro.utils.tables import format_table


def energy_nj(power: PowerReport, cycles: int) -> float:
    """Fabric energy (nanojoules) for a run of ``cycles`` cycles."""
    return power.total_mw * cycles * tech.CYCLE_NS * 1e-3


def perf_per_area(cycles: int, area: AreaReport) -> float:
    """Throughput per fabric area (SPM excluded): 1 / (cycles * um^2),
    scaled for readability."""
    if cycles <= 0:
        return 0.0
    return 1.0e9 / (cycles * area.fabric_um2)


def power_table(reports: list[PowerReport]) -> str:
    """Render per-module power of several fabrics side by side."""
    modules = sorted({m for report in reports for m in report.components})
    headers = ["module"] + [report.arch_name for report in reports]
    rows = []
    for module in modules:
        rows.append([module] + [
            report.components.get(module, 0.0) for report in reports
        ])
    rows.append(["TOTAL (mW)"] + [report.total_mw for report in reports])
    return format_table(headers, rows, title="Fabric power (mW)")


def area_table(reports: list[AreaReport]) -> str:
    """Render per-module area of several fabrics side by side."""
    modules = sorted({m for report in reports for m in report.components})
    headers = ["module"] + [report.arch_name for report in reports]
    rows = []
    for module in modules:
        rows.append([module] + [
            report.components.get(module, 0.0) for report in reports
        ])
    rows.append(["fabric (um^2)"] + [r.fabric_um2 for r in reports])
    rows.append(["spm (um^2)"] + [r.spm_um2 for r in reports])
    return format_table(headers, rows, title="Area (um^2)", float_digits=0)
