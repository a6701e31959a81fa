"""Report aggregation: turn experiment results into shareable artifacts.

The benchmarks print paper-style tables; this module adds machine-readable
summaries (dicts) and the headline-claims scorecard comparing this
reproduction to the paper.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.errors import ReproError
from repro.eval import experiments, harness
from repro.eval.parallel import build_grid, prewarm
from repro.utils.tables import format_table

#: The paper's headline numbers, used by :func:`scorecard`.
PAPER_CLAIMS = {
    "plaid_vs_st_performance": 1.0,       # Fig. 12 average
    "spatial_vs_st_performance": 1.40,    # Fig. 12 average
    "plaid_vs_st_power": 0.57,            # Fig. 2
    "plaid_vs_st_area": 0.54,             # Section 7
    "plaid_vs_st_energy": 0.58,           # Fig. 14 (42% reduction)
    "scaling_3x3_speedup": 1.71,          # Fig. 17
    "plaid_mapper_vs_pathfinder": 1.25,   # Fig. 18
    "plaid_mapper_vs_sa": 1.28,           # Fig. 18
    "st_ml_energy_vs_plaid": 1.22,        # Fig. 19 (18% reduction inverse)
    "plaid_ml_energy_vs_plaid": 0.91,     # Fig. 19
}


@dataclass(frozen=True)
class ClaimResult:
    """One headline claim: the paper's value and ours."""

    claim: str
    paper: float
    measured: float

    @property
    def ratio(self) -> float:
        if self.paper == 0:
            return float("inf")
        return self.measured / self.paper

    @property
    def within_25_percent(self) -> bool:
        return 0.75 <= self.ratio <= 1.33


def measure_claims() -> dict[str, float]:
    """Compute every headline number from the cached experiment results."""
    fig12 = experiments.fig12()
    _one, spatial_perf, plaid_perf = fig12.averages()
    fig2 = experiments.fig2()
    fig13 = experiments.fig13()
    fig14 = experiments.fig14()
    _o, _sp, plaid_energy = fig14.averages()
    fig17 = experiments.fig17()
    fig18 = experiments.fig18()
    pf_avg, sa_avg = fig18.averages()
    fig19 = experiments.fig19()
    return {
        "plaid_vs_st_performance": plaid_perf,
        "spatial_vs_st_performance": spatial_perf,
        "plaid_vs_st_power": fig2.power_ratio,
        "plaid_vs_st_area": fig13.st_ratio,
        "plaid_vs_st_energy": plaid_energy,
        "scaling_3x3_speedup": fig17.average_speedup(),
        "plaid_mapper_vs_pathfinder": pf_avg,
        "plaid_mapper_vs_sa": sa_avg,
        "st_ml_energy_vs_plaid": fig19.energy["st-ml"],
        "plaid_ml_energy_vs_plaid": fig19.energy["plaid-ml"],
    }


def claim_results(claims: dict[str, float]) -> list[ClaimResult]:
    """The scorecard rows of measured ``claims``."""
    return [ClaimResult(claim=name, paper=paper, measured=claims[name])
            for name, paper in PAPER_CLAIMS.items()]


def scorecard() -> list[ClaimResult]:
    """Paper-vs-measured for every headline claim."""
    return claim_results(measure_claims())


def render_scorecard(results: list[ClaimResult] | None = None) -> str:
    """The reproduction scorecard as a text table."""
    results = results if results is not None else scorecard()
    rows = [
        [r.claim, r.paper, r.measured, r.ratio,
         "yes" if r.within_25_percent else "NO"]
        for r in results
    ]
    return format_table(
        ["claim", "paper", "measured", "measured/paper", "within 25%"],
        rows,
        title="Reproduction scorecard",
    )


#: The Plaid columns whose cycles geomeans judge a result-moving change
#: to the Plaid mapper.
PLAID_COLUMNS = ("plaid", "plaid-ml", "plaid3x3")


def plaid_column_geomeans() -> dict[str, float]:
    """Cycles geomean of each Plaid column over the Table-2 workloads.

    A column with an unmapped cell has no comparable geomean, so any
    failure raises instead of averaging over fewer cells.
    """
    report = prewarm(build_grid(arch_keys=list(PLAID_COLUMNS)))
    if report.failures:
        cells = ", ".join("/".join(o.cell.key()) for o in report.failures)
        raise ReproError(f"unmapped Plaid cells: {cells}")
    return {
        column: statistics.geometric_mean([
            o.result.cycles for o in report.outcomes
            if o.cell.arch_key == column
        ])
        for column in PLAID_COLUMNS
    }


def claim_cells() -> list[tuple[str, str, str]]:
    """Every ``(workload, arch_key, mapper)`` cell the claims and the
    Plaid column geomeans read, in grid order: the Table-2 workloads on
    ``st``, ``spatial`` and the three Plaid columns under their default
    mappers, PathFinder and SA on ``plaid`` (Fig. 18), and the ML
    workloads on ``st-ml`` (Fig. 19)."""
    from repro.workloads.registry import workloads_by_domain

    grids = [
        build_grid(arch_keys=["st", "spatial", *PLAID_COLUMNS]),
        build_grid(arch_keys=["plaid"], mapper="pathfinder"),
        build_grid(arch_keys=["plaid"], mapper="sa"),
        build_grid(workloads=[s.name for s in workloads_by_domain("ml")],
                   arch_keys=["st-ml"]),
    ]
    return [cell.key() for grid in grids for cell in grid]


def scorecard_record() -> dict:
    """What ``repro report scorecard --check`` compares with its fixture:
    each claim's value and each Plaid column's cycles geomean under the
    current seed salt, and ``[ii, minimum_ii]`` per cell the claims read
    (``ii`` is ``None`` for a cell that fails to map)."""
    from repro.mapping.mii import minimum_ii
    from repro.workloads.registry import get_dfg

    claims = measure_claims()
    geomeans = plaid_column_geomeans()
    cells = {}
    for workload, arch_key, mapper in claim_cells():
        try:
            ii = harness.evaluate_kernel(workload, arch_key, mapper).ii
        except ReproError:
            ii = None
        mii = minimum_ii(get_dfg(workload), harness.build_arch(arch_key))
        cells["|".join((workload, arch_key, mapper))] = [ii, mii]
    return {"claims": claims, "plaid_cycles_geomean": geomeans,
            "cells": cells}


def check_scorecard(expected: dict, record: dict) -> list[str]:
    """One line per value of ``record`` that differs from ``expected``
    (exact equality: a salt-0 value is a deterministic function of the
    code), then one per claim outside its 25% band of the paper."""
    problems = []
    for section in ("claims", "plaid_cycles_geomean", "cells"):
        want = expected.get(section, {})
        got = record[section]
        for name in [*want, *(name for name in got if name not in want)]:
            if want.get(name) != got.get(name):
                problems.append(f"{section} {name}: fixture "
                                f"{want.get(name)!r}, measured "
                                f"{got.get(name)!r}")
    for name, paper in PAPER_CLAIMS.items():
        result = ClaimResult(name, paper, record["claims"][name])
        if not result.within_25_percent:
            problems.append(f"claim {name}: measured {result.measured!r} "
                            f"is outside 25% of the paper's {paper}")
    return problems


@dataclass(frozen=True)
class SeedSpread:
    """One headline number measured under seed salts ``0..K-1``."""

    name: str
    paper: float | None
    values: tuple[float, ...]       # indexed by salt

    @property
    def median(self) -> float:
        return statistics.median(self.values)


def scorecard_spread(seeds: int) -> list[SeedSpread]:
    """Every headline claim, then each Plaid column's cycles geomean,
    under seed salts ``0..seeds-1`` (salt 0 is the published seed)."""
    per_salt = []
    previous = harness.seed_salt()
    try:
        for salt in range(seeds):
            harness.set_seed_salt(salt)
            values = measure_claims()
            for column, value in plaid_column_geomeans().items():
                values[f"{column} cycles geomean"] = value
            per_salt.append(values)
    finally:
        harness.set_seed_salt(previous)
    return [
        SeedSpread(name, PAPER_CLAIMS.get(name),
                   tuple(values[name] for values in per_salt))
        for name in per_salt[0]
    ]


def render_scorecard_spread(spreads: list[SeedSpread]) -> str:
    """Seed-spread scorecard: salt-0 value, median and min-max."""
    rows = [
        [s.name, "" if s.paper is None else s.paper, s.values[0],
         s.median, min(s.values), max(s.values)]
        for s in spreads
    ]
    return format_table(
        ["claim", "paper", "salt 0", "median", "min", "max"],
        rows,
        title=("Reproduction scorecard over seed salts "
               f"0..{len(spreads[0].values) - 1}"),
    )


# ---------------------------------------------------------------------------
# Sweep export (the `repro sweep` subcommand's output formats)
# ---------------------------------------------------------------------------
SWEEP_HEADERS = ["workload", "arch", "mapper", "status", "ii", "cycles",
                 "makespan", "energy_nj", "power_mw", "area_um2",
                 "perf_per_area", "cached", "error"]


def cell_row(outcome) -> list[object]:
    """One ``SWEEP_HEADERS`` row for a single cell outcome.

    Shared by the batch exporters below and by the streaming result
    service (:mod:`repro.eval.serve`), so a served NDJSON row and a
    ``repro sweep --format json`` cell are the same record by
    construction.
    """
    cell = outcome.cell
    if outcome.ok:
        r = outcome.result
        return [cell.workload, cell.arch_key, cell.mapper, "ok",
                r.ii, r.cycles, r.makespan, r.energy,
                r.power.total_mw, r.area.fabric_um2,
                r.perf_per_area, outcome.from_cache, ""]
    return [cell.workload, cell.arch_key, cell.mapper,
            "error", "", "", "", "", "", "", "", False,
            f"{outcome.error_type}: {outcome.error}"]


def sweep_rows(report) -> list[list[object]]:
    """One row per sweep cell, in grid order (see ``SWEEP_HEADERS``)."""
    return [cell_row(outcome) for outcome in report.outcomes]


def render_sweep(report) -> str:
    """Sweep outcomes as a text table plus the run summary."""
    table = format_table(SWEEP_HEADERS, sweep_rows(report),
                        title="Sweep results")
    return f"{table}\n{report.summary()}"


def sweep_to_json(report, best_variants: "list[list[object]] | None" = None
                  ) -> str:
    """Machine-readable sweep record (cells + summary + cache stats).

    ``best_variants`` (rows from :func:`best_variant_rows`) adds a
    ``best_variants`` key; plain sweeps keep the exact historical shape.
    """
    import json

    cells = [dict(zip(SWEEP_HEADERS, row)) for row in sweep_rows(report)]
    record = {
        "cells": cells,
        "summary": {
            "total": len(report.outcomes),
            "evaluated": report.evaluated,
            "cached": report.cached,
            "failed": len(report.failures),
            "jobs": report.jobs,
            "seconds": report.seconds,
        },
        "store": report.store_stats,
    }
    if best_variants is not None:
        record["best_variants"] = [
            dict(zip(BEST_VARIANT_HEADERS, row)) for row in best_variants
        ]
    return json.dumps(record, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Variant-family aggregation (`repro sweep --variants`)
# ---------------------------------------------------------------------------
BEST_VARIANT_HEADERS = ["family", "arch", "best", "recipe", "ii", "cycles",
                        "baseline", "baseline_cycles", "speedup"]


def best_variant_rows(report) -> list[list[object]]:
    """Best family member per (kernel family, architecture).

    Groups successful sweep cells by the kernel family of their workload
    and picks the member with the fewest cycles (ties break to grid
    order).  The baseline is the best *registered* recipe-free member of
    the family in the same grid; ``speedup`` is baseline cycles over best
    cycles, so values above 1.0 mean a transform variant beat every
    Table-2 spec of its family on that fabric.
    """
    from repro.errors import WorkloadError
    from repro.workloads.registry import get_workload

    groups: dict[tuple[str, str], list] = {}
    for outcome in report.outcomes:
        if not outcome.ok:
            continue
        try:
            spec = get_workload(outcome.cell.workload)
        except WorkloadError:
            continue
        key = (spec.kernel, outcome.cell.arch_key)
        groups.setdefault(key, []).append((spec, outcome))
    rows: list[list[object]] = []
    for (family, arch), members in groups.items():
        best_spec, best = min(members,
                              key=lambda pair: pair[1].result.cycles)
        recipe = best_spec.recipe or f"u{best_spec.unroll}"
        baselines = [pair for pair in members if not pair[0].is_variant]
        if baselines:
            base_spec, base = min(baselines,
                                  key=lambda pair: pair[1].result.cycles)
            speedup = base.result.cycles / best.result.cycles
            rows.append([family, arch, best_spec.name, recipe,
                         best.result.ii, best.result.cycles,
                         base_spec.name, base.result.cycles, speedup])
        else:
            rows.append([family, arch, best_spec.name, recipe,
                         best.result.ii, best.result.cycles, "", "", ""])
    return rows


def render_best_variants(rows: list[list[object]]) -> str:
    """Best-variant rows as a text table."""
    return format_table(BEST_VARIANT_HEADERS, rows,
                        title="Best variant per (family, arch)")


def sweep_to_csv(report) -> str:
    """Sweep outcomes as CSV with a header row."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_HEADERS)
    writer.writerows(sweep_rows(report))
    return buffer.getvalue()
