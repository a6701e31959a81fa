"""One function per table/figure of the paper's evaluation.

Every function returns a structured result object with the raw series plus
a ``render()`` that prints the same rows the paper reports.  The figure
numbers follow the paper: Fig. 12 performance, Fig. 13 area breakdown,
Fig. 14 energy, Fig. 15 perf/area, Fig. 16 DNN applications, Fig. 17
scalability, Fig. 18 mapper study, Fig. 19 domain specialization; Table 2
workload characteristics; Fig. 2 power distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.harness import build_arch, evaluate_kernel
from repro.eval.parallel import build_grid, prewarm
from repro.ir.analysis import recurrence_mii
from repro.mapping.mii import resource_mii
from repro.mapping.plaid_mapper import PlaidMapper
from repro.motifs.generation import generate_motifs
from repro.power.model import ActivityFactors, fabric_area, fabric_power
from repro.utils.tables import format_table
from repro.workloads.dnn import DNN_APPS
from repro.workloads.registry import all_workloads, get_dfg, workloads_by_domain


def _geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _warm(arch_keys: tuple[str, ...], workloads: list[str] | None = None,
          mapper: str | None = None) -> None:
    """Pre-warm a grid through the sweep engine before the serial reads.

    With ``$REPRO_JOBS`` > 1 the cells fan out over worker processes
    (and through the persistent store when one is active); the figure
    code below then reads everything from the in-process memo.  Per-cell
    mapping failures are captured by the sweep and simply surface again
    when the figure actually asks for that cell.
    """
    prewarm(build_grid(workloads=workloads, arch_keys=list(arch_keys),
                       mapper=mapper))


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------
@dataclass
class Table2Row:
    name: str
    domain: str
    unroll: int
    nodes: int
    compute: int
    covered: int
    paper: tuple[int, int, int] | None


@dataclass
class Table2Result:
    rows: list[Table2Row]

    def render(self) -> str:
        return format_table(
            ["kernel", "domain", "unroll", "nodes", "compute", "covered",
             "paper(n,c,cov)"],
            [[r.name, r.domain, r.unroll, r.nodes, r.compute, r.covered,
              str(r.paper)] for r in self.rows],
            title="Table 2: workload characteristics (ours vs paper)",
        )


def table2() -> Table2Result:
    rows = []
    for spec in all_workloads():
        dfg = get_dfg(spec.name)
        # The decomposition the Plaid mapper's first restart maps.
        generation = generate_motifs(dfg, seed=PlaidMapper.MOTIF_SEEDS[0])
        rows.append(Table2Row(
            name=spec.name, domain=spec.domain, unroll=spec.unroll,
            nodes=dfg.num_nodes, compute=len(dfg.compute_nodes),
            covered=len(generation.covered_nodes), paper=spec.paper_row,
        ))
    return Table2Result(rows)


# ---------------------------------------------------------------------------
# Fig. 2 — power distribution
# ---------------------------------------------------------------------------
@dataclass
class Fig2Result:
    st_breakdown: dict[str, float]
    plaid_breakdown: dict[str, float]
    power_ratio: float          # Plaid / ST (paper: 0.57)

    def render(self) -> str:
        lines = ["Fig. 2: fabric power distribution (fleet average)"]
        lines.append("  spatio-temporal:")
        lines.extend(f"    {k}: {v:.1%}" for k, v in self.st_breakdown.items())
        lines.append("  plaid:")
        lines.extend(f"    {k}: {v:.1%}"
                     for k, v in self.plaid_breakdown.items())
        lines.append(f"  Plaid/ST power ratio: {self.power_ratio:.2f} "
                     "(paper: 0.57)")
        return "\n".join(lines)


def _fleet_activity(arch_key: str) -> ActivityFactors:
    """Average measured activity of every workload on one fabric."""
    fu, wires = [], []
    _warm((arch_key,))
    for spec in all_workloads():
        result = evaluate_kernel(spec.name, arch_key)
        fu.append(result.activity.fu_utilization)
        wires.append(result.activity.wire_utilization)
    return ActivityFactors(fu_utilization=_mean(fu),
                           wire_utilization=_mean(wires))


def fig2() -> Fig2Result:
    st_power = fabric_power(build_arch("st"), _fleet_activity("st"))
    plaid_power = fabric_power(build_arch("plaid"), _fleet_activity("plaid"))
    return Fig2Result(
        st_breakdown=st_power.breakdown(),
        plaid_breakdown=plaid_power.breakdown(),
        power_ratio=plaid_power.total_mw / st_power.total_mw,
    )


# ---------------------------------------------------------------------------
# Figs. 12/14/15 — per-kernel comparison against the ST baseline
# ---------------------------------------------------------------------------
@dataclass
class ComparisonRow:
    workload: str
    st: float
    spatial: float
    plaid: float

    def normalized(self) -> tuple[float, float, float]:
        return (1.0, self.spatial / self.st, self.plaid / self.st)


@dataclass
class ComparisonResult:
    metric: str
    rows: list[ComparisonRow]
    higher_is_better: bool = False

    def averages(self) -> tuple[float, float, float]:
        ratios = [row.normalized() for row in self.rows]
        return (1.0,
                _geomean([r[1] for r in ratios]),
                _geomean([r[2] for r in ratios]))

    def render(self) -> str:
        body = []
        for row in self.rows:
            _one, spatial, plaid = row.normalized()
            body.append([row.workload, 1.0, spatial, plaid])
        _one, spatial_avg, plaid_avg = self.averages()
        body.append(["average", 1.0, spatial_avg, plaid_avg])
        return format_table(
            ["kernel", "spatio-temporal", "spatial", "plaid"],
            body,
            title=f"{self.metric} (normalized to spatio-temporal)",
        )


def _comparison(metric: str, extract, higher_is_better=False
                ) -> ComparisonResult:
    rows = []
    _warm(("st", "spatial", "plaid"))
    for spec in all_workloads():
        st = extract(evaluate_kernel(spec.name, "st"))
        spatial = extract(evaluate_kernel(spec.name, "spatial"))
        plaid = extract(evaluate_kernel(spec.name, "plaid"))
        rows.append(ComparisonRow(spec.name, st, spatial, plaid))
    return ComparisonResult(metric, rows, higher_is_better)


def fig12() -> ComparisonResult:
    """Performance (cycles, lower is better), Fig. 12."""
    return _comparison("Fig. 12: cycles", lambda r: float(r.cycles))


def fig14() -> ComparisonResult:
    """Fabric energy (nJ, lower is better), Fig. 14."""
    return _comparison("Fig. 14: energy", lambda r: r.energy)


def fig15() -> ComparisonResult:
    """Performance per area (higher is better), Fig. 15."""
    return _comparison("Fig. 15: perf/area", lambda r: r.perf_per_area,
                       higher_is_better=True)


# ---------------------------------------------------------------------------
# Fig. 13 — Plaid area breakdown
# ---------------------------------------------------------------------------
@dataclass
class Fig13Result:
    breakdown: dict[str, float]
    fabric_um2: float
    spm_um2: float
    st_ratio: float             # Plaid fabric / ST fabric (paper: 0.54)

    def render(self) -> str:
        lines = [f"Fig. 13: Plaid fabric area {self.fabric_um2:.0f} um^2 "
                 f"(paper: 33,366), SPM {self.spm_um2:.0f} um^2"]
        lines.extend(f"  {k}: {v:.1%}" for k, v in self.breakdown.items())
        lines.append(f"  Plaid/ST fabric area: {self.st_ratio:.2f} "
                     "(paper: 0.54)")
        return "\n".join(lines)


def fig13() -> Fig13Result:
    plaid = fabric_area(build_arch("plaid"))
    st = fabric_area(build_arch("st"))
    return Fig13Result(
        breakdown=plaid.breakdown(),
        fabric_um2=plaid.fabric_um2,
        spm_um2=plaid.spm_um2,
        st_ratio=plaid.fabric_um2 / st.fabric_um2,
    )


# ---------------------------------------------------------------------------
# Fig. 16 — DNN application-level comparison
# ---------------------------------------------------------------------------
@dataclass
class Fig16Row:
    app: str
    energy_ratio: float         # spatial / plaid (paper ~1.42)
    perf_area_ratio: float      # spatial / plaid (paper ~0.36)


@dataclass
class Fig16Result:
    rows: list[Fig16Row]

    def render(self) -> str:
        return format_table(
            ["app", "energy spatial/plaid", "perf/area spatial/plaid"],
            [[r.app, r.energy_ratio, r.perf_area_ratio] for r in self.rows],
            title="Fig. 16: DNN applications (normalized to Plaid)",
        )


def fig16() -> Fig16Result:
    rows = []
    kernels = sorted({layer.kernel for app in DNN_APPS
                      for layer in app.layers})
    _warm(("spatial", "plaid"), workloads=kernels)
    for app in DNN_APPS:
        totals = {"spatial": {"cycles": 0.0, "energy": 0.0},
                  "plaid": {"cycles": 0.0, "energy": 0.0}}
        for layer in app.layers:
            for arch_key in ("spatial", "plaid"):
                result = evaluate_kernel(layer.kernel, arch_key)
                totals[arch_key]["cycles"] += result.cycles * layer.invocations
                totals[arch_key]["energy"] += result.energy * layer.invocations
        plaid_area = fabric_area(build_arch("plaid")).fabric_um2
        spatial_area = fabric_area(build_arch("spatial")).fabric_um2
        plaid_ppa = 1.0 / (totals["plaid"]["cycles"] * plaid_area)
        spatial_ppa = 1.0 / (totals["spatial"]["cycles"] * spatial_area)
        rows.append(Fig16Row(
            app=app.name,
            energy_ratio=totals["spatial"]["energy"]
            / totals["plaid"]["energy"],
            perf_area_ratio=spatial_ppa / plaid_ppa,
        ))
    return Fig16Result(rows)


# ---------------------------------------------------------------------------
# Fig. 17 — scalability (2x2 vs 3x3 Plaid)
# ---------------------------------------------------------------------------
@dataclass
class Fig17Row:
    workload: str
    cycles_2x2: int
    cycles_3x3: int

    @property
    def speedup(self) -> float:
        return self.cycles_2x2 / self.cycles_3x3


@dataclass
class Fig17Result:
    rows: list[Fig17Row]
    excluded: list[str]

    def average_speedup(self) -> float:
        return _geomean([row.speedup for row in self.rows])

    def render(self) -> str:
        body = [[r.workload, r.cycles_2x2, r.cycles_3x3, r.speedup]
                for r in self.rows]
        body.append(["average", "", "", self.average_speedup()])
        note = (f"excluded (recurrence-bound): {', '.join(self.excluded)}"
                if self.excluded else "")
        return format_table(
            ["kernel", "2x2 cycles", "3x3 cycles", "speedup"],
            body,
            title="Fig. 17: 3x3 vs 2x2 Plaid (paper average: 1.71x)\n" + note,
        )


def fig17() -> Fig17Result:
    rows = []
    excluded = []
    scaled = []
    for spec in all_workloads():
        dfg = get_dfg(spec.name)
        # The paper excludes DFGs the larger array cannot enhance due to
        # inter-iteration dependencies: RecMII already dominates ResMII.
        if recurrence_mii(dfg) >= resource_mii(dfg, build_arch("plaid")):
            excluded.append(spec.name)
        else:
            scaled.append(spec.name)
    _warm(("plaid", "plaid3x3"), workloads=scaled)
    for name in scaled:
        small = evaluate_kernel(name, "plaid")
        large = evaluate_kernel(name, "plaid3x3")
        rows.append(Fig17Row(name, small.cycles, large.cycles))
    return Fig17Result(rows, excluded)


# ---------------------------------------------------------------------------
# Fig. 18 — mapper study on Plaid
# ---------------------------------------------------------------------------
@dataclass
class Fig18Row:
    workload: str
    pathfinder: float           # cycles normalized to the Plaid mapper
    sa: float
    plaid: float = 1.0


@dataclass
class Fig18Result:
    rows: list[Fig18Row]
    failures: dict[str, list[str]] = field(default_factory=dict)

    def averages(self) -> tuple[float, float]:
        return (_geomean([r.pathfinder for r in self.rows]),
                _geomean([r.sa for r in self.rows]))

    def render(self) -> str:
        body = [[r.workload, r.pathfinder, r.sa, r.plaid] for r in self.rows]
        pf_avg, sa_avg = self.averages()
        body.append(["average", pf_avg, sa_avg, 1.0])
        return format_table(
            ["kernel", "PathFinder", "SA", "Plaid mapper"],
            body,
            title=("Fig. 18: generic mappers vs the Plaid mapper on Plaid "
                   "(cycles, normalized to the Plaid mapper; paper: "
                   "1.25x / 1.28x)"),
        )


def fig18() -> Fig18Result:
    from repro.errors import MappingError
    rows = []
    failures: dict[str, list[str]] = {}
    for mapper_key in ("plaid", "pathfinder", "sa"):
        _warm(("plaid",), mapper=mapper_key)
    for spec in all_workloads():
        plaid = evaluate_kernel(spec.name, "plaid", "plaid")
        ratios = {}
        for mapper_key in ("pathfinder", "sa"):
            try:
                result = evaluate_kernel(spec.name, "plaid", mapper_key)
                ratios[mapper_key] = result.cycles / plaid.cycles
            except MappingError:
                # A generic mapper failing on the trimmed fabric is itself
                # a finding; score it at the config-memory II ceiling.
                failures.setdefault(spec.name, []).append(mapper_key)
                ceiling = build_arch("plaid").config_entries
                ratios[mapper_key] = ceiling / plaid.ii
        rows.append(Fig18Row(spec.name, ratios["pathfinder"], ratios["sa"]))
    return Fig18Result(rows, failures)


# ---------------------------------------------------------------------------
# Fig. 19 — domain specialization (ML kernels)
# ---------------------------------------------------------------------------
@dataclass
class Fig19Result:
    energy: dict[str, float]        # normalized to Plaid
    perf_per_area: dict[str, float]

    def render(self) -> str:
        archs = ["st", "st-ml", "plaid", "plaid-ml"]
        return format_table(
            ["metric"] + archs,
            [["energy", *[self.energy[a] for a in archs]],
             ["perf/area", *[self.perf_per_area[a] for a in archs]]],
            title=("Fig. 19: domain specialization on ML kernels "
                   "(normalized to Plaid)"),
        )


def fig19() -> Fig19Result:
    arch_keys = ("st", "st-ml", "plaid", "plaid-ml")
    energy = {key: 0.0 for key in arch_keys}
    cycles = {key: 0.0 for key in arch_keys}
    _warm(arch_keys,
          workloads=[spec.name for spec in workloads_by_domain("ml")])
    for spec in workloads_by_domain("ml"):
        for key in arch_keys:
            result = evaluate_kernel(spec.name, key)
            energy[key] += result.energy
            cycles[key] += result.cycles
    ppa = {
        key: 1.0 / (cycles[key] * fabric_area(build_arch(key)).fabric_um2)
        for key in arch_keys
    }
    return Fig19Result(
        energy={k: energy[k] / energy["plaid"] for k in arch_keys},
        perf_per_area={k: ppa[k] / ppa["plaid"] for k in arch_keys},
    )
