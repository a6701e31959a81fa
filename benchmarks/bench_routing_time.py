"""Routing throughput: compiled core vs. interpreted reference router.

Two measurements, both conformance-checked (the compiled core is
bit-identical to :func:`~repro.mapping.router.route_edge_reference` by
invariant, so the printed numbers are the artifact):

* **routes/second per fabric** — a deterministic scenario sweep (every
  sampled (src FU, dst FU, slack) triple) routed by each router;
* **mapper-level routing stage** — the phase the compiled core
  accelerates inside every mapper: place a PathFinder placement into a
  fresh MRRG, route every edge, rip all routes up, and route them
  again (the negotiation round-trip), per kernel on the 4x4 and 6x6
  spatio-temporal fabrics.  Both engines charge the same MRRG
  accounting, so the ratio prices the search alone.  The geomean
  speedup across these cases is the gate: it must stay above
  :data:`SPEEDUP_MIN`.

Each timed section also has a hard wall-clock budget,
:data:`BUDGET_S`.
"""

import math
import statistics
import time

import pytest

from repro.arch import MRRG, make_plaid, make_spatio_temporal
from repro.eval.harness import _seed_for
from repro.mapping import common
from repro.mapping.pathfinder import PathFinderMapper
from repro.mapping.router import (
    route_edge, route_edge_reference, transport_latency_table,
)
from repro.workloads import get_dfg

#: Kernels for the mapper-level routing stage (placements come from the
#: harness-seeded PathFinder, so the workload is the real one).
KERNELS = ["conv3x3", "jacobi_u4", "gemm_u4", "seidel", "gesum_u2",
           "atax_u2"]

#: Hard per-section budget in seconds.
BUDGET_S = 60.0

#: Geomean floor for the mapper-level routing-stage speedup.
SPEEDUP_MIN = 1.5

FABRICS = [
    ("st4x4", lambda: make_spatio_temporal(4, 4)),
    ("st6x6", lambda: make_spatio_temporal(6, 6)),
    ("plaid", lambda: make_plaid(2, 2)),
]

#: The production router (the compiled core) and its interpreted oracle.
ROUTERS = {"compiled": route_edge, "reference": route_edge_reference}


def _throughput(arch, ii, engine, rounds=12):
    """Routes/second over the deterministic scenario sweep."""
    route = ROUTERS[engine]
    mrrg = MRRG(arch, ii)
    n_fus = len(arch.fus)
    cases = [(src, dst, slack)
             for src in range(0, n_fus, 3)
             for dst in range(0, n_fus, 2)
             for slack in (0, 1, 2)]
    count = 0
    start = time.perf_counter()
    for _ in range(rounds):
        for src, dst, slack in cases:
            arrive = transport_latency_table(arch)[src][dst] + slack
            route(mrrg, 1, src, 0, dst, arrive, commit=False)
            count += 1
    return count / (time.perf_counter() - start), time.perf_counter() - start


def _routing_stage(arch, dfg, placement, ii, engine, reps=20):
    """Median seconds for one place+route+ripup+reroute round-trip."""
    samples = []
    routes = None
    with pytest.MonkeyPatch.context() as patch:
        # The mappers' edge router, swapped for this stage only.
        patch.setattr(common, "route_edge", ROUTERS[engine])
        for _ in range(reps):
            begin = time.perf_counter()
            mrrg = MRRG(arch, ii)
            for node_id, (fu_id, cycle) in placement.items():
                mrrg.place_node(node_id, fu_id, cycle)
            routes, failures = common.route_all_edges(dfg, mrrg, placement)
            assert not failures
            for route in routes.values():
                mrrg.uncommit_route(route)
            routes, failures = common.route_all_edges(dfg, mrrg, placement)
            assert not failures
            samples.append(time.perf_counter() - begin)
    return statistics.median(samples), routes


def test_routing_time(benchmark):
    def run():
        results = {"throughput": [], "stage": []}
        # Raw router throughput per fabric.
        for name, factory in FABRICS:
            arch = factory()
            for ii in (4, 8):
                compiled, spent_c = _throughput(arch, ii, "compiled")
                reference, spent_r = _throughput(arch, ii, "reference")
                results["throughput"].append(
                    (name, ii, compiled, reference, spent_c + spent_r))
        # Mapper-level routing stage (PathFinder placements).
        for fab_name, factory in FABRICS[:2]:       # st meshes
            arch = factory()
            for kernel in KERNELS:
                seed = _seed_for(kernel, "st", "pathfinder")
                mapping = PathFinderMapper(seed=seed).map(
                    get_dfg(kernel), arch)
                dfg = get_dfg(kernel)
                ref_s, ref_routes = _routing_stage(
                    arch, dfg, mapping.placement, mapping.ii, "reference")
                comp_s, comp_routes = _routing_stage(
                    arch, dfg, mapping.placement, mapping.ii, "compiled")
                # Conformance ride-along: identical routes, step for step.
                assert comp_routes == ref_routes, (fab_name, kernel)
                results["stage"].append(
                    (fab_name, kernel, ref_s, comp_s))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("  routes/second (compiled vs reference):")
    for name, ii, compiled, reference, spent in results["throughput"]:
        print(f"    {name} II={ii}: {compiled:8.0f}/s vs {reference:8.0f}/s "
              f"({compiled / reference:.2f}x)")
        assert spent < BUDGET_S, f"{name} II={ii} over budget: {spent:.1f}s"
    print("  mapper routing stage (place + route-all + rip-up + reroute):")
    speedups = []
    for fab_name, kernel, ref_s, comp_s in results["stage"]:
        speedup = ref_s / comp_s if comp_s else float("inf")
        speedups.append(speedup)
        print(f"    {fab_name} {kernel}: reference {ref_s * 1e3:.2f}ms, "
              f"compiled {comp_s * 1e3:.2f}ms ({speedup:.2f}x)")
        assert ref_s < BUDGET_S and comp_s < BUDGET_S, (fab_name, kernel)
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    print(f"  geomean routing-stage speedup: {geomean:.2f}x "
          f"(floor {SPEEDUP_MIN:.2f}x)")
    assert geomean >= SPEEDUP_MIN, (
        f"compiled routing geomean speedup {geomean:.2f}x fell below the "
        f"{SPEEDUP_MIN:.2f}x floor"
    )
