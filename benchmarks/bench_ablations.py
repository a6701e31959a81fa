"""Ablation studies on the design choices DESIGN.md calls out.

Not a paper figure — these quantify the contribution of individual Plaid
design elements using the same evaluation pipeline:

* **bypass paths**: map with the motif compute unit's virtual bypass
  wires disabled (every internal edge pays the local router);
* **flexible scheduling**: restrict motifs to the stringent left-to-right
  template (Fig. 11(a)) instead of the full flexible family;
* **motif awareness**: the Fig. 18 comparison, summarized as a single
  number (generic-vs-Plaid-mapper geomean).
"""

import math

from repro.arch import make_plaid
from repro.errors import MappingError
from repro.mapping import PlaidMapper
from repro.motifs import schedule_templates
from repro.workloads import get_dfg

#: A representative cross-section (full sweeps live in the fig benches).
KERNELS = ["gesum_u2", "conv2x2", "doitgen_u2", "cholesky_u2", "jacobi_u2"]


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _map_ii(dfg, arch, mapper):
    try:
        return mapper.map(dfg, arch).ii
    except MappingError:
        return arch.config_entries + 1


def test_ablation_bypass_paths(benchmark):
    """Disabling bypass wires must never help, and the mapping stays
    feasible (the local router absorbs the traffic, as Section 4.1
    describes)."""

    def run():
        results = {}
        for name in KERNELS:
            dfg = get_dfg(name)
            with_bypass = _map_ii(dfg, make_plaid(), PlaidMapper(seed=9))
            stripped = make_plaid()
            stripped.bypass_pairs.clear()
            without = _map_ii(dfg, stripped, PlaidMapper(seed=9))
            results[name] = (with_bypass, without)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for name, (with_b, without_b) in results.items():
        print(f"  {name}: II with bypass {with_b}, without {without_b}")
    assert all(without >= with_b for with_b, without in results.values())


def test_ablation_flexible_scheduling(benchmark):
    """Stringent (single-template) scheduling vs the flexible family —
    the paper's Figure 11 argument.  Flexible scheduling should never
    lose and should win somewhere."""

    def run():
        flexible, stringent = [], []
        for name in KERNELS:
            dfg = get_dfg(name)
            flexible.append(_map_ii(dfg, make_plaid(), PlaidMapper(seed=9)))
            stringent.append(_map_ii(dfg, make_plaid(),
                                     _StringentPlaidMapper(seed=9)))
        return flexible, stringent

    flexible, stringent = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"  flexible IIs:  {flexible}")
    print(f"  stringent IIs: {stringent}")
    assert _geomean(stringent) >= _geomean(flexible)


class _StringentPlaidMapper(PlaidMapper):
    """Plaid mapper restricted to one schedule template per motif kind."""

    def map(self, dfg, arch, hierarchy=None):
        import repro.motifs.schedules as schedules
        original = schedules.schedule_templates
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def stringent(kind):
            return original(kind)[:1]

        schedules.schedule_templates = stringent
        # The mapper module imported the symbol directly; patch both.
        import repro.mapping.plaid_mapper as pm
        pm_original = pm.schedule_templates
        pm.schedule_templates = stringent
        try:
            return super().map(dfg, arch, hierarchy=hierarchy)
        finally:
            schedules.schedule_templates = original
            pm.schedule_templates = pm_original
