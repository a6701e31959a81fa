"""Variant families: expansion, verification, and lowering invariants.

Two invariants of the kernel-variant layer, timed end to end:

* every curated family variant (:data:`repro.workloads.FAMILY_RECIPES`)
  compiles and passes the registry's interpreter verification gate —
  :func:`repro.workloads.get_dfg` runs base and variant on a
  deterministic memory image and rejects any recipe that reorders a
  loop-carried dependence;
* the 30 registered Table-2 specs lower *bit-identically* whether the
  unroll factor runs as the legacy lowering knob or as the pre-lowering
  AST unroll pass — the refactor that moved unrolling out of
  :mod:`repro.frontend.lower` must never change a golden DFG.

Expansion is pure frontend + interpreter work (no mapping), so the
whole sweep fits in seconds even on cold caches; :data:`BUDGET_S`
catches a pathological regression.
"""

from repro.frontend import compile_kernel
from repro.workloads import registry

#: Hard budget for full-family expansion, in seconds.
BUDGET_S = 30.0


def test_family_expansion_and_verification_time(benchmark):
    """Expand and verify every curated variant of every family."""
    registry.clear_dfg_caches()

    def run():
        registry.clear_dfg_caches()
        specs = [spec for kernel in registry.family_kernels()
                 for spec in registry.variants_of(kernel)]
        dfgs = [registry.get_dfg(spec.name) for spec in specs]
        return specs, dfgs

    specs, dfgs = benchmark.pedantic(run, rounds=1, iterations=1)
    registry.clear_dfg_caches()
    variants = [spec for spec in specs if spec.is_variant]
    assert len(specs) == len(set(spec.name for spec in specs))
    assert len(specs) == len(registry.all_workloads()) + len(variants)
    # Every curated recipe is legal: get_dfg verified each one above.
    assert len(variants) == sum(
        len(recipes) for recipes in registry.FAMILY_RECIPES.values())
    assert all(dfg.name == spec.name for spec, dfg in zip(specs, dfgs))
    print()
    print(f"  {len(specs)} family members ({len(variants)} verified "
          f"variants) across {len(registry.family_kernels())} kernels")
    stats = benchmark.stats.stats if hasattr(benchmark, "stats") else None
    if stats is not None:
        assert stats.max < BUDGET_S, (
            f"family expansion took {stats.max:.1f}s "
            f"(budget {BUDGET_S:.0f}s)")


def test_registered_specs_lower_bit_identically(benchmark):
    """The AST unroll pass reproduces the legacy lowering knob exactly."""

    def run():
        pairs = []
        for spec in registry.all_workloads():
            knob = compile_kernel(spec.source, name=spec.name,
                                  array_shapes=spec.shape_dict,
                                  unroll=spec.unroll)
            recipe = compile_kernel(spec.source, name=spec.name,
                                    array_shapes=spec.shape_dict,
                                    unroll=1, recipe=f"u{spec.unroll}")
            pairs.append((spec.name, knob, recipe))
        return pairs

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(pairs) == 30
    mismatched = [name for name, knob, recipe in pairs
                  if not knob.structurally_equal(recipe)]
    assert not mismatched, (
        f"specs whose AST-unroll lowering diverged: {mismatched}")
    print()
    print(f"  {len(pairs)} registered specs lower bit-identically "
          "via knob and recipe paths")
