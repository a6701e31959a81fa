"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile``  — compile a kernel file to a DFG and print its summary
  (``--dot`` emits Graphviz with motifs colored);
* ``map``      — map a registered workload (or kernel file) onto a fabric
  and print II / cycles / utilization;
* ``simulate`` — map, then run the cycle-accurate simulator and verify
  against the reference interpreter;
* ``report``   — print one experiment (``table2``, ``fig2`` .. ``fig19``)
  or the reproduction ``scorecard``;
* ``sweep``    — evaluate a workload x architecture grid in parallel
  (``--jobs N``) through the persistent result store (``--cache-dir``,
  ``--no-cache``), emitting a table, JSON, or CSV; ``--shard i/N``
  evaluates one deterministic fingerprint-partitioned shard of the grid
  and ``--manifest FILE`` makes the run resumable across crashes and
  hosts (see :mod:`repro.eval.distributed`);
* ``cache``    — manage result-store directories: ``merge`` unions
  shard stores (byte-preserving, deterministic conflict policy),
  ``stats`` inventories one, ``gc`` prunes corrupt/stale/expired
  entries;
* ``serve``    — run the long-running sweep/result service: an HTTP
  server in front of one result store; clients POST grid specs to
  ``/sweep`` and stream per-cell results as NDJSON, concurrent
  identical requests are deduplicated against one evaluation, and
  admission control keeps heavy traffic on the cache (see
  :mod:`repro.eval.serve`);
* ``mappers``  — list every registered mapper (the registry in
  :mod:`repro.mapping.engine` is the single source of truth; ``--mapper``
  choices everywhere derive from it);
* ``workloads`` — list the 30 evaluated DFGs and their variant families
  (``--variants`` expands every family member).

``map``/``simulate``/``sweep`` accept variant names (``gemm_t4x4_u2``)
anywhere a workload name is expected, and ``sweep --variants`` expands
whole families and reports the best variant per (family, architecture).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _load_dfg(args):
    from repro.frontend import compile_kernel
    from repro.workloads import get_dfg, all_workloads

    if args.workload:
        return get_dfg(args.workload)
    if args.file:
        with open(args.file) as handle:
            source = handle.read()
        shapes = {}
        for spec in (args.shape or []):
            name, sep, dims = spec.partition("=")
            try:
                parsed = tuple(int(d) for d in dims.split("x")) if dims \
                    else ()
            except ValueError:
                parsed = ()
            if not sep or not name or not parsed \
                    or any(d <= 0 for d in parsed):
                raise ReproError(
                    f"malformed --shape '{spec}': expected ARR=RxC with "
                    "positive integer dims, e.g. --shape A=16x16")
            shapes[name] = parsed
        return compile_kernel(source, name=args.file, array_shapes=shapes,
                              unroll=args.unroll)
    raise ReproError("give --workload NAME or --file KERNEL.c")


def _build_arch(key: str):
    from repro.eval.harness import build_arch
    return build_arch(key)


def _map(args, dfg, arch):
    """Map with ``--mapper`` (or the fabric's default) through the
    registry; ``--seed`` seeds every mapper, each composite candidate
    included.  A mapper that does not fit the fabric raises its own
    error."""
    # Mapper keys are validated by the registry, not argparse choices:
    # resolving them here keeps build_parser free of the (heavyweight)
    # mapping import for commands that never map anything.
    from repro.mapping.engine import map_kernel

    name = args.mapper or (arch.style if arch.style in ("spatial", "plaid")
                           else "pathfinder")
    return map_kernel(name, dfg, arch, lambda _key: args.seed)


def cmd_compile(args) -> int:
    from repro.motifs import generate_motifs
    from repro.ir.dot import dfg_to_dot

    dfg = _load_dfg(args)
    generation = generate_motifs(dfg, seed=args.seed)
    if args.dot:
        colors = ["lightblue", "lightgreen", "lightsalmon", "plum", "khaki"]
        highlight = {
            node_id: colors[index % len(colors)]
            for index, motif in enumerate(generation.motifs)
            for node_id in motif.nodes
        }
        print(dfg_to_dot(dfg, highlight=highlight))
        return 0
    print(dfg.summary())
    print(f"motifs: {generation.kind_histogram()}")
    print(f"standalone compute nodes: {len(generation.standalone)}")
    print(f"3-node coverage: {generation.coverage:.0%}")
    return 0


def cmd_map(args) -> int:
    dfg = _load_dfg(args)
    mapping = _map(args, dfg, _build_arch(args.arch))
    print(mapping.summary())
    stats = mapping.stats
    if stats is None:               # phased spatial mappings run no search
        return 0
    print(f"mapper: {stats.mapper}, "
          f"bypass edges: {stats.bypass_edges}, "
          f"mapping time: {stats.seconds:.2f}s")
    if args.verbose:
        print(f"search: {stats.attempts} placement attempts, "
              f"{stats.routed_edges} edges routed "
              f"({stats.transport_steps} transport steps), "
              f"{stats.routing_failures} routing failures")
        for cand in stats.candidates:
            metrics = (f"II={cand.ii}, cycles={cand.total_cycles}"
                       if cand.ii is not None else "no mapping")
            print(f"candidate {cand.key}: {cand.outcome} ({metrics}, "
                  f"{cand.attempts} attempts, {cand.seconds:.2f}s)")
    return 0


def cmd_simulate(args) -> int:
    from repro.ir.interpreter import DFGInterpreter
    from repro.sim import TraceRecorder, simulate_mapping

    dfg = _load_dfg(args)
    arch = _build_arch(args.arch)
    memory = DFGInterpreter(dfg).prepare_memory(fill=args.fill)
    trace = TraceRecorder(limit=args.trace) if args.trace else None
    report = simulate_mapping(_map(args, dfg, arch), memory,
                              iterations=args.iterations, trace=trace)
    print(f"{dfg.name} on {arch.name}: {report.summary()}")
    if trace is not None and trace.events:
        print(trace.render())
    return 0 if report.verified else 1


def cmd_report(args) -> int:
    from repro.eval import experiments
    from repro.eval.landscape import landscape_table
    from repro.eval.reporting import (
        render_scorecard, render_scorecard_spread, scorecard_spread,
    )

    if args.seeds is not None and (args.experiment != "scorecard"
                                   or args.seeds < 1):
        raise ReproError("--seeds takes a positive count and applies to "
                         "the scorecard only")
    if args.experiment == "table1":
        print(landscape_table())
        return 0
    if args.experiment == "scorecard":
        if args.seeds is None:
            print(render_scorecard())
        else:
            print(render_scorecard_spread(scorecard_spread(args.seeds)))
        return 0
    try:
        func = getattr(experiments, args.experiment)
    except AttributeError:
        raise ReproError(
            f"unknown experiment '{args.experiment}' (table2, fig2, fig12, "
            "fig13, fig14, fig15, fig16, fig17, fig18, fig19, table1, "
            "scorecard)"
        ) from None
    print(func().render())
    return 0


def cmd_sweep(args) -> int:
    from pathlib import Path

    from repro.eval import distributed, harness, parallel
    from repro.eval.reporting import (
        best_variant_rows, render_best_variants, render_sweep,
        sweep_to_csv, sweep_to_json,
    )
    from repro.utils.atomicio import atomic_write_text

    shard = distributed.parse_shard(args.shard) if args.shard else None

    workloads = None
    if args.workloads:
        workloads = [name.strip()
                     for name in args.workloads.split(",") if name.strip()]
    if args.variants:
        # Expand every named workload (or the full Table-2 list) into its
        # transform-variant family before the grid is built, so caching,
        # sharding, and manifests all see plain workload names.
        from repro.workloads.registry import expand_families
        workloads = expand_families(workloads)

    manifest = None
    manifest_path = Path(args.manifest) if args.manifest else None
    if manifest_path is not None and manifest_path.exists():
        # An existing manifest is authoritative for the grid; grid flags
        # are only accepted when they describe the very same grid.
        manifest = distributed.SweepManifest.load(manifest_path)
        manifest.verify()
        if args.workloads or args.arch or args.mapper or args.variants:
            built = parallel.build_grid(workloads=workloads,
                                        arch_keys=args.arch,
                                        mapper=args.mapper)
            if built != manifest.grid:
                raise ReproError(
                    f"manifest {manifest_path} records a different grid "
                    "than the --workloads/--arch/--mapper flags; drop "
                    "the grid flags to resume it, or start a fresh "
                    "manifest file")
        cells = manifest.grid
    else:
        cells = parallel.build_grid(workloads=workloads,
                                    arch_keys=args.arch,
                                    mapper=args.mapper)
        if manifest_path is not None:
            manifest = distributed.SweepManifest.from_cells(
                cells, shards=shard.count if shard else 1)
            manifest.save(manifest_path)

    # Configured once the grid is known good: build_grid rejects a
    # typo'd arch or mapper key (with the registered-keys list) before
    # any store directory is created.
    store = harness.configure_store(
        None if args.no_cache else _store_dir(args.cache_dir))

    if manifest is not None:
        # Resume semantics: only cells neither marked done nor already
        # present in the (possibly merged) store are dispatched.
        run_cells = manifest.pending(store, shard=shard)
    elif shard is not None:
        run_cells = distributed.shard_cells(cells, shard)
    else:
        run_cells = cells

    jobs = args.jobs if args.jobs is not None else parallel.default_jobs()
    report = parallel.run_sweep(run_cells, jobs=jobs,
                                use_cache=not args.no_cache)
    if manifest is not None:
        manifest.mark(report)
        manifest.save(manifest_path)

    best = best_variant_rows(report) if args.variants else None
    if args.format == "json":
        text = sweep_to_json(report, best_variants=best)
    elif args.format == "csv":
        text = sweep_to_csv(report)
    else:
        text = render_sweep(report)
        if best is not None:
            text += "\n" + render_best_variants(best)
    if args.output:
        # Atomic: a crash (or a concurrent reader / rsync) must never
        # observe a truncated results file.
        atomic_write_text(args.output, text + "\n")
        print(report.summary())
    else:
        print(text)
        if args.format != "table":
            print(report.summary(), file=sys.stderr)
    if manifest is not None:
        print(manifest.summary(),
              file=sys.stderr if args.format != "table" and not args.output
              else sys.stdout)
    return 0 if not report.failures else 1


def _store_dir(explicit: str | None) -> str:
    """The result-store directory: ``explicit`` (a ``--cache-dir`` or
    ``DIR`` argument), else ``$REPRO_CACHE_DIR``, else ``.repro-cache``."""
    import os

    from repro.eval.cache import CACHE_DIR_ENV

    return explicit or os.environ.get(CACHE_DIR_ENV, "").strip() \
        or ".repro-cache"


def _cache_dir_argument(args) -> "str":
    """Resolve the store directory for ``repro cache stats/gc``."""
    from pathlib import Path

    from repro.eval.cache import CACHE_DIR_ENV

    root = _store_dir(args.dir)
    path = Path(root)
    if not path.is_dir():
        kind = "is a regular file, not" if path.exists() else "does not name"
        raise ReproError(
            f"store path '{root}' {kind} a store directory (pass an "
            "existing result-store directory, e.g. .repro-cache, or set "
            f"${CACHE_DIR_ENV})")
    return root


def cmd_cache_merge(args) -> int:
    from repro.eval.distributed import merge_stores

    report = merge_stores(args.sources, args.into)
    print(report.summary())
    for fp in report.conflicts[:10]:
        print(f"conflict: {fp}")
    if len(report.conflicts) > 10:
        print(f"... and {len(report.conflicts) - 10} more conflicts")
    # Exit 1 flags merges that need attention (conflicts mean two hosts
    # disagreed on a deterministic evaluation — usually version skew).
    return 0 if report.clean else 1


def cmd_cache_stats(args) -> int:
    import dataclasses
    import json

    from repro.eval.distributed import inventory

    inv = inventory(_cache_dir_argument(args))
    if args.json:
        data = dataclasses.asdict(inv)
        # JSON objects can't key on None/int: stringify schema keys.
        data["by_schema"] = {str(k): v for k, v in inv.by_schema.items()}
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(inv.render())
    return 0


def cmd_cache_gc(args) -> int:
    from repro.eval.distributed import gc_store, parse_duration

    older_than = parse_duration(args.older_than) if args.older_than else None
    report = gc_store(_cache_dir_argument(args), schema=args.schema,
                      older_than=older_than)
    print(report.summary())
    return 0


def cmd_serve(args) -> int:
    from repro.eval import parallel
    from repro.eval.serve import SweepServer

    store = None if args.no_cache else _store_dir(args.cache_dir)
    jobs = args.jobs if args.jobs is not None else parallel.default_jobs()
    server = SweepServer(store=store, host=args.host, port=args.port,
                         jobs=jobs, queue_limit=args.queue_limit)

    def announce(srv) -> None:
        # Printed only once the socket is bound, so --port 0 reports
        # the real ephemeral port.
        where = srv.store.root if srv.store is not None else "disabled"
        print(f"repro serve: http://{srv.host}:{srv.port} "
              f"(store: {where}, jobs: {srv.jobs}, "
              f"queue limit: {srv.queue_limit})", flush=True)
        print("endpoints: POST /sweep (grid spec -> NDJSON stream), "
              "GET /stats, GET /healthz", flush=True)

    server.run(announce=announce)
    return 0


def cmd_workloads(args) -> int:
    from repro.utils.tables import format_table
    from repro.workloads import all_workloads, family_kernels, variants_of

    if args.variants:
        rows = []
        for kernel in family_kernels():
            for spec in variants_of(kernel):
                rows.append([spec.name, spec.kernel, spec.domain,
                             spec.unroll, spec.recipe or "-"])
        print(format_table(["name", "kernel", "domain", "unroll", "recipe"],
                           rows, title="Workload families"))
        return 0
    rows = [[s.name, s.kernel, s.domain, s.unroll,
             len(variants_of(s.kernel))] for s in all_workloads()]
    print(format_table(["name", "kernel", "domain", "unroll", "family"],
                       rows))
    return 0


def cmd_mappers(_args) -> int:
    from repro.mapping.engine import available_mappers
    from repro.utils.tables import format_table

    rows = []
    for info in available_mappers():
        detail = info.description
        if info.kind == "composite":
            detail += f" [candidates: {', '.join(info.candidates)}]"
        rows.append([info.key, info.kind, detail])
    print(format_table(["mapper", "kind", "description"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.eval.harness import ARCH_KEYS

    parser = argparse.ArgumentParser(
        prog="repro", description="Plaid CGRA reproduction toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dfg_args(p):
        p.add_argument("--workload",
                       help="workload name (registered or a variant like "
                            "gemm_t4x4_u2; see 'repro workloads')")
        p.add_argument("--file", help="annotated-C kernel file")
        p.add_argument("--shape", action="append", metavar="ARR=RxC",
                       help="array shape, e.g. A=16x16 (repeatable)")
        p.add_argument("--unroll", type=int, default=None)
        p.add_argument("--seed", type=int, default=7)

    p_compile = sub.add_parser("compile", help="kernel -> DFG + motifs")
    add_dfg_args(p_compile)
    p_compile.add_argument("--dot", action="store_true",
                           help="emit Graphviz with motifs colored")
    p_compile.set_defaults(func=cmd_compile)

    p_map = sub.add_parser("map", help="map a DFG onto a fabric")
    add_dfg_args(p_map)
    p_map.add_argument("--arch", default="plaid",
                       choices=ARCH_KEYS)
    p_map.add_argument("--mapper", metavar="KEY",
                       help="mapper key (see 'repro mappers'; default: "
                            "spatial, plaid or pathfinder by fabric)")
    p_map.add_argument("--verbose", action="store_true",
                       help="also print search statistics (placement "
                            "attempts, routed edges, routing failures, "
                            "composite candidates)")
    p_map.set_defaults(func=cmd_map)

    p_sim = sub.add_parser("simulate", help="map + cycle-accurate verify")
    add_dfg_args(p_sim)
    p_sim.add_argument("--arch", default="plaid",
                       choices=ARCH_KEYS)
    p_sim.add_argument("--mapper", metavar="KEY",
                       help="mapper key (see 'repro mappers'; default: "
                            "spatial, plaid or pathfinder by fabric)")
    p_sim.add_argument("--iterations", type=int, default=8)
    p_sim.add_argument("--fill", type=int, default=3)
    p_sim.add_argument("--trace", type=int, metavar="N", default=0,
                       help="print the first N execution trace events")
    p_sim.set_defaults(func=cmd_simulate)

    p_report = sub.add_parser("report", help="print one experiment")
    p_report.add_argument("experiment",
                          help="table1|table2|fig2|fig12..fig19|scorecard")
    p_report.add_argument("--seeds", type=int, metavar="K",
                          help="scorecard only: each claim's salt-0 value "
                               "with its median and min-max over seed "
                               "salts 0..K-1, plus each Plaid column's "
                               "cycles geomean")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser(
        "sweep",
        help="evaluate a workload x architecture grid (parallel + cached)",
        description=(
            "Evaluate every (workload, architecture, mapper) cell of a "
            "grid.  Cells fan out over --jobs worker processes; results "
            "are cached in a persistent store keyed by a stable "
            "fingerprint of the configuration, so warm reruns evaluate "
            "nothing.  Per-cell mapping failures are reported in the "
            "output without aborting the sweep (exit status 1 flags "
            "them).  Metrics are identical for any --jobs value."
        ))
    p_sweep.add_argument("--workloads",
                         help="comma-separated workload names (default: "
                              "all 30 Table-2 workloads); variant names "
                              "like gemm_t4x4_u2 are accepted")
    p_sweep.add_argument("--variants", action="store_true",
                         help="expand every workload into its transform-"
                              "variant family (interpreter-verified "
                              "tilings, interchanges, deeper unrollings) "
                              "and report the best variant per (family, "
                              "architecture)")
    p_sweep.add_argument("--arch", action="append",
                         choices=ARCH_KEYS,
                         help="architecture key, repeatable (default: "
                              "st spatial plaid)")
    p_sweep.add_argument("--mapper", metavar="KEY",
                         help="force one registered mapper for every cell "
                              "(see 'repro mappers'; default: each "
                              "architecture's paper mapper)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: $REPRO_JOBS or 1)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result store")
    p_sweep.add_argument("--cache-dir", metavar="DIR",
                         help="result store directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
    p_sweep.add_argument("--format", choices=["table", "json", "csv"],
                         default="table")
    p_sweep.add_argument("--output", metavar="FILE",
                         help="write results to FILE instead of stdout "
                              "(atomic: readers never see a partial file)")
    p_sweep.add_argument("--shard", metavar="I/N",
                         help="evaluate only shard I of an N-way "
                              "fingerprint partition of the grid "
                              "(deterministic: every host agrees which "
                              "shard owns which cell; shards 1..N union "
                              "to the full grid)")
    p_sweep.add_argument("--manifest", metavar="FILE",
                         help="sweep manifest for resumable multi-host "
                              "runs: created (with the grid and shard "
                              "assignment) when FILE does not exist, "
                              "otherwise loaded — only cells not yet "
                              "done and missing from the store are "
                              "re-evaluated")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cache = sub.add_parser(
        "cache", help="manage result-store directories",
        description=(
            "Maintenance for the persistent result store: merge unions "
            "shard stores fingerprint-by-fingerprint (byte-preserving, "
            "deterministic conflict policy — damaged or schema-"
            "mismatched entries are skipped and reported, newer-schema "
            "destination entries are never overwritten); stats "
            "inventories one store; gc prunes corrupt, schema-"
            "mismatched, and expired entries."
        ))
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_merge = cache_sub.add_parser(
        "merge", help="union shard stores into one directory")
    p_merge.add_argument("sources", nargs="+", metavar="SRC",
                         help="source store directories (left unmodified)")
    p_merge.add_argument("--into", required=True, metavar="DST",
                         help="destination store (created if missing)")
    p_merge.set_defaults(func=cmd_cache_merge)
    p_stats = cache_sub.add_parser(
        "stats", help="inventory one store directory")
    p_stats.add_argument("dir", nargs="?", metavar="DIR",
                         help="store directory (default: $REPRO_CACHE_DIR "
                              "or .repro-cache)")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_stats.set_defaults(func=cmd_cache_stats)
    p_gc = cache_sub.add_parser(
        "gc", help="prune corrupt/stale/expired entries")
    p_gc.add_argument("dir", nargs="?", metavar="DIR",
                      help="store directory (default: $REPRO_CACHE_DIR "
                           "or .repro-cache)")
    p_gc.add_argument("--schema", type=int, metavar="N",
                      help="remove entries whose schema differs from N")
    p_gc.add_argument("--older-than", dest="older_than", metavar="AGE",
                      help="remove entries older than AGE "
                           "(e.g. 3600, 90m, 12h, 7d)")
    p_gc.set_defaults(func=cmd_cache_gc)

    p_serve = sub.add_parser(
        "serve", help="run the shared sweep/result service over HTTP",
        description=(
            "Serve one result store over HTTP: clients POST a grid spec "
            "(the sweep vocabulary: workloads, archs, mapper) to /sweep "
            "and stream per-cell results back as NDJSON the moment each "
            "cell lands.  Cells already in the store are answered "
            "without evaluation, concurrent identical requests share "
            "one evaluation per cell, and admission control (--jobs "
            "slots, --queue-limit waiters) answers overload with "
            "structured ServerBusy rows instead of queueing without "
            "bound.  Served results are bit-identical to a local "
            "'repro sweep' of the same grid."
        ))
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8640,
                         help="TCP port (0 picks an ephemeral port and "
                              "prints it; default: 8640)")
    p_serve.add_argument("--jobs", type=int, default=None,
                         help="concurrent evaluation slots / worker "
                              "processes (default: $REPRO_JOBS or 1)")
    p_serve.add_argument("--queue-limit", type=int, default=32,
                         help="max cells waiting for an evaluation slot "
                              "before requests get ServerBusy rows "
                              "(default: 32)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="serve without a persistent store "
                              "(in-process memo only)")
    p_serve.add_argument("--cache-dir", metavar="DIR",
                         help="result store directory (default: "
                              "$REPRO_CACHE_DIR or .repro-cache)")
    p_serve.set_defaults(func=cmd_serve)

    p_wl = sub.add_parser(
        "workloads", help="list evaluated workloads and variant families")
    p_wl.add_argument("--variants", action="store_true",
                      help="list every family member, including the "
                           "recipe-generated variants")
    p_wl.set_defaults(func=cmd_workloads)

    p_mappers = sub.add_parser(
        "mappers", help="list registered mappers",
        description="Every mapper in the repro.mapping.engine registry; "
                    "--mapper flags accept these keys.")
    p_mappers.set_defaults(func=cmd_mappers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
