"""Spans and counts around the program's public entry points.

Nothing here edits the program: :class:`Tracer` swaps module attributes
for timing wrappers and puts the originals back on :meth:`uninstall`.
A span's *total* is its wall time; its *self* time is the total minus
the time its child spans cover (a span opened while another is running
is that span's child).

Two modes, chosen once per worker process:

* ``full=False`` wraps only ``repro.mapping.engine.map_kernel``, to
  capture each cell's outermost :class:`Mapping` for the output check.
  It reads no clock and costs a dict store per mapped cell, so it stays
  installed in untraced (timed) runs.
* ``full=True`` also wraps the layers' entry points (lowering, fabric
  builders, mapping, routing, pricing, fingerprinting, store reads and
  writes, ``run_sweep``) and counts their work.

Times are raw wall seconds; :meth:`Tracer.drain` hands them over
between ops so the caller can divide them by that op's host-speed
factor.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.mappings: list = []        # outermost mappings since drain
        self.captured: dict = {}        # cell key -> last outermost mapping
        self.current_cell = None        # set by the workload before each cell
        self._stack: list[float] = []   # child time of each open span
        self._map_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span plumbing --------------------------------------------------
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _span(self, name: str, on_result=None):
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                start = tracer._enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(name, start)
                if on_result is not None:
                    on_result(args, result)
                return result
            wrapper.__wrapped__ = original
            return wrapper
        return factory

    # -- install / uninstall -------------------------------------------
    def install(self, full: bool) -> None:
        from repro.mapping import engine

        self._patch(engine, "map_kernel", self._map_wrapper(full))
        if full:
            self._install_layers()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _map_wrapper(self, timed: bool):
        tracer = self

        def factory(original):
            def map_kernel(mapper_key, *args, **kwargs):
                tracer._map_depth += 1
                start = tracer._enter() if timed else 0.0
                try:
                    mapping = original(mapper_key, *args, **kwargs)
                finally:
                    if timed:
                        tracer._exit(f"map:{mapper_key}", start)
                    tracer._map_depth -= 1
                if tracer._map_depth == 0:
                    tracer.mappings.append(mapping)
                    tracer.captured[tracer.current_cell] = mapping
                return mapping
            map_kernel.__wrapped__ = original
            return map_kernel
        return factory

    def _install_layers(self) -> None:
        from repro.eval import cache, harness, parallel
        from repro.mapping import router
        from repro.workloads import registry

        def count_nodes(_args, dfg) -> None:
            self.counts["frontend.dfg_nodes"] += dfg.num_nodes

        def count_get(_args, stored) -> None:
            self.counts["cache.gets"] += 1
            if stored is not None:
                self.counts["cache.hits"] += 1

        def count_put(args, _result) -> None:
            store, fp = args[0], args[1]
            self.counts["cache.puts"] += 1
            try:
                self.counts["cache.bytes_written"] += \
                    os.path.getsize(store.entry_path(fp))
            except OSError:
                pass

        self._patch(registry, "compile_kernel",
                    self._span("frontend.lower", count_nodes))
        for builder in ("make_spatio_temporal", "make_spatial", "make_plaid",
                        "make_st_ml", "make_plaid_ml"):
            self._patch(harness, builder, self._span("arch.build"))
        for pricer in ("activity_from_mapping", "activity_from_spatial",
                       "fabric_power", "fabric_area", "energy_nj"):
            self._patch(harness, pricer, self._span("power.price"))
        # route_edge is imported by name into each mapper module; wrap
        # every binding so routing is timed wherever a mapper calls it.
        for name, module in sorted(sys.modules.items()):
            if name.startswith("repro.mapping") and \
                    getattr(module, "route_edge", None) is router.route_edge:
                self._patch(module, "route_edge", self._span("route"))
        self._patch(cache, "fingerprint", self._span("cache.fingerprint"))
        self._patch(cache.ResultStore, "get",
                    self._span("cache.get", count_get))
        self._patch(cache.ResultStore, "put",
                    self._span("cache.put", count_put))
        self._patch(cache.ResultStore, "put_failure",
                    self._span("cache.put", count_put))
        self._patch(parallel, "run_sweep", self._span("sweep.run"))

    # -- results --------------------------------------------------------
    def drain(self):
        """``(total, self_time, counts, mappings)`` since the last drain,
        then reset.  Call between ops, never inside one."""
        drained = (dict(self.total), dict(self.self_time),
                   Counter(self.counts), list(self.mappings))
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()
        self.mappings.clear()
        return drained


#: Per-layer times derived from span totals (``total``) or self times.
_TOTALS = {
    "frontend.lower_s": "frontend.lower",
    "arch.build_s": "arch.build",
    "mapping.plaid_s": "map:plaid",
    "mapping.spatial_s": "map:spatial",
    "mapping.best_s": "map:best",
    "mapping.route_s": "route",
    "power.price_s": "power.price",
    "cache.fingerprint_s": "cache.fingerprint",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
}


def layer_seconds(total: dict, self_time: dict, mappings: list) -> dict:
    """Raw per-layer seconds of one drained batch, by metric name.

    ``mapping.place_s`` is the self time of every map span (mapping
    minus the routing inside it); ``sweep.glue_s`` is ``run_sweep``'s
    self time; ``mapping.pathfinder_s``/``mapping.sa_s`` come from the
    per-candidate stats the ``best`` composite records on its winner.
    """
    seconds = {metric: total.get(span, 0.0)
               for metric, span in _TOTALS.items()}
    seconds["mapping.place_s"] = sum(
        value for span, value in self_time.items()
        if span.startswith("map:"))
    seconds["sweep.glue_s"] = self_time.get("sweep.run", 0.0)
    for key in ("pathfinder", "sa"):
        seconds[f"mapping.{key}_s"] = 0.0
    for mapping in mappings:
        stats = getattr(mapping, "stats", None)
        for candidate in getattr(stats, "candidates", None) or ():
            name = f"mapping.{candidate.key}_s"
            if name in seconds:
                seconds[name] += candidate.seconds
    return seconds
