"""The names ``perfbench/worker.py`` calls and ``perfbench/tracing.py``
patches, locked.

The benchmark under ``perfbench/`` stays unchanged between runs it
compares, so it keeps calling these entry points by name: the constant
engine names it prints, the no-op mapping pool, the ``engine=`` keyword
of both simulators, and the routing counters behind its
``mapping.route_calls``/``route_failures`` metrics, and the client
calls of its ``serve-warm`` workload.  Its tracer
replaces module attributes by name to time each layer.  A cleanup that
drops or narrows one of them would break the benchmark silently: a
``--trace 1`` run would crash while every other test stayed green.
"""

import importlib.util
from pathlib import Path

import pytest

import repro.sim
from repro.arch import MRRG, make_spatio_temporal
from repro.eval import client, harness, parallel
from repro.eval.harness import build_arch
from repro.eval.serve import SweepServer
from repro.ir.interpreter import DFGInterpreter
from repro.mapping import engine, routecore
from repro.mapping.engine import get_mapper
from repro.mapping.router import route_edge
from repro.sim import CGRASimulator, SpatialSimulator
from repro.workloads import get_dfg


def test_engine_names_are_compiled():
    assert routecore.active_engine() == "compiled"
    assert repro.sim.simulation_engine() == "compiled"


def test_default_pool_clears():
    assert engine.default_pool().clear() is None


@pytest.mark.parametrize("arch_key", ["plaid", "spatial"])
def test_simulators_take_only_the_compiled_engine(arch_key):
    dfg = get_dfg("dwconv")
    mapping = get_mapper(arch_key).make(seed=3).map(dfg, build_arch(arch_key))
    memory = DFGInterpreter(dfg).prepare_memory(fill=3)
    if arch_key == "spatial":
        simulate = SpatialSimulator(mapping).simulate
    else:
        simulate = CGRASimulator(mapping).run
    report = simulate(memory, iterations=None, verify=True,
                      engine="compiled")
    assert report.verified is True
    assert report.cycles > 0
    with pytest.raises(ValueError, match="unknown simulation engine"):
        simulate(memory, iterations=None, engine="reference")


def test_route_edge_ticks_routing_counters():
    mrrg = MRRG(make_spatio_temporal(4, 4), 4)
    calls, failures = routecore.ROUTING.calls, routecore.ROUTING.failures
    assert route_edge(mrrg, 0, 5, 0, 6, 1) is not None
    assert routecore.ROUTING.calls == calls + 1
    assert routecore.ROUTING.failures == failures
    assert route_edge(mrrg, 0, 0, 0, 15, 2) is None     # 6 hops, 2 cycles
    assert routecore.ROUTING.calls == calls + 2
    assert routecore.ROUTING.failures == failures + 1


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_tracer_times_every_layer(tmp_path):
    """A traced sweep over a spatial and a Plaid cell, through the
    benchmark's own tracer, records a span in every layer it wraps."""
    harness.clear_caches()
    tracer = _load_tracing().Tracer()
    # install() looks up every name it wraps, so a dropped or renamed
    # entry point raises here.
    tracer.install(full=True)
    patched = [(owner, name) for owner, name, _ in tracer._patches]
    try:
        harness.configure_store(tmp_path / "store")
        report = parallel.run_sweep(
            parallel.build_grid(["dwconv"], ["spatial", "plaid"]), jobs=1)
    finally:
        tracer.uninstall()
        harness.clear_caches()
    assert not report.failures
    assert len(tracer.mappings) == 2
    # "route" is timed only if a mapper module imported the router's
    # route_edge by name, which the tracer rebinds.
    for span in ("frontend.lower", "arch.build", "map:spatial", "map:plaid",
                 "route", "power.price", "cache.fingerprint", "cache.get",
                 "cache.put", "sweep.run"):
        assert tracer.total.get(span, 0.0) > 0.0, span
    assert tracer.counts["cache.puts"] == 2
    for owner, name in patched:
        assert not hasattr(getattr(owner, name), "__wrapped__"), name


def test_serve_client_calls(tmp_path):
    """``serve-warm`` streams a grid by keyword, reads each record's
    metric fields and the closing summary's ``total``, then reads the
    server's ``cached``/``evaluated`` counters from ``/stats``."""
    harness.clear_caches()
    server = SweepServer(store=tmp_path / "store", jobs=1,
                         use_processes=False).start_background()
    try:
        records = list(client.stream_sweep(
            server.host, server.port, workloads=["dwconv", "conv2x2"],
            archs=["st"], timeout=60))
        served = client.get_json(server.host, server.port, "/stats",
                                 timeout=30)["serve"]
    finally:
        server.shutdown_background()
        harness.clear_caches()
        harness.configure_store(None)
    *rows, last = records
    assert last["summary"]["total"] == len(rows) == 2
    for record in rows:
        assert {"workload", "arch", "mapper", "status", "ii", "cycles",
                "energy_nj", "error"} <= set(record)
        assert record["status"] == "ok" and record["error"] in ("", None)
    assert (served["cached"], served["evaluated"]) == (0, 2)
