"""Serve-path latency: warm streaming requests against the service.

The service's value is that warm traffic is pure store/memo reads plus
HTTP framing — so the benchmark times exactly that: the golden 5x3 grid
is evaluated once (the cold fill, untimed), then (a) one warm
submit-and-stream request and (b) four *concurrent* warm requests are
timed end to end through the real socket, client, and NDJSON stream.
CI runs this with a tightened ``$REPRO_SERVE_BUDGET_S``; the assertion
guards against regressions that would put evaluation, store scans, or
per-cell blocking work back on the warm path.
"""

import os
import threading
import time

from repro.eval import client, parallel
from repro.eval.harness import clear_caches, configure_store
from repro.eval.serve import SweepServer

#: Hard budget per timed stage, in seconds; CI tightens it.
BUDGET_S = float(os.environ.get("REPRO_SERVE_BUDGET_S", "60"))

#: The golden 5x3 grid (tests/data/golden_small_grid.json).
WORKLOADS = ["dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2"]
ARCHS = ["st", "spatial", "plaid"]

CONCURRENT_CLIENTS = 4


def _teardown():
    clear_caches()
    configure_store(None)


def test_warm_serve_request_time(benchmark, tmp_path):
    clear_caches()
    grid_size = len(parallel.build_grid(WORKLOADS, ARCHS))
    server = SweepServer(store=tmp_path / "store", jobs=2,
                         use_processes=False).start_background()
    try:
        # Cold fill (untimed): one evaluation per cell.
        _cells, cold = client.sweep(server.host, server.port,
                                    workloads=WORKLOADS, archs=ARCHS,
                                    timeout=600)
        assert cold["evaluated"] == grid_size and cold["failed"] == 0

        def run():
            timings = {}
            start = time.perf_counter()
            cells, summary = client.sweep(server.host, server.port,
                                          workloads=WORKLOADS,
                                          archs=ARCHS, timeout=600)
            timings["warm_request"] = time.perf_counter() - start

            summaries = []
            def one_client():
                _c, s = client.sweep(server.host, server.port,
                                     workloads=WORKLOADS, archs=ARCHS,
                                     timeout=600)
                summaries.append(s)

            threads = [threading.Thread(target=one_client)
                       for _ in range(CONCURRENT_CLIENTS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            timings["concurrent_warm"] = time.perf_counter() - start
            return timings, cells, summary, summaries

        timings, cells, summary, summaries = benchmark.pedantic(
            run, rounds=1, iterations=1)
    finally:
        server.shutdown_background()
        _teardown()

    assert len(cells) == grid_size
    assert summary["evaluated"] == 0            # warm: zero evaluations
    assert len(summaries) == CONCURRENT_CLIENTS
    assert all(s["evaluated"] == 0 and s["failed"] == 0
               for s in summaries)
    print()
    print(f"  warm request ({grid_size} cells): "
          f"{timings['warm_request']:.3f}s")
    print(f"  {CONCURRENT_CLIENTS} concurrent warm requests: "
          f"{timings['concurrent_warm']:.3f}s")
    over = {stage: seconds for stage, seconds in timings.items()
            if seconds >= BUDGET_S}
    assert not over, f"stages over the {BUDGET_S:.0f}s budget: {over}"
