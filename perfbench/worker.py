"""Benchmark worker: one fresh process that sets up one workload and,
when told to, measures it.

Protocol with ``run.py``: the worker sets up, prints ``READY`` and
waits for one line on stdin (``run.py`` calibrates meanwhile, to
normalize the set-up time).  ``run`` measures ``--ops`` ops, checks
every output, prints ``RESULT <json>`` and exits; anything else just
exits.  With ``--trace 1`` the layer wrappers of
:mod:`tracing` are installed for the whole process and the result
carries per-layer times and counts.  The worker is the only process of
its workload, except for ``serve-warm``, which adds one server process
that the worker starts and stops.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

from calibrate import CAL_REFERENCE_S, calibrate
from tracing import Tracer, layer_seconds

HERE = os.path.dirname(os.path.abspath(__file__))

#: The 5x3 grid behind both warm workloads (the golden-fixture grid).
WARM_WORKLOADS = ("dwconv", "conv2x2", "gesum_u2", "atax_u2", "jacobi_u2")
HEADLINE_ARCHS = ("st", "spatial", "plaid")
ST_ARCHS = ("st", "st-ml")

#: Requests between calibrations on serve-warm (a request takes a few
#: milliseconds; calibrating after each would double the client's work).
SERVE_BATCH = 4


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cell_name(key) -> str:
    return "/".join(key)


def outcome_value(outcome):
    """A cell's checked output: ``[ii, cycles, energy]`` or the error."""
    if outcome.ok:
        result = outcome.result
        return [result.ii, result.cycles, result.energy]
    return f"{outcome.error_type}: {outcome.error}"


# ---------------------------------------------------------------------------
# Workloads: ``setup()``, then ``op(index)`` -> (cells, extra raw seconds)
# ---------------------------------------------------------------------------
class Workload:
    """``op`` returns ``{cell name: output}`` for the cells it
    delivered, plus named raw durations it measured inside itself."""

    batch = 1

    def __init__(self, tmp: str, seed: int, tracer: Tracer) -> None:
        from repro.eval import harness, parallel

        self.harness = harness
        self.parallel = parallel
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.reference: dict = {}       # cell name -> expected output
        self.pids: list[int] = []       # extra processes (the server)
        self.checkpoints: list[tuple[float, float, float]] = []

    def checkpoint(self) -> None:
        """Calibrate between set-up steps: (start, calibration, end),
        on the clock ``run.py`` shares, so it can normalize each step
        and leave the calibrations themselves out."""
        start = time.monotonic()
        seconds = calibrate()
        self.checkpoints.append((start, seconds, time.monotonic()))

    def run_cells(self, cells, checkpoints: bool = False) -> dict:
        """Evaluate cells one sweep call each, so each cell's mapping
        is captured under its own name."""
        delivered = {}
        for cell in cells:
            name = cell_name(cell.key())
            self.tracer.current_cell = name
            outcome = self.parallel.run_sweep([cell], jobs=1).outcomes[0]
            delivered[name] = outcome_value(outcome)
            if checkpoints:
                self.checkpoint()
        return delivered

    def close(self) -> None:
        pass


class GridWorkload(Workload):
    """One op = one cell of a sweep; each pass over the grid starts
    from empty caches, an empty MRRG pool and a fresh store."""

    archs: tuple[str, ...] = ()

    def setup(self) -> None:
        self.cells = self.parallel.build_grid(None, list(self.archs))
        self.unit = len(self.cells)
        self.passes = 0

    def op(self, index: int):
        if index % self.unit == 0:
            from repro.mapping import engine

            self.harness.clear_caches()
            engine.default_pool().clear()
            self.passes += 1
            self.harness.configure_store(
                os.path.join(self.tmp, f"store-{self.passes}"))
            self.order = list(self.cells)
            self.rng.shuffle(self.order)
        return self.run_cells([self.order[index % self.unit]]), {}


class GridCold(GridWorkload):
    archs = HEADLINE_ARCHS


class GridST(GridWorkload):
    archs = ST_ARCHS


class WarmWorkload(Workload):
    """Set-up fills a fresh store with the 5x3 grid; those results are
    the reference every op must reproduce."""

    def setup(self) -> None:
        self.store = os.path.join(self.tmp, "store")
        self.harness.configure_store(self.store)
        self.cells = self.parallel.build_grid(
            list(WARM_WORKLOADS), list(HEADLINE_ARCHS))
        self.reference = self.run_cells(self.cells, checkpoints=True)


class ResweepWarm(WarmWorkload):
    def op(self, index: int):
        order = list(self.cells)
        self.rng.shuffle(order)
        self.harness.clear_caches()
        self.harness.configure_store(self.store)
        report = self.parallel.run_sweep(order, jobs=1)
        return {cell_name(o.cell.key()): outcome_value(o)
                for o in report.outcomes}, {}


class ServeWarm(WarmWorkload):
    """A ``repro serve`` process over the filled store; the worker is
    its one closed-loop client."""

    batch = SERVE_BATCH

    def setup(self) -> None:
        from repro.eval import client

        super().setup()
        self.client = client
        self.trace_file = os.path.join(self.tmp, "server-trace.json")
        self.server = subprocess.Popen(
            [sys.executable, "-u", os.path.join(HERE, "serve_main.py"),
             "--cache-dir", self.store, "--trace-file", self.trace_file],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self.pids.append(self.server.pid)
        banner = self.server.stdout.readline()
        match = re.search(r"http://([^:\s]+):(\d+)", banner)
        if match is None:
            raise RuntimeError(f"server did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.checkpoint()
        self.op(-1)                 # warm-up: store -> server memo

    def op(self, index: int):
        workloads = list(WARM_WORKLOADS)
        self.rng.shuffle(workloads)
        delivered: dict = {}
        summary = None
        start = time.perf_counter()
        first = None
        for record in self.client.stream_sweep(
                self.host, self.port, workloads=workloads,
                archs=list(HEADLINE_ARCHS), timeout=60):
            if first is None:
                first = time.perf_counter()
            if "summary" in record:
                summary = record["summary"]
                continue
            name = cell_name((record["workload"], record["arch"],
                              record["mapper"]))
            delivered[name] = (
                [record["ii"], record["cycles"], record["energy_nj"]]
                if record["status"] == "ok" else record["error"])
        end = time.perf_counter()
        if summary is None or summary.get("total") != len(self.cells):
            delivered["summary"] = f"bad summary: {summary!r}"
        return delivered, {"first_row": first - start,
                           "stream": end - first}

    def served(self) -> dict:
        return self.client.get_json(self.host, self.port, "/stats",
                                    timeout=30)["serve"]

    def toggle_server_trace(self, ack: str) -> None:
        """SIGUSR1 switches the server's tracer on, and then off (which
        writes its totals); wait for the server's acknowledgement."""
        self.server.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(ack):
            if time.monotonic() > deadline or self.server.poll() is not None:
                raise RuntimeError("server did not acknowledge SIGUSR1")
            time.sleep(0.002)

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=20)
        server.stdout.close()


WORKLOADS = {
    "grid-cold": GridCold,
    "grid-st": GridST,
    "resweep-warm": ResweepWarm,
    "serve-warm": ServeWarm,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def measure(workload: Workload, ops: int, tracer: Tracer) -> dict:
    """Run ``ops`` ops; calibrate between batches of ``workload.batch``
    ops and divide each op's wall time by its batch's host-speed factor
    (the mean of the calibrations on either side, over the reference)."""
    latencies: list[float] = []
    extras: dict[str, list[float]] = {}
    layer_time: dict[str, float] = {}
    counts: dict[str, int] = {}
    delivered: list[dict] = []
    mappings: list = []
    raw_wall = 0.0
    tracer.drain()                      # drop set-up spans
    cals = [calibrate()]
    for first in range(0, ops, workload.batch):
        walls, outs = [], []
        for index in range(first, min(first + workload.batch, ops)):
            start = time.perf_counter()
            out = workload.op(index)
            walls.append(time.perf_counter() - start)
            outs.append(out)
        total, self_time, batch_counts, batch_mappings = tracer.drain()
        cals.append(calibrate())
        factor = (cals[-2] + cals[-1]) / 2 / CAL_REFERENCE_S
        raw_wall += sum(walls)
        for wall, (cells, extra) in zip(walls, outs):
            latencies.append(wall / factor)
            delivered.append(cells)
            for name, seconds in extra.items():
                extras.setdefault(name, []).append(seconds / factor)
        for name, seconds in layer_seconds(
                total, self_time, batch_mappings).items():
            layer_time[name] = layer_time.get(name, 0.0) + seconds / factor
        for name, value in batch_counts.items():
            counts[name] = counts.get(name, 0) + value
        mappings.extend(batch_mappings)
    return {"latencies": latencies, "extras": extras, "cals": cals,
            "raw_wall": raw_wall, "delivered": delivered,
            "layer_time": layer_time, "counts": counts,
            "mappings": mappings}


def mapping_counts(mappings) -> dict:
    """Deterministic work counts of a phase's outermost mappings."""
    from repro.mapping.mii import minimum_ii

    attempts = 0
    ii_excess = 0
    for mapping in mappings:
        stats = getattr(mapping, "stats", None)
        if stats is None:               # spatial mappings keep no stats
            continue
        if stats.candidates:
            attempts += sum(c.attempts for c in stats.candidates)
        else:
            attempts += stats.attempts
        ii_excess += mapping.ii - minimum_ii(mapping.dfg, mapping.arch)
    return {"mapping.attempts": attempts, "mapping.ii_excess": ii_excess}


def simulate_check(captured: dict, reference: dict) -> dict:
    """Simulate every captured mapping over its full iteration space
    with the compiled engine, verify its memory image against the IR
    interpreter, and compare simulated with priced cycles."""
    from repro.ir.interpreter import DFGInterpreter
    from repro.sim import CGRASimulator, SpatialSimulator

    bad: dict[str, str] = {}
    verified = mismatches = 0
    before = calibrate()
    start = time.perf_counter()
    for name, mapping in sorted(captured.items()):
        memory = DFGInterpreter(mapping.dfg).prepare_memory(fill=3)
        if hasattr(mapping, "phases"):
            report = SpatialSimulator(mapping).simulate(
                memory, iterations=None, engine="compiled")
        else:
            report = CGRASimulator(mapping).run(
                memory, iterations=None, verify=True, engine="compiled")
        if report.verified is True:
            verified += 1
        else:
            bad[name] = f"not verified: {report.mismatches[:3]}"
        priced = reference.get(name)
        if not isinstance(priced, list) or report.cycles != priced[1]:
            mismatches += 1
            bad[name] = f"simulated {report.cycles} cycles, priced {priced!r}"
    wall = time.perf_counter() - start
    factor = (before + calibrate()) / 2 / CAL_REFERENCE_S
    return {"checked": len(captured), "verified": verified,
            "cycle_mismatches": mismatches, "seconds": wall / factor,
            "bad": bad}


def check_ops(reference: dict, delivered: list[dict], bad: dict,
              complete: bool) -> tuple[list[bool], list[str]]:
    """Per op: every cell ok, equal to the reference and simulator-
    verified; with ``complete`` the op must deliver the whole grid."""
    flags, problems = [], []
    for cells in delivered:
        ok = not complete or set(cells) == set(reference)
        if not ok:
            problems.append(f"delivered {sorted(cells)}")
        for name, value in cells.items():
            want = reference.get(name)
            if not isinstance(value, list) or value != want or name in bad:
                ok = False
                problems.append(f"{name}: got {value!r}, reference {want!r}"
                                f" {bad.get(name, '')}".rstrip())
        flags.append(ok)
    return flags, problems


def engines_in_use() -> dict:
    from repro.mapping import routecore
    from repro.sim import simulation_engine

    return {"routing": routecore.active_engine(),
            "simulation": simulation_engine()}


def run(workload: Workload, ops: int, traced: bool, tracer: Tracer) -> dict:
    from repro.mapping import routecore

    serve = isinstance(workload, ServeWarm)
    served_before = workload.served() if serve else None
    if serve and traced:
        workload.toggle_server_trace(workload.trace_file + ".on")
    routing = (routecore.ROUTING.calls, routecore.ROUTING.failures)
    measured = measure(workload, ops, tracer)
    layers: dict = {}
    if traced:
        tracer.uninstall()
        counts = measured["counts"]
        counts["mapping.route_calls"] = routecore.ROUTING.calls - routing[0]
        counts["mapping.route_failures"] = \
            routecore.ROUTING.failures - routing[1]
        counts.update(mapping_counts(measured["mappings"]))
        layers = {"time": measured["layer_time"], "counts": counts}
    rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in workload.pids)
    if serve:
        served_after = workload.served()
        if traced:
            workload.toggle_server_trace(workload.trace_file)
            with open(workload.trace_file, encoding="utf-8") as handle:
                server = json.load(handle)
            factor = (sum(measured["cals"]) / len(measured["cals"])
                      / CAL_REFERENCE_S)
            for name, seconds in server["time"].items():
                layers["time"][name] += seconds / factor
            for name, value in server["counts"].items():
                layers["counts"][name] = layers["counts"].get(name, 0) + value
            layers["served"] = {
                key: served_after[key] - served_before[key]
                for key in ("cached", "evaluated")}
    reference = workload.reference
    if not reference:                   # grids: first delivery of a cell
        for cells in measured["delivered"]:
            for name, value in cells.items():
                reference.setdefault(name, value)
    check = simulate_check(tracer.captured, reference)
    flags, problems = check_ops(reference, measured["delivered"],
                                check.pop("bad"),
                                complete=isinstance(workload, WarmWorkload))
    return {
        "latencies": measured["latencies"],
        "extras": measured["extras"],
        "cals": measured["cals"],
        "raw_wall": measured["raw_wall"],
        "cells": sum(len(cells) for cells in measured["delivered"]),
        "ok": flags,
        "problems": problems[:10],
        "results": reference,
        "check": check,
        "rss_mb": rss,
        "engines": engines_in_use(),
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.tmp, args.seed, tracer)
    tracer.install(full=bool(args.trace))
    try:
        workload.checkpoint()           # interpreter start-up and imports
        workload.setup()
        print("READY " + json.dumps({"checkpoints": workload.checkpoints,
                                     "ready": time.monotonic()}),
              flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        result = run(workload, args.ops, bool(args.trace), tracer)
    finally:
        workload.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
