"""End-to-end pipeline benchmark with host-speed normalization.

Run from the repository root:

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 10 --trace 0

Workloads: ``grid-cold``, ``grid-st``, ``resweep-warm``, ``serve-warm``
(see README.md in this directory).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give sample counts, engines and the raw timings behind
the normalized ones.  ``--self-test`` runs every workload traced under
two seeds and fails unless the modelled metrics and every per-layer
count agree exactly.

All times are in reference seconds: wall time divided by the host-speed
factor that the fixed loop in ``calibrate.py`` measures between ops.
Each workload runs in fresh worker processes (``worker.py``) pinned to
the idlest CPU, with every ``REPRO_*`` variable of the caller removed and
temporary stores inside ``.perfbench-tmp/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from calibrate import CAL_REFERENCE_S, calibrate_mean

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Every run must end within this many seconds.
DEADLINE_S = 170.0

#: Fewest fresh worker processes per timed run.  Each is set up, and
#: its set-up time is one sample of ``setup_s``; the first
#: ``Spec.workers`` of them then measure their share of the ops, and a
#: run's metrics pool all of those.
SETUPS = 3


@dataclass(frozen=True)
class Spec:
    unit_ops: int       # ops per unit: a whole grid pass, or one op
    units_per_s: float  # units per measuring worker per second of --seconds
    workers: int        # workers of a timed run that measure
    trace_units: int    # units per worker of a traced run


#: Op counts derive from ``--seconds`` and these fixed rates only, so a
#: run's sample count (and so its tail percentile) never depends on how
#: fast the host or the program happens to be.  The rates put about
#: ``--seconds`` of ops into a run, with two exceptions.  One cold pass
#: is ``grid-cold``'s smallest unit, so it measures with two workers and
#: runs longer.  ``serve-warm`` takes 1500 requests in all, so that its
#: tail (p99.3) stays in the bulk of the distribution
#: rather than on the few rare slow requests a longer run collects.
#: README.md says why each workload exists.
WORKLOADS = {
    "grid-cold": Spec(90, 1 / 15, 2, 1),
    "grid-st": Spec(60, 1 / 10, 3, 1),
    "resweep-warm": Spec(1, 22.0, 3, 40),
    "serve-warm": Spec(1, 50.0, 3, 200),
}

END_TO_END = {
    "setup_s": "s", "cells_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "peak_rss_mb": "MiB", "cycles_geomean": "cycles",
    "energy_nj_geomean": "nJ", "ok_share": "share",
}

PER_LAYER = {
    "frontend.lower_s": "s", "frontend.dfg_nodes": "count",
    "arch.build_s": "s",
    "mapping.plaid_s": "s", "mapping.place_s": "s", "mapping.route_s": "s",
    "mapping.route_calls": "count", "mapping.route_failures": "count",
    "mapping.route_success_ratio": "share",
    "mapping.best_s": "s", "mapping.pathfinder_s": "s", "mapping.sa_s": "s",
    "mapping.spatial_s": "s", "mapping.attempts": "count",
    "mapping.ii_excess": "count",
    "power.price_s": "s",
    "sim.verify_s": "s", "sim.verified_share": "share",
    "sim.cycle_mismatches": "count",
    "cache.fingerprint_s": "s", "cache.get_s": "s", "cache.gets": "count",
    "cache.hits": "count", "cache.put_s": "s", "cache.puts": "count",
    "cache.bytes_written": "bytes",
    "sweep.glue_s": "s",
    "serve.first_row_ms": "ms", "serve.stream_ms": "ms",
    "serve.cached_cells": "count", "serve.evaluated_cells": "count",
    "bench.calibration_ms": "ms", "bench.raw_wall_s": "s",
    "bench.trace_overhead_share": "share",
}

#: Per-layer metrics that must repeat exactly across runs and seeds.
EXACT_LAYER = [name for name, unit in PER_LAYER.items()
               if unit in ("count", "bytes")] + [
    "mapping.route_success_ratio", "sim.verified_share"]


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------
class Worker:
    """One ``worker.py`` process in its own session (so it and its
    server can be killed as a group), read line by line with a
    deadline."""

    def __init__(self, args: list[str], env: dict, deadline: float) -> None:
        self.deadline = deadline
        self.buffer = b""
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, start_new_session=True)

    def line(self) -> str:
        stream = self.proc.stdout
        while b"\n" not in self.buffer:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise BenchError("worker timed out")
            ready, _, _ = select.select([stream], [], [], left)
            if ready:
                chunk = os.read(stream.fileno(), 1 << 16)
                if not chunk:
                    raise BenchError(
                        f"worker exited early (code {self.proc.wait()})")
                self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode("utf-8")

    def expect(self, prefix: str) -> str:
        while True:
            line = self.line()
            if line.startswith(prefix):
                return line[len(prefix):]

    def send(self, command: str) -> None:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        self.proc.stdin.close()

    def finish(self) -> None:
        """Wait for the worker to exit on its own."""
        try:
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit") from None

    def kill(self) -> None:
        """Kill whatever is left of the worker's group and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        for _ in range(200):            # until every group member is reaped
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


def child_env(tmp: str, index: int) -> dict:
    """The caller's environment minus every ``REPRO_*`` setting, with
    the checkout's sources on the path, a fresh native cache, and a
    fixed string-hash seed per worker slot (so every run averages the
    same three dict layouts instead of three random ones)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(index + 1)
    env["REPRO_NATIVE_DIR"] = os.path.join(tmp, "native")
    return env


def run_worker(workload: str, seed: int, index: int, ops: int, trace: int,
               tmp_root: str, deadline: float
               ) -> tuple[float, "dict | None"]:
    """Start worker ``index`` of a run; return (reference set-up
    seconds, result).  With ``ops == 0`` the worker only sets up.  Each
    worker permutes its ops with its own seed derived from the run's."""
    tmp = tempfile.mkdtemp(dir=tmp_root)
    args = ["--workload", workload, "--seed", str(seed * 100 + index),
            "--ops", str(ops), "--trace", str(trace), "--tmp", tmp]
    before = calibrate_mean()
    spawned = time.monotonic()
    worker = Worker(args, child_env(tmp, index), deadline)
    try:
        ready = json.loads(worker.expect("READY "))
        after = calibrate_mean()
        worker.send("run" if ops else "exit")
        result = json.loads(worker.expect("RESULT ")) if ops else None
        worker.finish()
    finally:
        worker.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    if worker.proc.returncode != 0:
        raise BenchError(f"worker exited with code {worker.proc.returncode}")
    return setup_seconds(spawned, before, ready, after), result


def setup_seconds(spawned: float, before: float, ready: dict,
                  after: float) -> float:
    """Reference seconds from spawning a worker to its ``READY``.

    The worker calibrates between set-up steps (after its imports,
    after each cell it fills, after its server is up); each step's wall
    time is divided by the factor of the calibrations on either side,
    and the calibrations themselves are left out.
    """
    total, start, cal = 0.0, spawned, before
    for begin, seconds, end in ready["checkpoints"]:
        total += (begin - start) / ((cal + seconds) / 2 / CAL_REFERENCE_S)
        start, cal = end, seconds
    return total + (ready["ready"] - start) / (
        (cal + after) / 2 / CAL_REFERENCE_S)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        raise BenchError(f"{len(ordered)} samples: too few for a tail")
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def geomean(values: list[float]) -> float:
    """Geometric mean; ``fsum`` makes it independent of value order."""
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def modelled(result: dict) -> dict:
    outputs = [value for value in result["results"].values()
               if isinstance(value, list)]
    return {"cycles_geomean": geomean([v[1] for v in outputs]),
            "energy_nj_geomean": geomean([v[2] for v in outputs])}


def end_to_end(result: dict, setups: list[float]
               ) -> tuple[dict, list[str]]:
    latencies = result["latencies"]
    tail_value, percentile = tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "cells_per_s": result["cells"] / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": result["rss_mb"],
        **modelled(result),
        "ok_share": sum(result["ok"]) / len(result["ok"]),
    }
    notes = [
        f"op_tail_ms is p{percentile:.1f} of {len(latencies)} samples "
        f"(10 beyond it)",
        f"setup_s is the median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.4f}" for s in setups),
    ]
    return values, notes


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = traced["layers"]
    times, counts = layers["time"], layers["counts"]
    served = layers.get("served", {})
    extras = traced["extras"]
    check = traced["check"]
    calls = counts.get("mapping.route_calls", 0)
    cals = untraced["cals"] + traced["cals"]
    values = {name: seconds for name, seconds in times.items()
              if name in PER_LAYER}
    values.update({name: counts.get(name, 0) for name in PER_LAYER
                   if PER_LAYER[name] in ("count", "bytes")})
    values.update({
        "mapping.route_success_ratio":
            1.0 - counts.get("mapping.route_failures", 0) / calls
            if calls else 1.0,
        "sim.verify_s": check["seconds"],
        "sim.verified_share": check["verified"] / check["checked"]
        if check["checked"] else 1.0,
        "sim.cycle_mismatches": check["cycle_mismatches"],
        "serve.first_row_ms":
            statistics.median(extras["first_row"]) * 1e3
            if "first_row" in extras else 0.0,
        "serve.stream_ms": statistics.median(extras["stream"]) * 1e3
        if "stream" in extras else 0.0,
        "serve.cached_cells": served.get("cached", 0),
        "serve.evaluated_cells": served.get("evaluated", 0),
        "bench.calibration_ms": statistics.median(cals) * 1e3,
        "bench.raw_wall_s": untraced["raw_wall"],
        "bench.trace_overhead_share":
            sum(traced["latencies"]) / sum(untraced["latencies"]) - 1.0,
    })
    missing = [name for name in PER_LAYER if name not in values]
    if missing:
        raise BenchError(f"per-layer metrics missing: {missing}")
    return values


def describe(result: dict) -> list[str]:
    cals = result["cals"]
    check = result["check"]
    engines = result["engines"]
    return [
        f"engines: routing={engines['routing']} "
        f"simulation={engines['simulation']}",
        f"raw wall {result['raw_wall']:.4f} s for {len(result['ok'])} ops "
        f"= {sum(result['latencies']):.4f} reference s; calibration "
        f"median {statistics.median(cals) * 1e3:.4f} ms "
        f"(min {min(cals) * 1e3:.4f}, max {max(cals) * 1e3:.4f}, "
        f"{len(cals)} runs)",
        f"check: {check['checked']} mappings simulated, "
        f"{check['verified']} verified, {check['cycle_mismatches']} "
        "cycle mismatches",
        *(f"problem: {p}" for p in result["problems"]),
    ]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
def merge(results: list[dict]) -> dict:
    """Pool the measured phases of several workers of one run."""
    merged = {
        "latencies": [v for r in results for v in r["latencies"]],
        "cals": [v for r in results for v in r["cals"]],
        "raw_wall": sum(r["raw_wall"] for r in results),
        "cells": sum(r["cells"] for r in results),
        "ok": [v for r in results for v in r["ok"]],
        "problems": [p for r in results for p in r["problems"]][:10],
        "results": results[0]["results"],
        "check": {key: sum(r["check"][key] for r in results)
                  for key in results[0]["check"]},
        "rss_mb": max(r["rss_mb"] for r in results),
        "engines": results[0]["engines"],
    }
    if any(r["results"] != merged["results"] for r in results):
        merged["problems"].append("workers disagree on per-cell outputs")
        merged["ok"].append(False)
    return merged


def timed_run(workload: str, seed: int, seconds: int, tmp_root: str,
              deadline: float) -> tuple[dict, list[str]]:
    """Fresh workers, each set up (timed); the first ``spec.workers``
    then measure the same number of ops each, and the metrics pool
    them."""
    spec = WORKLOADS[workload]
    units = max(1, round(seconds * spec.units_per_s))
    setups, results = [], []
    for index in range(max(SETUPS, spec.workers)):
        ops = units * spec.unit_ops if index < spec.workers else 0
        setup, result = run_worker(workload, seed, index, ops, 0, tmp_root,
                                   deadline)
        setups.append(setup)
        if result is not None:
            results.append(result)
    result = merge(results)
    values, notes = end_to_end(result, setups)
    report = {"correct": all(result["ok"]), "attempted": len(result["ok"]),
              "failed": result["ok"].count(False),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END.items()}}
    return report, notes + describe(result)


def traced_run(workload: str, seed: int, tmp_root: str, deadline: float
               ) -> tuple[dict, list[str], dict]:
    """An untraced and a traced worker over the same ops: their
    per-cell outputs must agree exactly."""
    spec = WORKLOADS[workload]
    ops = spec.trace_units * spec.unit_ops
    _, untraced = run_worker(workload, seed, 0, ops, 0, tmp_root, deadline)
    _, traced = run_worker(workload, seed, 0, ops, 1, tmp_root, deadline)
    values = per_layer(untraced, traced)
    flags = untraced["ok"] + traced["ok"]
    same = untraced["results"] == traced["results"]
    notes = describe(untraced) + describe(traced)
    if not same:
        notes.append("problem: traced and untraced outputs differ")
    report = {"correct": all(flags) and same, "attempted": len(flags),
              "failed": flags.count(False),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in PER_LAYER.items()}}
    return report, notes, modelled(traced)


def self_test(seed: int, tmp_root: str) -> int:
    """Traced runs of every workload under two seeds must agree on the
    modelled metrics and on every per-layer count."""
    failures = 0
    for workload in WORKLOADS:
        runs = []
        for run_seed in (seed, seed + 1):
            report, _, model = traced_run(
                workload, run_seed, tmp_root,
                time.monotonic() + DEADLINE_S)
            exact = {name: report["metrics"][name]["value"]
                     for name in EXACT_LAYER}
            runs.append((report["correct"], model, exact))
        (ok_a, model_a, exact_a), (ok_b, model_b, exact_b) = runs
        differ = sorted(name for name in exact_a
                        if exact_a[name] != exact_b[name])
        good = ok_a and ok_b and model_a == model_b and not differ
        failures += not good
        print(f"{workload}: {'ok' if good else 'FAILED'} "
              f"(correct {ok_a}/{ok_b}, modelled {model_a == model_b}, "
              f"counts differing: {differ or 'none'})", flush=True)
    return 1 if failures else 0


def idle_ticks() -> dict[int, int]:
    """Idle jiffies per CPU from /proc/stat."""
    ticks = {}
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                ticks[int(name[3:])] = int(fields[3])
    return ticks


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process of the workload, to the
    allowed CPU that was idlest over the last 0.2 s: calibration then
    measures the CPU the ops run on, and a busy CPU is avoided."""
    allowed = sorted(os.sched_getaffinity(0))
    before = idle_ticks()
    time.sleep(0.2)
    after = idle_ticks()
    cpu = max(allowed, key=lambda c: (after.get(c, 0) - before.get(c, 0), -c))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    # A terminated run still kills its workers (their own sessions).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = pin_to_one_cpu()
    os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-tmp"))
    try:
        if args.self_test:
            return self_test(args.seed, tmp_root)
        if args.trace:
            report, notes, _ = traced_run(args.workload, args.seed,
                                          tmp_root, deadline)
        else:
            report, notes = timed_run(args.workload, args.seed,
                                      args.seconds, tmp_root, deadline)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench-tmp"))
        except OSError:
            pass                # another run still owns a directory there
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, CPU {cpu}")
    for note in notes:
        print(f"  {note}")
    for name, metric in report["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
