"""Start ``repro serve`` (the real CLI entry point) for serve-warm.

Usage: ``serve_main.py --cache-dir DIR --trace-file FILE``.  The server
prints its banner (with the bound port) on stdout and serves until
SIGINT.  The first SIGUSR1 installs the layer wrappers of
:mod:`tracing` and writes ``FILE.on``; the second removes them and
writes the per-layer raw seconds and counts gathered in between to
``FILE``.  Signals arrive only while the server is idle between
requests (its one client is closed-loop).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from tracing import Tracer, layer_seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args()

    from repro.cli import main as repro_main

    tracer = Tracer()
    tracing = []

    def toggle(_signum, _frame) -> None:
        if not tracing:
            tracer.install(full=True)
            tracing.append(True)
            path, payload = args.trace_file + ".on", {}
        else:
            tracer.uninstall()
            tracing.clear()
            total, self_time, counts, mappings = tracer.drain()
            path = args.trace_file
            payload = {"time": layer_seconds(total, self_time, mappings),
                       "counts": dict(counts)}
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, toggle)
    # SIGINT stops the server; a caller that ignores SIGINT (as shells
    # do for background jobs) must not make the server unstoppable.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    return repro_main(["serve", "--host", "127.0.0.1", "--port", "0",
                       "--jobs", "1", "--cache-dir", args.cache_dir])


if __name__ == "__main__":
    sys.exit(main())
