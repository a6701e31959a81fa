"""Host-speed calibration: the fixed reference loop.

This loop is the benchmark's yardstick and must never change once
landed: every "reference second" the benchmark reports is defined by
it.  It is a small pure-Python Dijkstra (heapq + dict relaxations over
a fixed weighted 12x12 grid, from 12 sources), which is the same kind of
interpreter work the mapper's router does, so a host phase that slows
the program slows the loop by a similar factor.  It imports nothing
from the program under test, so no program change can move it.

A measured op of ``wall`` seconds bracketed by calibrations that took
``c0`` and ``c1`` seconds counts as ``wall * CAL_REFERENCE_S /
((c0 + c1) / 2)`` reference seconds.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Nominal duration of one :func:`calibrate` call, in seconds.  Dividing
#: by the measured duration turns wall seconds into reference seconds.
#: Chosen so that a reference second is close to a wall second on a
#: quiet 2-vCPU 2.0 GHz Xeon VM, where the loop takes about 1.4-1.5 ms.
CAL_REFERENCE_S = 1.5e-3

_SIDE = 12
_SOURCES = 12


def _grid() -> list[list[tuple[int, int]]]:
    adjacency = []
    for vertex in range(_SIDE * _SIDE):
        row, col = divmod(vertex, _SIDE)
        edges = []
        for d_row, d_col in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            r, c = row + d_row, col + d_col
            if 0 <= r < _SIDE and 0 <= c < _SIDE:
                weight = 1 + (vertex * 31 + r * 7 + c) % 5
                edges.append((r * _SIDE + c, weight))
        adjacency.append(edges)
    return adjacency


_ADJACENCY = _grid()


def _reference_work() -> int:
    total = 0
    for source in range(_SOURCES):
        dist = {source: 0}
        queue = [(0, source)]
        while queue:
            d, vertex = heapq.heappop(queue)
            if d > dist.get(vertex, 1 << 30):
                continue
            for neighbour, weight in _ADJACENCY[vertex]:
                nd = d + weight
                if nd < dist.get(neighbour, 1 << 30):
                    dist[neighbour] = nd
                    heapq.heappush(queue, (nd, neighbour))
        total += sum(dist.values())
    return total


_EXPECTED = _reference_work()


def calibrate() -> float:
    """Run the reference loop once; return its wall time in seconds.

    The garbage collector is paused so a collection owed to the
    program's heap can never land inside the yardstick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = _reference_work()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("calibration loop returned a wrong result")
    return elapsed


def calibrate_mean(runs: int = 5) -> float:
    """Mean of ``runs`` back-to-back calibrations (seconds)."""
    return sum(calibrate() for _ in range(runs)) / runs
