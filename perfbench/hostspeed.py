"""Host-speed gauge: a fixed reference computation timed between ops.

On a shared host the whole machine runs 20-70% slower for minutes at a
time, which moves every op of a run alike and no statistic over one run
can undo. A workload whose hot layer is pure-Python search (``partition``:
A*) therefore times a reference heap search after every op and reports
each op's wall time scaled to the reference speed:

    scaled = wall * NOMINAL_S / mean(reference before the op, reference after it)

A time reported in ``s`` is then seconds at the speed at which the
reference takes ``NOMINAL_S``. The reference code is fixed here and calls
nothing of voxpick, so a change to the program moves the scaled time just
as it moves the wall time; the run also prints the wall times.

Workloads whose hot layers are numpy passes and file writes (``remask``)
report wall time: they slow less in the host's slow phases, and no
reference tried here followed them closely enough to help.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Optional

SEARCH_SIDE = 36  # grid side of the reference heap search
# median reference time on the host recorded in workloads.json; any fixed
# value would do, as long as parent and change share it
NOMINAL_S = 0.078


def search_kernel(n: int = SEARCH_SIDE) -> int:
    """Dijkstra over an n^3 six-connected grid with fixed weights."""
    total = n * n * n
    weight = [(i * 2654435761 % 97) + 1 for i in range(total)]
    dist = {0: 0}
    heap = [(0, 0)]
    done = set()
    steps = (1, -1, n, -n, n * n, -n * n)
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for s in steps:
            v = u + s
            if 0 <= v < total and v not in done:
                nd = d + weight[v]
                if nd < dist.get(v, 1 << 60):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return len(done)


def reference_time() -> float:
    """Wall time of one run of the reference search."""
    t0 = time.perf_counter()
    search_kernel()
    return time.perf_counter() - t0


class Gauge:
    """Scales each timed interval by the host speed measured around it,
    or, with ``enabled`` false, leaves it as wall time.

    Call ``scale`` once after every interval, in order: the reference
    timed by one call is the "after" of that interval and the "before" of
    the next.
    """

    def __init__(self, enabled: bool, probe: Optional[Callable[[], float]] = None):
        self.enabled = enabled
        self.reference = []
        if enabled:
            self.probe = probe or reference_time
            self.probe()  # first call pays one-off costs
            self.reference.append(self.probe())

    def scale(self, seconds: float) -> float:
        if not self.enabled:
            return seconds
        before = self.reference[-1]
        self.reference.append(self.probe())
        return seconds * NOMINAL_S / ((before + self.reference[-1]) / 2.0)
