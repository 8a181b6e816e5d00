"""Host-speed probe: scales measured times to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40 % over seconds to minutes, more than any change worth measuring. A
timer interrupts the workload every PERIOD_S seconds of wall time and runs
a fixed probe that never touches the package: an interpreter loop over a
small dict, then a pointer chase through a table several times the size of
the L2 cache. The host's slow spells slow the loop more than they slow
the package's operations, and the chase less; the mix of the two tracks
them. The time spent in the probes is taken out of every measured
interval, and an interval is reported as

    measured * NOMINAL_S / median(probe times during the interval)

that is, in seconds of a host on which one probe takes NOMINAL_S. That is
the probe's time alone on a 2-vCPU Xeon VM with Python 3.11; amid a
workload it takes 0.48-0.52 ms there, so scaled times read about 20 %
below unscaled ones. An interval shorter
than LOCAL_SAMPLES probes uses the LOCAL_SAMPLES probes nearest to it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, process_time

import numpy as np

PERIOD_S = 0.03
LOOP_ITERATIONS = 1000
CHASE_STEPS = 900
CHASE_LINKS = 1 << 22  # 16 MiB of uint32 links
LOCAL_SAMPLES = 12
NOMINAL_S = 0.0004


def chase_table() -> memoryview:
    """Links x -> (A x + C) mod CHASE_LINKS. With A = 1 mod 4 and C odd this
    is one cycle through every entry, and its steps have no fixed stride
    for the hardware prefetcher to follow. Built in place, so building it
    needs no more memory than it holds."""
    links = np.arange(CHASE_LINKS, dtype=np.uint32)
    links *= np.uint32(1103515245)  # wraps modulo 2**32
    links += np.uint32(12345)
    links &= np.uint32(CHASE_LINKS - 1)
    return memoryview(links)


def probe(links: memoryview, start: int) -> int:
    """Fixed work; it allocates nothing the cyclic collector tracks, so the
    heap the workload leaves behind does not slow it. Returns where the
    chase stopped, for the next probe to go on from."""
    table: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + i
    at = start
    for _ in range(CHASE_STEPS):
        at = links[at]
    return at


class HostSpeed:
    """Samples the probe on a wall-clock timer while the context is open.

    ``spent_wall`` and ``spent_cpu`` add up the probes' own time, for
    callers to take out of the intervals they measure; ``mark`` before and
    after an interval gives the span of its samples, and ``scales`` the
    wall and CPU scale factors of each span.
    """

    def __init__(self) -> None:
        self._links = chase_table()
        self._at = 0
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, signum: int | None = None, frame: object = None) -> None:
        c0, t0 = process_time(), perf_counter()
        self._at = probe(self._links, self._at)
        wall, cpu = perf_counter() - t0, process_time() - c0
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.spent_wall += wall
        self.spent_cpu += cpu

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.wall)

    def scales(self, spans: list[tuple[int, int]]) -> list[tuple[float, float]]:
        """Wall and CPU scale factors for each span of samples, widened
        around its middle to LOCAL_SAMPLES when it holds fewer."""
        while len(self.wall) < LOCAL_SAMPLES:
            self._sample()
        out = []
        for lo, hi in spans:
            if hi - lo < LOCAL_SAMPLES:
                lo = min(max(0, (lo + hi - LOCAL_SAMPLES) // 2), len(self.wall) - LOCAL_SAMPLES)
                hi = lo + LOCAL_SAMPLES
            out.append((NOMINAL_S / statistics.median(self.wall[lo:hi]),
                        NOMINAL_S / statistics.median(self.cpu[lo:hi])))
        return out
