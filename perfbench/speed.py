"""Machine-speed calibration on the server's core.

On a shared machine the speed of one core drifts by tens of percent
within seconds, and the two cores drift independently: a fixed Python
loop timed on the server's core tracks the server's own speed (r ≈ 0.9
in 0.3-second windows), while the same loop on the other core does not
(r ≈ 0).  So the server is pinned to one core and the client to the
other, and between segments of a phase, while the server is idle, the
client hops onto the server's core and times :func:`kernel`.  Each time
the benchmark reports is scaled by ``REFERENCE_S / sample``: it reads as
the time the work would have taken with that core at its reference speed.
The raw, unscaled figures are kept in the run's report line.

The kernel imports nothing from the program under test, so a change to
the program cannot move it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: the kernel's time on one core of a 2-vCPU Intel Xeon VM (2.0 GHz) under
#: the neighbour load seen when this was set; an idle neighbour makes it
#: about 4.7 ms, so scaled times there read about 1.7x the raw ones
REFERENCE_S = 0.008
#: kernel runs per sample; the sample is their mean
RUNS = 3

_rng = np.random.default_rng(0)
_ROWS = _rng.random((64, 24))
_COLS = _rng.random((160, 24))


def kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls, like a request."""
    total = 0.0
    for i in range(1000):
        scores = {j: (i * j) % 97 for j in range(20)}
        total += sum(sorted(scores.values(), reverse=True)[:5])
        total += float(np.maximum(_ROWS[i % 64], _COLS[i % 160]).sum())
    return total


def split_cores() -> tuple[set[int], set[int]]:
    """``(server cores, client cores)``: the last allowed core for the server."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return set(cores), set(cores)
    return {cores[-1]}, set(cores[:-1])


class Speed:
    """Samples the server core's speed from the client process."""

    def __init__(self) -> None:
        self.server_cores, self.client_cores = split_cores()
        #: wall and CPU seconds spent sampling (kept out of the client's share)
        self.wall = 0.0
        self.cpu = 0.0
        self.samples: list[float] = []
        os.sched_setaffinity(0, self.client_cores)

    def pin_server(self) -> None:
        """``preexec_fn`` of a server process: run on the server cores only."""
        os.sched_setaffinity(0, self.server_cores)

    def sample(self) -> float:
        """Kernel seconds on the server's core (mean of ``RUNS``)."""
        wall, cpu = time.perf_counter(), time.process_time()
        os.sched_setaffinity(0, self.server_cores)
        try:
            times = []
            for _ in range(RUNS):
                started = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - started)
        finally:
            os.sched_setaffinity(0, self.client_cores)
        self.wall += time.perf_counter() - wall
        self.cpu += time.process_time() - cpu
        value = statistics.fmean(times)
        self.samples.append(value)
        return value


def scale(samples: list[float]) -> float:
    """The factor for work done while ``samples`` were taken around it."""
    return REFERENCE_S / statistics.fmean(samples)
