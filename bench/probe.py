"""A machine-speed probe that runs alongside the timed stages.

On a few CPUs shared with other tenants the same code runs 20% faster or
slower from one minute to the next, and a median over one run's rounds does
not average that out.  The probe times a fixed reference computation every
``PERIOD`` seconds while a round runs, from a ``SIGALRM`` handler that Python
runs in the main thread between two bytecodes of the program, so its samples
interleave with the program's own work.  A stage's time, less the probes
that ran inside it, divided by the mean probe time during the stage is its
time in units of the reference computation (``ref``): a slower machine
stretches both alike, a slower program only the first.  The program's own
work runs in the main thread (one BLAS thread, one Monte-Carlo worker), so
the probes see the speed it ran at.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD = 0.25          # seconds between probes; each takes about 10 ms


def reference(data: np.ndarray, scratch: np.ndarray) -> int:
    """The fixed work a probe times: a Python integer loop and NumPy array ops.

    Its arrays (64 KB) stay in cache, so what the program leaves in the
    cache hardly changes the probe's time.
    """
    s = 0
    for i in range(100_000):
        s += i * i % 7
    for _ in range(60):
        np.multiply(data, data, out=scratch)
        s += int(scratch.sum() > 0)
    return s


class SpeedProbe:
    """Reusable context: samples the reference time while it is entered.

    ``samples`` holds every probe's start and duration, so a caller can take
    the probes off an interval it timed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._data = np.linspace(0.0, 1.0, 4096)
        self._scratch = np.empty_like(self._data)
        self._inside = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._inside:        # a probe delayed past the next tick
            return
        self._inside = True
        try:
            t0 = perf_counter()
            reference(self._data, self._scratch)
            self.samples.append((t0, perf_counter() - t0))
        finally:
            self._inside = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
