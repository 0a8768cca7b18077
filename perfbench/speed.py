"""Timings at a reference CPU speed.

On the shared 2-core host the benchmark was written on, the same code ran
up to 2x slower for stretches of seconds to minutes. The kernel recorded no
steal time and the process's CPU time grew as fast as wall time, so the
slowdown was in the CPU itself (another tenant on the same physical core).
A fixed loop slowed down with the program: over two minutes of back-to-back
batch routes, the wall time spread (IQR / median) 0.26 and the wall time
scaled by the loop's speed 0.05.

``SpeedMeter`` therefore samples the CPU's speed while an untraced run
measures. Every ``INTERVAL_S`` a SIGALRM handler runs ``PROBE_STEPS`` steps
of a fixed interpreter loop, which allocates nothing and so does not depend
on the program's heap, and records how long they took. ``reference_s``
turns measured intervals into seconds at the reference speed:

    (wall - probe time inside the interval) * mean(REFERENCE_PROBE_S / probe) ** EXPONENT

over the probes taken in the interval, widened by ``PAD_S`` on each side
(and at least to the nearest probe on each side) so that a
millisecond-long interval still has probes to go by. At the
reference speed, where the loop takes ``REFERENCE_PROBE_S``, the figure
equals the wall time; ``REFERENCE_PROBE_S`` is about the loop's time in the
fast state of that host. A program that does more work reads slower at any
host speed, and a host that slows down reads the same.
"""

from __future__ import annotations

import contextlib
import signal
import time
from itertools import repeat

import numpy as np

INTERVAL_S = 0.02
PROBE_STEPS = 2000
REFERENCE_PROBE_S = 65e-6
PAD_S = 0.1
#: The program slowed somewhat more than the loop. Over 15 runs of
#: fit-direct and 25 of route-online-cot, the slope of a timed interval's
#: log wall time against the log of the loop's mean speed was -1.0 to -1.16.
#: Of the exponents 0.8, 1.0, 1.1, 1.2 and 1.4, 1.2 gave the smallest
#: run-to-run spread (IQR / median of the run medians) on the fits (0.024),
#: the direct batch routes (0.043) and the CoT batch routes (0.033), and
#: 0.046 on the online p50, where 1.1 gave 0.030.
EXPONENT = 1.2


class SpeedMeter:
    def __init__(self) -> None:
        # (start, duration) per probe, appended by the signal handler.
        self._probes: list[tuple[float, float]] = []

    def _probe(self, signum, frame) -> None:
        b, c = 3, 5
        start = time.perf_counter()
        for _ in repeat(None, PROBE_STEPS):
            a = b * c
            a ^= b
        self._probes.append((start, time.perf_counter() - start))

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def reference_s(self, starts, ends) -> np.ndarray:
        """Seconds at the reference speed for each interval ``[start, end]``
        of ``time.perf_counter`` readings."""
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        # Copy first: the handler may append while numpy reads the list.
        probes = np.array(self._probes[:], dtype=float).reshape(-1, 2)
        t, p = probes[:, 0], probes[:, 1]
        cum_p = np.concatenate(([0.0], np.cumsum(p)))
        cum_speed = np.concatenate(([0.0], np.cumsum(REFERENCE_PROBE_S / p)))
        if not len(t):
            raise RuntimeError("no speed probes; is the meter running?")
        first, after = np.searchsorted(t, starts), np.searchsorted(t, ends)
        inside = cum_p[after] - cum_p[first]
        # The padded window, and at least the nearest probe on each side.
        lo = np.minimum(np.searchsorted(t, starts - PAD_S), np.maximum(first - 1, 0))
        hi = np.maximum(np.searchsorted(t, ends + PAD_S), np.minimum(after + 1, len(t)))
        speed = (cum_speed[hi] - cum_speed[lo]) / (hi - lo)
        return (ends - starts - inside) * speed**EXPONENT

    def summary(self) -> dict:
        p = np.array([d for _, d in self._probes[:]])
        return {
            "probes": len(p),
            "probe_us_quartiles": [float(q) for q in 1e6 * np.quantile(p, [0.25, 0.5, 0.75])] if len(p) else [],
            "reference_probe_us": 1e6 * REFERENCE_PROBE_S,
        }
