"""Machine-speed probe, so that timings from a shared host compare.

On a host shared with other tenants the same pure-Python work can run at
speeds that differ by 2x, switching within a second, on each vCPU on its
own (runs/ten-seeds.json keeps the probe durations of every run).  Every
timing the benchmark reports is therefore scaled to a reference speed: a
fixed exact-arithmetic kernel, independent of topzeta, is timed before
and after each timed interval, and the interval is multiplied by
REFERENCE_PROBE_S over the mean of those two probes.  Operations that
run in-process run back to back instead, probed every PROBE_INTERVAL_S
by a timer; each stretch between two probes is scaled on its own, and
the probes' own time is left out.  run.py pins the benchmark, and the
children it starts, to one vCPU, so that the probes run where the timed
work runs.  Raw timings are kept in each run's metadata.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
from fractions import Fraction
from time import perf_counter

PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.05
# the probe's duration at reference speed; about the fast state of a
# shared 2-vCPU x86-64 virtual machine running CPython 3.11
REFERENCE_PROBE_S = 1.0e-3


def probe_kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i)
    p = [1]
    for a in range(1, 30):
        q = [0] * (len(p) + 1)
        for j, c in enumerate(p):
            q[j] += c * a
            q[j + 1] += c * (a + 1)
        p = q
    return acc.numerator % 7 + p[-1] % 7


class SpeedProbe:
    """Speed probes on one timeline, as (start, end, duration) cuts; the
    duration is the best of PROBE_REPEATS kernel runs."""

    def __init__(self):
        self.cuts: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = perf_counter()
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            probe_kernel()
            best = min(best, perf_counter() - t0)
        self.cuts.append((start, perf_counter(), best))

    def factor(self) -> float:
        """Scale for the interval between the last two samples."""
        return REFERENCE_PROBE_S / ((self.cuts[-1][2] + self.cuts[-2][2]) / 2)

    @contextlib.contextmanager
    def every(self, interval_s: float):
        """Sample every interval_s while the with block runs, from a
        SIGALRM handler; for blocks on the main thread whose work runs in
        this process."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scale(self, spans: list[tuple[float, float]]) -> tuple[list, list]:
        """Raw and scaled seconds of each (start, end) span, where a sample
        precedes the first span and follows the last.  Probe time inside a
        span is left out; each stretch between two probes is scaled by
        REFERENCE_PROBE_S over the mean of their durations."""
        cuts = sorted(self.cuts)
        starts = [c[0] for c in cuts]
        raw, scaled = [], []
        for t0, t1 in spans:
            i = bisect.bisect_right(starts, t0) - 1
            k = bisect.bisect_left(starts, t1)
            inner = cuts[i + 1:k]
            begins = [t0] + [end for _, end, _ in inner]
            ends = [start for start, _, _ in inner] + [t1]
            probes = [c[2] for c in cuts[i:k + 1]]
            raw.append(sum(e - b for b, e in zip(begins, ends)))
            scaled.append(sum(
                (e - b) * REFERENCE_PROBE_S / ((p + q) / 2)
                for b, e, p, q in zip(begins, ends, probes, probes[1:])))
        return raw, scaled
