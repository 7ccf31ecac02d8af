"""Speed adjustment of timings on a machine whose CPU speed drifts.

The machines this benchmark was tuned on (2 vCPUs shared with other tenants)
run the same code up to 2x slower for seconds to minutes at a time, which
moves a run's median by far more than any bound worth gating on.  So while a
run measures, a timer signal interrupts it every PROBE_EVERY_S to time a
fixed reference computation, the probe, also in the middle of a long call.
An operation's net time is its wall time minus the probes inside it.  Its
adjusted time is its net time times REF_PROBE_S over the median time of the
probes inside it and of PAD_PROBES probes on either side: the time it would
have taken at the speed at which the probe takes REF_PROBE_S.  The probe
does the same kinds of work as spqs, so the ratio cancels most of the drift;
it is benchmark code and does not change with the program, so a faster
program still reads faster.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.1
PAD_PROBES = 2
REF_PROBE_S = 0.005
_PROBE_MATRIX = np.random.default_rng(12345).standard_normal((6, 6))


def probe() -> float:
    """The reference computation: small dense linear algebra, interpreter
    arithmetic, and building and running an argument parser.  No single
    kind of work tracked both the numpy-bound and the interpreter-bound
    operations of the workloads; this mix tracked each of them."""
    a = _PROBE_MATRIX
    acc = 0.0
    for k in range(40):
        w = np.linalg.eigvals(a)
        acc += float(np.abs(np.linalg.det(a @ a.T + k))) + float(np.angle(w).sum())
    for i in range(10_000):
        acc += i * i
    for k in range(2):
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            p = sub.add_parser(name)
            p.add_argument("path")
            p.add_argument("--level", type=int, default=0)
        acc += parser.parse_args(["b", "x.txt", "--level", str(k)]).level
    return acc


class Timeline:
    """Probes taken so far, as (start, end) in clock time, in time order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._probing = False

    def record(self) -> None:
        if self._probing:  # a timer tick during a slow probe
            return
        self._probing = True
        start = self.clock()
        probe()
        self.starts.append(start)
        self.ends.append(self.clock())
        self._probing = False

    @contextlib.contextmanager
    def sampling(self):
        """Take a probe every PROBE_EVERY_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.record())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _around(self, start: float, end: float) -> range:
        """Indices of the probes that overlap [start, end] and of the
        PAD_PROBES probes on either side."""
        first = max(bisect.bisect_right(self.ends, start) - PAD_PROBES, 0)
        last = min(bisect.bisect_left(self.starts, end) + PAD_PROBES - 1, len(self.starts) - 1)
        return range(first, last + 1)

    def net(self, start: float, end: float) -> float:
        """end - start minus the probe time inside [start, end]."""
        inside = sum(
            max(0.0, min(self.ends[i], end) - max(self.starts[i], start))
            for i in self._around(start, end)
        )
        return end - start - inside

    def factor(self, start: float, end: float) -> float:
        """REF_PROBE_S over the median time of the probes around and inside
        [start, end]."""
        around = self._around(start, end)
        if not around:
            raise RuntimeError("no probe recorded")
        return REF_PROBE_S / statistics.median(self.ends[i] - self.starts[i] for i in around)

    def adjusted(self, start: float, end: float) -> float:
        """Net time of [start, end] at the speed where the probe takes
        REF_PROBE_S."""
        return self.net(start, end) * self.factor(start, end)
