"""Host-speed probe: scales a measured time to a fixed reference host speed.

The benchmark runs on shared virtual machines whose vCPUs slow down by up to
about 2x for stretches of a few seconds, in CPU time as well as wall time,
and the two vCPUs do so independently. A probe on another CPU or before and
after a call therefore misses what the call ran at. SpeedProbe samples the
speed on the measured thread itself, while the call runs: a timer in process
CPU time (SIGPROF) runs a fixed probe kernel in the main thread, timed by
that thread's CPU clock, so waiting for a CPU does not count. A few samples
are taken just before and just after the call as well.

A time t measured while the samples had median p (the probe's own share of
t taken out) is reported as t * REF_PROBE_S / p: the seconds the same work
would take on a host where the kernel takes REF_PROBE_S. The correction is
partial, because the probe does not slow down exactly as the program does:
over ten seeds on a 2-vCPU host, raw run totals spread by up to 21% and
scaled ones by up to 9% (README.md, "Measured steadiness").
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_PROBE_S = 0.0015  # probe kernel time at the reference speed
INTERVAL_S = 0.05  # process CPU time between samples during the call
BRACKET = 5  # samples taken just before and just after the call


class SpeedProbe:
    """Samples host speed on the calling (main) thread during a `with` block."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        self._a = a @ a.T + 12.0 * np.eye(12)
        self._b = rng.standard_normal(12)
        self._x = rng.standard_normal((64, 32))
        self._big = rng.standard_normal(500_000)  # 4 MB, about the size of a large cache
        self._out = np.empty_like(self._big)
        self.samples: list[float] = []
        self.inside_s = 0.0  # wall time of the samples taken inside the block
        self.inside_cpu_s = 0.0  # CPU time of the same samples
        self._inside = False

    def _kernel(self) -> int:
        """Fixed work: small numpy calls and interpreted arithmetic, then one
        pass over a cache-sized array, so the probe slows both when the core
        is shared and when the cache or memory is."""
        acc = 0
        for _ in range(20):
            np.linalg.solve(self._a, self._b)
            (self._x * 1.0001).sum(axis=0)
            for i in range(200):
                acc += i * i % 7
        np.multiply(self._big, 1.0001, out=self._out)
        return acc + int(self._out.sum() > 0)

    def sample(self) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        self._kernel()
        cpu = time.thread_time() - c0
        self.samples.append(cpu)
        if self._inside:
            self.inside_s += time.perf_counter() - w0
            self.inside_cpu_s += cpu

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self.inside_s, self.inside_cpu_s = 0.0, 0.0
        self.burst(BRACKET)
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.siginterrupt(signal.SIGPROF, False)
        self._inside = True
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._inside = False
        self.burst(BRACKET)

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def factor(self) -> float:
        """REF_PROBE_S over the median of all samples so far: 1 at the
        reference speed, below 1 on a slower host."""
        return REF_PROBE_S / statistics.median(self.samples)
