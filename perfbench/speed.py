"""Speed probe: corrects measured times for the machine's speed at the time.

On a shared virtual machine the same code runs up to about 1.6x slower for
stretches of one to many seconds, and the stretches differ from vCPU to
vCPU, so a monitor in another process does not see them. The probe samples
the speed of the benchmark's own thread instead: a timer signal interrupts
the workload every INTERVAL_S, and the handler times a fixed reference
kernel (a pure-Python loop, small dense eigensolves and one batched one, the
same mix as dephaser's own work). The probe's own time is taken out of every
measurement (`now()` is a clock that stops while the probe runs).

`scaled(t0, t1)` turns a measured interval into seconds at the reference
speed: each stretch of it is multiplied by REFERENCE_NS / (probe time near
that stretch), using the median of PROBE_WINDOW neighbouring probes. A run
on a slow stretch thus reports about what it would take at the reference
speed; a change that makes dephaser slower shows in full, because the
reference kernel does not use dephaser.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.1
PROBE_WINDOW = 5
# the kernel's time on the machine the benchmark was written on (2-CPU VM,
# Python 3.11, numpy 2.4 on one OpenBLAS thread) in its common state
REFERENCE_NS = 4_000_000


def _matrices():
    rng = np.random.default_rng(12345)
    out = []
    for n in (4, 9, 16):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out.append(a + a.conj().T)
    # a stack of 4 x 4 matrices, for batched eigensolves like the grid oracle's
    b = rng.standard_normal((400, 4, 4))
    return out, b + b.transpose(0, 2, 1)


_MATS, _STACK = _matrices()


def kernel() -> float:
    """Fixed reference work; returns a checksum so nothing is optimised away."""
    acc = 0
    table = {}
    for i in range(6000):
        acc += i * i % 7
        table[i & 63] = acc
    s = float(np.linalg.eigvalsh(_STACK)[:, 0].sum())
    for _ in range(5):
        for a in _MATS:
            w, v = np.linalg.eigh(a)
            s += float(w[-1]) + abs(complex((v.conj().T @ a @ v)[0, 0]))
            s += float(np.kron(a[:2, :2], a[:2, :2]).real.sum())
    return s + acc + len(table)


def spot_check(n: int = 5) -> tuple[float, int]:
    """Speed factor (REFERENCE_NS over the median of n kernels, after one
    warm-up call) and the ns the check took; for set-up, which is too short
    for the timer's probes."""
    begin = time.perf_counter_ns()
    kernel()
    cost = []
    for _ in range(n):
        t0 = time.perf_counter_ns()
        kernel()
        cost.append(time.perf_counter_ns() - t0)
    return REFERENCE_NS / float(np.median(cost)), time.perf_counter_ns() - begin


class SpeedProbe:
    def __init__(self):
        self.spent = 0  # ns taken by probes so far
        self.at: list[int] = []  # probe start, on the now() clock
        self.cost: list[int] = []  # probe duration, ns
        self._old = None
        self._begin = 0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        self.at.append(t0 - self.spent)
        self.cost.append(t1 - t0)
        self.spent += t1 - t0

    def now(self) -> int:
        """perf_counter_ns() minus the time spent in probes."""
        while True:
            s0 = self.spent
            t = time.perf_counter_ns()
            if self.spent == s0:
                return t - s0

    def start(self) -> None:
        self._begin = self.now()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def freeze(self) -> None:
        """Build the speed curve from the probes taken; call after stop()."""
        cost = np.array(self.cost, dtype=float)
        if cost.size == 0:
            raise RuntimeError("the speed probe never ran")
        half = PROBE_WINDOW // 2
        smooth = np.array([np.median(cost[max(0, k - half):k + half + 1]) for k in range(cost.size)])
        self._t = np.array(self.at, dtype=float)
        factor = REFERENCE_NS / smooth
        # cumulative integral of the factor over the now() clock, trapezoidal
        # between probes and constant before the first and after the last
        self._f = factor
        self._cum = np.concatenate(([0.0], np.cumsum(np.diff(self._t) * (factor[1:] + factor[:-1]) / 2)))

    def _integral(self, t: float) -> float:
        ts, f, cum = self._t, self._f, self._cum
        if t <= ts[0]:
            return (t - ts[0]) * f[0]
        if t >= ts[-1]:
            return cum[-1] + (t - ts[-1]) * f[-1]
        k = int(np.searchsorted(ts, t, side="right")) - 1
        dt = t - ts[k]
        slope = (f[k + 1] - f[k]) / (ts[k + 1] - ts[k])
        return cum[k] + dt * (f[k] + slope * dt / 2)

    def scaled(self, t0: int, t1: int) -> float:
        """Seconds at the reference speed for the now() interval [t0, t1]."""
        return (self._integral(t1) - self._integral(t0)) / 1e9

    def summary(self) -> dict:
        cost = np.array(self.cost, dtype=float) / 1e6
        return {
            "probes": int(cost.size),
            "probe_ms_p10_p50_p90": [float(x) for x in np.percentile(cost, [10, 50, 90])],
            "probe_share": self.spent / max(1, self.now() - self._begin + self.spent),
        }
