"""Elapsed time at a fixed reference CPU speed.

On a host whose CPUs are shared with other tenants, the same single-threaded
code can run 1.7x slower from one second to the next (measured on a 2-vCPU
KVM guest), and CPU time slows with it: the process is not descheduled, it
runs on a slower share of the core.  No regression bound survives that.
This clock runs a short fixed probe every `period` seconds from a SIGALRM
handler, in the measured process, and advances at `PROBE_REF_S / probe
duration` times the wall clock.  The probe's own time is excluded.
Intervals read on this clock are wall-clock intervals rescaled to the speed
at which the probe takes PROBE_REF_S; see README.md for the spreads it
removes and what it does not.
"""

from __future__ import annotations

import signal
import time

PROBE_REF_S = 0.00025  # the probe's duration at the reference speed; fixes the unit
_BIG = 3**2000
_MOD = 5**2500


def probe() -> float:
    """Duration of a fixed mix of interpreter loop and big-integer work."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2500):
        s += i * i
    x = _BIG
    for i in range(25):
        x = (x * 7 + i) % _MOD
    return time.perf_counter() - t0


class ReferenceClock:
    def __init__(self, period: float = 0.02):
        self.period = period
        self.samples: list[float] = []
        # (reference seconds at `last`, wall time `last`, probe duration there),
        # replaced in one assignment so that now() never mixes two ticks
        self._state = (0.0, time.perf_counter(), probe())
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.sync()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        d = probe()
        virtual, last, prev = self._state
        self.samples.append(d)
        # the interval since the last probe ran at roughly the mean of its end speeds
        virtual += (t - last) * PROBE_REF_S * 2.0 / (prev + d)
        self._state = (virtual, time.perf_counter(), d)

    def sync(self) -> None:
        """Probe now, so that a short interval starting or ending here is read at its own speed."""
        self._tick()

    def now(self) -> float:
        virtual, last, d = self._state
        return virtual + (time.perf_counter() - last) * PROBE_REF_S / d

    def stats(self) -> dict:
        """How far the host's speed was from the reference while the clock ran."""
        probes = sorted(self.samples) or [self._state[2]]
        mid = probes[len(probes) // 2]
        return {
            "probes": len(self.samples),
            "period_s": self.period,
            "probe_ref_s": PROBE_REF_S,
            "probe_median_s": mid,
            "probe_p10_s": probes[len(probes) // 10],
            "probe_p90_s": probes[9 * len(probes) // 10],
            "reference_over_wall": PROBE_REF_S / mid,
        }
