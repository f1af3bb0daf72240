"""Machine-speed probe, for timings that do not move with the machine's load.

The host this benchmark was built on runs its vCPUs at two or three speeds,
in spells of seconds to minutes, as neighbouring load comes and goes: a
fixed kernel takes 1.0x, 1.5x or up to 2.5x its fastest time, in CPU time
as well as wall time.  A pass of a workload is timed together with that
speed.  While a pass runs, a timer signal every INTERVAL_S runs a fixed
probe kernel in the same thread and records how long it took.  The time of
any stretch of the pass is then rescaled to the reference speed, at which
one probe takes REF_PROBE_S:

    t_ref = sum over the stretch's pieces of  duration * REF_PROBE_S / probe

where each piece between two probes uses the (smoothed) probe time at its
end, and the probes' own time is left out.  On the machine described in
README.md this cut the coefficient of variation of repeated short runs
from 0.20 to 0.03.  The probe kernel is the benchmark's own code and calls
nothing in lsbench, so a change to the program moves the workload and not
the probe.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# Probe time that defines the reference speed: about the probe's time when
# the reference machine runs at its fastest.
REF_PROBE_S = 380e-6
SMOOTH = 5  # probes in the running median that smooths single slow probes

_rng = np.random.default_rng(1)
_A = _rng.standard_normal((8, 8)) + 8 * np.eye(8)
_B = np.ones(8)
_V = _rng.uniform(0.1, 1.0, 12)
_IDX = _rng.integers(0, 8, 48)
_W = _rng.standard_normal(48)
_TEXT = "\n".join(f"M{i} n{i % 7} g{i % 5} s{i % 3} 0 NCH W={i + 1}u L=0.18u"
                   for i in range(30))


def kernel() -> float:
    """Fixed work of the same kinds as the program's: netlist-like text
    parsed into dicts, interpreted loops, and many numpy calls on arrays of
    a few elements.  The text part tracks how the machine's speed moves
    the front end and compile of dc_corners, the numpy part how it moves
    the transient engine; neither alone tracks both."""
    s = 0.0
    for _ in range(3):
        devices = {}
        for line in _TEXT.split("\n"):
            f = line.split()
            kv = dict(p.split("=") for p in f[6:])
            devices[f[0]] = (tuple(f[1:5]), f[5], {k: float(v[:-1]) for k, v in kv.items()})
        s += len(devices)
    for i in range(12):
        s += float(np.linalg.solve(_A, _B)[0])
        for j in range(30):
            s += j * 1e-3
    for i in range(6):
        x = _V * (1.0 + 1e-3 * i)
        g = np.log1p(np.exp(np.minimum(3.0 * x, 30.0)))
        f = np.bincount(_IDX, weights=_W * (g * g * np.maximum(x, 0.2))[_IDX % 12],
                        minlength=8)
        s += float(np.max(np.abs(np.linalg.solve(_A + np.diag(f), -f))))
    return s


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def burst(count: int = 30, warmup: int = 5) -> float:
    """Median probe time over `count` back-to-back probes."""
    for _ in range(warmup):
        kernel()
    return statistics.median(timed_kernel() for _ in range(count))


class Probe:
    """Runs the probe kernel every INTERVAL_S inside a `with` block, on the
    main thread through SIGALRM, and rescales stretches of that block to
    the reference speed."""

    def __init__(self):
        self._ends, self._durs = [], []
        self._old = None

    def _fire(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._ends.append(t1)
        self._durs.append(t1 - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        self._fire()  # so that every stretch has a probe to go by
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._fire()
        self.finish()
        return False

    def finish(self):
        """Build the rescaling from the probes recorded so far."""
        ends = np.asarray(self._ends)
        durs = np.asarray(self._durs)
        half = SMOOTH // 2
        smooth = np.array([np.median(durs[max(0, i - half): i + half + 1])
                           for i in range(len(durs))])
        self.ends, self.starts = ends, ends - durs
        self.prev_ends = np.concatenate(([-np.inf], ends[:-1]))
        self.scale = REF_PROBE_S / smooth

    @property
    def samples(self) -> int:
        return len(self._durs)

    @property
    def median_probe_s(self) -> float:
        return statistics.median(self._durs)

    @property
    def probe_s(self) -> float:
        """Total time spent in probes."""
        return float(sum(self._durs))

    def rescale(self, a: float, b: float) -> float:
        """Seconds at the reference speed of the stretch [a, b] of the
        block, without the probes that ran inside it."""
        seg = np.clip(np.minimum(b, self.ends) - np.maximum(a, self.prev_ends), 0, None)
        probes = np.clip(np.minimum(b, self.ends) - np.maximum(a, self.starts), 0, None)
        tail = max(0.0, b - max(a, self.ends[-1]))
        return float(np.dot(seg - probes, self.scale) + tail * self.scale[-1])
