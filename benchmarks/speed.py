"""Reference kernels that track the speed of the machine during a run.

On a shared virtual machine the speed of a core drifts.  In 10 s windows on
a 2-vCPU Intel Xeon virtual machine (2 MB L2), the same GOY ensemble call
took from 0.21 s to 0.34 s, and a jump-chain call from 0.13 s to 0.22 s.
Raw medians of runs made minutes apart then differ by more than any useful
bound.  So the runner times two fixed kernels every 0.5 s through the timed
loop, and scales each operation's wall time to what it would take at the
reference speed.

Array code and interpreter-bound code drift by different amounts, so there
are two kernels:

- ``numeric_kernel`` is a keyed normal draw, an einsum contraction,
  element-wise arithmetic and a small symmetric eigensolve, on the array
  sizes of the ensembles.
- ``python_kernel`` is a loop of scalar draws, searches and list appends,
  like the jump chain's.

A workload's time at the reference speed is its wall time divided by
``f * numeric / NUMERIC_S + (1 - f) * python / PYTHON_S``, where f is the
share of the workload's time spent in large-array numpy work.  Each workload
states f from its traced profile.  Neither kernel imports shellsde, so a
change to the program leaves the reference unchanged.
"""
from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

NUMERIC_S = 0.015  # numeric_kernel's time at the reference speed, in seconds
PYTHON_S = 0.012  # python_kernel's time at the reference speed, in seconds
PROBE_EVERY_S = 0.5  # interval between two probes in a timed loop, in seconds

_B = np.random.default_rng(0).standard_normal((2, 2, 2))
_X = np.random.default_rng(1).standard_normal((5000, 8, 2))
_Q = np.random.default_rng(2).standard_normal((60, 60))
_Q = _Q + _Q.T
_RATES = 4.0 ** np.arange(1, 41)
_CUM = [np.array([0.2, 1.0])] * 40
_TARGETS = [np.array([n - 1, n + 1]) for n in range(1, 41)]


def numeric_kernel() -> float:
    draw = np.random.default_rng(np.random.SeedSequence([7, 1, 2])).standard_normal((5000, 2, 14, 2))
    t = np.einsum("abc,pnb,pnc->pna", _B, _X, draw[:, 0, :8])
    t = np.exp(-0.5 * t * t) + _X
    return float(t.sum() + np.linalg.eigh(_Q)[0][0])


def python_kernel() -> float:
    rng = np.random.default_rng(5)
    t, pos, states = 0.0, 1, []
    for _ in range(2_000):
        t += -math.log(rng.random()) / _RATES[pos - 1]
        pos = int(_TARGETS[pos - 1][np.searchsorted(_CUM[pos - 1], rng.random(), side="right")])
        pos = pos if 1 <= pos <= 40 else 1
        states.append(pos)
    return t + float(np.array(states).sum())


def _time(kernel) -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class SpeedTrack:
    """Probes the machine's speed every PROBE_EVERY_S while active, also inside long operations.

    Used as a context manager around a timed loop.  An interval timer's
    signal runs the probe between two byte codes of the main thread, so a
    9 s ``triangulate`` call holds about 18 probes; :meth:`scaled` takes
    their run time back out of the operation.
    """

    def __init__(self):
        self.probes: list[tuple[float, float, float, float]] = []  # (start, end, numeric s, python s)

    def _probe(self, *_signal_args) -> None:
        t0 = perf_counter()
        numeric, python = _time(numeric_kernel), _time(python_kernel)
        self.probes.append((t0, perf_counter(), numeric, python))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scaled(self, start: float, end: float, numeric_share: float) -> tuple[float, float]:
        """Raw and reference-speed duration of the operation that ran over [start, end].

        The raw duration excludes the probes that ran inside it.  The
        slowdown is the mean over those probes, the last one before
        ``start`` and the first one after ``end``.
        """
        inside = [p for p in self.probes if start <= p[0] and p[1] <= end]
        near = [p for p in self.probes if p[1] < start][-1:] + inside + [p for p in self.probes if p[0] > end][:1]
        raw = end - start - sum(p[1] - p[0] for p in inside)
        slowdown = sum(numeric_share * p[2] / NUMERIC_S + (1.0 - numeric_share) * p[3] / PYTHON_S for p in near)
        return raw, raw / (slowdown / len(near))

    def speed_ratio(self) -> float:
        """Median speed over the run relative to the reference, each kernel weighted equally."""
        ratios = sorted(2.0 / (p[2] / NUMERIC_S + p[3] / PYTHON_S) for p in self.probes)
        return ratios[len(ratios) // 2]
