"""The per-step noise draw: the reference for :class:`shellsde.noise.SlabStream`.

:func:`window_layout` derives, from the model's offsets alone, the window
slab: the (n_star, d, width, P) layout that holds every noise shell an
interaction can read, and the runs of it that a step draws.
:func:`two_point` turns one step's raw 64-bit words into +-sqrt(dt)
increments, bit by bit with shifts and masks (not ``np.unpackbits``).
:func:`fill_slab` draws one step's increments into a window slab, run by
run, from one :func:`two_point` draw.  :func:`pack` copies a window
slab's read cells into a stepper's packed (cells, P) slab, and
:func:`fill_stepper` does both.  :class:`PerStepStream` has the stream's
interface and draws each step with :func:`two_point`, so an ensemble run
with it patched in for ``sde.SlabStream`` is the reference ensemble: the
same numbers.
"""
import math

import numpy as np


def window_layout(spec, N: int, weighted: bool):
    """``(lo, width, runs)``: the window slab of ``spec`` on shells 1..N and the runs a step draws.

    Window cell ``m - lo`` holds noise shell m, for every shell 1 - max|h|
    .. N + max|h| that an offset can reach.  A channel row reads the noise
    shells n + h of each interaction aliased to it that is active at shell
    n (k != 0, a non-zero bilinear map, and shells n, n + r and n + h
    exist) and, with ``weighted``, the Girsanov ledger's shells max(1, 1 +
    h)..N of its representative.  ``runs`` are (row, component, start,
    stop) window cells: each row's read cells merged where they overlap or
    touch, the same runs for every component, in row, then component, then
    shell order.  Drawn in that order, they are a stepper's packed slab.
    """
    lo = 1 - spec.h_max_abs
    width = N + spec.h_max_abs - lo + 1
    star = spec.star_ids()
    read = {}
    for it in spec.interactions:
        nlo, nhi = max(1, 1 - it.r, 1 - it.h), min(N, N - it.r)
        if nlo <= nhi and it.k != 0.0 and it.B.entries.any():
            row = star.index(it.iid if it.iid in spec.istar else spec.pairing[it.iid])
            read.setdefault(row, set()).update(range(nlo + it.h - lo, nhi + it.h - lo + 1))
    if weighted:
        for row, iid in enumerate(star):
            mlo = max(1, 1 + spec.interaction(iid).h)
            read.setdefault(row, set()).update(range(mlo - lo, N - lo + 1))
    runs = []
    for row in sorted(read):
        merged = []
        for m in sorted(read[row]):
            if merged and m == merged[-1][1]:
                merged[-1][1] += 1
            else:
                merged.append([m, m + 1])
        runs += [(row, c, start, stop) for c in range(spec.d) for start, stop in merged]
    return lo, width, runs


def stepper_layout(stepper):
    """:func:`window_layout` of ``stepper``'s model and truncation, weighted when it keeps a ledger."""
    return window_layout(stepper.table.spec, stepper.table.N, stepper.ledger_rows is not None)


def two_point(rng: np.random.Generator, n: int, sqrt_dt: float) -> np.ndarray:
    """The next n increments of ``rng``: ceil(n / 64) raw words, increment i +-sqrt_dt by bit i mod 64 of word i div 64."""
    words = rng.bit_generator.random_raw(-(-n // 64))
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return np.where(bits.ravel()[:n] == 1, sqrt_dt, -sqrt_dt)


def fill_slab(rng: np.random.Generator, out: np.ndarray, runs, sqrt_dt: float) -> None:
    """Draw one step's increments into the read cells of ``out``, in place.

    ``out`` is a window slab in the (n_star, d, width, P) layout and
    ``runs`` its (row, component, start, stop) runs, as given by
    :func:`window_layout`.  The step's increments come from one
    :func:`two_point` draw and fill the runs in the order given, each run
    (stop - start, P) in C order; cells outside the runs are left as they
    are.
    """
    P = out.shape[-1]
    values = two_point(rng, P * sum(stop - start for _, _, start, stop in runs), sqrt_dt)
    pos = 0
    for row, c, start, stop in runs:
        out[row, c, start:stop] = values[pos : pos + (stop - start) * P].reshape(stop - start, P)
        pos += (stop - start) * P


def pack(stepper, window: np.ndarray) -> None:
    """Write the cells the stepper reads from the (n_star, d, width, P) slab ``window`` into ``stepper.dW``."""
    pos = 0
    for row, c, start, stop in stepper_layout(stepper)[2]:
        stepper.dW[pos : pos + stop - start] = window[row, c, start:stop]
        pos += stop - start
    assert pos == len(stepper.dW), "the packed slab and the window runs differ in size"


def fill_stepper(stepper, rng: np.random.Generator) -> np.ndarray:
    """Draw the stepper's next slab from ``rng`` into a zero window slab, pack it and return the window slab."""
    _, width, runs = stepper_layout(stepper)
    spec = stepper.table.spec
    window = np.zeros((len(spec.star_ids()), spec.d, width, stepper.dW.shape[1]))
    fill_slab(rng, window, runs, math.sqrt(stepper.dt))
    pack(stepper, window)
    return window


class PerStepStream:
    """``SlabStream``'s interface: each step's slab is one :func:`two_point` draw."""

    def __init__(self, rng, shape, dt):
        self.rng, self.shape, self.sqrt_dt = rng, shape, math.sqrt(dt)

    def fill(self):
        return two_point(self.rng, math.prod(self.shape), self.sqrt_dt).reshape(self.shape)
