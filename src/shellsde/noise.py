"""Aliased Brownian increment generation for shell-model simulations.

One time step consumes a slab of Gaussian increments indexed by
(independent channel, shell window, component).  Only one representative
per interaction pair carries fresh randomness; the partner channel reads
the identical values, which is exactly the aliasing that makes the noise
conservative.

Generators are keyed by (seed, stream, step) through ``numpy``'s
SeedSequence.  An ensemble keys one generator per block of paths, once, as
(seed, block, 0), and draws that block's slabs from it in step order with
:func:`fill_slab`, which writes only the cells the step kernel reads.  So
ensembles are reproducible for a fixed block size and can be split across
workers without shared state.  :func:`sample_slab` draws one whole slab
from its own key.  Increments, not path values, are the primitive:
integrators only ever consume increments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ModelSpec

__all__ = [
    "MAX_SHELLS",
    "check_shells",
    "slab_rng",
    "fill_slab",
    "sample_slab",
    "NoiseSlab",
]

# Guard against overflow of lambda**(2N) scales downstream.
MAX_SHELLS = 64


def check_shells(N: int) -> None:
    """Reject truncation levels beyond :data:`MAX_SHELLS`."""
    if N > MAX_SHELLS:
        raise ValueError(f"window overflow: N = {N} exceeds configured maximum {MAX_SHELLS}")


def slab_rng(seed: int, stream: int = 0, step: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream, step); pure function of its key."""
    if seed < 0 or stream < 0 or step < 0:
        raise ValueError("seed, stream and step must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, stream, step]))


def fill_slab(rng: np.random.Generator, out: np.ndarray, cells, sqrt_dt: float) -> None:
    """Draw one step's increments into the read cells of ``out``, in place.

    ``out`` is a slab in the step kernel's (n_star, d, window, P) layout and
    ``cells`` its (row, component, start, stop) runs, as given by
    ``CoefficientTable.slab_cells``.  Each run takes one ``standard_normal``
    call, in the order given, scaled to variance dt; cells outside the runs
    are left as they are.
    """
    for row, c, start, stop in cells:
        view = out[row, c, start:stop]
        rng.standard_normal(out=view)
        view *= sqrt_dt


@dataclass(frozen=True, eq=False)
class NoiseSlab:
    """Gaussian increments for one time step over the active shell window.

    ``increments`` has shape (paths, n_star, window, d) with variance dt per
    component.  ``lookup`` resolves aliased channels: asking for a non
    representative id returns bit-identical values of its partner.
    """

    spec: ModelSpec
    dt: float
    lo: int
    increments: np.ndarray

    @property
    def hi(self) -> int:
        return self.lo + self.increments.shape[2] - 1

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    def _row(self, iid: str) -> int:
        star = self.spec.star_ids()
        if iid in self.spec.istar:
            return star.index(iid)
        return star.index(self.spec.pairing[iid])

    def lookup(self, iid: str, m: int) -> np.ndarray:
        """Increment of channel ``iid`` at shell index ``m`` (d-vector per path)."""
        if m < self.lo or m > self.hi:
            raise IndexError(f"shell index {m} outside slab window [{self.lo}, {self.hi}]")
        out = self.increments[:, self._row(iid), m - self.lo, :]
        return out[0] if self.paths == 1 else out


def sample_slab(
    spec: ModelSpec,
    N: int,
    dt: float,
    rng_state,
    paths: int = 1,
) -> NoiseSlab:
    """Draw one slab covering every index reachable from shells 1..N.

    ``rng_state`` may be an integer seed, a (seed, stream, step) tuple or a
    ready ``numpy`` Generator.  Identical states produce identical slabs.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    check_shells(N)
    if isinstance(rng_state, np.random.Generator):
        rng = rng_state
    elif isinstance(rng_state, (tuple, list)):
        rng = slab_rng(*rng_state)
    else:
        rng = slab_rng(int(rng_state))
    reach = spec.h_max_abs
    lo, hi = 1 - reach, N + reach
    shape = (paths, len(spec.istar), hi - lo + 1, spec.d)
    increments = rng.standard_normal(shape) * math.sqrt(dt)
    return NoiseSlab(spec=spec, dt=dt, lo=lo, increments=increments)
