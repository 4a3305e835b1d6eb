"""Aliased two-point increment generation for shell-model simulations.

One time step consumes a slab of increments.  Only one representative per
interaction pair carries fresh randomness; the partner channel reads the
identical values, which is exactly the aliasing that makes the noise
conservative.

Each increment is +sqrt(dt) or -sqrt(dt) with equal probability, one
random bit per cell: the simplified weak Euler scheme (Kloeden & Platen,
*Numerical Solution of SDEs*, 1992, ch. 14).  It has the mean and
covariance of a Brownian increment, which is all that second moments of
the ensemble read, and weak order one on the nonlinear system.

Generators run numpy's SFC64 bit generator, keyed by (seed, stream, step)
through numpy's SeedSequence.  An ensemble keys one generator per block of
paths, once, as (seed, block, 0), and a :class:`SlabStream` draws that
block's slabs, each packed to the cells the step kernel reads, one whole
step after another, into one slab that the block's stepper reads:
ensembles are a pure function of (seed, block size) and can be split
across workers without shared state.  Increments, not path values, are the primitive: integrators
only ever consume increments.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_SHELLS",
    "check_shells",
    "slab_rng",
    "SlabStream",
]

# Guard against overflow of lambda**(2N) scales downstream.
MAX_SHELLS = 64


def check_shells(N: int) -> None:
    """Reject truncation levels beyond :data:`MAX_SHELLS`."""
    if N > MAX_SHELLS:
        raise ValueError(f"N = {N} exceeds MAX_SHELLS = {MAX_SHELLS}")


def slab_rng(seed: int, stream: int = 0, step: int = 0) -> np.random.Generator:
    """SFC64 generator keyed by (seed, stream, step); pure function of its key."""
    if seed < 0 or stream < 0 or step < 0:
        raise ValueError("seed, stream and step must be nonnegative")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=[seed, stream, step])))


class SlabStream:
    """The two-point increments of one ensemble block, drawn from ``rng`` one step at a time.

    ``shape`` is a stepper's packed (cells, P) slab shape.  Each
    :meth:`fill` takes the next ``ceil(cells * P / 64)`` raw 64-bit words
    of ``rng``'s bit generator, and cell i of the slab, in C order, reads
    bit i mod 64 of word i div 64: a set bit is +sqrt(dt), a clear one -sqrt(dt), both
    exact.  A table of the 256 bytes maps each byte of the words to its 8
    increments at once.  Raw words, not ``rng.bytes``, because ``bytes``
    goes through ``integers`` and costs more per call than the whole fill
    of a small slab.
    """

    def __init__(self, rng, shape: tuple[int, int], dt: float):
        self._bits = rng.bit_generator
        cells = math.prod(shape)
        self._words = -(-cells // 64)
        self._rows = np.empty((8 * self._words, 8))  # one row per drawn byte
        self._slab = self._rows.reshape(-1)[:cells].reshape(shape)
        root = math.sqrt(dt)
        bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
        self._table = np.where(bits == 1, root, -root)

    def fill(self) -> np.ndarray:
        """The next step's slab, valid until the next call."""
        words = self._bits.random_raw(self._words).astype("<u8", copy=False)
        self._table.take(words.view(np.uint8), axis=0, out=self._rows, mode="wrap")
        return self._slab
