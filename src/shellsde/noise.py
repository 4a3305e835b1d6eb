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
workers without shared state.  Increments, not path values, are the
primitive: integrators only ever consume increments.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "MAX_SHELLS",
    "check_shells",
    "slab_rng",
    "fill_slab",
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
