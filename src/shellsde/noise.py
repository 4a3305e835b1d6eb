"""Aliased Brownian increment generation for shell-model simulations.

One time step consumes a slab of Gaussian increments.  Only one
representative per interaction pair carries fresh randomness; the partner
channel reads the identical values, which is exactly the aliasing that
makes the noise conservative.

Generators run numpy's SFC64 bit generator, keyed by (seed, stream, step)
through numpy's SeedSequence; a normal costs less on SFC64 than on PCG64,
and the draw is an ensemble's largest cost.  An ensemble keys one
generator per block of paths, once, as (seed, block, 0), and a
:class:`SlabStream` draws that block's slabs, each packed to the cells
the step kernel reads, one whole step after another: straight into the
stepper's slab, or ahead on a helper thread.  numpy's normal stream is
sequential, so the slabs do not depend on how the steps are cut into
chunks, nor on which thread drew them: ensembles are a pure function of
(seed, block size) and can be split across workers without shared state.  Increments, not path values, are the primitive:
integrators only ever consume increments.
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

# Normals in one chunk of a SlabStream, unless one step holds more (then the
# chunk is that step): 512 kB per buffer.
CHUNK_NORMALS = 1 << 16


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
    """The increments of ``steps`` steps, drawn from ``rng`` and handed out one step at a time.

    ``out`` is a stepper's packed slab; each step takes the next
    ``out.size`` normals of ``rng``, in ``out``'s order, scaled to
    variance dt.  Without ``helper``, :meth:`fill` draws each step
    straight into ``out``.  With it, a one-worker thread pool draws ahead,
    in chunks of whole steps that alternate between two buffers
    (``standard_normal`` releases the GIL, so the draw runs beside the step
    kernel), and :meth:`fill` returns the step's view, valid until the
    next call.  Either way the slabs are the same, bit for bit.  Use the
    stream as a context manager: leaving it joins the worker, and an
    exception raised in the worker is raised again by :meth:`fill`.
    """

    def __init__(self, rng, out: np.ndarray, dt: float, steps: int, helper: bool):
        self._rng = rng
        self._scale = math.sqrt(dt)
        self._out = out
        self._pool = self._chunks = None
        if helper:
            n = max(1, CHUNK_NORMALS // max(1, out.size))  # steps per chunk
            buffers = (np.empty((n, *out.shape)), np.empty((n, *out.shape)))
            self._chunks = (buffers[i % 2][: steps - k] for i, k in enumerate(range(0, steps, n)))
            self._chunk, self._pos = buffers[0][:0], 0

    def __enter__(self) -> SlabStream:
        if self._chunks is not None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="slab-stream")
            self._next = self._submit()
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _draw(self, out: np.ndarray) -> np.ndarray:
        """``out``, filled with the next normals of the stream, scaled."""
        self._rng.standard_normal(out=out)
        out *= self._scale
        return out

    def _submit(self):
        """The future of the next chunk, in the buffer the chunk before last used; None when no step is left."""
        chunk = next(self._chunks, None)
        return None if chunk is None else self._pool.submit(self._draw, chunk)

    def fill(self) -> np.ndarray:
        """The next step's slab."""
        if self._chunks is None:
            return self._draw(self._out)
        if self._pos == len(self._chunk):
            # the chunk after next goes into the buffer just read out; queued now, the
            # worker draws it as soon as the next chunk is done, with no round trip
            ahead = self._submit()
            self._chunk, self._pos = self._next.result(), 0
            self._next = ahead
        self._pos += 1
        return self._chunk[self._pos - 1]
