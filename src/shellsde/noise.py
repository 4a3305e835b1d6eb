"""Aliased Brownian increment generation for shell-model simulations.

One time step consumes a slab of Gaussian increments indexed by
(independent channel, shell window, component).  Only one representative
per interaction pair carries fresh randomness; the partner channel reads
the identical values, which is exactly the aliasing that makes the noise
conservative.

Generators are keyed by (seed, stream, step) through ``numpy``'s
SeedSequence.  An ensemble keys one generator per block of paths, once, as
(seed, block, 0), and reads that block's slabs from a :class:`SlabStream`:
the step kernel reads only some runs of slab cells, and the stream draws
exactly those, step after step and run after run.  When ``run_ensemble``
has a CPU to spare for it, a helper thread draws the runs ahead in flat
chunks of whole runs while the step kernel reads the last chunk, and each
step's runs are copied out of the chunk; otherwise each run is drawn
straight into the slab.  numpy's normal stream is sequential, so a slab
does not depend on how the runs are cut into chunks, nor on which thread
drew them.  So ensembles are a pure function of (seed, block size) and
can be split across workers without shared state.  Increments, not path
values, are the primitive: integrators only ever consume increments.
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

# Normals in one chunk of a SlabStream, unless one run holds more (then the
# chunk is that run): 512 kB per buffer.
CHUNK_NORMALS = 1 << 16


def check_shells(N: int) -> None:
    """Reject truncation levels beyond :data:`MAX_SHELLS`."""
    if N > MAX_SHELLS:
        raise ValueError(f"window overflow: N = {N} exceeds configured maximum {MAX_SHELLS}")


def slab_rng(seed: int, stream: int = 0, step: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, stream, step); pure function of its key."""
    if seed < 0 or stream < 0 or step < 0:
        raise ValueError("seed, stream and step must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, stream, step]))


def _chunk_sizes(lengths, steps: int):
    """Sizes of the chunks that cut ``steps`` repeats of the runs ``lengths`` into whole runs.

    A chunk takes runs while they fit in :data:`CHUNK_NORMALS`; a run larger
    than that is a chunk of its own.
    """
    n = 0
    for _ in range(steps):
        for m in lengths:
            if n and n + m > CHUNK_NORMALS:
                yield n
                n = 0
            n += m
    if n:
        yield n


class SlabStream:
    """The increments of ``steps`` steps, drawn from ``rng`` and read one step at a time.

    ``out`` is a slab in the step kernel's (n_star, d, window, P) layout and
    ``cells`` its (row, component, start, stop) runs, as given by
    ``CoefficientTable.slab_cells``.  Step after step, run after run, each
    run takes the next (stop - start) * P normals of ``rng``, scaled to
    variance dt; cells outside the runs are left as they are.

    Without ``helper``, :meth:`fill` draws each run straight into ``out``,
    one ``standard_normal`` call per run.  With it, a one-worker thread
    pool draws the same normals ahead of :meth:`fill`, one chunk at a
    time into two alternating flat buffers, and :meth:`fill` copies each
    step's runs out of them; ``standard_normal`` releases the GIL, so the
    draw runs beside the step kernel.  Either way the slabs are the same,
    bit for bit.  Use the stream as a context manager: leaving it joins
    the worker, and an exception raised in the worker is raised again by
    :meth:`fill`.
    """

    def __init__(self, rng, out: np.ndarray, cells, dt: float, steps: int, helper: bool):
        self._rng = rng
        self._scale = math.sqrt(dt)
        self._runs = [out[row, c, start:stop].reshape(-1) for row, c, start, stop in cells]
        self._helper = helper
        self._pool = None
        if helper:
            lengths = [run.size for run in self._runs]
            self._sizes = _chunk_sizes(lengths, steps)
            size = max([CHUNK_NORMALS, *lengths])
            self._buffers = (np.empty(size), np.empty(size))
            self._drawn = 0  # chunks drawn
            self._chunk = self._buffers[0][:0]
            self._pos = 0

    def __enter__(self) -> SlabStream:
        if self._helper:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="slab-stream")
            self._next = self._submit()
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _draw(self, n: int) -> np.ndarray:
        """The next chunk of n normals, scaled, in the buffer the chunk before last used."""
        chunk = self._buffers[self._drawn % 2][:n]
        self._drawn += 1
        self._rng.standard_normal(out=chunk)
        chunk *= self._scale
        return chunk

    def _submit(self):
        """The future of the next chunk to draw, or None when no chunk is left."""
        n = next(self._sizes, 0)
        return self._pool.submit(self._draw, n) if n else None

    def fill(self) -> None:
        """Put the next step's increments into the read cells of ``out``."""
        if not self._helper:
            for run in self._runs:
                self._rng.standard_normal(out=run)
                run *= self._scale
            return
        chunk, pos = self._chunk, self._pos
        for run in self._runs:
            if pos == chunk.size:  # chunks end between runs
                # the chunk after next goes into the buffer just read out; queued now, the
                # worker draws it as soon as the next chunk is done, with no round trip
                ahead = self._submit()
                chunk, pos = self._next.result(), 0
                self._next = ahead
            end = pos + run.size
            run[:] = chunk[pos:end]
            pos = end
        self._chunk, self._pos = chunk, pos
