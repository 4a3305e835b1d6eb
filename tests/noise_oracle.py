"""The per-step noise draw: the reference for :class:`shellsde.noise.SlabStream`.

:func:`fill_slab` draws one step's increments into a window slab, the
(n_star, d, window, P) layout that the model's offsets index, run by run,
one ``standard_normal`` call per run.  :func:`pack` copies a window slab's
read cells into a stepper's packed (cells, P) slab, and
:func:`fill_stepper` does both.  :class:`PerStepStream` has the stream's
interface and draws each step cell by cell, so an ensemble run with it
patched in for ``sde.SlabStream`` is the reference ensemble: the same
numbers, drawn with no chunks and no helper thread.
"""
import math

import numpy as np


def fill_slab(rng: np.random.Generator, out: np.ndarray, cells, sqrt_dt: float) -> None:
    """Draw one step's increments into the read cells of ``out``, in place.

    ``out`` is a window slab in the (n_star, d, window, P) layout and
    ``cells`` its (row, component, start, stop) runs, as given by
    ``CoefficientTable.slab_cells``.  Each run takes one ``standard_normal``
    call, in the order given, scaled to variance dt; cells outside the runs
    are left as they are.
    """
    for row, c, start, stop in cells:
        view = out[row, c, start:stop]
        rng.standard_normal(out=view)
        view *= sqrt_dt


def pack(stepper, window: np.ndarray) -> None:
    """Write the cells the stepper reads from the (n_star, d, window, P) slab ``window`` into ``stepper.dW``."""
    pos = 0
    for row, c, start, stop in stepper.cells:
        stepper.dW[pos : pos + stop - start] = window[row, c, start:stop]
        pos += stop - start


def fill_stepper(stepper, rng: np.random.Generator) -> np.ndarray:
    """Draw the stepper's next slab from ``rng`` into a zero window slab, pack it and return the window slab."""
    table = stepper.table
    window = np.zeros((len(table.star_ids), table.d, table.window, stepper.dW.shape[1]))
    fill_slab(rng, window, stepper.cells, math.sqrt(stepper.dt))
    pack(stepper, window)
    return window


class PerStepStream:
    """``SlabStream``'s interface: one draw per cell per step, inline, into ``out``."""

    def __init__(self, rng, out, dt, steps, helper):
        self.rng, self.out, self.sqrt_dt = rng, out, math.sqrt(dt)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def fill(self):
        for cell in self.out:
            self.rng.standard_normal(out=cell)
            cell *= self.sqrt_dt
        return self.out
