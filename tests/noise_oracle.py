"""The per-step noise draw: the reference for :class:`shellsde.noise.SlabStream`.

:func:`fill_slab` draws one step's increments straight into a slab, run by
run, one ``standard_normal`` call per run.  :class:`PerStepStream` has the
stream's interface and fills each step with :func:`fill_slab`, so an
ensemble run with it patched in for ``sde.SlabStream`` is the reference
ensemble: the same numbers, drawn with no chunks and no helper thread.
"""
import math

import numpy as np


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


def fill_stepper(stepper, rng: np.random.Generator) -> None:
    """Draw the stepper's next slab from ``rng`` into the cells its step reads."""
    fill_slab(rng, stepper.dW, stepper.cells, math.sqrt(stepper.dt))


class PerStepStream:
    """``SlabStream``'s interface over :func:`fill_slab`: one draw per run per step, inline."""

    def __init__(self, rng, out, cells, dt, steps, helper):
        self.rng, self.out, self.cells, self.sqrt_dt = rng, out, cells, math.sqrt(dt)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def fill(self):
        fill_slab(self.rng, self.out, self.cells, self.sqrt_dt)
