"""Truncated SDE integrators for the nonlinear and auxiliary linear systems.

The truncation keeps shells 1..N and reads every other shell as zero.  The
quadratic drift correction at shell n always carries the full active-set
rate, so energy leaving through the top border is genuinely removed; the
second moments of the truncated linear system then solve the absorbing
forward equation produced by :mod:`shellsde.moments`, which is what the
triangulation relies on.

Three schemes are provided:

``em``
    Plain Euler-Maruyama.  Weak order one, unbiased as dt -> 0, but the
    quadratic rates grow like lambda**(2n), so it requires
    dt * pi_N <~ 0.1 and aborts paths on overflow.
``split``
    Strang splitting with the quadratic correction integrated exactly
    (per-shell matrix exponential) around an Euler-Maruyama transport and
    diffusion step.  Same weak order, but stable at any dt; the preferred
    scheme when the truncation includes stiff shells.
``conservative``
    Euler-Maruyama followed by projection back to the initial energy
    sphere.  Holds the ladder energy exactly, which is the discrete
    counterpart of the conservative Galerkin border choice.

Girsanov path weights are accumulated with left-point (Ito) evaluation of
the integrand, so the exponential density is an exact discrete martingale
for every adapted scheme.

Step kernel.  A batch of P paths is stored component-major, as a contiguous
(d, N, P) array, so that every (component, shell range) slice is a block of
whole rows over the paths.  A step's noise slab is packed: a (cells, P)
array that holds only the cells the kernel reads, the runs of
:meth:`CoefficientTable.slab_cells` end to end.  A :class:`Stepper` maps
each noise term, and each Girsanov ledger row, to a slice of it once.  An
ensemble block's :class:`~shellsde.noise.SlabStream` hands out each step's
slab whole; it draws on a helper thread, beside the step kernel, when the
process may run on at least two CPUs per stepping worker (``2 *
min(threads, blocks)``), so that each helper has a CPU of its own, and
inline otherwise; the slabs are the same either way, so results depend
only on (seed, block_size).
Transport and diffusion are then sums of unrolled terms, one per non-zero
``B[j, a, b, c]``, precomputed by :class:`CoefficientTable`: each term
multiplies two row blocks, scales by its folded coefficient vector and adds
into the destination rows, in place in preallocated buffers.  The Girsanov
ledger reads each row's block of the slab as (d, shells, P).  A
:class:`Stepper` binds this kernel to one table, time step, scheme and
batch size: it owns the slab, the scratch buffers and the damping factors,
and is the only way in, for an ensemble block and a single path (P = 1)
alike.

Tolerances: the horizon and every record time t must be a step count k of
dt, judged in step units: |t / dt - k| at most ``GRID_TOL`` times max(1, k).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import CoefficientTable, ModelSpec
from .noise import SlabStream, check_shells, slab_rng

__all__ = [
    "NumericalBlowupError",
    "Stepper",
    "EnsembleStats",
    "run_ensemble",
]

SCHEMES = ("em", "split", "conservative")
SYSTEMS = ("nonlinear", "linear")
GRID_TOL = 1e-9


class NumericalBlowupError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Step kernel over a batch of paths: X has shape (d, N, P), the step's
# packed noise slab dW has shape (cells, P)
# ----------------------------------------------------------------------


def _add_terms(terms, X: np.ndarray, V: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out[a, dst] += coef * X[b, src] * V[other] for every term of the list."""
    for t in terms:
        prod = tmp[: t.coef.shape[0]]
        np.multiply(X[t.b, t.src], V[t.other], out=prod)
        prod *= t.coef
        out[t.a, t.dst] += prod


def _shell_matmul(mats: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[:, n] = mats[n] @ X[:, n] for every shell and path."""
    return np.einsum("nab,bnp->anp", mats, X, out=out)


def _sub_correction(table: CoefficientTable, X: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """out -= gamma X, the quadratic (Ito) drift correction."""
    if table.identity_grams:
        np.multiply(X, (table.pi / 2.0)[:, None], out=buf)
    else:
        _shell_matmul(table.gamma, X, buf)
    out -= buf


def _half_damp_factors(table: CoefficientTable, dt: float):
    """exp(-gamma * dt / 2) per shell, scalar when every gram is the identity."""
    if table.identity_grams:
        return np.exp(-(table.pi / 2.0) * dt / 2.0)
    out = np.empty_like(table.gamma)
    for n in range(table.N):
        w, V = np.linalg.eigh(table.gamma[n])
        out[n] = (V * np.exp(-w * dt / 2.0)) @ V.T
    return out


def _damp(table: CoefficientTable, X: np.ndarray, fac, buf: np.ndarray) -> None:
    if table.identity_grams:
        X *= fac[:, None]
    else:
        np.copyto(X, _shell_matmul(fac, X, buf))


def _path_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-path sum of A * B over components and shells."""
    return np.einsum("dnp,dnp->p", A, B)


def _step_batch(stepper: Stepper, X: np.ndarray, energy0: np.ndarray) -> np.ndarray:
    """Advance the paths ``X`` (d, N, P) by one step of ``stepper``, in place, and return X.

    The step reads the stepper's slab ``dW`` and scratch buffers; batches
    stepped concurrently each need their own stepper.  ``energy0`` (P,) is
    the energy the ``conservative`` scheme projects back to.
    """
    table = stepper.table
    split = stepper.scheme == "split"
    if split:
        _damp(table, X, stepper.half_fac, stepper.alt)
    incr = stepper.incr
    incr.fill(0.0)
    if stepper.system == "nonlinear":
        _add_terms(table.transport_terms, X, X, incr, stepper.tmp)
    if not split:
        _sub_correction(table, X, incr, stepper.alt)
    incr *= stepper.dt
    _add_terms(stepper.noise_terms, X, stepper.dW, incr, stepper.tmp)
    X += incr
    if split:
        _damp(table, X, stepper.half_fac, stepper.alt)
    elif stepper.scheme == "conservative":
        e = _path_dot(X, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.sqrt(energy0 / e)
        X *= np.where(e > 0.0, fac, 0.0)
    return X


def _weight_increment(stepper: Stepper, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-path increments of the log integrand and its quadratic variation.

    Sums over the representative channels only; their increments are
    mutually independent, which the exponential martingale requires.
    Reads the stepper's slab at the pre-step paths ``X``.
    """
    dW, (d, _, P) = stepper.dW, X.shape
    zinc = np.zeros(P)
    qvinc = np.zeros(P)
    for shells, block, cells in stepper.ledger_rows:
        Xm = X[:, shells]
        zinc += _path_dot(Xm, dW[block].reshape(d, -1, P)[:, cells])
        qvinc += _path_dot(Xm, Xm)
    sigma = stepper.table.spec.sigma
    zinc /= sigma
    qvinc *= stepper.dt / sigma**2
    return zinc, qvinc


def _packed_terms(table: CoefficientTable, cells, weighted: bool):
    """The table's noise terms and, with ``weighted``, its ledger rows, mapped into the packed slab of ``cells``.

    A noise term's ``other`` becomes the slice of slab rows that holds its
    window cells.  A ledger row becomes (shells, block, cells): ``block``
    is the row's slab rows, its d components one after another, and
    ``cells`` the ledger's part of each component.
    """
    packed = [(row, c, m) for row, c, start, stop in cells for m in range(start, stop)]
    index = {cell: k for k, cell in enumerate(packed)}  # window cell -> slab row

    def rows(row, c, win):
        return slice(index[row, c, win.start], index[row, c, win.start] + win.stop - win.start)

    noise = [t._replace(other=rows(*t.other)) for t in table.noise_terms]
    if not weighted:
        return noise, None
    ledger = []
    for row, shells, win in table.ledger_rows:
        block = [k for k, cell in enumerate(packed) if cell[0] == row]
        first = index[row, 0, win.start] - block[0]
        ledger.append((shells, slice(block[0], block[-1] + 1), slice(first, first + win.stop - win.start)))
    return noise, ledger


class Stepper:
    """One time step of a truncated system, bound to a table and a batch of P paths.

    Paths are stored (d, N, P).  The step's noise slab ``dW`` is packed
    (cells, P): the window cells the step reads, the runs ``cells`` of
    ``table.slab_cells(weighted)`` end to end, zero until set.
    ``noise_terms`` and ``ledger_rows`` (None unless ``weighted``) are the
    table's, mapped into it.  :meth:`step` advances paths in place and
    :meth:`ledger` returns the Girsanov increments of the pre-step paths;
    both read ``dW``, so an ensemble step sets ``dW`` to the noise
    stream's next slab, then calls ``ledger``, then ``step``.  They run the
    module's ``_step_batch`` and ``_weight_increment``, looked up at call
    time, so that a wrapper installed on either (as the benchmark's tracer
    does) sees every step.
    """

    def __init__(
        self, table: CoefficientTable, dt: float, scheme: str, system: str, weighted: bool, paths: int
    ):
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.table = table
        self.dt = dt
        self.scheme = scheme
        self.system = system
        self.cells = table.slab_cells(weighted)
        self.noise_terms, self.ledger_rows = _packed_terms(table, self.cells, weighted)
        self.half_fac = _half_damp_factors(table, dt) if scheme == "split" else None
        self.dW = np.zeros((sum(stop - start for _, _, start, stop in self.cells), paths))
        self.incr = np.empty((table.d, table.N, paths))
        self.alt = np.empty((table.d, table.N, paths))
        self.tmp = np.empty((table.N, paths))

    def step(self, X: np.ndarray, energy0: np.ndarray) -> np.ndarray:
        """Advance ``X`` (d, N, P) by one step in place and return it."""
        return _step_batch(self, X, energy0)

    def ledger(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Increments (z, qv) of the Girsanov ledger at the pre-step paths ``X``."""
        if self.ledger_rows is None:
            raise ValueError("a stepper built with weighted=False has no ledger cells in its slab")
        return _weight_increment(self, X)


# ----------------------------------------------------------------------
# Ensemble runner
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Second-moment and energy statistics of an ensemble run.

    ``mean_sq[t, n]`` estimates the expected squared amplitude of shell
    n+1 at ``times[t]`` (weighted by the Girsanov density when a direction
    was requested), with ``se_sq`` the matching standard errors.  ``ess``
    is the effective sample size per record time.
    """

    times: np.ndarray
    mean_sq: np.ndarray
    se_sq: np.ndarray
    energy_mean: np.ndarray
    energy_se: np.ndarray
    ess: np.ndarray
    weight_mean: np.ndarray
    weight_se: np.ndarray
    qv_max: np.ndarray
    paths: int
    aborted: int
    weighted: bool


def _grid_steps(times: Sequence[float], dt: float) -> list[int]:
    """The step count k of each time t, with t / dt = k to ``GRID_TOL`` relative; a time off the grid is an error."""
    steps = []
    for t in times:
        k = int(round(t / dt))
        if not abs(t / dt - k) <= GRID_TOL * max(1, k):
            raise ValueError(f"time {t} is not a multiple of dt={dt}; the horizon and every record time must be")
        steps.append(k)
    return steps


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _start_state(x0, N: int, d: int) -> np.ndarray:
    """The start state as an (N, d) array; shells past the given ones start at zero.

    ``x0`` gives d components for each of its leading shells; a flat
    sequence is read as one component per shell when d == 1.
    """
    given = np.asarray(x0, dtype=float)
    if given.ndim == 1 and d == 1:
        given = given[:, None]
    if given.ndim != 2 or given.shape[1] != d:
        raise ValueError(f"x0 must give d = {d} components per shell, got shape {given.shape}")
    if given.shape[0] > N:
        raise ValueError("x0 support exceeds truncation level")
    if not np.all(np.isfinite(given)):
        raise ValueError("x0 has a non-finite entry")
    x = np.zeros((N, d))
    x[: given.shape[0]] = given
    return x


def run_ensemble(
    spec: ModelSpec,
    x0,
    N: int,
    dt: float,
    T: float,
    paths: int,
    which: str = "linear",
    scheme: str = "em",
    seed: int = 0,
    record_times: Optional[Sequence[float]] = None,
    weight_direction: Optional[str] = None,
    block_size: int = 8192,
    threads: int = 1,
) -> EnsembleStats:
    """Monte Carlo ensemble of truncated-system paths.

    Paths are organised in blocks.  Block b draws its slabs, in step order,
    from its own generator ``slab_rng(seed, b)``, keyed once, and draws only
    the cells the step reads; so results are a pure function of (seed,
    block_size), independent of scheduling and of ``threads``.  A block's
    draw runs on a helper thread while the block steps when each stepping
    worker can have a second CPU for its helper (``2 * min(threads,
    blocks)`` at most the CPUs this process may use), and inline
    otherwise, with the same numbers.  Failed paths (a non-finite state
    after a step, or at a record time an energy so large that the sums
    over the paths could overflow) are frozen, excluded from that record
    time on and reported in ``aborted``.  A statistic that still comes out
    non-finite (an overflowing Girsanov weight) raises
    :class:`NumericalBlowupError`.
    """
    for name, value in (("paths", paths), ("block_size", block_size), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"horizon T must be nonnegative and finite, got {T}")
    if weight_direction not in (None, "PtoQ", "QtoP"):
        raise ValueError("weight_direction must be None, 'PtoQ' or 'QtoP'")
    if record_times is None:
        record_times = [T]
    nsteps, *rec_steps = _grid_steps([T, *record_times], dt)
    if not all(0 <= k <= nsteps for k in rec_steps):
        raise ValueError(f"record times must lie in [0, T] = [0, {T}]")
    rec_index = {}
    for idx, k in enumerate(rec_steps):
        rec_index.setdefault(k, []).append(idx)

    check_shells(N)
    x0arr = _start_state(x0, N, spec.d)
    table = CoefficientTable(spec, N)
    weighted = weight_direction is not None
    sign = 1.0 if weight_direction == "QtoP" else -1.0

    nrec = len(rec_steps)
    sums = {
        "S0": np.zeros(nrec),
        "S1": np.zeros((nrec, N)),
        "T0": np.zeros(nrec),
        "T1": np.zeros((nrec, N)),
        "T2": np.zeros((nrec, N)),
        "E1": np.zeros(nrec),
        "ET1": np.zeros(nrec),
        "ET2": np.zeros(nrec),
        "QVMAX": np.zeros(nrec),
    }
    aborted = 0

    blocks = [
        (b, min(block_size, paths - b * block_size))
        for b in range((paths + block_size - 1) // block_size)
    ]
    helper = 2 * min(threads, len(blocks)) <= _usable_cpus()

    def run_block(b: int, P: int):
        X = np.empty((spec.d, N, P))
        X[...] = x0arr.T[:, :, None]
        stepper = Stepper(table, dt, scheme, which, weighted, P)
        stream = SlabStream(slab_rng(seed, b), stepper.dW, dt, nsteps, helper)
        alive = np.ones(P, dtype=bool)
        z = np.zeros(P)
        qv = np.zeros(P)
        e0 = np.full(P, float((x0arr * x0arr).sum()))
        partial = {k: np.zeros_like(v) for k, v in sums.items()}

        def record(idx_list):
            vals = (X * X).sum(axis=0)  # (N, P)
            energy = vals.sum(axis=0)
            # unweighted, the variance sums below, over all paths, stay within 4 * paths * energy**2
            lost = ~np.isfinite(energy * energy * (4 * paths))
            if lost.any():
                alive[lost] = False
                X[:, :, lost] = 0.0
                vals[:, lost] = 0.0
                energy[lost] = 0.0
            if weighted:
                with np.errstate(over="ignore"):
                    w = np.where(alive, np.exp(z - 0.5 * qv), 0.0)
                w = np.where(np.isfinite(w), w, 0.0)
            else:
                w = alive.astype(float)
            w2 = w * w
            qv_alive = float(qv[alive].max()) if alive.any() else 0.0
            for idx in idx_list:
                partial["S0"][idx] += w.sum()
                partial["S1"][idx] += vals @ w
                partial["T0"][idx] += w2.sum()
                partial["T1"][idx] += vals @ w2
                partial["T2"][idx] += (vals * vals) @ w2
                partial["E1"][idx] += w @ energy
                partial["ET1"][idx] += w2 @ energy
                partial["ET2"][idx] += w2 @ (energy * energy)
                partial["QVMAX"][idx] = max(partial["QVMAX"][idx], qv_alive)

        with stream, np.errstate(over="ignore", invalid="ignore"):
            if 0 in rec_index:
                record(rec_index[0])
            for k in range(nsteps):
                stepper.dW = stream.fill()
                if weighted:
                    zinc, qvinc = stepper.ledger(X)
                    z += sign * zinc
                    qv += qvinc
                X = stepper.step(X, e0)
                ok = np.isfinite(X).all(axis=(0, 1))
                if not ok.all():
                    alive &= ok
                    X[:, :, ~alive] = 0.0
                if (k + 1) in rec_index:
                    record(rec_index[k + 1])
        return partial, int(P - alive.sum())

    if threads > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(lambda arg: run_block(*arg), blocks))
    else:
        results = [run_block(b, P) for b, P in blocks]

    for partial, dead in results:
        aborted += dead
        for key in sums:
            if key == "QVMAX":
                sums[key] = np.maximum(sums[key], partial[key])
            else:
                sums[key] += partial[key]

    S0 = sums["S0"]
    if np.any(S0 <= 0.0):
        raise NumericalBlowupError(
            f"all {paths} paths aborted before some record time; reduce dt or use scheme='split'"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic raises below
        mean = sums["S1"] / S0[:, None]
        var_num = sums["T2"] - 2.0 * mean * sums["T1"] + mean**2 * sums["T0"][:, None]
        se = np.sqrt(np.maximum(var_num, 0.0)) / S0[:, None]
        emean = sums["E1"] / S0
        evar = sums["ET2"] - 2.0 * emean * sums["ET1"] + emean**2 * sums["T0"]
        ese = np.sqrt(np.maximum(evar, 0.0)) / S0
        ess = np.where(sums["T0"] > 0, S0**2 / sums["T0"], 0.0)
        wmean = S0 / paths
        wvar = np.maximum(sums["T0"] / paths - wmean**2, 0.0)
        wse = np.sqrt(wvar / paths)
    derived = (mean, se, emean, ese, ess, wmean, wse, sums["QVMAX"])
    if not all(np.isfinite(v).all() for v in derived):
        raise NumericalBlowupError(
            "an ensemble statistic overflowed (a Girsanov weight or the quadratic variation); "
            "reduce dt or use scheme='split'"
        )
    return EnsembleStats(
        times=np.array([k * dt for k in rec_steps]),
        mean_sq=mean,
        se_sq=se,
        energy_mean=emean,
        energy_se=ese,
        ess=ess,
        weight_mean=wmean,
        weight_se=wse,
        qv_max=sums["QVMAX"],
        paths=paths,
        aborted=aborted,
        weighted=weighted,
    )
