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
the integrand.  Each increment is +-sqrt(dt) with equal probability (see
:mod:`shellsde.noise`), so the density exp(z - sum log cosh(a sqrt(dt))),
with a = X / sigma over the ledger's cells, is an exact discrete
martingale for every adapted scheme: log cosh(a sqrt(dt)) is the exact
one-step compensator of a sqrt(dt) times a random sign.  The quadratic
variation qv = sum a**2 dt is accumulated beside it.

Step kernel.  A batch of P paths is stored component-major, as a contiguous
(d, N, P) array, so that every (component, shell range) slice is a block of
whole rows over the paths.  A step's noise slab is packed: a (cells, P)
array that holds only the cells the kernel reads, by channel row, then
component, then shell, as :meth:`CoefficientTable.slab` lays it out; the
same call gives each kernel term, and each Girsanov ledger row, as slices
of it.  An ensemble block's :class:`~shellsde.noise.SlabStream` writes
each step's slab whole, one random bit per cell, so results depend only on
(seed, block_size).
The noise rides on the transport term, so one Euler increment of the
nonlinear system is the bilinear sum B(X, X dt + sigma dW): both systems
run one list of unrolled terms, one per non-zero ``B[j, a, b, c]``,
precomputed by :class:`CoefficientTable`.  Each term multiplies a row block
of X by a row block of the velocity V, scales by its folded coefficient
vector (which carries sigma) and adds into the destination rows, in place
in preallocated buffers.  The linear system reads V = dW, the slab itself.
The nonlinear system reads V = dW + (dt / sigma) X, with X read as zero
past N, one slab block at a time: the step writes a block's velocity into
one buffer of the widest block's rows and runs the terms that read it
while it is in cache, and never writes dW.  The Girsanov ledger reads each
row's block of the slab as (d, shells, P).  A :class:`Stepper` binds this
kernel to one table, time step, scheme and batch size: it owns the slab,
the scratch buffers and the correction and damping factors, and is the
only way in, for an ensemble block and a single path (P = 1) alike.  It
binds the operand views of every term, block and ledger row once for each
(X, dW), the paths and the slab it is given, and again when either is
another array; an ensemble block binds once.

Tiles.  At 10^4 paths a row of the batch is 80 kB, and a step's cost
follows how many distinct rows each numpy call touches, not its
arithmetic.  A block of at least 2 (np.getbufsize() // 2 + 1) paths
(8,194 at numpy's default buffer size) is therefore stepped as tiles of
nearly equal width, each wider than half the buffer size
(:func:`_tile_paths`), whose paths are each one contiguous (d, N, w)
array.  One step runs every tile in turn, through one set of
tile-wide scratch buffers, each tile reading its columns of the block's
one slab; every operation acts path by path, and the per-shell squares
at a record time are joined in path order before any sum over the paths,
so results are bit for bit those of one tile and still depend only on
(seed, block_size).

Alignment.  Every array that the step loop writes starts on a 64-byte
boundary (:func:`shellsde.noise.aligned`): each tile's paths, the
stepper's scratch buffers, the stream's slab, the ledger's per-path sums
and the block's z, qv and compensator.  numpy's allocator aligns to only
16 bytes, and a vectorised multiply into an output that starts off a
cache line runs about twice as slow, by an amount that changes with the
heap from run to run.  Elementwise results do not depend on addresses,
so every output is the same either way.  The slab a stepper starts with
stays ``np.zeros``, whose pages stay untouched: an ensemble block
replaces it with its stream's slab before the first step.

Tolerances: the horizon and every record time t must be a step count k of
dt, judged in step units: |t / dt - k| at most ``GRID_TOL`` times max(1, k).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import CoefficientTable, ModelSpec, NumericalBlowupError
from .noise import SlabStream, aligned, check_shells, slab_rng

__all__ = [
    "NumericalBlowupError",
    "Stepper",
    "EnsembleStats",
    "run_ensemble",
]

SCHEMES = ("em", "split", "conservative")
SYSTEMS = ("nonlinear", "linear")
GRID_TOL = 1e-9


# ----------------------------------------------------------------------
# Step kernel over a batch of paths: X has shape (d, N, P), the step's
# packed noise slab dW has shape (cells, P)
# ----------------------------------------------------------------------


def _bind_terms(terms, X: np.ndarray, V: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> list[tuple]:
    """The operand views (X[b, src], V[other], out[a, dst], tmp prefix, coef) of every term of the list."""
    return [(X[t.b, t.src], V[t.other], out[t.a, t.dst], tmp[: t.coef.shape[0]], t.coef) for t in terms]


def _add_terms(bound: list[tuple]) -> None:
    """out[a, dst] += coef * X[b, src] * V[other] for every term bound by :func:`_bind_terms`."""
    for x, v, out, prod, coef in bound:
        np.multiply(x, v, out=prod)
        prod *= coef
        out += prod


def _bind_blocks(
    blocks, X: np.ndarray, dW: np.ndarray, V: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> list[tuple]:
    """The views of every slab block and its terms, for :func:`_add_velocity_terms`.

    Per block: X[c] on its shells in 1..N, the block's dW and its prefix of
    the velocity buffer ``V`` on those rows, the same two on the rows past
    N, and the block's terms bound to that prefix.
    """
    N, bound = X.shape[1], []
    for rows, c, shells, terms in blocks:
        inside = max(0, min(shells.stop, N) - shells.start)
        W, Vb = dW[rows], V[: rows.stop - rows.start]
        x = X[c, shells.start : shells.start + inside]
        terms = _bind_terms(terms, X, Vb, out, tmp)
        bound.append((x, W[:inside], Vb[:inside], W[inside:], Vb[inside:], terms))
    return bound


def _add_velocity_terms(bound: list[tuple], scale: float) -> None:
    """out[a, dst] += coef * X[b, src] * V[other], V = dW + scale X, per block bound by :func:`_bind_blocks`."""
    for x, w_in, v_in, w_past, v_past, terms in bound:
        np.multiply(x, scale, out=v_in)
        v_in += w_in
        np.copyto(v_past, w_past)
        _add_terms(terms)


def _shell_apply(op: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[:, n] = op[n] X[:, n] for every shell and path.

    ``op`` holds a scalar per shell, as an (N, 1) column or at full size
    (N, P), or is (N, d, d) matrices.
    """
    if op.ndim == 2:
        return np.multiply(X, op, out=out)
    return np.einsum("nab,bnp->anp", op, X, out=out)


def _correction_op(table: CoefficientTable) -> np.ndarray:
    """gamma per shell, for :func:`_shell_apply`: the quadratic (Ito) drift correction is -gamma X."""
    return (table.pi / 2.0)[:, None] if table.identity_grams else table.gamma


def _half_damp_op(table: CoefficientTable, dt: float) -> np.ndarray:
    """exp(-gamma * dt / 2) per shell, for :func:`_shell_apply`."""
    if table.identity_grams:
        return np.exp(-(table.pi / 2.0) * dt / 2.0)[:, None]
    out = np.empty_like(table.gamma)
    for n in range(table.N):
        w, V = np.linalg.eigh(table.gamma[n])
        out[n] = (V * np.exp(-w * dt / 2.0)) @ V.T
    return out


def _over_paths(op: np.ndarray, paths: int, shared: dict) -> np.ndarray:
    """A per-shell factor ``op`` in the form that numpy multiplies fastest over a block of ``paths`` paths.

    numpy sends an (rows, 1) column broadcast over at most half its buffer
    size of paths through its buffered iterator, which costs more than the
    product itself; for such a block the column is stored at full size,
    (rows, paths), one contiguous array per distinct column in ``shared``.
    Wider blocks keep the column, and per-shell matrices are returned as
    they are.  Both forms give the same products.
    """
    if op.ndim != 2 or paths > np.getbufsize() // 2:
        return op
    key = (op.shape, op.tobytes())
    if key not in shared:
        shared[key] = np.ascontiguousarray(np.broadcast_to(op, (op.shape[0], paths)))
    return shared[key]


def _damp(fac: np.ndarray, X: np.ndarray, buf: np.ndarray) -> None:
    if fac.ndim == 2:
        X *= fac
    else:
        np.copyto(X, _shell_apply(fac, X, buf))


def _path_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Per-path sum of A * B over components and shells."""
    return np.einsum("dnp,dnp->p", A, B)


def _tile_paths(paths: int) -> list[slice]:
    """The path ranges, in path order, of the tiles that a block of ``paths`` paths steps one after another.

    A block is split into T = max(1, paths // (np.getbufsize() // 2 + 1))
    tiles of nearly equal width.  A block of more than one tile therefore
    has every tile wider than half numpy's buffer size, where its per-shell
    factors keep their (rows, 1) columns (:func:`_over_paths`), and a block
    of fewer than 2 (np.getbufsize() // 2 + 1) paths is one tile.
    """
    count = max(1, paths // (np.getbufsize() // 2 + 1))
    edges = [paths * t // count for t in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _leading(buf: np.ndarray, width: int) -> np.ndarray:
    """The C-contiguous (..., width) array over the leading elements of the C-contiguous ``buf`` (..., W >= width)."""
    return buf.reshape(-1)[: buf.size // buf.shape[-1] * width].reshape(*buf.shape[:-1], width)


class _Tile(NamedTuple):
    """One tile of a block, bound by :meth:`Stepper._bind`.

    ``paths`` is its range of the block's paths, ``X`` its (d, N, w)
    paths, ``incr`` and ``alt`` its views of the stepper's scratch, and
    ``noise_ops`` and ``ledger_ops`` the views of every term (or slab
    block) and ledger row over its paths.
    """

    paths: slice
    X: np.ndarray
    incr: np.ndarray
    alt: np.ndarray
    noise_ops: list
    ledger_ops: list


def _step_batch(stepper: Stepper, X, energy0: np.ndarray):
    """Advance the block's paths ``X`` by one step of ``stepper``, in place, and return X.

    ``X`` is the sequence of the block's tile arrays, or one (d, N, P)
    array; the tiles step one after another.  The step reads the stepper's
    slab ``dW`` and scratch buffers; batches stepped concurrently each need
    their own stepper.  ``energy0`` (P,) is the energy the ``conservative``
    scheme projects back to.  Every operation acts path by path and keeps a
    non-finite path non-finite.
    """
    stepper._bind(X)
    for paths, Xt, incr, alt, noise_ops, _ in stepper.tiles:
        if stepper.split:
            _damp(stepper.half_fac, Xt, alt)
            incr.fill(0.0)
        else:  # (0 - gamma X) dt and gamma X (-dt) are the same double
            _shell_apply(stepper.gamma, Xt, incr)
            incr *= stepper.neg_dt
        if stepper.nonlinear:
            _add_velocity_terms(noise_ops, stepper.v_scale)
        else:
            _add_terms(noise_ops)
        Xt += incr
        if stepper.split:
            _damp(stepper.half_fac, Xt, alt)
        elif stepper.conservative:
            e = _path_dot(Xt, Xt)
            with np.errstate(divide="ignore", invalid="ignore"):
                fac = np.sqrt(energy0[paths] / e)
            # a zero path stays zero; a path whose energy overflowed, finite entries and all, becomes NaN
            Xt *= np.where(np.isinf(e), np.nan, np.where(e > 0.0, fac, 0.0))
    return X


def _weight_increment(stepper: Stepper, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-path increments of the log integrand, its quadratic variation and its compensator.

    Sums over the representative channels only; their increments are
    mutually independent, which the exponential martingale requires.
    Reads the stepper's slab at the pre-step paths ``X`` (as for
    :func:`_step_batch`), tile by tile, and writes its scratch buffer
    ``alt``.  The compensator is the log of the product of
    cosh(X sqrt(dt) / sigma) over the cells, one log per path; it is inf
    when that product overflows.
    """
    stepper._bind(X)
    P = stepper.dW.shape[1]
    zinc = aligned((P,), np.zeros)
    qvinc = aligned((P,), np.zeros)
    cosh = aligned((P,), np.ones)
    for paths, *_, ledger_ops in stepper.tiles:
        z, qv, prod = zinc[paths], qvinc[paths], cosh[paths]
        for Xm, Wm, buf in ledger_ops:
            z += _path_dot(Xm, Wm)
            qv += _path_dot(Xm, Xm)
            np.multiply(Xm, stepper.cosh_scale, out=buf)
            np.cosh(buf, out=buf)
            prod *= buf.prod(axis=(0, 1))
    zinc /= stepper.table.spec.sigma
    qvinc *= stepper.qv_scale
    return zinc, qvinc, np.log(cosh, out=cosh)


class Stepper:
    """One time step of a truncated system, bound to a table and a block of P paths.

    Paths are stored (d, N, P), or as the block's tiles: ``tile_paths``
    splits the P paths into ranges (:func:`_tile_paths`), and each tile's
    paths are one contiguous (d, N, w) array.  The step's noise slab ``dW``
    is packed (cells, P), as ``table.slab(weighted)`` lays it out, and zero
    until set; ``noise_terms``, ``blocks`` and ``ledger_rows`` (None unless
    ``weighted``) come from the same call.  :meth:`step` advances paths in
    place and :meth:`ledger` returns the Girsanov increments of the
    pre-step paths; both read ``dW`` and neither writes it, so an ensemble
    step sets ``dW`` to the noise stream's next slab, then calls
    ``ledger``, then ``step``.  The linear system's terms read ``dW``; the
    nonlinear system's read the velocity dW + (dt / sigma) X, which the
    step writes block by block into the buffer ``velocity``.  They run the
    module's ``_step_batch`` and ``_weight_increment``, looked up at call
    time, so that a wrapper installed on either (as the benchmark's tracer
    does) sees every step.

    Everything that is fixed between steps is computed here once: the
    correction or half-damping factor per shell, the velocity scale
    dt / sigma, and the scheme and system as flags.  The per-shell factors
    and the terms' coefficients take the form that numpy multiplies
    fastest over P paths (:func:`_over_paths`): full size for a small
    block, (rows, 1) columns for a wide one; every tile reads the same
    ones.  The scratch buffers (``incr``, ``alt``, ``tmp``, ``velocity``)
    are one tile wide, and each tile steps in a contiguous view of them.
    The operand views of every tile's terms, blocks and ledger rows, with
    the tile's columns of ``dW``, are bound once for each set of paths and
    slab: passing other path arrays, or setting ``dW`` to another array,
    binds them again, while writing into either in place needs nothing.
    An ensemble block steps the same tiles, and its stream returns the same
    slab every step, so it binds once.
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
        self.split = scheme == "split"
        self.conservative = scheme == "conservative"
        self.nonlinear = system == "nonlinear"
        self.neg_dt = -dt
        sigma = table.spec.sigma
        self.cosh_scale = math.sqrt(dt) / sigma
        self.qv_scale = dt / sigma**2
        cells, terms, blocks, self.ledger_rows = table.slab(weighted)
        self.v_scale = dt / sigma
        shared: dict = {}  # equal coefficients share one full-size array

        def fit(op):
            return _over_paths(op, paths, shared)

        self.noise_terms = [t._replace(coef=fit(t.coef)) for t in terms]
        self.blocks = [b._replace(terms=[t._replace(coef=fit(t.coef)) for t in b.terms]) for b in blocks]
        self.gamma = None if self.split else fit(_correction_op(table))
        self.half_fac = fit(_half_damp_op(table, dt)) if self.split else None
        self.dW = np.zeros((cells, paths))
        self.tile_paths = _tile_paths(paths)
        width = max(s.stop - s.start for s in self.tile_paths)
        widest = max((b.rows.stop - b.rows.start for b in self.blocks), default=0) if self.nonlinear else 0
        self.velocity = aligned((widest, width))
        self.incr = aligned((table.d, table.N, width))
        self.alt = aligned((table.d, table.N, width))
        self.tmp = aligned((table.N, width))
        self.tiles: list[_Tile] = []
        self._bound: tuple = (None, None)  # the slab and the paths that the tiles read

    def _bind(self, X) -> None:
        """Bind each tile's views to its paths and to the slab ``dW``, unless they already are.

        ``X`` is the sequence of the block's tile arrays, one per range of
        ``tile_paths``, or one (d, N, P) array, whose column views are then
        the tiles.  An array or a tuple is bound once; any other sequence
        is bound again at every call.
        """
        key = X if isinstance(X, np.ndarray) else tuple(X)  # tuple(X) is X itself for a tuple
        if self.dW is self._bound[0] and key is self._bound[1]:
            return
        if isinstance(X, np.ndarray):
            X = [X[:, :, s] for s in self.tile_paths]
        got, want = [Xt.shape[2] for Xt in X], [s.stop - s.start for s in self.tile_paths]
        if got != want:
            raise ValueError(f"the tiles hold {got} paths, not the {want} of the stepper's tiles")
        dW, d, P = self.dW, self.table.d, self.dW.shape[1]
        self.tiles = []
        for s, Xt in zip(self.tile_paths, X):
            w = s.stop - s.start
            W, incr, alt, tmp = dW[:, s], _leading(self.incr, w), _leading(self.alt, w), _leading(self.tmp, w)
            if self.nonlinear:
                ops = _bind_blocks(self.blocks, Xt, W, _leading(self.velocity, w), incr, tmp)
            else:
                ops = _bind_terms(self.noise_terms, Xt, W, incr, tmp)
            ledger = [  # reshaped at full width, where the block's rows are contiguous, so the views stay views
                (Xt[:, shells], dW[block].reshape(d, -1, P)[:, cells, s], alt[:, : shells.stop - shells.start])
                for shells, block, cells in self.ledger_rows or ()
            ]
            self.tiles.append(_Tile(s, Xt, incr, alt, ops, ledger))
        self._bound = (dW, key)

    def step(self, X, energy0: np.ndarray):
        """Advance the paths ``X`` (the block's tile arrays, or one (d, N, P) array) one step in place; return X."""
        return _step_batch(self, X, energy0)

    def ledger(self, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Increments (z, qv, log cosh compensator), each (P,), of the Girsanov ledger at the pre-step paths ``X``."""
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


def _advice(scheme: str, weight: bool = False) -> str:
    """What to change after an overflow: dt, also the horizon for a Girsanov weight, and the scheme unless it is ``split``."""
    *first, last = ["shorten the horizon"] * weight + ["reduce dt"] + ["use scheme='split'"] * (scheme != "split")
    return f"{', '.join(first)} or {last}" if first else last


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
    from its own SFC64 generator ``slab_rng(seed, b)``, keyed once, one
    random bit per cell the step reads, each cell +-sqrt(dt); so results
    are a pure function of (seed, block_size), independent of scheduling
    and of ``threads``, which steps that many blocks at once.  Failed paths
    (a non-finite state, or an energy so large that the sums over the paths
    could overflow) are found at the next record time, or at the end of
    their block, not after every step: a step keeps a non-finite path
    non-finite.  They are frozen, excluded from that record time on and
    reported in ``aborted``.  At a record time, a live path whose Girsanov
    compensator or weight overflowed raises :class:`NumericalBlowupError`,
    and so does a statistic that still comes out non-finite (the square
    of a large Girsanov weight).
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

    def run_block(b: int, P: int):
        stepper = Stepper(table, dt, scheme, which, weighted, P)
        spans = stepper.tile_paths
        tiles = [aligned((spec.d, N, s.stop - s.start)) for s in spans]
        for Xt in tiles:
            Xt[...] = x0arr.T[:, :, None]
        X = tiles[0] if len(tiles) == 1 else tuple(tiles)  # a one-tile block steps its bare array
        stream = SlabStream(slab_rng(seed, b), stepper.dW.shape, dt)
        alive = np.ones(P, dtype=bool)
        z = aligned((P,), np.zeros)
        qv = aligned((P,), np.zeros)
        comp = aligned((P,), np.zeros)
        e0 = np.full(P, float((x0arr * x0arr).sum()))
        partial = {k: np.zeros_like(v) for k, v in sums.items()}

        def record(idx_list):
            vals = np.concatenate([(Xt * Xt).sum(axis=0) for Xt in tiles], axis=1)  # (N, P)
            energy = vals.sum(axis=0)
            # unweighted, the variance sums below, over all paths, stay within 4 * paths * energy**2
            lost = ~np.isfinite(energy * energy * (4 * paths))
            if lost.any():
                alive[lost] = False
                for s, Xt in zip(spans, tiles):
                    Xt[:, :, lost[s]] = 0.0
                vals[:, lost] = 0.0
                energy[lost] = 0.0
            if weighted:
                if np.isinf(comp[alive]).any():
                    raise NumericalBlowupError(
                        "a Girsanov compensator overflowed (the product over a path's cells of "
                        "cosh(X sqrt(dt) / sigma)); reduce dt"
                    )
                with np.errstate(over="ignore"):
                    w = np.where(alive, np.exp(z - comp), 0.0)  # a failed path's z may be NaN
                if not np.isfinite(w).all():
                    raise NumericalBlowupError(
                        f"a live path's Girsanov weight exp(z - compensator) overflowed; {_advice(scheme, True)}"
                    )
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

        with np.errstate(over="ignore", invalid="ignore"):
            if 0 in rec_index:
                record(rec_index[0])
            for k in range(nsteps):
                stepper.dW = stream.fill()
                if weighted:
                    zinc, qvinc, compinc = stepper.ledger(X)
                    z += sign * zinc
                    qv += qvinc
                    comp += compinc
                stepper.step(X, e0)
                if (k + 1) in rec_index:
                    record(rec_index[k + 1])
        # a path that failed after the last record time is still a failed path
        for s, Xt in zip(spans, tiles):
            alive[s] &= np.isfinite(Xt).all(axis=(0, 1))
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
            f"all {paths} paths aborted before some record time; {_advice(scheme)}"
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
            + _advice(scheme, weighted)
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
