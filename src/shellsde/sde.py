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
whole rows over the paths.  A step's noise slab is laid out (n_star, d,
window, P); the ensemble draws it there directly, in contiguous runs of
cells per (row, component), and only the cells the kernel reads
(:meth:`CoefficientTable.slab_cells`; the others stay zero).
Transport and diffusion are then sums of unrolled terms, one per non-zero
``B[j, a, b, c]``, precomputed by :class:`CoefficientTable`: each term
multiplies two row blocks, scales by its folded coefficient vector and adds
into the destination rows, in place in preallocated buffers.  The Girsanov
ledger reduces the same layout over components and shells.  The single-path
functions are adapters that run this kernel with P = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import CoefficientTable, ModelSpec
from .noise import NoiseSlab, check_shells, fill_slab, slab_rng

__all__ = [
    "TruncatedState",
    "PathWeight",
    "NumericalBlowupError",
    "bilinear_drift",
    "drift_nonlinear",
    "drift_linear",
    "diffusion_apply",
    "step_em",
    "step_split",
    "step_conservative",
    "accumulate_weight",
    "EnsembleStats",
    "run_ensemble",
    "make_state",
]

SCHEMES = ("em", "split", "conservative")
SYSTEMS = ("nonlinear", "linear")


class NumericalBlowupError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class TruncatedState:
    """Shell amplitudes X_1..X_N at time t, with the initial energy pinned."""

    N: int
    t: float
    x: np.ndarray  # (N, d)
    energy0: float = None  # type: ignore[assignment]

    def __post_init__(self):
        arr = np.array(self.x, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[0] != self.N:
            raise ValueError(f"state has {arr.shape[0]} shells, expected N={self.N}")
        object.__setattr__(self, "x", arr)
        if self.energy0 is None:
            object.__setattr__(self, "energy0", float((arr * arr).sum()))

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def energy(self) -> float:
        return float((self.x * self.x).sum())


@dataclass(frozen=True)
class PathWeight:
    """Running Girsanov statistics: log integrand z and quadratic variation qv."""

    z: float = 0.0
    qv: float = 0.0

    def density(self) -> float:
        return math.exp(self.z - 0.5 * self.qv)


def make_state(spec: ModelSpec, N: int, x0, t: float = 0.0) -> TruncatedState:
    arr = np.zeros((N, spec.d))
    given = np.asarray(x0, dtype=float)
    if given.ndim == 1 and spec.d == 1:
        given = given[:, None]
    if given.ndim == 1 and spec.d > 1:
        raise ValueError("x0 must provide d components per shell")
    if given.shape[0] > N:
        raise ValueError("x0 support exceeds truncation level")
    arr[: given.shape[0], :] = given
    return TruncatedState(N=N, t=t, x=arr)


# ----------------------------------------------------------------------
# Step kernel over a batch of paths: X has shape (d, N, P), the step's
# noise slab dW has shape (n_star, d, window, P)
# ----------------------------------------------------------------------


class _StepBuffers:
    """Scratch arrays for one batch of P paths, reused by each of its steps."""

    def __init__(self, table: CoefficientTable, P: int):
        self.incr = np.empty((table.d, table.N, P))
        self.alt = np.empty((table.d, table.N, P))
        self.tmp = np.empty((table.N, P))


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


def _step_batch(
    table: CoefficientTable,
    X: np.ndarray,
    dW: np.ndarray,
    dt: float,
    which: str,
    scheme: str,
    energy0: Optional[np.ndarray] = None,
    half_fac=None,
    work: Optional[_StepBuffers] = None,
) -> np.ndarray:
    """Advance the paths ``X`` (d, N, P) by one step, in place, and return X.

    ``dW`` is the step's slab scaled to variance dt, laid out (n_star, d,
    window, P).  ``work`` holds the scratch arrays; batches stepped
    concurrently each need their own.
    """
    if work is None:
        work = _StepBuffers(table, X.shape[2])
    split = scheme == "split"
    if split:
        if half_fac is None:
            half_fac = _half_damp_factors(table, dt)
        _damp(table, X, half_fac, work.alt)
    elif scheme == "conservative" and energy0 is None:
        energy0 = _path_dot(X, X)
    incr = work.incr
    incr.fill(0.0)
    if which == "nonlinear":
        _add_terms(table.transport_terms, X, X, incr, work.tmp)
    if not split:
        _sub_correction(table, X, incr, work.alt)
    incr *= dt
    _add_terms(table.noise_terms, X, dW, incr, work.tmp)
    X += incr
    if split:
        _damp(table, X, half_fac, work.alt)
    elif scheme == "conservative":
        e = _path_dot(X, X)
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.sqrt(energy0 / e)
        X *= np.where(e > 0.0, fac, 0.0)
    return X


def _weight_increment(
    table: CoefficientTable, X: np.ndarray, dW: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path increments of the log integrand and its quadratic variation.

    Sums over the representative channels only; their increments are
    mutually independent, which the exponential martingale requires.
    Layouts are those of :func:`_step_batch`.
    """
    zinc = np.zeros(X.shape[2])
    qvinc = np.zeros(X.shape[2])
    for row, shells, cells in table.ledger_rows:
        Xm = X[:, shells]
        zinc += _path_dot(Xm, dW[row, :, cells])
        qvinc += _path_dot(Xm, Xm)
    sigma = table.spec.sigma
    zinc /= sigma
    qvinc *= dt / sigma**2
    return zinc, qvinc


# ----------------------------------------------------------------------
# Single-path API: P = 1 adapters over the step kernel
# ----------------------------------------------------------------------


def _batch_of(x: np.ndarray) -> np.ndarray:
    """(N, d) state of one path as a new (d, N, 1) batch."""
    return x.T[:, :, None].copy()


def _path_of(X: np.ndarray) -> np.ndarray:
    return X[:, :, 0].T.copy()


def _slab_batch(table: CoefficientTable, slab: NoiseSlab) -> np.ndarray:
    """Slab increments (paths, n_star, window, d) in the kernel layout."""
    if slab.lo != table.lo or slab.increments.shape[1:3] != (len(table.star_ids), table.window):
        raise ValueError(f"slab window [{slab.lo}, {slab.hi}] does not match truncation N={table.N}")
    return np.ascontiguousarray(slab.increments.transpose(1, 3, 2, 0))


def bilinear_drift(spec: ModelSpec, state: TruncatedState) -> np.ndarray:
    """Bilinear transport part of the nonlinear drift, no quadratic correction."""
    table = CoefficientTable(spec, state.N)
    X = _batch_of(state.x)
    out = np.zeros_like(X)
    _add_terms(table.transport_terms, X, X, out, np.empty((state.N, 1)))
    return _path_of(out)


def drift_nonlinear(spec: ModelSpec, state: TruncatedState) -> np.ndarray:
    """Per-shell drift of the nonlinear system (transport plus correction)."""
    table = CoefficientTable(spec, state.N)
    X = _batch_of(state.x)
    out = np.zeros_like(X)
    _add_terms(table.transport_terms, X, X, out, np.empty((state.N, 1)))
    _sub_correction(table, X, out, np.empty_like(X))
    return _path_of(out)


def drift_linear(spec: ModelSpec, state: TruncatedState) -> np.ndarray:
    """Per-shell drift of the auxiliary linear system (correction only)."""
    table = CoefficientTable(spec, state.N)
    X = _batch_of(state.x)
    out = np.zeros_like(X)
    _sub_correction(table, X, out, np.empty_like(X))
    return _path_of(out)


def diffusion_apply(spec: ModelSpec, state: TruncatedState, slab: NoiseSlab) -> np.ndarray:
    """Noise increment for one step with the given slab."""
    table = CoefficientTable(spec, state.N)
    if slab.paths != 1:
        raise ValueError("single-path API expects a one-path slab")
    X = _batch_of(state.x)
    out = np.zeros_like(X)
    _add_terms(table.noise_terms, X, _slab_batch(table, slab), out, np.empty((state.N, 1)))
    return _path_of(out)


def _advance(spec, state, slab, which, scheme) -> TruncatedState:
    if which not in SYSTEMS:
        raise ValueError(f"unknown system {which!r}")
    table = CoefficientTable(spec, state.N)
    e0 = np.array([state.energy0])
    with np.errstate(over="ignore", invalid="ignore"):
        X = _step_batch(table, _batch_of(state.x), _slab_batch(table, slab), slab.dt, which, scheme, e0)
    if not np.all(np.isfinite(X)):
        worst = int(np.nanargmax(np.abs(state.x).max(axis=1))) + 1
        raise NumericalBlowupError(
            f"non-finite state after step at t={state.t + slab.dt:.6g} "
            f"(largest pre-step amplitude at shell {worst}); reduce dt or use scheme='split'"
        )
    return TruncatedState(N=state.N, t=state.t + slab.dt, x=_path_of(X), energy0=state.energy0)


def step_em(spec: ModelSpec, state: TruncatedState, slab: NoiseSlab, which: str = "nonlinear") -> TruncatedState:
    """One Euler-Maruyama step; aborts with a diagnostic on overflow."""
    return _advance(spec, state, slab, which, "em")


def step_split(spec: ModelSpec, state: TruncatedState, slab: NoiseSlab, which: str = "nonlinear") -> TruncatedState:
    """One Strang split step with exact quadratic damping."""
    return _advance(spec, state, slab, which, "split")


def step_conservative(
    spec: ModelSpec, state: TruncatedState, slab: NoiseSlab, which: str = "nonlinear"
) -> TruncatedState:
    """Euler-Maruyama step projected back to the initial energy sphere."""
    return _advance(spec, state, slab, which, "conservative")


def accumulate_weight(
    weight: PathWeight,
    spec: ModelSpec,
    state: TruncatedState,
    slab: NoiseSlab,
    direction: str,
) -> PathWeight:
    """Advance the Girsanov ledger by one step using the pre-step state.

    ``direction='QtoP'`` accumulates the density turning linear-system
    statistics into nonlinear-system ones; ``'PtoQ'`` the reverse (the log
    integrand flips sign, the quadratic variation is shared).
    """
    if direction not in ("PtoQ", "QtoP"):
        raise ValueError("direction must be 'PtoQ' or 'QtoP'")
    table = CoefficientTable(spec, state.N)
    zinc, qvinc = _weight_increment(table, _batch_of(state.x), _slab_batch(table, slab), slab.dt)
    sign = 1.0 if direction == "QtoP" else -1.0
    return PathWeight(z=weight.z + sign * float(zinc[0]), qv=weight.qv + float(qvinc[0]))


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


def _record_steps(record_times: Sequence[float], dt: float, nsteps: int) -> list[int]:
    steps = []
    for t in record_times:
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"record time {t} is not a multiple of dt={dt}")
        if not 0 <= k <= nsteps:
            raise ValueError(f"record time {t} outside horizon")
        steps.append(k)
    return steps


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
    from its own generator ``slab_rng(seed, b)``, keyed once, and fills only
    the cells the step reads; so results are a pure function of (seed,
    block_size), independent of scheduling and of ``threads``.  Failed paths
    are frozen, excluded from the statistics and reported in ``aborted``.
    """
    if which not in SYSTEMS:
        raise ValueError(f"unknown system {which!r}")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if weight_direction not in (None, "PtoQ", "QtoP"):
        raise ValueError("weight_direction must be None, 'PtoQ' or 'QtoP'")
    nsteps = int(round(T / dt))
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("horizon must be a multiple of dt")
    if record_times is None:
        record_times = [T]
    rec_steps = _record_steps(record_times, dt, nsteps)
    rec_index = {}
    for idx, k in enumerate(rec_steps):
        rec_index.setdefault(k, []).append(idx)

    check_shells(N)
    table = CoefficientTable(spec, N)
    x0arr = make_state(spec, N, x0).x
    d = spec.d
    nstar = len(spec.istar)
    half_fac = _half_damp_factors(table, dt) if scheme == "split" else None
    weighted = weight_direction is not None
    cells = table.slab_cells(weighted)
    sign = 1.0 if weight_direction == "QtoP" else -1.0
    sqrt_dt = math.sqrt(dt)

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
        X = np.empty((d, N, P))
        X[...] = x0arr.T[:, :, None]
        work = _StepBuffers(table, P)
        rng = slab_rng(seed, b)
        dW = np.zeros((nstar, d, table.window, P))  # cells no step reads stay zero
        alive = np.ones(P, dtype=bool)
        z = np.zeros(P)
        qv = np.zeros(P)
        e0 = np.full(P, float((x0arr * x0arr).sum()))
        partial = {k: np.zeros_like(v) for k, v in sums.items()}

        def record(idx_list):
            vals = (X * X).sum(axis=0)  # (N, P)
            energy = vals.sum(axis=0)
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

        if 0 in rec_index:
            record(rec_index[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(nsteps):
                fill_slab(rng, dW, cells, sqrt_dt)
                if weighted:
                    zinc, qvinc = _weight_increment(table, X, dW, dt)
                    z += sign * zinc
                    qv += qvinc
                X = _step_batch(table, X, dW, dt, which, scheme, e0, half_fac, work)
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
