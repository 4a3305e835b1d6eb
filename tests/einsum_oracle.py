"""Reference step formulas: the generic three-operand einsum over (P, N, d) batches.

These are the engine's earlier kernels, kept as an oracle for the unrolled
step kernel in :mod:`shellsde.sde`.  They read the offsets and bilinear
maps from the model's interactions and only the coefficient arrays of a
:class:`CoefficientTable` (``keff``, ``star_row``, ``gamma``), never its
kernel term lists.  Slabs keep the sampling layout
(P, n_star, width, d) of :func:`noise_oracle.window_layout`, with window
cell 0 at shell index ``lo``.
"""
import numpy as np


def damping_rates(table):
    """Scalar damping rate per shell, valid when every gram is the identity."""
    return 0.5 * table.spec.sigma**2 * (table.keff**2).sum(axis=0)


def transport(table, X):
    P, N, d = X.shape
    out = np.zeros_like(X)
    for j, it in enumerate(table.spec.interactions):
        r, h = it.r, it.h
        nlo = max(1, 1 - r, 1 - h)
        nhi = min(N, N - r, N - h)
        if nlo > nhi:
            continue
        sl = slice(nlo - 1, nhi)
        Xr = X[:, nlo - 1 + r : nhi + r]
        Xh = X[:, nlo - 1 + h : nhi + h]
        term = np.einsum("abc,pnb,pnc->pna", it.B.entries, Xr, Xh)
        out[:, sl] += table.keff[j, sl][None, :, None] * term
    return out


def correction(table, X):
    if table.identity_grams:
        return -damping_rates(table)[None, :, None] * X
    return -np.einsum("nab,pnb->pna", table.gamma, X)


def diffusion(table, X, dW, lo):
    """Noise increment sum_i sigma * k_eff * B_i(X_{n+r_i}, dW_{i, n+h_i})."""
    P, N, d = X.shape
    sigma = table.spec.sigma
    out = np.zeros_like(X)
    for j, it in enumerate(table.spec.interactions):
        r, h = it.r, it.h
        nlo = max(1, 1 - r)
        nhi = min(N, N - r)
        if nlo > nhi:
            continue
        sl = slice(nlo - 1, nhi)
        Xr = X[:, nlo - 1 + r : nhi + r]
        Wj = dW[:, table.star_row[j], nlo + h - lo : nhi + h - lo + 1]
        term = np.einsum("abc,pnb,pnc->pna", it.B.entries, Xr, Wj)
        out[:, sl] += sigma * table.keff[j, sl][None, :, None] * term
    return out


def weight_increment(table, X, dW, lo, dt):
    P, N, d = X.shape
    spec = table.spec
    zinc = np.zeros(P)
    qvinc = np.zeros(P)
    compinc = np.zeros(P)
    for row, iid in enumerate(spec.star_ids()):
        h = spec.interaction(iid).h
        mlo = max(1, 1 + h)
        if mlo > N:
            continue
        Xm = X[:, mlo - 1 : N]
        Wm = dW[:, row, mlo - lo : N - lo + 1]
        zinc += (Xm * Wm).sum(axis=(1, 2)) / spec.sigma
        qvinc += (Xm * Xm).sum(axis=(1, 2)) * dt / spec.sigma**2
        compinc += np.log(np.cosh(Xm * np.sqrt(dt) / spec.sigma)).sum(axis=(1, 2))
    return zinc, qvinc, compinc


def half_damp_factors(table, dt):
    if table.identity_grams:
        return np.exp(-damping_rates(table) * dt / 2.0)
    out = np.empty_like(table.gamma)
    for n in range(table.N):
        w, V = np.linalg.eigh(table.gamma[n])
        out[n] = (V * np.exp(-w * dt / 2.0)) @ V.T
    return out


def apply_damp(table, X, fac):
    if table.identity_grams:
        return fac[None, :, None] * X
    return np.einsum("nab,pnb->pna", fac, X)


def step(table, X, dW, lo, dt, which, scheme, energy0=None):
    nonlinear = which == "nonlinear"
    if scheme == "split":
        half_fac = half_damp_factors(table, dt)
        X = apply_damp(table, X, half_fac)
        incr = diffusion(table, X, dW, lo)
        if nonlinear:
            incr = incr + dt * transport(table, X)
        X = X + incr
        return apply_damp(table, X, half_fac)
    drift = correction(table, X)
    if nonlinear:
        drift = drift + transport(table, X)
    Xn = X + dt * drift + diffusion(table, X, dW, lo)
    if scheme == "conservative":
        e = (Xn * Xn).sum(axis=(1, 2))
        target = energy0 if energy0 is not None else (X * X).sum(axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            fac = np.sqrt(target / e)
        fac = np.where(e > 0.0, fac, 0.0)
        Xn = Xn * fac[:, None, None]
    return Xn
