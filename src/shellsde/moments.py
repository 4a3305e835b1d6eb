"""Second-moment flow: the symmetric rate matrix and its forward equation.

When every interaction gram is the identity, the expected squared shell
amplitudes of the auxiliary linear system close into a deterministic
system u' = u Pi, where Pi is a symmetric, stable, conservative rate
matrix on the positive integers.  This module builds its absorbing
truncation, propagates the forward equation, and assembles the decay
constants controlling the exponential loss of mass.  The rate matrix, the
embedded chain and the decay constants all read their rates from
:func:`shellsde.algebra.jump_rates`, the table the SDE engine and the jump
chain read too.

Boundary treatment is absorbing: rows beyond the truncation are removed
and the outward flux is tracked as escaped mass.  The untruncated chain
loses mass to infinity in finite time, and absorption approximates that
minimal solution monotonically from below (a reflecting border would
instead trap the mass and destroy the effect being measured).

Tolerances: the equation is linear, so ``MASS_TOL`` times the initial mass
bounds the roundoff of any mass; the decay constants converge when their
occupation-time sums move by at most ``TAIL_TOL`` relatively at N + 5, a
probe that borders the inverse at N rather than inverting again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .algebra import TINY, ModelSpec, NumericalBlowupError, jump_rates, require_finite_rates, require_identity_grams
from .noise import check_shells

__all__ = [
    "QMatrix",
    "build_qmatrix",
    "MomentSolution",
    "solve_forward",
    "DecayConstants",
    "decay_constants",
    "smallness_threshold_goy_sabra",
    "embedded_matrix",
]

MASS_TOL = 1e-10  # relative to the initial mass
TAIL_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Absorbing truncation of the second-moment rate matrix.

    ``matrix[n-1, m-1]`` holds the jump rate n -> m inside 1..N, and the
    diagonal the full exit rate -pi_n, rates past the truncation included.
    """

    N: int
    matrix: np.ndarray
    pi: np.ndarray


def build_qmatrix(spec: ModelSpec, N: int) -> QMatrix:
    """Rate matrix of the truncated second-moment flow.

    Off-diagonal entries are the in-range rates of :func:`jump_rates`,
    sigma**2 * k_eff(i, n)**2 summed over interactions with shell offset
    m - n; the pairing makes the result symmetric.  Rates that are not
    finite through shell N are a ``ValueError``.
    """
    require_identity_grams(spec)
    if N < 1:
        raise ValueError("N must be >= 1")
    check_shells(N)
    rates = jump_rates(spec, N)
    require_finite_rates(rates.pi, f"the rate matrix at N = {N} reads shells 1..{N}")
    Q = rates.inside()
    pi = rates.pi
    np.fill_diagonal(Q, -pi)
    return QMatrix(N=N, matrix=Q, pi=pi)


@dataclass(frozen=True, eq=False)
class MomentSolution:
    times: np.ndarray
    u: np.ndarray  # (T, N), nonnegative
    mass: np.ndarray  # (T,)
    escaped: np.ndarray  # (T,)
    decay_rate: float  # -lambda_max(Q), the rate at which the mass decays as t grows


def solve_forward(Q: QMatrix, u0: Sequence[float], tgrid: Sequence[float]) -> MomentSolution:
    """Propagate u' = u Pi from a nonnegative initial condition.

    Evaluates the exact matrix exponential through the symmetric
    eigendecomposition Pi = V diag(w) V^T (the matrix is symmetric, so this
    is both exact and stable at any stiffness): with c = u0 V, the rows
    u(t) = (exp(t w) * c) V^T for every grid time are one matrix product.
    The largest eigenvalue gives ``decay_rate``.  A solution negative
    beyond ``MASS_TOL`` times the initial mass (eigh's error on a stiff Q)
    is a :class:`NumericalBlowupError`.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (Q.N,):
        raise ValueError(f"u0 must have shape ({Q.N},)")
    if np.any(u0 < 0.0):
        raise ValueError("u0 must be entrywise nonnegative")
    t = np.asarray(tgrid, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time grid must be nonnegative")
    mass0 = float(u0.sum())
    w, V = np.linalg.eigh(Q.matrix)
    coeff = u0 @ V
    with np.errstate(under="ignore"):
        u = (np.exp(np.outer(t, w)) * coeff) @ V.T
    if u.min() < -MASS_TOL * mass0:
        raise NumericalBlowupError(f"forward solution went negative beyond roundoff: min={u.min():.3e}")
    u = np.maximum(u, 0.0)
    mass = u.sum(axis=1)
    return MomentSolution(times=t, u=u, mass=mass, escaped=mass0 - mass, decay_rate=-float(w[-1]))


# ----------------------------------------------------------------------
# Embedded chain and decay constants
# ----------------------------------------------------------------------


def embedded_matrix(spec: ModelSpec, N: int) -> np.ndarray:
    """Transition matrix of the embedded jump chain on 1..N, absorbing outside.

    Rows are the in-range rates of :func:`jump_rates` over pi_n; a row
    without rates stays zero.
    """
    require_identity_grams(spec)
    rates = jump_rates(spec, N)
    pi = rates.pi[:, None]
    with np.errstate(invalid="ignore"):  # a row without rates is 0 / 0
        return np.where(pi > 0.0, rates.inside() / pi, 0.0)


@dataclass(frozen=True, eq=False)
class DecayConstants:
    """Occupation-time constants of the embedded chain and derived bounds.

    ``nu_n`` are expected total occupation times, ``mu = sigma**2 * nu`` the
    inverse decay rate, ``C`` the prefactor of the mass bound, ``rho`` the
    smallness parameter of the measure-change argument and ``theta_max``
    the largest admissible exponential moment coefficient.
    """

    N: int
    x_norm_sq: float
    nu_n: np.ndarray
    nu: float
    Lambda: float
    mu: float
    C: float
    rho: float
    theta_max: float
    tail_rel_change: float
    converged: bool

    def as_dict(self) -> dict:
        """Every field but the ``nu_n`` array."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "nu_n"}


def _occupation_times(spec: ModelSpec, N: int) -> tuple[np.ndarray, np.ndarray]:
    """nu_n at N and at N + 5 from one inverse, at N, bordered out to N + 5.

    nu_n = diag((I - P)^-1)_n / pi_n, the diagonal of the embedded chain's
    fundamental matrix over the exit rates.  With I - P at N + 5 written as
    blocks [[A, B], [C, D]], A the leading N x N block (I - P at N) and
    S = D - C A^-1 B (5 x 5), the diagonal at N + 5 is
    diag(A^-1) + diag(A^-1 B S^-1 C A^-1) on shells 1..N and diag(S^-1) on
    the five shells past N.  I - P is an M-matrix, so the correction is
    entrywise >= 0 and adds to diag(A^-1) without cancellation.
    """
    pi = jump_rates(spec, N + 5).pi
    reader = f"the decay constants at N = {N} read shells 1..{N + 5}"
    require_finite_rates(pi, reader)
    stuck = np.flatnonzero(pi == 0.0)
    if stuck.size:
        raise ValueError(f"exit rate pi_n = 0 at shell {stuck[0] + 1}, which has no occupation time; {reader}")
    K = np.eye(N + 5) - embedded_matrix(spec, N + 5)
    A_inv = np.linalg.inv(K[:N, :N])
    A_inv_B = A_inv @ K[:N, N:]
    C_A_inv = K[N:, :N] @ A_inv
    S_inv = np.linalg.inv(K[N:, N:] - K[N:, :N] @ A_inv_B)
    diag = np.diag(A_inv)
    border = ((A_inv_B @ S_inv) * C_A_inv.T).sum(axis=1)
    return diag / pi[:N], np.concatenate([diag + border, np.diag(S_inv)]) / pi


def decay_constants(spec: ModelSpec, x_norm_sq: float, N: int) -> DecayConstants:
    """Assemble the exponential-decay constants at truncation level N.

    Convergence of the occupation times is probed at N + 5, by bordering
    the inverse at N (:func:`_occupation_times`); ``converged`` is False
    when the sums of nu_n or of -nu_n log nu_n still move by more than
    ``TAIL_TOL`` relatively.  Rates that are not finite, or an exit rate
    that is 0, through shell N + 5 are a ``ValueError``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if x_norm_sq <= 0.0:
        raise ValueError("x_norm_sq must be positive")
    nu_n, nu_big = _occupation_times(spec, N)
    nu = float(nu_n.sum())
    Lambda = float(-(nu_n * np.log(nu_n)).sum())
    nu2 = float(nu_big.sum())
    Lambda2 = float(-(nu_big * np.log(nu_big)).sum())
    # shells near the border always shift individually; what must settle are
    # the occupation-time sums the constants are built from
    tail_rel_change = float(
        max(abs(nu2 - nu) / abs(nu2), abs(Lambda2 - Lambda) / max(abs(Lambda2), TINY))
    )
    mu = spec.sigma**2 * nu
    C = x_norm_sq * nu * math.exp(Lambda / nu)
    rho = math.sqrt(mu * spec.size) * math.sqrt(x_norm_sq) / (2.0 * spec.sigma**2)
    theta_max = spec.sigma**2 / (mu * x_norm_sq)
    return DecayConstants(
        N=N,
        x_norm_sq=x_norm_sq,
        nu_n=nu_n,
        nu=nu,
        Lambda=Lambda,
        mu=mu,
        C=C,
        rho=rho,
        theta_max=theta_max,
        tail_rel_change=tail_rel_change,
        converged=tail_rel_change <= TAIL_TOL,
    )


def smallness_threshold_goy_sabra(a: float, c: float, lam: float, sigma: float) -> Optional[float]:
    """Initial-norm threshold sqrt(2) (lam - 1/lam) sqrt(a**2 - c**2/lam**2) sigma**2.

    Returns None when the radicand a**2 - c**2 / lam**2 is not positive;
    the bound is not defined for those parameters.
    """
    rad = a * a - (c / lam) ** 2
    if rad <= 0.0:
        return None
    return math.sqrt(2.0) * (lam - 1.0 / lam) * math.sqrt(rad) * sigma**2
