"""Reference rate loops and propagation for the second-moment routes.

:func:`k_eff` is the scalar definition of an effective coefficient, and
:func:`active_ids`, :func:`n0` and :func:`r_max_abs` describe where the
interactions act.  The rest are the earlier bodies of the package's rate
code: one Python loop over (shell, interaction) calling :func:`k_eff`, in
each of
``ModelSpec.pi_n``, :func:`shellsde.moments.build_qmatrix`,
:func:`shellsde.moments.embedded_matrix` and the rows of
``shellsde.chain._RateTable``, plus the single-jump embedded step and two
independent propagations of the forward equation: a dense ``expm`` and an
implicit Radau integration.  The package now reads all of these from
:func:`shellsde.algebra.jump_rates`; the tests hold it to these loops.
:func:`forward_contraction` is the earlier assembly of the forward solve,
u(t) as a three-operand ``einsum`` over the same eigenpairs.
:func:`nu_vector` is the earlier body of the decay constants' occupation
times, one inverse per truncation level, and :func:`mp_nu_vector` their
high-precision reference from the scalar rates.
"""
import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg

from shellsde import moments
from shellsde.algebra import TINY, jump_rates


def is_active(spec, iid, n):
    """Whether interaction ``iid`` acts at shell ``n``: shells n, n + r and n + h all exist."""
    it = spec.interaction(iid)
    return n >= 1 and n + it.r >= 1 and n + it.h >= 1


def active_ids(spec, n):
    return tuple(iid for iid in spec.ids if is_active(spec, iid, n))


def n0(spec):
    """Shell index from which every interaction is active."""
    lo = min(min(it.r for it in spec.interactions), min(it.h for it in spec.interactions), 0)
    return 1 - lo


def r_max_abs(spec):
    return max(abs(it.r) for it in spec.interactions)


def k_eff(spec, iid, n):
    """Coefficient of interaction ``iid`` at shell ``n``: k * lam**n, zero when inactive."""
    if not is_active(spec, iid, n):
        return 0.0
    return spec.interaction(iid).k * spec.lam**n


def pi_n(spec, n):
    """Total quadratic rate sigma**2 * sum_i k_eff(i, n)**2 at shell ``n``."""
    return spec.sigma**2 * sum(k_eff(spec, iid, n) ** 2 for iid in spec.ids)


def qmatrix(spec, N):
    """(matrix, pi, escape) of the absorbing rate matrix, accumulated per interaction."""
    Q = np.zeros((N, N))
    pi = np.zeros(N)
    escape = np.zeros(N)
    for n in range(1, N + 1):
        for iid in spec.ids:
            k = k_eff(spec, iid, n)
            if k == 0.0:
                continue
            rate = spec.sigma**2 * k * k
            pi[n - 1] += rate
            m = n + spec.interaction(iid).r
            if 1 <= m <= N:
                Q[n - 1, m - 1] += rate
            elif m > N:
                escape[n - 1] += rate
        Q[n - 1, n - 1] = -pi[n - 1]
    return Q, pi, escape


def embedded_matrix(spec, N):
    """Embedded-chain transition matrix from the squared coefficients, sigma cancelled."""
    P = np.zeros((N, N))
    for n in range(1, N + 1):
        total = 0.0
        rates = {}
        for iid in spec.ids:
            k = k_eff(spec, iid, n)
            if k == 0.0:
                continue
            total += k * k
            m = n + spec.interaction(iid).r
            rates[m] = rates.get(m, 0.0) + k * k
        if total == 0.0:
            continue
        for m, v in rates.items():
            if 1 <= m <= N:
                P[n - 1, m - 1] = v / total
    return P


def chain_rows(spec, max_level):
    """(cum, targets) of the chain's jump rows, padded with +inf and 0.

    Targets past ``max_level`` are kept; the last real cumulative entry of
    each row is stored as +inf.
    """
    rows = []
    for n in range(1, max_level + 1):
        rates = {}
        for iid in spec.ids:
            k = k_eff(spec, iid, n)
            if k == 0.0:
                continue
            m = n + spec.interaction(iid).r
            rates[m] = rates.get(m, 0.0) + spec.sigma**2 * k * k
        t = np.array(sorted(rates), dtype=np.int64)
        p = np.array([rates[m] for m in t], dtype=float)
        cum = np.cumsum(p) / p.sum() if rates else p
        cum[-1:] = np.inf
        rows.append((t, cum))
    width = max([1] + [len(t) for t, _ in rows])
    cum = np.full((max_level, width), np.inf)
    targets = np.zeros((max_level, width), dtype=np.int64)
    for n, (t, c) in enumerate(rows):
        targets[n, : len(t)] = t
        cum[n, : len(t)] = c
    return cum, targets


def embedded_step(spec, n, rng):
    """One jump of the embedded discrete chain from position n.

    The target law is the normalised rate row, which does not depend on
    sigma (it cancels between numerator and denominator).
    """
    if n < 1:
        raise ValueError("position must be >= 1")
    rates = {}
    for iid in spec.ids:
        k = k_eff(spec, iid, n)
        if k == 0.0:
            continue
        m = n + spec.interaction(iid).r
        rates[m] = rates.get(m, 0.0) + k * k
    if not rates:
        raise ValueError(f"no active interaction at shell {n}")
    targets = np.array(sorted(rates))
    probs = np.array([rates[m] for m in targets])
    cum = np.cumsum(probs) / probs.sum()
    return int(targets[np.searchsorted(cum, rng.random(), side="right")])


def expm_oracle(Q, u0, t):
    """Independent dense propagation via scipy's scaling-and-squaring expm."""
    u0 = np.asarray(u0, dtype=float)
    return u0 @ scipy.linalg.expm(Q.matrix * t)


def radau_oracle(Q, u0, t):
    """(len(t), N) solution of u' = u Q at the times ``t`` by scipy's L-stable implicit Radau solver."""
    u0 = np.asarray(u0, dtype=float)
    t = np.asarray(t, dtype=float)
    order = np.argsort(t)
    QT = Q.matrix.T.copy()
    sol = scipy.integrate.solve_ivp(
        lambda _, y: QT @ y,
        (0.0, float(t[order[-1]])),
        u0,
        method="Radau",
        t_eval=t[order],
        jac=lambda *_: QT,
        rtol=1e-10,
        atol=1e-14 * max(float(u0.sum()), 1.0),
    )
    assert sol.success, sol.message
    u = np.empty((len(t), Q.N))
    u[order] = sol.y.T
    return u


def forward_contraction(Q, u0, t):
    """(u, decay_rate, min) of the forward solve, u(t) the earlier three-operand einsum over the eigenpairs.

    ``u`` is clipped at 0 as the solve clips it; ``min`` is its smallest entry before the clip.
    """
    w, V = np.linalg.eigh(Q.matrix)
    coeff = np.asarray(u0, dtype=float) @ V
    with np.errstate(under="ignore"):
        u = np.einsum("k,tk,nk->tn", coeff, np.exp(np.outer(np.asarray(t, dtype=float), w)), V)
    return np.maximum(u, 0.0), -float(w[-1]), float(u.min())


def nu_vector(spec, N):
    """nu_n = diag((I - P)^-1)_n / pi_n at N from its own N x N inverse of the package's embedded chain."""
    M = np.linalg.inv(np.eye(N) - moments.embedded_matrix(spec, N))
    return np.diag(M) / jump_rates(spec, N).pi


def tail_rel_change(nu_n, nu_big):
    """The decay constants' convergence measure: the larger relative move of sum(nu) and of -sum(nu log nu)."""
    nu, nu2 = nu_n.sum(), nu_big.sum()
    Lambda, Lambda2 = -(nu_n * np.log(nu_n)).sum(), -(nu_big * np.log(nu_big)).sum()
    return float(max(abs(nu2 - nu) / abs(nu2), abs(Lambda2 - Lambda) / max(abs(Lambda2), TINY)))


def mp_nu_vector(spec, N, dps=40):
    """nu_n at N in ``dps``-digit arithmetic, from the rates sigma**2 (k lam**n)**2 of :func:`is_active` interactions."""
    with mpmath.workdps(dps):
        lam, sigma2 = mpmath.mpf(spec.lam), mpmath.mpf(spec.sigma) ** 2
        K = mpmath.eye(N)
        pi = []
        for n in range(1, N + 1):
            rates = {}
            for iid in spec.ids:
                it = spec.interaction(iid)
                if is_active(spec, iid, n) and it.k != 0.0:
                    rates[n + it.r] = rates.get(n + it.r, 0) + sigma2 * (mpmath.mpf(it.k) * lam**n) ** 2
            pi.append(sum(rates.values(), mpmath.mpf(0)))
            for m, rate in rates.items():
                if 1 <= m <= N:
                    K[n - 1, m - 1] -= rate / pi[-1]
        M = mpmath.inverse(K)
        return np.array([float(M[n, n] / pi[n]) for n in range(N)])
