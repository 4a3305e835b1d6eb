"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  The configurations are pinned; nothing here is tuned at
run time.  The suite takes a few minutes, dominated by the triangulation
and the exponential-martingale ensembles.
"""
import dataclasses
import math

import numpy as np
import pytest

import shellsde as s
from chain_oracle import chain_rng, increment_distribution
from goy_oracle import embed_complex, goy_complex_em_step, keyed_slab
from rates_oracle import k_eff, n0, r_max_abs
from shellsde.algebra import CoefficientTable
from shellsde.chain import ChainCaps
from shellsde.moments import embedded_matrix
from shellsde.sde import _add_velocity_terms


def report(num: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def novikov2():
    return s.build_novikov(2.0, 1.0)


# ------------------------------------------------------------------ 1


def test_acceptance_1_algebraic_validation(novikov2):
    presets = {
        "goy": s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0),
        "sabra": s.build_sabra(1.0, -1.25, 0.25, 2.0, 1.0, 0.125),
        "novikov": novikov2,
    }
    ok = True
    for name, spec in presets.items():
        ok &= s.validate_model(spec).accepted
        for iid in spec.ids:
            bumped = dataclasses.replace(
                spec,
                interactions=tuple(
                    dataclasses.replace(it, k=it.k + 1e-6) if it.iid == iid else it
                    for it in spec.interactions
                ),
            )
            detected = not s.validate_model(bumped).accepted
            ok &= detected
    report(1, ok, "presets accepted at 1e-12; every 1e-6 coefficient perturbation detected")


# ------------------------------------------------------------------ 2


def test_acceptance_2_drift_cancellation(novikov2):
    worst = 0.0
    for spec in (novikov2, s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0)):
        N = 20
        table = CoefficientTable(spec, N)
        pi_scale = spec.pi_n(N) / spec.sigma**2
        rng = np.random.default_rng(271828)
        st = s.Stepper(table, 1.0, "em", "nonlinear", False, 1)
        for _ in range(100):
            x = rng.standard_normal((N, spec.d))
            x[rng.random(N) < 0.3] = 0.0
            # the step kernel's fused terms on the one-path batch of x, at a zero slab and dt = 1
            X = x.T[:, :, None].copy()
            st._bind(X)
            st.incr.fill(0.0)
            _add_velocity_terms(st.tiles[0].noise_ops, st.v_scale)
            lhs = abs(float((x * st.incr[:, :, 0].T.copy()).sum()))
            bound = 1e-10 * float((x * x).sum()) * pi_scale
            worst = max(worst, lhs / bound)
    report(2, worst <= 1.0, f"transport orthogonality: worst ratio to bound {worst:.2e}")


# ------------------------------------------------------------------ 3


def _run_path(table, x0, dt, nsteps, which, scheme, seed):
    """Single path driven by keyed slabs; returns per-step energies."""
    stepper = s.Stepper(table, dt, scheme, which, False, 1)
    X = x0.T[:, :, None].copy()
    e0 = np.array([float((x0 * x0).sum())])
    energies = np.empty(nsteps)
    for k in range(nsteps):
        keyed_slab(table, dt, (seed, 0, k)).load(stepper)
        X = stepper.step(X, e0)
        energies[k] = (X * X).sum()
    return energies


def test_acceptance_3_energy_isometry_and_em_order(novikov2):
    # (a) projection scheme holds the ladder energy to 1e-12 over 1e4 steps
    N, dt = 8, 1e-4
    x0 = np.zeros((N, 1))
    x0[:4, 0] = [0.7, 0.5, 0.4, 0.3]
    table = CoefficientTable(novikov2, N)
    e0 = float((x0 * x0).sum())
    worst = 0.0
    for which in ("nonlinear", "linear"):
        energies = _run_path(table, x0, dt, 10_000, which, "conservative", seed=37)
        worst = max(worst, np.max(np.abs(energies - e0)) / e0)
    ok_a = worst <= 1e-12

    # (b) EM weak order: exact second moments of the discrete scheme follow a
    # closed recursion; validate it against the Monte Carlo engine once, then
    # measure its energy bias against the exact forward solution.
    spec = s.build_novikov(1.5, 1.0)
    N = 6
    x0 = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.1])
    x0 /= np.linalg.norm(x0)
    T = 1.0
    exact = s.solve_forward(s.build_qmatrix(spec, N), x0**2, [T]).mass[0]

    def em_moments(dt):
        gamma = np.array([0.5 * spec.pi_n(n) for n in range(1, N + 1)])
        transfer = []
        for n in range(1, N + 1):
            for iid in spec.ids:
                k = k_eff(spec, iid, n)
                m = n + spec.interaction(iid).r
                if k != 0.0 and 1 <= m <= N:
                    transfer.append((n - 1, m - 1, spec.sigma**2 * k * k))
        u = x0**2
        for _ in range(int(round(T / dt))):
            nu = (1.0 - dt * gamma) ** 2 * u
            for n1, m1, rate in transfer:
                nu[n1] += dt * rate * u[m1]
            u = nu
        return u

    es = s.run_ensemble(
        spec, x0, N=N, dt=1e-3, T=T, paths=20_000, which="linear", scheme="em",
        seed=17, record_times=[T],
    )
    z = abs(es.energy_mean[0] - em_moments(1e-3).sum()) / es.energy_se[0]
    ok_b1 = z <= 3.0

    dts = np.array([1e-3, 5e-4, 2.5e-4])
    biases = np.array([em_moments(dt).sum() - exact for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(np.abs(biases)), 1)[0]
    ok_b2 = 0.8 <= slope <= 1.2 and np.all(biases > 0.0)

    report(
        3,
        ok_a and ok_b1 and ok_b2,
        f"conservative energy drift {worst:.1e} (<=1e-12); EM recursion vs MC z={z:.2f}; "
        f"bias slope {slope:.3f} in [0.8, 1.2]",
    )


# ------------------------------------------------------------------ 4


def test_acceptance_4_qmatrix(novikov2):
    ok = True
    details = []
    for spec in (novikov2, s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0)):
        N = 25
        Q = s.build_qmatrix(spec, N)
        sym = np.max(np.abs(Q.matrix - Q.matrix.T))
        ok &= sym == 0.0
        rows = Q.matrix.sum(axis=1)
        interior = N - r_max_abs(spec)
        ok &= bool(np.all(np.abs(rows[:interior]) <= 1e-12 * Q.pi[:interior]))
        ns = np.arange(n0(spec), N + 1)
        slope = np.polyfit(ns, np.log(Q.pi[ns - 1]), 1)[0]
        target = 2.0 * math.log(spec.lam)
        ok &= abs(slope - target) <= 0.02 * target
        details.append(f"sym diff {sym:.0e}, exponent {slope:.4f} vs {target:.4f}")
    report(4, ok, "; ".join(details))


# ------------------------------------------------------------------ 5


def test_acceptance_5_triangulation(novikov2):
    times = [0.25, 0.5, 1.0]
    dt, paths, replicates = 1e-4, 10_000, 10_000
    N_ode = 15
    # the SDE route runs at the deepest truncation whose jump rates the
    # pinned step can resolve (pi_n * dt <= 1); deeper shells carry less
    # second-moment mass than the Monte Carlo resolution floor below
    n_sde = 1
    while n_sde < N_ode and novikov2.pi_n(n_sde + 1) * dt <= 1.0:
        n_sde += 1
    ens = s.run_ensemble(
        novikov2, [1.0], N=n_sde, dt=dt, T=1.0, paths=paths, which="linear",
        scheme="em", seed=2025, record_times=times, block_size=10_000,
    )
    sol = s.solve_forward(s.build_qmatrix(novikov2, N_ode), np.eye(N_ode)[0], times)
    start = np.zeros(40)
    start[0] = 1.0
    surv = s.survival_curve(
        novikov2, start, times, replicates=replicates, caps=ChainCaps(200_000, 40), seed=2026
    )
    floor = 4.0 / min(paths, replicates)  # resolution of a zero-count estimate
    npass, cells = 0, 0
    for ti in range(len(times)):
        for n in range(1, 11):
            a = float(ens.mean_sq[ti, n - 1]) if n <= n_sde else 0.0
            sa = float(ens.se_sq[ti, n - 1]) if n <= n_sde else 0.0
            b = float(sol.u[ti, n - 1])
            c = float(surv.occupancy[ti, n - 1])
            sc = float(surv.occupancy_se[ti, n - 1])
            ok = True
            for (x, sx), (y, sy) in [((a, sa), (b, 0.0)), ((a, sa), (c, sc)), ((b, 0.0), (c, sc))]:
                comb = math.hypot(sx, sy)
                diff = abs(x - y)
                ok &= diff <= 3.0 * comb or diff <= floor
            cells += 1
            npass += ok
    frac = npass / cells
    report(
        5,
        frac >= 0.95 and ens.aborted == 0,
        f"three-route agreement in {npass}/{cells} cells ({frac:.1%}); sde truncation {n_sde}",
    )


# ------------------------------------------------------------------ 6


def test_acceptance_6_dissipation_evidence(novikov2):
    tgrid = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 60)])
    masses = {}
    for N in (10, 15, 20):
        sol = s.solve_forward(s.build_qmatrix(novikov2, N), np.eye(N)[0], tgrid)
        masses[N] = sol.mass
    dc = s.decay_constants(novikov2, 1.0, 20)
    bound = dc.C * np.exp(-novikov2.sigma**2 * tgrid / dc.mu)
    late = tgrid >= 0.1
    ok_loss = bool(np.all(masses[20][late] < 1.0 - 1e-6))
    ok_bound = bool(np.all(masses[20] <= bound + 1e-12))
    ok_mono = bool(
        np.all(masses[15] >= masses[10] - 1e-10) and np.all(masses[20] >= masses[15] - 1e-10)
    )
    report(
        6,
        ok_loss and ok_bound and ok_mono,
        f"mass(0.1)={masses[20][late][0]:.4f} < 1; bound C={dc.C:.3f}, rate {novikov2.sigma**2/dc.mu:.3f}; "
        "mass nondecreasing in N",
    )


# ------------------------------------------------------------------ 7


def test_acceptance_7_embedded_drift():
    goy = s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0)
    inc = increment_distribution(goy)
    exact_ok = abs(inc.drift - 0.6) <= 1e-12
    # one hundred thousand embedded steps from a bulk shell, where the jump
    # law equals the stationary increment distribution
    P = embedded_matrix(goy, 60)
    pos = 20
    row = P[pos - 1]
    idx = np.nonzero(row)[0]
    cum = np.cumsum(row[idx]) / row[idx].sum()
    rng = chain_rng(424242, 0)
    draws = np.searchsorted(cum, rng.random(100_000), side="right")
    moves = (idx[draws] + 1) - pos
    mean = moves.mean()
    se = moves.std() / math.sqrt(len(moves))
    emp_ok = abs(mean - 0.6) <= 3.0 * se
    report(7, exact_ok and emp_ok, f"drift exact {inc.drift!r}; empirical {mean:.4f} +- {se:.4f}")


# ------------------------------------------------------------------ 8


def test_acceptance_8_girsanov(novikov2):
    # exponential martingale at T = 1 over 1e4 linear-system paths
    es = s.run_ensemble(
        novikov2, [1.0], N=10, dt=1e-4, T=1.0, paths=10_000, which="linear",
        scheme="split", seed=808, record_times=[1.0], weight_direction="QtoP",
        block_size=10_000,
    )
    z = abs(es.weight_mean[0] - 1.0) / es.weight_se[0]
    ok_mart = z <= 3.0
    # pathwise quadratic-variation bound on energy-projected paths
    cons = s.run_ensemble(
        novikov2, [1.0], N=10, dt=1e-4, T=1.0, paths=2_000, which="linear",
        scheme="conservative", seed=809, record_times=[1.0], weight_direction="QtoP",
    )
    bound = 1 * 1.0 * 1.0 / novikov2.sigma**2  # |I*| ||x||^2 T / sigma^2
    ok_qv = cons.qv_max[0] <= bound + 1e-9
    report(
        8,
        ok_mart and ok_qv,
        f"E[exp(z - sum log cosh)] = {es.weight_mean[0]:.4f} +- {es.weight_se[0]:.4f} (z={z:.2f}); "
        f"max qv {cons.qv_max[0]:.4f} <= {bound}",
    )


# ------------------------------------------------------------------ 9


def test_acceptance_9_goy_conjugacy():
    goy = s.build_goy(1.0, -1.0, 0.0, 2.0, 1.0)
    N, dt, nsteps = 6, 1e-5, 1000
    rng = np.random.default_rng(5150)
    u = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.3
    stepper = s.Stepper(CoefficientTable(goy, N), dt, "em", "nonlinear", False, 1)
    X = embed_complex(u).T[:, :, None].copy()
    e0 = np.array([float((X * X).sum())])
    worst = 0.0
    for k in range(nsteps):
        slab = keyed_slab(stepper.table, dt, (6060, 0, k))
        slab.load(stepper)
        X = stepper.step(X, e0)
        x = X[:, :, 0].T
        u = goy_complex_em_step(u, goy, slab)
        diff = np.abs(embed_complex(u) - x).max()
        worst = max(worst, diff / (1.0 + np.abs(x).max()))
    report(9, worst <= 1e-12, f"complex/real step agreement over {nsteps} steps: {worst:.2e}")


# ------------------------------------------------------------------ 10


def test_acceptance_10_sigma_invariance():
    a = s.decay_constants(s.build_novikov(2.0, 1.0), 1.0, 30)
    b = s.decay_constants(s.build_novikov(2.0, 2.0), 1.0, 30)
    rel = abs(a.mu - b.mu) / abs(a.mu)
    report(10, rel <= 1e-10, f"mu(sigma=1)={a.mu:.12f}, mu(sigma=2)={b.mu:.12f}, rel diff {rel:.2e}")
