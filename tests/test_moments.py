import dataclasses
import math

import mpmath
import numpy as np
import pytest

import shellsde as s
from rates_oracle import escape_past, expm_oracle, forward_contraction, n0, qmatrix, r_max_abs, radau_oracle
from shellsde.algebra import BilinearMap, IdentityGramError, jump_rates
from shellsde.cli import _time_grid
from shellsde.modelio import load_model
from shellsde.moments import MASS_TOL, embedded_matrix
from shellsde.noise import MAX_SHELLS
from shellsde.sde import NumericalBlowupError  # the ensembles' error: both routes refuse with one class


def test_novikov_rates_hand_values(novikov):
    Q = s.build_qmatrix(novikov, 6)
    assert Q.pi[0] == pytest.approx(4.0)
    assert Q.matrix[0, 1] == pytest.approx(4.0)
    assert Q.matrix[1, 0] == pytest.approx(4.0)
    for n in range(2, 7):
        assert Q.pi[n - 1] == pytest.approx(4.0**n * 1.25)


def test_symmetry_exact_dyadic(novikov, goy):
    for spec in (novikov, goy):
        Q = s.build_qmatrix(spec, 20)
        assert np.max(np.abs(Q.matrix - Q.matrix.T)) == 0.0


def test_symmetry_general_lambda():
    spec = s.build_novikov(1.7, 1.3)
    Q = s.build_qmatrix(spec, 15)
    scale = np.abs(Q.matrix).max()
    assert np.max(np.abs(Q.matrix - Q.matrix.T)) <= 1e-12 * scale


def test_row_sums_and_escape(novikov, goy):
    for spec in (novikov, goy):
        N = 18
        Q = s.build_qmatrix(spec, N)
        rows = Q.matrix.sum(axis=1)
        _, _, escape = qmatrix(spec, N)
        assert np.array_equal(escape_past(jump_rates(spec, N)), escape)
        interior = N - r_max_abs(spec)
        for n in range(1, N + 1):
            if n <= interior:
                assert abs(rows[n - 1]) <= 1e-12 * Q.pi[n - 1]
                assert escape[n - 1] == 0.0
            else:
                assert escape[n - 1] >= 0.0
        assert escape[-1] > 0.0


def test_zero_sigma_like_rates():
    # coefficients scaled to zero give a zero matrix
    spec = s.build_novikov(2.0, 1.0)
    dead = dataclasses.replace(
        spec,
        interactions=tuple(dataclasses.replace(it, k=0.0) for it in spec.interactions),
    )
    Q = s.build_qmatrix(dead, 5)
    assert np.all(Q.matrix == 0.0)


def test_pi_growth_exponent(novikov, goy):
    for spec in (novikov, goy):
        N = 25
        ns = np.arange(n0(spec), N + 1)
        logpi = np.log([spec.pi_n(int(n)) for n in ns])
        slope = np.polyfit(ns, logpi, 1)[0]
        assert abs(slope - 2.0 * math.log(spec.lam)) <= 1e-9


def test_non_identity_gram_refused(goy):
    scaled = dataclasses.replace(
        goy,
        interactions=tuple(
            dataclasses.replace(it, B=BilinearMap(1.1 * it.B.entries)) for it in goy.interactions
        ),
    )
    assert s.validate_model(scaled).accepted  # algebra is still conservative
    with pytest.raises(IdentityGramError):
        s.build_qmatrix(scaled, 5)


def test_qmatrix_rejects_too_many_shells(novikov):
    with pytest.raises(ValueError, match=f"N = {MAX_SHELLS + 1} exceeds MAX_SHELLS = {MAX_SHELLS}"):
        s.build_qmatrix(novikov, MAX_SHELLS + 1)


def test_decay_constants_probe_past_max_shells(novikov, goy):
    # the convergence probe at N + 5 builds no rate matrix, so it may pass MAX_SHELLS
    for spec, N in ((novikov, 60), (goy, MAX_SHELLS)):
        dc = s.decay_constants(spec, 1.0, N)
        assert dc.N == N and np.all(np.isfinite(dc.nu_n)) and dc.converged


# ----------------------------------------------------------------- forward solve


def test_zero_initial_condition_stays_zero(novikov):
    Q = s.build_qmatrix(novikov, 6)
    sol = s.solve_forward(Q, np.zeros(6), [0.0, 0.5, 1.0])
    assert np.all(sol.u == 0.0)
    assert np.all(sol.mass == 0.0)


def test_forward_matches_expm_oracle(novikov):
    Q = s.build_qmatrix(novikov, 3)
    u0 = np.array([1.0, 0.0, 0.0])
    sol = s.solve_forward(Q, u0, [0.1])
    oracle = expm_oracle(Q, u0, 0.1)
    assert np.max(np.abs(sol.u[0] - oracle)) <= 1e-10


def test_forward_modes_agree(novikov):
    Q = s.build_qmatrix(novikov, 8)
    u0 = np.eye(8)[0]
    t = [0.05, 0.2, 1.0]
    a = s.solve_forward(Q, u0, t)
    b = radau_oracle(Q, u0, t)
    assert np.max(np.abs(a.u - b)) <= 1e-6


@pytest.mark.parametrize("grid", ["geometric", "linear"])
@pytest.mark.parametrize("ref", ["novikov", "novikov:lambda=1.6", "goy", "sabra"])
def test_forward_assembly_matches_the_contraction(ref, grid):
    # one matrix product over the eigenpairs against the three-operand einsum it replaced; where
    # the einsum goes negative beyond MASS_TOL (eigh's error above 25 rows) the solve must refuse too
    spec = load_model(ref)
    for N in (1, 2, 10, 25, 26, 40, 64):
        Q = s.build_qmatrix(spec, N)
        t = _time_grid(spec, N, 3.0, 80, grid)
        for u0 in (np.eye(N)[0], np.linspace(1.0, 2.0, N)):
            u, rate, low = forward_contraction(Q, u0, t)
            if low < -MASS_TOL * u0.sum():
                with pytest.raises(NumericalBlowupError, match="went negative"):
                    s.solve_forward(Q, u0, t)
                continue
            sol = s.solve_forward(Q, u0, t)
            assert np.max(np.abs(sol.u - u)) <= 1e-14 * np.abs(u).max(), N
            assert sol.decay_rate == rate, N


@pytest.mark.parametrize("ref", ["novikov", "novikov:lambda=1.6", "goy"])
def test_decay_rate_matches_a_high_precision_eigensolve(ref):
    # -lambda_max(Q) against a 60-digit symmetric eigensolve; at N = 20 LAPACK's eigh is exact
    N = 20
    Q = s.build_qmatrix(load_model(ref), N)
    rate = s.solve_forward(Q, np.eye(N)[0], [0.0, 1.0]).decay_rate
    with mpmath.workdps(60):
        w = mpmath.eigsy(mpmath.matrix(Q.matrix.tolist()), eigvals_only=True)
        exact = -float(max(w[i] for i in range(N)))
    assert rate == pytest.approx(exact, rel=1e-12)


def test_mass_strictly_decreasing(novikov):
    Q = s.build_qmatrix(novikov, 10)
    t = np.linspace(0.0, 2.0, 9)
    sol = s.solve_forward(Q, np.eye(10)[0], t)
    assert np.all(np.diff(sol.mass) < 0.0)
    assert np.all(sol.u >= 0.0)
    assert np.all(np.diff(sol.escaped) > 0.0)


def test_mass_monotone_in_truncation(novikov):
    t = np.geomspace(1e-2, 2.0, 12)
    masses = {}
    for N in (10, 15, 20):
        Q = s.build_qmatrix(novikov, N)
        masses[N] = s.solve_forward(Q, np.eye(N)[0], t).mass
    assert np.all(masses[15] >= masses[10] - 1e-10)
    assert np.all(masses[20] >= masses[15] - 1e-10)


def test_mass_bounded_by_decay_constants(novikov):
    N = 20
    dc = s.decay_constants(novikov, 1.0, N)
    Q = s.build_qmatrix(novikov, N)
    t = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 40)])
    sol = s.solve_forward(Q, np.eye(N)[0], t)
    bound = dc.C * np.exp(-novikov.sigma**2 * t / dc.mu)
    assert np.all(sol.mass <= bound + 1e-12)


# ----------------------------------------------------------------- constants


def test_mu_sigma_invariant():
    a = s.decay_constants(s.build_novikov(2.0, 1.0), 1.0, 25)
    b = s.decay_constants(s.build_novikov(2.0, 2.0), 1.0, 25)
    assert abs(a.mu - b.mu) <= 1e-10 * abs(a.mu)
    assert abs(a.C - b.C) <= 1e-10 * abs(a.C)


def test_nu_tail_exponent(novikov):
    dc = s.decay_constants(novikov, 1.0, 25)
    ns = np.arange(n0(novikov) + 2, 20)
    slope = -np.polyfit(ns, np.log(dc.nu_n[ns - 1]), 1)[0]
    assert 1.9 * math.log(2.0) <= slope <= 2.1 * math.log(2.0)


def test_constants_inequalities(novikov):
    for xsq in (0.5, 1.0, 4.0):
        dc = s.decay_constants(novikov, xsq, 20)
        assert dc.C >= xsq
        assert dc.mu > 0.0
        assert dc.theta_max * dc.mu * xsq == pytest.approx(novikov.sigma**2)
    # rho is linear in the initial norm
    d1 = s.decay_constants(novikov, 1.0, 20)
    d4 = s.decay_constants(novikov, 4.0, 20)
    assert d4.rho == pytest.approx(2.0 * d1.rho)


def test_embedded_matrix_rows(novikov):
    P = embedded_matrix(novikov, 8)
    assert P[0, 1] == pytest.approx(1.0)
    for n in range(2, 8):
        assert P[n - 1, n] == pytest.approx(0.8)
        assert P[n - 1, n - 2] == pytest.approx(0.2)


def test_visit_identity_shell_values(novikov):
    # fundamental-matrix diagonal reproduces the closed-form return counts
    P = embedded_matrix(novikov, 30)
    M = np.linalg.inv(np.eye(30) - P)
    assert M[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-5)
    assert M[5, 5] == pytest.approx(5.0 / 3.0, rel=1e-4)


# ----------------------------------------------------------------- threshold


def test_threshold_example_value():
    got = s.smallness_threshold_goy_sabra(1.0, 0.5, 2.0, 1.0)
    assert got == pytest.approx(math.sqrt(2.0) * 1.5 * math.sqrt(0.9375))
    assert got == pytest.approx(2.0540, abs=1e-4)


def test_threshold_c_zero_closed_form():
    lam, a, sig = 2.0, 0.7, 1.3
    got = s.smallness_threshold_goy_sabra(a, 0.0, lam, sig)
    assert got == pytest.approx(math.sqrt(2.0) * (lam - 1.0 / lam) * a * sig**2)


def test_threshold_undefined_branch():
    assert s.smallness_threshold_goy_sabra(0.5, 1.0, 2.0, 1.0) is None
    assert s.smallness_threshold_goy_sabra(0.5, 1.0, 1.0 + 1e-12, 1.0) is None
