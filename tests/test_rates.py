"""The one jump-rate table against the per-(shell, interaction) loops it replaced.

Every route reads :func:`shellsde.algebra.jump_rates`: the rate matrix Q
and the embedded chain of :mod:`shellsde.moments`, the chain's rate rows
and the SDE engine's coefficient table.  Q and the chain rows must equal
the loops of ``rates_oracle`` bit for bit; the exit rates ``pi`` of every
route must now be one and the same array.  Each spec stores one table and
hands out read-only prefixes of it, so these hold in any call order.
"""
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rates_oracle as oracle
import shellsde as s
from rates_oracle import embedded_matrix
from shellsde import algebra, chain, moments
from shellsde.algebra import CoefficientTable, JumpRates, jump_rates
from shellsde.cli import main
from shellsde.chain import ChainCaps
from shellsde.moments import TAIL_TOL, build_qmatrix, decay_constants
from shellsde.noise import MAX_SHELLS

LAMS = (2.0, 1.5, 2.37, 3.0)
SHELLS = (1, 2, 10, 30, 64)


def _model(name, lam):
    if name == "novikov":
        return s.build_novikov(lam, 1.0)
    if name == "goy":
        return s.build_goy(1.0, -1.5, 0.5, lam, 1.0)
    if name == "sabra":
        return s.build_sabra(1.0, -1.25, 0.25, lam, 0.5 * lam, 0.125)
    spec = s.build_novikov(lam, 1.0)  # every coefficient zero
    return dataclasses.replace(spec, interactions=tuple(dataclasses.replace(it, k=0.0) for it in spec.interactions))


CASES = [(name, lam) for name in ("novikov", "goy", "sabra") for lam in LAMS] + [("dead", 2.0)]


@pytest.mark.parametrize("name,lam", CASES)
def test_qmatrix_bit_identical_to_loop(name, lam):
    spec = _model(name, lam)
    for N in SHELLS:
        Q = build_qmatrix(spec, N)
        matrix, pi, escape = oracle.qmatrix(spec, N)
        assert np.array_equal(Q.matrix, matrix), N
        assert np.array_equal(Q.pi, pi), N
        assert np.array_equal(oracle.escape_past(jump_rates(spec, N)), escape), N


@pytest.mark.parametrize("name,lam", CASES)
def test_chain_rows_bit_identical_to_loop(name, lam):
    spec = _model(name, lam)
    for N in SHELLS:
        table = chain._RateTable(spec, N)
        cum, targets = oracle.chain_rows(spec, N)
        assert np.array_equal(table.cum, cum), N
        assert np.array_equal(table.targets, targets), N


@pytest.mark.parametrize("name,lam", CASES)
def test_keff_is_the_scalar_definition(name, lam):
    spec = _model(name, lam)
    for N in SHELLS:
        keff = jump_rates(spec, N).keff
        for j, iid in enumerate(spec.ids):
            assert all(keff[j, n - 1] == oracle.k_eff(spec, iid, n) for n in range(1, N + 1)), (N, iid)


@pytest.mark.parametrize("name,lam", CASES)
def test_every_route_reads_one_pi(name, lam):
    spec = _model(name, lam)
    for N in SHELLS:
        pi = build_qmatrix(spec, N).pi
        assert np.array_equal(chain._RateTable(spec, N).pi, pi), N
        assert np.array_equal(CoefficientTable(spec, N).pi, pi), N
        assert spec.pi_n(N) == pi[-1]
        # the earlier sigma**2 * sum(k**2) differs from it by rounding only
        assert np.allclose([oracle.pi_n(spec, n) for n in range(1, N + 1)], pi, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name,lam", CASES)
def test_embedded_matrix_matches_loop(name, lam):
    spec = _model(name, lam)
    for N in SHELLS:
        np.testing.assert_allclose(
            embedded_matrix(spec, N), oracle.embedded_matrix_loop(spec, N), rtol=1e-14, atol=0.0
        )


def test_jump_rates_keeps_targets_past_the_truncation(goy):
    rates = jump_rates(goy, 5)
    assert rates.offsets.tolist() == [-1, 1]
    # shell 5 reaches shell 6 although the table stops at 5
    assert rates.grouped[1, 4] > 0.0
    assert np.array_equal(rates.inside()[4], [0.0, 0.0, 0.0, rates.grouped[0, 4], 0.0])


@pytest.mark.parametrize("name", ["novikov", "goy", "sabra"])
@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
def test_stored_table_prefixes_match_loops_in_any_order(name, lam):
    spec = _model(name, lam)
    # the first call stores the table at 69 shells; 70 rebuilds it deeper
    levels = np.random.default_rng(7).permutation(np.arange(1, 71)).tolist()
    assert levels.index(70) not in (0, 69)
    for N in levels:
        rates = jump_rates(spec, N)
        keff = [[oracle.k_eff(spec, iid, n) for n in range(1, N + 1)] for iid in spec.ids]
        assert np.array_equal(rates.keff, keff), N
        matrix, pi, _ = oracle.qmatrix(spec, N)
        Q = rates.inside()
        np.fill_diagonal(Q, -rates.pi)
        assert np.array_equal(Q, matrix), N
        assert np.array_equal(rates.pi, pi), N
        cum, targets = oracle.chain_rows(spec, N)
        table = chain._RateTable(spec, N)
        assert np.array_equal(table.cum, cum), N
        assert np.array_equal(table.targets, targets), N


@pytest.mark.parametrize("N", [1, 30, 69, 80])
def test_every_array_of_a_table_is_read_only(goy, N):
    rates = jump_rates(goy, N)
    for f in dataclasses.fields(JumpRates):
        arr = getattr(rates, f.name)
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_replaced_spec_builds_its_own_table():
    spec = _model("goy", 2.0)
    base = jump_rates(spec, 30).rate.copy()
    doubled = dataclasses.replace(spec, sigma=2.0 * spec.sigma)
    assert np.array_equal(jump_rates(doubled, 30).rate, 4.0 * base)
    assert np.array_equal(jump_rates(spec, 30).rate, base)


BUILDERS = {"novikov": s.build_novikov, "goy": s.build_goy, "sabra": s.build_sabra}
RATE_FIELDS = ("keff", "rate", "pi", "offsets", "grouped")


@st.composite
def integer_parameters(draw):
    """A preset and integer parameters it accepts: lambda in {2, 3}, a + b + c = 0."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    lam = draw(st.integers(min_value=2, max_value=3))
    sigma = draw(st.integers(min_value=1, max_value=5))
    if name == "novikov":
        return name, (lam, sigma)
    a = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=1 if name == "sabra" else -4, max_value=4))
    if name == "goy":
        return name, (a, -(a + c), c, lam, sigma)
    return name, (a, -(a + c), c, lam, sigma, sigma * c / (lam * a))  # the ratio Sabra requires


@given(integer_parameters())
@settings(derandomize=True, max_examples=30)
def test_integer_parameters_give_the_float_tables(model):
    name, params = model
    ints = BUILDERS[name](*params)
    floats = BUILDERS[name](*(float(p) for p in params))
    for N in range(1, MAX_SHELLS + 1):
        a, b = jump_rates(ints, N), jump_rates(floats, N)
        for field in RATE_FIELDS:
            assert np.array_equal(getattr(a, field), getattr(b, field)), (N, field)
    assert type(ints.lam) is type(ints.sigma) is float


def _numbers(low, high):
    """An integer or a float in [low, high]."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)), st.floats(low, high))


@st.composite
def models(draw):
    """A preset with integer or float parameters (lambda in (1, 3], a + b + c = 0) and N in 1..MAX_SHELLS."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    lam = draw(st.one_of(st.integers(2, 3), st.floats(1.0, 3.0, exclude_min=True)))
    sigma = draw(_numbers(0.125, 4.0))
    N = draw(st.integers(1, MAX_SHELLS))
    if name == "novikov":
        return s.build_novikov(lam, sigma), N
    a = draw(_numbers(0.25, 4.0))
    c = draw(_numbers(0.25 if name == "sabra" else -4.0, 4.0))
    if name == "goy":
        return s.build_goy(a, -(a + c), c, lam, sigma), N
    return s.build_sabra(a, -(a + c), c, lam, sigma, sigma * c / (lam * a)), N


@given(models())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_rate_invariants_hold_for_every_model_and_truncation(model):
    spec, N = model
    Q = build_qmatrix(spec, N)
    np.testing.assert_allclose(Q.matrix, Q.matrix.T, rtol=1e-14, atol=0.0)
    inside = Q.matrix - np.diag(np.diag(Q.matrix))
    assert np.all(inside >= 0.0)
    # the rates whose target lies past N: never negative, exactly 0 where every target is inside
    escape = oracle.escape_past(jump_rates(spec, N))
    assert np.all(escape >= 0.0)
    reach = max(it.r for it in spec.interactions)
    assert not escape[: max(0, N - reach)].any()
    table = chain._RateTable(spec, N)
    assert np.array_equal(table.pi, Q.pi)
    dead = Q.pi == 0.0
    assert not inside[dead].any() and not table.targets[dead].any()
    for n in np.flatnonzero(~dead):
        real = table.targets[n] > 0
        cum = np.where(np.isinf(table.cum[n, real]), 1.0, table.cum[n, real])  # the last real entry is +inf
        row = np.bincount(table.targets[n, real] - 1, weights=np.diff(cum, prepend=0.0), minlength=N)
        np.testing.assert_allclose(row[:N], inside[n] / Q.pi[n], rtol=1e-13, atol=1e-15)
        assert row[N:].sum() == pytest.approx(escape[n] / Q.pi[n], rel=1e-13, abs=1e-15)
    fresh, prefix = algebra._build_rates(spec, N), jump_rates(spec, N)
    for field in RATE_FIELDS:
        assert np.array_equal(getattr(prefix, field), getattr(fresh, field)), field


@given(models())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_decay_constants_hold_for_every_model_and_truncation(model):
    spec, N = model
    dc = decay_constants(spec, 1.0, N)
    assert all(math.isfinite(v) for v in (dc.nu, dc.Lambda, dc.mu, dc.C))
    assert np.all(dc.nu_n > 0.0) and np.all(np.isfinite(dc.nu_n))
    assert dc.converged == (dc.tail_rel_change <= TAIL_TOL)
    # pi scales with sigma**2 and nu with its inverse, so mu = sigma**2 * nu does not depend on sigma
    doubled = decay_constants(dataclasses.replace(spec, sigma=2.0 * spec.sigma), 1.0, N)
    assert doubled.mu == pytest.approx(dc.mu, rel=1e-8, abs=0.0)


@given(models())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_bordered_inverse_matches_two_inverses(model):
    spec, N = model
    nu_n, nu_big = moments._occupation_times(spec, N)
    ref_n, ref_big = oracle.nu_vector(spec, N), oracle.nu_vector(spec, N + 5)
    assert np.array_equal(nu_n, ref_n)
    np.testing.assert_allclose(nu_big, ref_big, rtol=1e-13, atol=0.0)
    dc = decay_constants(spec, 1.0, N)
    assert np.array_equal(dc.nu_n, ref_n)
    ref_tail = oracle.tail_rel_change(ref_n, ref_big)
    assert abs(dc.tail_rel_change - ref_tail) <= 1e-12
    if abs(ref_tail - TAIL_TOL) > 1e-12:
        assert dc.converged == (ref_tail <= TAIL_TOL)


@pytest.mark.parametrize("name,lam", [("novikov", 1.1), ("novikov", 2.0), ("goy", 2.0)])
@pytest.mark.parametrize("N", [1, 10, 30])
def test_bordered_occupation_times_match_mpmath(name, lam, N):
    spec = _model(name, lam)
    nu_n, nu_big = moments._occupation_times(spec, N)
    np.testing.assert_allclose(nu_n, oracle.mp_nu_vector(spec, N), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(nu_big, oracle.mp_nu_vector(spec, N + 5), rtol=1e-12, atol=0.0)


def test_decay_constants_refuse_rates_past_the_float_range():
    spec = _model("novikov", 2.0)  # its exit rate pi_n passes the float range at shell 512
    assert np.isfinite(decay_constants(spec, 1.0, 506).nu_n).all()
    for N in (507, 600):
        with pytest.raises(ValueError, match=f"overflow at shell 512; the decay constants at N = {N}"):
            decay_constants(spec, 1.0, N)


INTEGER_LAMBDA = {
    "novikov": ((2, 1), (2.0, 1.0)),
    "goy": ((1, -1.5, 0.5, 2, 1), (1.0, -1.5, 0.5, 2.0, 1.0)),
    "sabra": ((1, -1.25, 0.25, 2, 1, 0.125), (1.0, -1.25, 0.25, 2.0, 1.0, 0.125)),
}


@pytest.mark.parametrize("name", sorted(INTEGER_LAMBDA))
def test_every_route_runs_on_an_integer_lambda(name):
    ints, floats = (BUILDERS[name](*params) for params in INTEGER_LAMBDA[name])
    N, times = 12, [0.1, 0.4]
    masses = [s.solve_forward(s.build_qmatrix(spec, N), np.eye(N)[0], times).mass for spec in (ints, floats)]
    assert np.array_equal(*masses)
    start = np.eye(20)[0]
    survival = [s.survival_curve(spec, start, times, 50, ChainCaps(1000, 20), seed=1).survival for spec in (ints, floats)]
    assert np.array_equal(*survival)
    x0 = np.ones((1, ints.d))
    run = dict(N=4, dt=1e-3, T=0.01, paths=8, scheme="split", seed=2)
    moments = [s.run_ensemble(spec, x0, **run).mean_sq for spec in (ints, floats)]
    assert np.array_equal(*moments)


def test_deep_table_adds_no_overflow_warning():
    # lambda**n overflows before shell 69, far past the truncation read here
    spec = s.build_novikov(1e5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = jump_rates(spec, 10)
        assert np.isfinite(rates.keff).all()
        assert CoefficientTable(spec, 10).pi[-1] == rates.pi[-1]
        assert not np.isfinite(jump_rates(spec, 69).keff).all()


def test_constants_rerun_in_one_process_is_byte_identical(capsys):
    outs = []
    for _ in range(2):
        assert main(["constants", "--model", "goy", "--shells", "30"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_dissipation_mass_does_not_depend_on_shell_order(capsys):
    docs = []
    for shells in ("10,20,30,40,60", "60,40,30,20,10"):
        assert main(["dissipation", "--model", "novikov", "--shells-list", shells, "--paths", "0"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["mass_final"] == docs[1]["mass_final"]
