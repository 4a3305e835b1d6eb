import math

import numpy as np
import pytest

import shellsde as s
from goy_oracle import goy_inverse_bridge, goy_noise_bridge, goy_noise_bridge_pair, keyed_slab
from shellsde.algebra import CoefficientTable
from shellsde.noise import SlabStream, check_shells, slab_rng


def stepper(spec, N, dt, paths=1):
    return s.Stepper(CoefficientTable(spec, N), dt, "em", "linear", False, paths)


def draws(st, rng, steps):
    """(steps, drawn cells) array: the stepper's slab after each step of rng's stream, path-major."""
    out = []
    with SlabStream(rng, st.dW, st.dt, steps, helper=False) as stream:
        for _ in range(steps):
            out.append(stream.fill().T.flatten())
    return np.stack(out)


def test_aliased_lookup_bit_identical(novikov):
    slab = keyed_slab(CoefficientTable(novikov, 6), 1e-3, (0, 0, 0))
    for m in range(slab.lo, slab.hi + 1):
        a = slab.lookup("1", m)
        b = slab.lookup("2", m)
        assert a is not None
        assert np.array_equal(a, b)


def test_slab_determinism(goy):
    s1, s2, s3 = (stepper(goy, 8, 1e-4) for _ in range(3))
    draws(s1, slab_rng(7, 3, 5), 1)
    draws(s2, slab_rng(7, 3, 5), 1)
    assert np.array_equal(s1.dW, s2.dW)
    draws(s3, slab_rng(7, 3, 6), 1)
    assert not np.array_equal(s1.dW, s3.dW)


def test_slab_window_covers_reachable_indices(goy):
    N = 8
    st = stepper(goy, N, 1e-3)
    lo, hi = st.table.lo, st.table.lo + st.table.window - 1
    for it in goy.interactions:
        for n in range(1, N + 1):
            m = n + it.h
            assert lo <= m <= hi


def test_window_overflow_rejected(novikov):
    with pytest.raises(ValueError, match="window overflow"):
        check_shells(100)


def test_increment_mean_bound(novikov):
    # CLT bound on the sample mean of about 1e5 increments drawn by a block's steps
    dt = 1e-3
    vals = draws(stepper(novikov, 4, dt, paths=1200), slab_rng(1, 0), 30).ravel()
    assert len(vals) >= 100_000
    bound = 4.0 * math.sqrt(dt) / math.sqrt(len(vals))
    assert abs(vals.mean()) < bound


def test_increment_covariance(goy):
    # every drawn cell of one path's slab, over the steps of one stream
    dt = 2e-3
    samples = draws(stepper(goy, 4, dt), slab_rng(5, 0), 10_000)
    cov = np.cov(samples.T)
    se = dt * math.sqrt(2.0 / len(samples))  # variance-of-variance scale
    assert np.all(np.abs(np.diag(cov) - dt) < 5 * se)
    off = cov - np.diag(np.diag(cov))
    assert np.all(np.abs(off) < 5 * dt / math.sqrt(len(samples)) * 3)


def test_goy_bridge_variance_and_independence(goy):
    dt = 1e-3
    table = CoefficientTable(goy, 6)
    vals = np.array([goy_noise_bridge(keyed_slab(table, dt, (11, 0, k)), 3) for k in range(20_000)])
    se = dt * math.sqrt(2.0 / len(vals))
    assert abs(np.var(vals.real) - dt) < 5 * se
    assert abs(np.var(vals.imag) - dt) < 5 * se
    assert abs(np.mean(vals.real * vals.imag)) < 5 * dt / math.sqrt(len(vals))


def test_goy_bridge_c_zero_uses_single_channel():
    spec = s.build_goy(1.0, -1.0, 0.0, 2.0, 1.0)
    slab = keyed_slab(CoefficientTable(spec, 6), 1e-3, (2, 0, 0))
    n = 3
    dw = goy_noise_bridge(slab, n)
    w1 = slab.lookup("1", n + 2)
    assert dw.real == pytest.approx(w1[0], abs=1e-15)
    assert dw.imag == pytest.approx(-w1[1], abs=1e-15)


def test_goy_bridge_roundtrip(goy):
    slab = keyed_slab(CoefficientTable(goy, 6), 1e-3, (3, 0, 0))
    n = 4
    dw, dwt = goy_noise_bridge_pair(slab, n)
    back = goy_inverse_bridge(goy, n, dw, dwt)
    assert np.allclose(back[("1", n + 2)], slab.lookup("1", n + 2), atol=1e-14)
    assert np.allclose(back[("2", n - 1)], slab.lookup("2", n - 1), atol=1e-14)


def test_bridge_requires_goy_meta(novikov):
    slab = keyed_slab(CoefficientTable(novikov, 6), 1e-3, (0,))
    with pytest.raises(ValueError):
        goy_noise_bridge(slab, 2)
