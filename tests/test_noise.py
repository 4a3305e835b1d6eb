import math

import numpy as np
import pytest

import shellsde as s
from goy_oracle import goy_inverse_bridge, goy_noise_bridge, goy_noise_bridge_pair


def test_aliased_lookup_bit_identical(novikov):
    slab = s.sample_slab(novikov, 6, 1e-3, (0, 0, 0))
    for m in range(slab.lo, slab.hi + 1):
        a = slab.lookup("1", m)
        b = slab.lookup("2", m)
        assert a is not None
        assert np.array_equal(a, b)


def test_slab_determinism(goy):
    s1 = s.sample_slab(goy, 8, 1e-4, (7, 3, 5))
    s2 = s.sample_slab(goy, 8, 1e-4, (7, 3, 5))
    assert np.array_equal(s1.increments, s2.increments)
    s3 = s.sample_slab(goy, 8, 1e-4, (7, 3, 6))
    assert not np.array_equal(s1.increments, s3.increments)


def test_slab_window_covers_reachable_indices(goy):
    N = 8
    slab = s.sample_slab(goy, N, 1e-3, (0, 0, 0))
    for it in goy.interactions:
        for n in range(1, N + 1):
            m = n + it.h
            assert slab.lo <= m <= slab.hi


def test_window_overflow_rejected(novikov):
    with pytest.raises(ValueError, match="window overflow"):
        s.sample_slab(novikov, 100, 1e-3, 0)


def test_increment_mean_bound(novikov):
    # CLT bound on the sample mean of about 1e5 slab increments
    dt = 1e-3
    vals = np.concatenate(
        [s.sample_slab(novikov, 4, dt, (1, 0, k), paths=600).increments.ravel() for k in range(30)]
    )
    assert len(vals) >= 100_000
    bound = 4.0 * math.sqrt(dt) / math.sqrt(len(vals))
    assert abs(vals.mean()) < bound


def test_increment_covariance(goy):
    dt = 2e-3
    samples = np.stack(
        [s.sample_slab(goy, 4, dt, (5, 0, k)).increments[0, :, 4, :].ravel() for k in range(10_000)]
    )
    cov = np.cov(samples.T)
    se = dt * math.sqrt(2.0 / len(samples))  # variance-of-variance scale
    assert np.all(np.abs(np.diag(cov) - dt) < 5 * se)
    off = cov - np.diag(np.diag(cov))
    assert np.all(np.abs(off) < 5 * dt / math.sqrt(len(samples)) * 3)


def test_goy_bridge_variance_and_independence(goy):
    dt = 1e-3
    vals = np.array([goy_noise_bridge(s.sample_slab(goy, 6, dt, (11, 0, k)), 3) for k in range(20_000)])
    se = dt * math.sqrt(2.0 / len(vals))
    assert abs(np.var(vals.real) - dt) < 5 * se
    assert abs(np.var(vals.imag) - dt) < 5 * se
    assert abs(np.mean(vals.real * vals.imag)) < 5 * dt / math.sqrt(len(vals))


def test_goy_bridge_c_zero_uses_single_channel():
    spec = s.build_goy(1.0, -1.0, 0.0, 2.0, 1.0)
    slab = s.sample_slab(spec, 6, 1e-3, (2, 0, 0))
    n = 3
    dw = goy_noise_bridge(slab, n)
    w1 = slab.lookup("1", n + 2)
    assert dw.real == pytest.approx(w1[0], abs=1e-15)
    assert dw.imag == pytest.approx(-w1[1], abs=1e-15)


def test_goy_bridge_roundtrip(goy):
    slab = s.sample_slab(goy, 6, 1e-3, (3, 0, 0))
    n = 4
    dw, dwt = goy_noise_bridge_pair(slab, n)
    back = goy_inverse_bridge(goy, n, dw, dwt)
    assert np.allclose(back[("1", n + 2)], slab.lookup("1", n + 2), atol=1e-14)
    assert np.allclose(back[("2", n - 1)], slab.lookup("2", n - 1), atol=1e-14)


def test_bridge_requires_goy_meta(novikov):
    slab = s.sample_slab(novikov, 6, 1e-3, 0)
    with pytest.raises(ValueError):
        goy_noise_bridge(slab, 2)
