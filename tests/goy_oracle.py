"""Complex-coordinate GOY references for the real-form engine.

The complex noise bridge combines the real channels of a slab into the
complex increments dw_n of the complex GOY equation, and
:func:`goy_complex_em_step` integrates that equation directly.  The
conjugacy tests check the real-form integrator of :mod:`shellsde.sde`
against it under the complex-to-real embedding.
"""
import math

import numpy as np

from shellsde.algebra import ModelSpec
from shellsde.noise import NoiseSlab


def _goy_params(slab: NoiseSlab) -> tuple[float, float, float, float]:
    meta = slab.spec.meta
    if meta.get("preset") != "goy":
        raise ValueError("noise bridge requires a GOY model built by build_goy")
    a, c, lam = float(meta["a"]), float(meta["c"]), slab.spec.lam
    return a, c / lam, lam, math.hypot(a, c / lam)


def goy_noise_bridge(slab: NoiseSlab, n: int) -> complex:
    """Complex increment dw_n driving the complex-coordinate GOY equation.

    Combines the real channels at shell indices n+2 and n-1 so that the
    complex simulation and the real general-model simulation share their
    randomness.  Real and imaginary parts each have variance dt.
    """
    a, p, _, s = _goy_params(slab)
    w1 = slab.lookup("1", n + 2)
    w2 = slab.lookup("2", n - 1)
    re = (a * w1[..., 0] - p * w2[..., 0]) / s
    im = -(a * w1[..., 1] - p * w2[..., 1]) / s
    return re + 1j * im


def goy_noise_bridge_pair(slab: NoiseSlab, n: int) -> tuple[complex, complex]:
    """dw_n together with the orthogonal complement channel dw~_n."""
    a, p, _, s = _goy_params(slab)
    w1 = slab.lookup("1", n + 2)
    w2 = slab.lookup("2", n - 1)
    dw = (a * w1[..., 0] - p * w2[..., 0]) / s - 1j * (a * w1[..., 1] - p * w2[..., 1]) / s
    dwt = (p * w1[..., 0] + a * w2[..., 0]) / s - 1j * (p * w1[..., 1] + a * w2[..., 1]) / s
    return dw, dwt


def goy_inverse_bridge(spec: ModelSpec, n: int, dw: complex, dw_tilde: complex) -> dict[tuple[str, int], np.ndarray]:
    """Rebuild the real channel increments at shells n+2 and n-1 from (dw, dw~).

    Inverse of :func:`goy_noise_bridge_pair`; the combining matrix is a
    rotation, so the round trip is exact on the spanned subspace.
    """
    meta = spec.meta
    if meta.get("preset") != "goy":
        raise ValueError("noise bridge requires a GOY model built by build_goy")
    a, p = float(meta["a"]), float(meta["c"]) / spec.lam
    s = math.hypot(a, p)
    w1 = np.array(
        [
            (a * dw.real + p * dw_tilde.real) / s,
            -(a * dw.imag + p * dw_tilde.imag) / s,
        ]
    )
    w2 = np.array(
        [
            (-p * dw.real + a * dw_tilde.real) / s,
            (p * dw.imag - a * dw_tilde.imag) / s,
        ]
    )
    return {("1", n + 2): w1, ("2", n - 1): w2}


def goy_complex_em_step(u: np.ndarray, spec: ModelSpec, slab: NoiseSlab) -> np.ndarray:
    """One Euler-Maruyama step of the complex-coordinate GOY recursion.

    ``u`` holds shells 1..N as complex numbers; shells outside are read as
    zero and the geometric factor lambda**m is cut to zero for m <= 0.  The
    quadratic damping coefficient is sigma_t**2 * (lam_n**2 + lam_{n-1}**2),
    the unique choice that balances the noise quadratic variation shell by
    shell (so the ladder energy is a martingale) and matches the real-form
    integrator under the complex-to-real embedding.
    """
    meta = spec.meta
    if meta.get("preset") != "goy":
        raise ValueError("goy_complex_em_step requires a GOY model built by build_goy")
    a, bb, c = float(meta["a"]), float(meta["b"]), float(meta["c"])
    st = float(meta["sigma_tilde"])
    lam = spec.lam
    N = u.shape[0]
    dt = slab.dt

    def lam_pow(m: int) -> float:
        return lam**m if m >= 1 else 0.0

    def uc(m: int) -> complex:
        return np.conj(u[m - 1]) if 1 <= m <= N else 0.0j

    dw = {m: goy_noise_bridge(slab, m) for m in range(0, N + 1)}
    out = np.empty_like(u)
    for n in range(1, N + 1):
        ln, ln1, ln2 = lam_pow(n), lam_pow(n - 1), lam_pow(n - 2)
        det = (
            1j * a * ln * uc(n + 1) * uc(n + 2)
            + 1j * bb * ln1 * uc(n - 1) * uc(n + 1)
            + 1j * c * ln2 * uc(n - 1) * uc(n - 2)
        )
        damp = st**2 * (ln**2 + ln1**2) * u[n - 1]
        noise = 1j * st * ln * uc(n + 1) * dw[n]
        if n >= 2:
            noise -= 1j * st * ln1 * uc(n - 1) * dw[n - 1]
        out[n - 1] = u[n - 1] + dt * (det - damp) + noise
    return out
