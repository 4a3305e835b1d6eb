"""Complex-coordinate GOY references for the real-form engine.

The complex noise bridge combines the real channels of a slab into the
complex increments dw_n of the complex GOY equation, and
:func:`goy_complex_em_step` integrates that equation directly.  The
conjugacy tests check the real-form integrator of :mod:`shellsde.sde`
against it under the complex-to-real embedding.

Both sides read the same whole-window slab: :func:`keyed_slab` draws every
cell of it from one key, in the sampling layout (paths, n_star, width, d)
that :class:`NoiseSlab` looks channels up in (the window of
:func:`noise_oracle.window_layout`), and :meth:`NoiseSlab.load` packs it
into a stepper's own slab.  :func:`embed_complex` and
:func:`lift_real` map between complex shells and the real form's (re, im)
pairs, and :func:`bilinear_apply` evaluates one bilinear map on vectors.
"""
import math
from dataclasses import dataclass

import numpy as np

from noise_oracle import pack, window_layout
from shellsde.algebra import BilinearMap, CoefficientTable, ModelSpec
from shellsde.noise import slab_rng


def embed_complex(u) -> np.ndarray:
    """Map a complex sequence to (len, 2) real pairs (re, im); norm preserving."""
    arr = np.asarray(u, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1)


def lift_real(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed_complex`."""
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing dimension 2")
    return arr[..., 0] + 1j * arr[..., 1]


def bilinear_apply(B: BilinearMap, u, v) -> np.ndarray:
    """B(u, v)_a = sum_bc B[a, b, c] u_b v_c."""
    return np.einsum("abc,b,c->a", B.entries, np.asarray(u, float), np.asarray(v, float))


@dataclass(frozen=True, eq=False)
class NoiseSlab:
    """Gaussian increments for one time step over the active shell window.

    ``increments`` has shape (paths, n_star, window, d) with variance dt per
    component.  ``lookup`` resolves aliased channels: asking for a non
    representative id returns bit-identical values of its partner.
    """

    spec: ModelSpec
    dt: float
    lo: int
    increments: np.ndarray

    @property
    def hi(self) -> int:
        return self.lo + self.increments.shape[2] - 1

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    def _row(self, iid: str) -> int:
        star = self.spec.star_ids()
        if iid in self.spec.istar:
            return star.index(iid)
        return star.index(self.spec.pairing[iid])

    def lookup(self, iid: str, m: int) -> np.ndarray:
        """Increment of channel ``iid`` at shell index ``m`` (d-vector per path)."""
        if m < self.lo or m > self.hi:
            raise IndexError(f"shell index {m} outside slab window [{self.lo}, {self.hi}]")
        out = self.increments[:, self._row(iid), m - self.lo, :]
        return out[0] if self.paths == 1 else out

    def load(self, stepper) -> None:
        """Write the increments the stepper reads into its packed slab ``stepper.dW``."""
        pack(stepper, self.increments.transpose(1, 3, 2, 0))


def keyed_slab(table: CoefficientTable, dt: float, key, paths: int = 1) -> NoiseSlab:
    """Every cell of one step's slab for ``table``, drawn from the generator keyed ``key``.

    ``key`` is a (seed, stream, step) tuple, or a prefix of one.  Equal keys
    give bit-identical slabs.
    """
    lo, width, _ = window_layout(table.spec, table.N, False)
    shape = (paths, len(table.spec.star_ids()), width, table.d)
    increments = slab_rng(*key).standard_normal(shape) * math.sqrt(dt)
    return NoiseSlab(spec=table.spec, dt=dt, lo=lo, increments=increments)


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
