"""Interaction algebra for stochastic inviscid shell models.

A shell model couples a ladder of d-dimensional amplitudes X_1, X_2, ...
through a finite set of local interactions.  Each interaction carries a
shell offset ``r`` (who transports), a noise offset ``h`` (which noise
channel drives it), a geometric coefficient ``k`` (the full coefficient at
shell n is lambda**n * k), and a bilinear map on R^d.  Energy exchange is
conservative because interactions come in pairs under an involution
``pairing``: paired coefficients cancel when the ladder is summed shell by
shell, and paired noise channels alias to the same Brownian motion.

This module defines the model container, validates the pairing algebra,
provides the GOY, Sabra and Novikov constructions, and builds the one table
of jump rates, :func:`jump_rates`: the effective coefficients and the rates
sigma**2 * k_eff(i, n)**2, grouped by target n + r_i.  Every route reads
it: the SDE engine's :class:`CoefficientTable`, whose ``gamma`` is the
quadratic (Ito) correction, the forward equation's rate matrix and
embedded chain in :mod:`shellsde.moments`, and the jump chain in
:mod:`shellsde.chain`.

Tolerances: an identity (``k_cancellation``, ``bilinear_alias``, identity
grams, the GOY/Sabra a + b + c = 0) holds when its difference is at most
``REL_TOL`` times the largest magnitude among its operands, or 1; Sabra's
amplitude ratio uses ``SABRA_RATIO_TOL`` the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .noise import MAX_SHELLS

__all__ = [
    "REL_TOL",
    "MalformedModelError",
    "IdentityGramError",
    "NumericalBlowupError",
    "require_identity_grams",
    "BilinearMap",
    "Interaction",
    "ModelSpec",
    "CheckResult",
    "ValidationReport",
    "validate_model",
    "build_goy",
    "build_sabra",
    "build_novikov",
    "JumpRates",
    "jump_rates",
    "require_finite_rates",
    "CoefficientTable",
]

# Relative tolerance for coefficient identities.  All checked relations are
# products and powers of user inputs, so near machine precision is expected.
REL_TOL = 1e-12
# Sabra's two amplitudes are typed in by hand, often as short decimals, so
# their ratio meets lambda * a / c only to about ten significant digits.
SABRA_RATIO_TOL = 1e-9
TINY = 1e-300  # floor of a denominator that may be 0


def _negligible(diff, *operands) -> bool:
    """Whether ``diff`` counts as zero: at most ``REL_TOL`` times the largest magnitude among ``operands``, or 1."""
    scale = max([1.0] + [float(np.max(np.abs(x))) for x in operands])
    return float(np.max(np.abs(diff))) <= REL_TOL * scale


class MalformedModelError(ValueError):
    """Structural defect (bad shapes, unknown ids, non-finite entries).

    Distinct from a semantic validation failure, which is reported through
    :class:`ValidationReport` instead of raised.
    """


class IdentityGramError(ValueError):
    """A consumer required every interaction gram matrix to be the identity."""


class NumericalBlowupError(RuntimeError):
    """A route's float arithmetic failed on valid input: an ensemble blew up, or a solve lost its sign."""


def require_identity_grams(spec: ModelSpec) -> None:
    """Raise :class:`IdentityGramError` unless every gram of ``spec`` is the identity."""
    if not spec.has_identity_grams():
        raise IdentityGramError(
            "the second-moment closure requires every interaction gram B B^T "
            "to be the identity; this model has non-identity grams"
        )


@dataclass(frozen=True, eq=False)
class BilinearMap:
    """Dense rank-3 array ``entries[a, b, c]`` representing B(u, v)_a = sum B[a,b,c] u_b v_c."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise MalformedModelError(f"bilinear map must be a (d,d,d) cube, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise MalformedModelError("bilinear map dimension must be >= 1")
        if not np.all(np.isfinite(arr)):
            raise MalformedModelError("bilinear map entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def gram(self) -> np.ndarray:
        """B B^T with B read as a linear map from R^(d*d) to R^d."""
        return np.einsum("agd,bgd->ab", self.entries, self.entries)

    def swap_first_two(self) -> np.ndarray:
        """Entries with the output and first input slots exchanged."""
        return self.entries.transpose(1, 0, 2)


@dataclass(frozen=True, eq=False)
class Interaction:
    """One interaction term: offsets, geometric coefficient and bilinear map."""

    iid: str
    r: int
    h: int
    k: float
    B: BilinearMap

    def __post_init__(self):
        if not isinstance(self.iid, str) or not self.iid:
            raise MalformedModelError("interaction id must be a non-empty string")
        if int(self.r) != self.r or int(self.h) != self.h:
            raise MalformedModelError("offsets r, h must be integers")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "h", int(self.h))
        if not math.isfinite(self.k):
            raise MalformedModelError(f"coefficient k of interaction {self.iid!r} must be finite")
        object.__setattr__(self, "k", float(self.k))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full algebraic description of a shell model.

    ``pairing`` is the cancellation involution on interaction ids and
    ``istar`` one transversal of it; noise channels alias along the pairing
    (the channel of interaction i and of pairing[i] are the same Brownian
    motion).  Instances are immutable after construction and safe to share
    across parallel workers.

    Each instance stores one table of :func:`jump_rates`, built on first use
    at the deepest level any route reads, and the result of
    :meth:`has_identity_grams`; both depend on the fields alone, and
    ``dataclasses.replace`` builds a spec without them.
    """

    d: int
    lam: float
    sigma: float
    interactions: tuple[Interaction, ...]
    pairing: Mapping[str, str]
    istar: frozenset[str]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # floats, so that lam**n is a float power and never a Python int past int64
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "interactions", tuple(self.interactions))
        object.__setattr__(self, "pairing", dict(self.pairing))
        object.__setattr__(self, "istar", frozenset(self.istar))
        object.__setattr__(self, "meta", dict(self.meta))
        ids = [it.iid for it in self.interactions]
        if len(set(ids)) != len(ids):
            raise MalformedModelError("duplicate interaction ids")
        for it in self.interactions:
            if it.B.d != self.d:
                raise MalformedModelError(
                    f"interaction {it.iid!r} has bilinear dimension {it.B.d}, model has d={self.d}"
                )
        known = set(ids)
        for a, b in self.pairing.items():
            if a not in known or b not in known:
                raise MalformedModelError(f"pairing references unknown id {a!r} or {b!r}")
        if not self.istar <= known:
            raise MalformedModelError("istar references unknown ids")
        object.__setattr__(self, "_by_id", {it.iid: it for it in self.interactions})
        object.__setattr__(self, "_rates", None)  # the stored jump_rates table
        object.__setattr__(self, "_identity", None)  # the stored has_identity_grams

    # -- basic lookups -------------------------------------------------

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(it.iid for it in self.interactions)

    def interaction(self, iid: str) -> Interaction:
        return self._by_id[iid]

    @property
    def size(self) -> int:
        return len(self.interactions)

    @property
    def h_bar(self) -> int:
        return max(it.h for it in self.interactions)

    @property
    def h_max_abs(self) -> int:
        return max(abs(it.h) for it in self.interactions)

    def pi_n(self, n: int) -> float:
        """Total jump rate out of shell ``n``, read from :func:`jump_rates`."""
        return float(jump_rates(self, n).pi[-1])

    def grams(self) -> np.ndarray:
        """(J, d, d) stack of the gram matrices, in interaction order."""
        return np.stack([it.B.gram() for it in self.interactions])

    def has_identity_grams(self) -> bool:
        """Whether every gram is the identity: per gram, :func:`_negligible` of g - I against g."""
        if self._identity is None:
            g = self.grams()
            diff = np.abs(g - np.eye(self.d)).max(axis=(1, 2))
            scale = np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
            object.__setattr__(self, "_identity", bool(np.all(diff <= REL_TOL * scale)))
        return self._identity

    def star_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.istar))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def accepted(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks],
        }


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Check the interaction algebra of ``spec`` and report each condition.

    Structural malformation raises :class:`MalformedModelError` at
    construction time; this function only judges the semantic conditions:
    finite even interaction set, no self interactions, geometric
    coefficients with lambda > 1 and sigma > 0, the involution pairing
    with its transversal, the four cancellation relations, and a
    nonnegative maximal noise offset.
    """
    checks: list[CheckResult] = []

    n_inter = spec.size
    checks.append(CheckResult("finite_interaction_set", 0 < n_inter, f"|I| = {n_inter}"))
    checks.append(CheckResult("even_interaction_count", n_inter % 2 == 0, f"|I| = {n_inter}"))

    bad_r = [it.iid for it in spec.interactions if it.r == 0]
    checks.append(
        CheckResult(
            "no_self_interaction",
            not bad_r,
            "all r nonzero" if not bad_r else f"r = 0 for ids {bad_r}",
        )
    )

    checks.append(
        CheckResult(
            "exponential_coefficients",
            spec.lam > 1.0 and math.isfinite(spec.lam),
            f"lambda = {spec.lam}",
        )
    )
    checks.append(CheckResult("noise_amplitude", spec.sigma > 0.0, f"sigma = {spec.sigma}"))

    ids = set(spec.ids)
    tau = spec.pairing
    involution = set(tau.keys()) == ids and all(tau.get(tau.get(i, ""), None) == i for i in ids)
    checks.append(CheckResult("pairing_involution", involution, "tau defined on I with tau(tau(i)) = i"))
    fixed = [i for i in ids if tau.get(i) == i]
    checks.append(
        CheckResult(
            "pairing_no_fixed_point",
            involution and not fixed,
            "no fixed points" if not fixed else f"fixed points {fixed}",
        )
    )
    if involution:
        image = {tau[i] for i in spec.istar}
        partition = (spec.istar | image == ids) and not (spec.istar & image)
        checks.append(
            CheckResult(
                "istar_partition",
                partition,
                f"I* = {sorted(spec.istar)}",
            )
        )
    else:
        checks.append(CheckResult("istar_partition", False, "pairing is not an involution"))

    # The four pairing relations.  Offending ids are listed on failure.
    bad_k, bad_r2, bad_h, bad_b = [], [], [], []
    if involution:
        for it in spec.interactions:
            other = spec.interaction(tau[it.iid])
            target = -it.k * spec.lam ** (-it.r)
            if not _negligible(other.k - target, other.k, target):
                bad_k.append(it.iid)
            if other.r != -it.r:
                bad_r2.append(it.iid)
            if other.h != it.h - it.r:
                bad_h.append(it.iid)
            if not _negligible(other.B.entries - it.B.swap_first_two(), other.B.entries, it.B.entries):
                bad_b.append(it.iid)
    relations = (
        ("k_cancellation", bad_k, "k[tau(i)] = -k[i] * lambda**(-r[i])"),
        ("r_reversal", bad_r2, "r[tau(i)] = -r[i]"),
        ("h_shift", bad_h, "h[tau(i)] = h[i] - r[i]"),
        ("bilinear_alias", bad_b, "<u, B[tau(i)](v, w)> = <v, B[i](u, w)>"),
    )
    for name, bad, rule in relations:
        checks.append(CheckResult(name, involution and not bad, f"violated for ids {bad}" if bad else rule))

    hbar = spec.h_bar
    checks.append(CheckResult("noise_reach", hbar >= 0, f"max h = {hbar}"))

    return ValidationReport(tuple(checks))


# ----------------------------------------------------------------------
# Preset constructions
# ----------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _goy_bilinear() -> BilinearMap:
    # Real two-dimensional image of (v, z) -> i v* z*; totally symmetric.
    arr = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                s = (a + 1) + (b + 1) + (c + 1)
                if s == 4:
                    arr[a, b, c] = 1.0 / _SQRT2
                elif s == 6:
                    arr[a, b, c] = -1.0 / _SQRT2
    return BilinearMap(arr)


def _sabra_bilinears() -> tuple[BilinearMap, BilinearMap, BilinearMap]:
    """Real images of (v,z) -> i v* z, (v,z) -> -i v z, (v,z) -> i v z*."""

    def make(neg: tuple[int, int, int]) -> BilinearMap:
        arr = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    if ((a + 1) + (b + 1) + (c + 1)) % 2:
                        continue
                    arr[a, b, c] = -1.0 / _SQRT2 if (a, b, c) == neg else 1.0 / _SQRT2
        return BilinearMap(arr)

    return make((0, 0, 1)), make((1, 0, 0)), make((0, 1, 0))


_GOY_TABLE = (
    # (id, r, h, k-prefactor builder)
    ("1", 1, 2),
    ("2", -1, -2),
    ("3", -1, 1),
    ("4", 1, -1),
)

_GOY_PAIRING = {"1": "3", "3": "1", "2": "4", "4": "2"}
_GOY_ISTAR = frozenset({"1", "2"})


def _goy_sabra_coefficients(name: str, a: float, b: float, c: float, lam: float) -> dict[str, float]:
    """The k of each GOY/Sabra interaction, once a + b + c = 0 and lambda > 1 are checked."""
    if not _negligible(a + b + c, a, b, c):
        raise ValueError(f"{name} requires a + b + c = 0, got {a + b + c!r}")
    if lam <= 1.0:
        raise ValueError("lambda must exceed 1")
    return {
        "1": _SQRT2 * a,
        "2": _SQRT2 * c / lam**2,
        "3": -_SQRT2 * a / lam,
        "4": -_SQRT2 * c / lam,
    }


def build_goy(a: float, b: float, c: float, lam: float, sigma_tilde: float) -> ModelSpec:
    """Two-dimensional real form of the stochastic GOY model.

    Requires a + b + c = 0, lambda > 1, sigma_tilde > 0 and (a, c) != (0, 0);
    the noise normalisation divides by sqrt(a**2 + c**2 / lambda**2).
    """
    ks = _goy_sabra_coefficients("GOY", a, b, c, lam)
    if sigma_tilde <= 0.0:
        raise ValueError("sigma_tilde must be positive")
    norm = math.hypot(a, c / lam)
    if norm == 0.0:
        raise ValueError("degenerate noise normalisation: need (a, c) != (0, 0)")
    B = _goy_bilinear()
    inters = tuple(Interaction(iid, r, h, ks[iid], B) for iid, r, h in _GOY_TABLE)
    return ModelSpec(
        d=2,
        lam=lam,
        sigma=sigma_tilde / norm,
        interactions=inters,
        pairing=dict(_GOY_PAIRING),
        istar=_GOY_ISTAR,
        meta={"preset": "goy", "a": a, "b": b, "c": c, "sigma_tilde": sigma_tilde},
    )


def build_sabra(
    a: float,
    b: float,
    c: float,
    lam: float,
    sigma1_tilde: float,
    sigma2_tilde: float,
) -> ModelSpec:
    """Two-dimensional real form of the stochastic Sabra model.

    The two channel amplitudes must satisfy sigma1/sigma2 = lambda * a / c;
    the common noise scale is sigma = sigma1/a = sigma2/(c/lambda).
    """
    ks = _goy_sabra_coefficients("Sabra", a, b, c, lam)
    if a == 0.0 or c == 0.0:
        raise ValueError("Sabra construction needs a != 0 and c != 0")
    if sigma1_tilde <= 0.0 or sigma2_tilde <= 0.0:
        raise ValueError("noise amplitudes must be positive")
    required = lam * a / c
    ratio = sigma1_tilde / sigma2_tilde
    if abs(ratio - required) > SABRA_RATIO_TOL * max(1.0, abs(ratio), abs(required)):
        raise ValueError(
            f"sigma1/sigma2 must equal lambda*a/c = {required!r}, got {ratio!r}"
        )
    sigma = sigma1_tilde / a
    if sigma <= 0.0:
        raise ValueError("resulting sigma must be positive (need a > 0)")
    B13, B2, B4 = _sabra_bilinears()
    bmap = {"1": B13, "3": B13, "2": B2, "4": B4}
    inters = tuple(Interaction(iid, r, h, ks[iid], bmap[iid]) for iid, r, h in _GOY_TABLE)
    return ModelSpec(
        d=2,
        lam=lam,
        sigma=sigma,
        interactions=inters,
        pairing=dict(_GOY_PAIRING),
        istar=_GOY_ISTAR,
        meta={
            "preset": "sabra",
            "a": a,
            "b": b,
            "c": c,
            "sigma1_tilde": sigma1_tilde,
            "sigma2_tilde": sigma2_tilde,
        },
    )


def build_novikov(lam: float, sigma: float) -> ModelSpec:
    """Scalar two-interaction ladder model (the simplest conservative pairing)."""
    if lam <= 1.0:
        raise ValueError("lambda must exceed 1")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    B = BilinearMap(np.ones((1, 1, 1)))
    inters = (
        Interaction("1", -1, -1, 1.0 / lam, B),
        Interaction("2", 1, 0, -1.0, B),
    )
    return ModelSpec(
        d=1,
        lam=lam,
        sigma=sigma,
        interactions=inters,
        pairing={"1": "2", "2": "1"},
        istar=frozenset({"1"}),
        meta={"preset": "novikov"},
    )


# ----------------------------------------------------------------------
# The jump-rate table
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JumpRates:
    """Effective coefficients and jump rates of a model on shells 1..N.

    Rows are interactions in model order, columns zero-based shells.
    ``keff[j, n-1]`` is ``k_j * lam**n`` where interaction j is active at
    shell n (shells n, n + r_j and n + h_j all exist) and zero elsewhere,
    ``rate = (sigma**2 * keff) * keff`` the rate of the jump n -> n + r_j
    and ``pi`` the exit rate of each shell.  By target, ``grouped[i]`` sums
    the rates of the interactions with offset ``offsets[i]`` (ascending),
    also where the target lies past N.  Every sum adds interactions in
    model order.
    """

    keff: np.ndarray
    rate: np.ndarray
    pi: np.ndarray
    offsets: np.ndarray
    grouped: np.ndarray

    def inside(self) -> np.ndarray:
        """(N, N) matrix of the rates n -> m with both shells in 1..N."""
        N = len(self.pi)
        out = np.zeros((N, N))
        for off, rates in zip(self.offsets.tolist(), self.grouped):
            n = np.arange(max(0, -off), N - max(0, off))
            out[n, n + off] = rates[n]
        return out


def require_finite_rates(values: np.ndarray, reader: str, what: str = "jump rates") -> None:
    """Refuse rates past the float range: a ``ValueError`` naming the first shell (last axis) where one is not finite.

    ``reader`` says which route reads the shells, and so ends the message.
    """
    bad = np.flatnonzero(~np.isfinite(np.atleast_2d(values)).all(axis=0))
    if bad.size:
        raise ValueError(f"{what} overflow at shell {bad[0] + 1}; {reader}")


def _power(lam: float, n: int) -> float:
    """Python's scalar float ``lam**n``, the power in k_eff = k * lam**n; inf past the float range."""
    try:
        return lam**n
    except OverflowError:
        return math.inf


def jump_rates(spec: ModelSpec, N: int) -> JumpRates:
    """The one table of effective coefficients and jump rates on shells 1..N.

    Each spec stores one table, built at the deepest level any route reads
    (``MAX_SHELLS + 5``, the decay constants' convergence probe, which
    borders their inverse at N out to N + 5, or N when deeper), and every
    call returns a read-only prefix of it.  Each column depends on its own
    shell alone, so the prefix equals the table built at N bit for bit.
    """
    if N < 1:
        raise ValueError("truncation level must be >= 1")
    table = spec._rates
    if table is None or len(table.pi) < N:
        table = _build_rates(spec, max(N, MAX_SHELLS + 5))
        object.__setattr__(spec, "_rates", table)
    return JumpRates(table.keff[:, :N], table.rate[:, :N], table.pi[:N], table.offsets, table.grouped[:, :N])


def _build_rates(spec: ModelSpec, N: int) -> JumpRates:
    # interaction j acts from shell 1 - min(r_j, h_j) on, unless k_j is zero
    powers = np.array([_power(spec.lam, n) for n in range(1, N + 1)])
    offsets = np.unique([it.r for it in spec.interactions])
    keff = np.zeros((spec.size, N))
    pi = np.zeros(N)
    grouped = np.zeros((len(offsets), N))
    with np.errstate(over="ignore"):
        for j, it in enumerate(spec.interactions):
            if it.k != 0.0:
                first = max(0, -min(it.r, it.h))
                keff[j, first:] = it.k * powers[first:]
        rate = (spec.sigma**2 * keff) * keff
        # row by row, so that every sum adds the interactions in model order
        for j, it in enumerate(spec.interactions):
            pi += rate[j]
            grouped[np.searchsorted(offsets, it.r)] += rate[j]
    for arr in (keff, rate, pi, offsets, grouped):
        arr.setflags(write=False)
    return JumpRates(keff, rate, pi, offsets, grouped)


# ----------------------------------------------------------------------
# Precomputed coefficient table for engines
# ----------------------------------------------------------------------


class KernelTerm(NamedTuple):
    """One non-zero ``B[j, a, b, c]`` of interaction j over its shell range.

    The step kernel adds ``coef * X[b, src] * V[other]`` to ``out[a, dst]``,
    where X is a (d, N, P) batch of paths and V the step's velocity: the
    noise slab dW for the linear system, and dW + (dt / sigma) X for the
    nonlinear one, whose transport rides on the same term.  A term of a
    :class:`CoefficientTable` names its cells as ``(channel row, c, noise
    shells)``; the noise shell m of component c pairs with the state entry
    X[c, m], read as zero past N.  :meth:`CoefficientTable.slab` maps the
    cells to slab rows.  ``coef`` has shape (len, 1): sigma times the
    bilinear entry times ``keff[j]`` on the destination shells.
    """

    a: int
    dst: slice
    b: int
    src: slice
    other: tuple | slice
    coef: np.ndarray


class SlabBlock(NamedTuple):
    """One (channel row, component) run of slab rows, whose noise shells are consecutive.

    ``rows`` are its slab rows, ``c`` the component and ``shells`` the
    zero-based noise shells they hold, one per row; ``terms`` are the
    kernel terms that read it, each ``other`` a slice of the block's rows.
    """

    rows: slice
    c: int
    shells: slice
    terms: list[KernelTerm]


class CoefficientTable:
    """Step-kernel coefficients of ``spec`` on a truncation 1..N.

    ``keff`` and ``pi`` are those of :func:`jump_rates`.  Arrays are indexed
    by interaction position j and zero-based shell index.
    ``gamma[n-1]`` is the positive quadratic rate matrix, so the drift
    correction is ``-gamma[n-1] @ X_n``; when every gram is the identity it
    is the scalar ``pi[n-1] / 2``.

    The step kernel's one term list is built here once: ``noise_terms``,
    state times velocity, which both systems read, and ``ledger_rows``, the
    (channel row, shells) whose state and noise the Girsanov ledger pairs.
    Noise shells are zero-based shell indices, as state shells are, and may
    pass N.  :meth:`slab` lays out the packed slab that a step reads and
    maps both lists into it.
    """

    def __init__(self, spec: ModelSpec, N: int):
        rates = jump_rates(spec, N)
        # an infinite pi only damps its shell to zero; an infinite k_eff has no step at all
        require_finite_rates(rates.keff, f"the SDE at N = {N} reads shells 1..{N}", "effective coefficients")
        self.spec = spec
        self.N = N
        self.d = spec.d
        star = spec.star_ids()
        row = {iid: j for j, iid in enumerate(star)}
        self.star_row = np.array(
            [row[it.iid] if it.iid in spec.istar else row[spec.pairing[it.iid]] for it in spec.interactions],
            dtype=int,
        )
        self.keff = rates.keff
        self.gamma = 0.5 * np.einsum("jn,jab->nab", rates.rate, spec.grams())
        self.pi = rates.pi
        self.identity_grams = spec.has_identity_grams()
        self.noise_terms = self._kernel_terms()
        self.ledger_rows = []
        for j, iid in enumerate(star):
            mlo = max(1, 1 + spec.interaction(iid).h)
            if mlo <= N:
                self.ledger_rows.append((j, slice(mlo - 1, N)))

    def _kernel_terms(self) -> list[KernelTerm]:
        """The term of every non-zero bilinear entry.

        A term covers the shells n where its interaction is active and the
        transported shell n + r exists; its noise shell n + h may pass N.
        """
        N, sigma = self.N, self.spec.sigma
        terms = []
        for j, it in enumerate(self.spec.interactions):
            nlo = max(1, 1 - it.r, 1 - it.h)
            nhi = min(N, N - it.r)
            if nlo > nhi or it.k == 0.0:
                continue
            B = it.B.entries
            coef = (sigma * B[B != 0.0][:, None, None]) * self.keff[j, nlo - 1 : nhi, None]
            dst, src = slice(nlo - 1, nhi), slice(nlo - 1 + it.r, nhi + it.r)
            row, shells = int(self.star_row[j]), slice(nlo - 1 + it.h, nhi + it.h)
            for i, (a, b, c) in enumerate(np.argwhere(B).tolist()):
                terms.append(KernelTerm(a, dst, b, src, (row, c, shells), coef[i]))
        return terms

    def slab(
        self, weighted: bool
    ) -> tuple[int, list[KernelTerm], list[SlabBlock], list[tuple[slice, slice, slice]] | None]:
        """The packed slab a step reads: its row count, its terms, its blocks and its ledger rows.

        The slab holds, of each channel row, the noise shells that its terms
        read and, with ``weighted``, those of its ledger row, for every
        component alike; rows run by channel row, then component, then
        shell, which is the order a step draws them in.  The terms come in
        table order, each ``other`` its slice of slab rows.  The blocks are
        the slab's :class:`SlabBlock` runs that terms read, in row order,
        each with the same terms, ``other`` taken relative to the block.  A
        ledger row becomes (shells, block, cells): ``block`` is the channel
        row's slab rows, its d components one after another, and ``cells``
        the ledger's part of each component.  The ledger rows are None
        unless ``weighted``.
        """
        reads = [(row, shells) for row, _, shells in (t.other for t in self.noise_terms)]
        if weighted:
            reads += self.ledger_rows
        read: dict[int, set[int]] = {}
        for row, shells in reads:
            read.setdefault(row, set()).update(range(shells.start, shells.stop))
        size, first, place = 0, {}, {}  # per channel row: its first slab row, each shell's place in a component
        for row in sorted(read):
            first[row], place[row] = size, {m: i for i, m in enumerate(sorted(read[row]))}
            size += self.d * len(read[row])

        blocks, home = [], {}  # home[row, c, m]: the block that holds noise shell m, and m's row in it
        for row, shells in place.items():
            for c in range(self.d):
                for lo in (m for m in shells if m - 1 not in shells):
                    hi = lo
                    while hi in shells:
                        home[row, c, hi] = (len(blocks), hi - lo)
                        hi += 1
                    start = first[row] + c * len(shells) + shells[lo]
                    blocks.append(SlabBlock(slice(start, start + hi - lo), c, slice(lo, hi), []))
        terms = []
        for t in self.noise_terms:
            row, c, shells = t.other
            (k, at), n = home[row, c, shells.start], shells.stop - shells.start
            blocks[k].terms.append(t._replace(other=slice(at, at + n)))
            start = blocks[k].rows.start + at
            terms.append(t._replace(other=slice(start, start + n)))
        blocks = [b for b in blocks if b.terms]  # a run of ledger cells alone has no velocity to form
        if not weighted:
            return size, terms, blocks, None
        ledger = []
        for row, shells in self.ledger_rows:
            start = place[row][shells.start]
            block = slice(first[row], first[row] + self.d * len(place[row]))
            ledger.append((shells, block, slice(start, start + shells.stop - shells.start)))
        return size, terms, blocks, ledger
