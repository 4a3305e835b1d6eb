import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import shellsde as s
from goy_oracle import bilinear_apply, embed_complex, lift_real
from rates_oracle import active_ids, k_eff, n0
from shellsde import algebra
from shellsde.algebra import BilinearMap, CoefficientTable, MalformedModelError

SQRT2 = math.sqrt(2.0)


def replace_k(spec, iid, newk):
    inters = tuple(
        dataclasses.replace(it, k=newk) if it.iid == iid else it for it in spec.interactions
    )
    return dataclasses.replace(spec, interactions=inters)


# ----------------------------------------------------------------- bilinear map


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
def test_bilinear_map_is_bilinear(d, seed):
    rng = np.random.default_rng(seed)
    B = BilinearMap(rng.standard_normal((d, d, d)))
    u, v, w = rng.standard_normal((3, d))
    a, b = rng.standard_normal(2)
    lhs = bilinear_apply(B, a * u + b * v, w)
    rhs = a * bilinear_apply(B, u, w) + b * bilinear_apply(B, v, w)
    assert np.allclose(lhs, rhs, atol=1e-12)
    lhs2 = bilinear_apply(B, w, a * u + b * v)
    rhs2 = a * bilinear_apply(B, w, u) + b * bilinear_apply(B, w, v)
    assert np.allclose(lhs2, rhs2, atol=1e-12)


def test_bilinear_map_rejects_bad_shape():
    with pytest.raises(MalformedModelError):
        BilinearMap(np.zeros((2, 2)))
    with pytest.raises(MalformedModelError):
        BilinearMap(np.zeros((2, 2, 3)))
    with pytest.raises(MalformedModelError):
        BilinearMap(np.full((1, 1, 1), np.nan))


# ----------------------------------------------------------------- validation


def test_presets_accepted(novikov, goy, sabra):
    for spec in (novikov, goy, sabra):
        report = s.validate_model(spec)
        assert report.accepted, report.failed()


def test_goy_coefficient_table(goy):
    a, c, lam = 1.0, 0.5, 2.0
    expect = {
        "1": (1, 2, SQRT2 * a),
        "2": (-1, -2, SQRT2 * c / lam**2),
        "3": (-1, 1, -SQRT2 * a / lam),
        "4": (1, -1, -SQRT2 * c / lam),
    }
    for iid, (r, h, k) in expect.items():
        it = goy.interaction(iid)
        assert (it.r, it.h) == (r, h)
        assert it.k == pytest.approx(k, rel=1e-15)


def test_novikov_table_relations(novikov):
    k1 = novikov.interaction("1")
    k2 = novikov.interaction("2")
    assert (k1.r, k1.h, k1.k) == (-1, -1, 0.5)
    assert (k2.r, k2.h, k2.k) == (1, 0, -1.0)
    # pairing relations in explicit form
    assert k2.k == pytest.approx(-k1.k * 2.0 ** -k1.r)
    assert k2.h == k1.h - k1.r


def test_self_interaction_rejected(novikov):
    inters = (
        dataclasses.replace(novikov.interaction("1"), r=0, h=-1),
        novikov.interaction("2"),
    )
    bad = dataclasses.replace(novikov, interactions=inters)
    report = s.validate_model(bad)
    assert not report.accepted
    assert any(c.name == "no_self_interaction" and not c.passed for c in report.checks)


def test_validation_idempotent(goy):
    r1 = s.validate_model(goy)
    r2 = s.validate_model(goy)
    assert r1.as_dict() == r2.as_dict()


@pytest.mark.parametrize("iid", ["1", "2", "3", "4"])
def test_single_coefficient_mutation_flips_cancellation_only(goy, iid):
    bad = replace_k(goy, iid, goy.interaction(iid).k + 1e-6)
    report = s.validate_model(bad)
    failed = {c.name for c in report.failed()}
    assert failed == {"k_cancellation"}


def test_structural_error_is_distinct(novikov):
    with pytest.raises(MalformedModelError):
        s.ModelSpec(
            d=2,  # dimension mismatch with the scalar bilinear maps
            lam=2.0,
            sigma=1.0,
            interactions=novikov.interactions,
            pairing=novikov.pairing,
            istar=novikov.istar,
        )


# ----------------------------------------------------------------- builders


def test_build_goy_example_values():
    spec = s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0)
    assert spec.interaction("1").k == pytest.approx(SQRT2)
    assert spec.interaction("2").k == pytest.approx(SQRT2 * 0.125)
    assert spec.sigma == pytest.approx(1.0 / math.sqrt(1.0625))


def test_build_goy_rejections():
    with pytest.raises(ValueError):
        s.build_goy(1.0, -1.4, 0.5, 2.0, 1.0)  # sum constraint
    with pytest.raises(ValueError):
        s.build_goy(0.0, 0.0, 0.0, 2.0, 1.0)  # degenerate normalisation


@pytest.mark.parametrize("a,c", [(1.0, 0.5), (1e3, 250.0)])
@pytest.mark.parametrize("eps,accepted", [(0.5e-12, True), (2e-12, False)])
def test_sum_constraint_scales_with_the_coefficients(a, c, eps, accepted):
    # a + b + c counts as zero up to REL_TOL = 1e-12 times max(1, |a|, |b|, |c|), here |b| = a + c
    b = -(a + c) * (1.0 - eps)
    for build in (lambda: s.build_goy(a, b, c, 2.0, 1.0), lambda: s.build_sabra(a, b, c, 2.0, 1.0, c / (2.0 * a))):
        if accepted:
            assert s.validate_model(build()).accepted
        else:
            with pytest.raises(ValueError, match=r"a \+ b \+ c = 0"):
                build()


def test_goy_gram_is_identity(goy):
    for it in goy.interactions:
        assert np.allclose(it.B.gram(), np.eye(2), atol=1e-15)


def test_build_sabra_ratio_enforced():
    with pytest.raises(ValueError) as err:
        s.build_sabra(1.0, -1.25, 0.25, 2.0, 1.0, 0.1375)  # 10% off
    assert "lambda*a/c" in str(err.value)


def test_sabra_alias_on_basis(sabra):
    # <u, B_tau(i)(v, w)> = <v, B_i(u, w)> for canonical basis triples
    e = np.eye(2)
    for it in sabra.interactions:
        other = sabra.interaction(sabra.pairing[it.iid])
        for u in e:
            for v in e:
                for w in e:
                    lhs = float(u @ bilinear_apply(other.B, v, w))
                    rhs = float(v @ bilinear_apply(it.B, u, w))
                    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_sabra_grams_identity(sabra):
    for it in sabra.interactions:
        assert np.allclose(it.B.gram(), np.eye(2), atol=1e-15)


def _identity_by_gram(spec):
    """The per-gram decision: every gram g passes ``_negligible(g - I, g)``."""
    return all(algebra._negligible(g - np.eye(spec.d), g) for g in spec.grams())


def _scale_maps(spec, factor, count=None):
    """``spec`` with the bilinear maps of its first ``count`` interactions (all by default) scaled by ``factor``."""
    count = spec.size if count is None else count
    return dataclasses.replace(
        spec,
        interactions=tuple(
            dataclasses.replace(it, B=BilinearMap(factor * it.B.entries)) if j < count else it
            for j, it in enumerate(spec.interactions)
        ),
    )


@pytest.mark.parametrize(
    "name,factor,count,expected",
    [
        ("novikov", 1.0, 0, True),
        ("goy", 1.0, 0, True),
        ("sabra", 1.0, 0, True),
        ("goy", 1.1, None, False),  # test_sde's goy_scaled
        # one gram off the identity by 0.5 or 2 times REL_TOL of its scale (about 1), the others exact
        ("goy", math.sqrt(1.0 + 0.5 * algebra.REL_TOL), 1, True),
        ("goy", math.sqrt(1.0 + 2.0 * algebra.REL_TOL), 1, False),
    ],
)
def test_identity_gram_decision_is_the_per_gram_loop(name, factor, count, expected, request):
    spec = _scale_maps(request.getfixturevalue(name), factor, count)  # a fresh spec decides anew
    assert _identity_by_gram(spec) is expected
    assert spec.has_identity_grams() is expected


def test_build_novikov_validates():
    spec = s.build_novikov(2.0, 1.0)
    assert s.validate_model(spec).accepted


# ----------------------------------------------------------------- active sets


def test_active_sets_nested(novikov, goy):
    for spec in (novikov, goy):
        prev = set()
        for n in range(1, n0(spec) + 3):
            cur = set(active_ids(spec, n))
            assert prev <= cur
            prev = cur
        assert set(active_ids(spec, n0(spec))) == set(spec.ids)


def test_n0_values(novikov, goy):
    assert n0(novikov) == 2
    assert n0(goy) == 3


def test_pair_coefficient_identity(novikov, goy, sabra):
    # k_eff(tau(i), n + r_i) = -k_eff(i, n) for every shell
    for spec in (novikov, goy, sabra):
        for n in range(1, 30):
            for iid in spec.ids:
                it = spec.interaction(iid)
                lhs = k_eff(spec, spec.pairing[iid], n + it.r)
                assert lhs == pytest.approx(-k_eff(spec, iid, n), rel=1e-12, abs=1e-300)


# ----------------------------------------------------------------- correction


def ito_correction(spec, n):
    """The drift matrix the step kernel applies at shell n: -gamma[n-1] of the table truncated at n."""
    return -CoefficientTable(spec, n).gamma[n - 1]


def test_ito_correction_goy_bulk(goy):
    a, c, lam, sig = 1.0, 0.5, 2.0, goy.sigma
    for n in (3, 5, 9):
        expect = -0.5 * sig**2 * 2 * (a**2 + c**2 / lam**2) * (1 + lam**-2) * lam ** (2 * n)
        got = ito_correction(goy, n)
        assert np.allclose(got, expect * np.eye(2), rtol=1e-12)


def test_ito_correction_novikov_boundary(novikov):
    got = ito_correction(novikov, 1)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(-0.5 * 4.0)


def test_ito_correction_zero_coefficients(novikov):
    dead = replace_k(replace_k(novikov, "1", 0.0), "2", 0.0)
    assert np.all(ito_correction(dead, 4) == 0.0)


def test_ito_correction_negative_semidefinite(goy):
    for n in (1, 2, 5):
        m = ito_correction(goy, n)
        assert np.allclose(m, m.T)
        assert np.all(np.linalg.eigvalsh(m) <= 1e-12)


# ----------------------------------------------------------------- embedding


def test_embed_basic():
    assert np.allclose(embed_complex([1 + 2j]), [[1.0, 2.0]])


@given(st.integers(min_value=0, max_value=10_000))
def test_embed_goy_product_identity(seed):
    rng = np.random.default_rng(seed)
    from shellsde.algebra import _goy_bilinear

    B = _goy_bilinear()
    v = complex(rng.standard_normal(), rng.standard_normal())
    z = complex(rng.standard_normal(), rng.standard_normal())
    lhs = embed_complex([1j * np.conj(v) * np.conj(z)])[0]
    rhs = SQRT2 * bilinear_apply(B, embed_complex([v])[0], embed_complex([z])[0])
    assert np.allclose(lhs, rhs, atol=1e-14)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
def test_embed_roundtrip_and_norm(seed, n):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = embed_complex(u)
    assert np.allclose(lift_real(x), u)
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(u))
