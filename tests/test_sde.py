import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_oracle as oracle
from goy_oracle import goy_complex_em_step
import shellsde as s
from shellsde.algebra import BilinearMap, CoefficientTable
from shellsde import sde as sde_module
from shellsde.noise import MAX_SHELLS, NoiseSlab, slab_rng
from shellsde.sde import SCHEMES, SYSTEMS, NumericalBlowupError, _step_batch, _weight_increment


def random_state(spec, N, seed, sparse=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N, spec.d))
    if sparse:
        mask = rng.random(N) < 0.4
        x[mask] = 0.0
    return s.TruncatedState(N=N, t=0.0, x=x)


def zero_slab(spec, N, dt):
    base = s.sample_slab(spec, N, dt, 0)
    return NoiseSlab(spec=spec, dt=dt, lo=base.lo, increments=np.zeros_like(base.increments))


# ----------------------------------------------------------------- drift


def test_zero_state_zero_drift(novikov, goy):
    for spec in (novikov, goy):
        st0 = s.make_state(spec, 8, np.zeros((8, spec.d)))
        assert np.all(s.drift_nonlinear(spec, st0) == 0.0)
        assert np.all(s.drift_linear(spec, st0) == 0.0)


def test_novikov_drift_hand_value(novikov):
    state = s.make_state(novikov, 6, [1.0, 1.0])
    d = s.drift_nonlinear(novikov, state)
    assert d[0, 0] == pytest.approx(-2.0 - 0.5 * 4.0)


def test_bilinear_drift_cancellation(novikov, goy, sabra):
    # summed against the state, the transport term vanishes to roundoff
    for spec in (novikov, goy, sabra):
        N = 20
        pi_scale = spec.pi_n(N) / spec.sigma**2
        for seed in range(20):
            state = random_state(spec, N, seed, sparse=True)
            t = s.bilinear_drift(spec, state)
            lhs = abs(float((state.x * t).sum()))
            assert lhs <= 1e-10 * state.energy() * pi_scale


def test_drift_linear_single_shell(novikov):
    state = s.make_state(novikov, 6, [0.0, 1.0])
    d = s.drift_linear(novikov, state)
    assert d[1, 0] == pytest.approx(-0.5 * (4.0 + 16.0))
    assert np.all(d[[0, 2, 3, 4, 5]] == 0.0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15)
def test_drift_linear_is_linear(goy, seed):
    rng = np.random.default_rng(seed)
    N = 7
    x = rng.standard_normal((N, 2))
    y = rng.standard_normal((N, 2))
    a, b = rng.standard_normal(2)
    da = s.drift_linear(goy, s.TruncatedState(N=N, t=0.0, x=a * x + b * y))
    dx = s.drift_linear(goy, s.TruncatedState(N=N, t=0.0, x=x))
    dy = s.drift_linear(goy, s.TruncatedState(N=N, t=0.0, x=y))
    assert np.allclose(da, a * dx + b * dy, atol=1e-8)


def test_drift_agreement_on_gap_states(goy):
    # single populated shell: every bilinear product reads at least one zero
    # (offsets differ per interaction), so nonlinear and linear drift coincide
    x = np.zeros((8, 2))
    x[2] = (0.4, -0.7)
    state = s.TruncatedState(N=8, t=0.0, x=x)
    assert np.allclose(s.drift_nonlinear(goy, state), s.drift_linear(goy, state))


# ----------------------------------------------------------------- diffusion


def test_zero_slab_zero_increment(goy):
    state = random_state(goy, 8, 3)
    assert np.all(s.diffusion_apply(goy, state, zero_slab(goy, 8, 1e-3)) == 0.0)


def test_single_increment_locality(goy):
    # one nonzero channel increment touches exactly the shells that read it
    N = 10
    state = random_state(goy, N, 4)
    slab = zero_slab(goy, N, 1e-3)
    m = 5
    row = 0  # representative channel "1"
    slab.increments[0, row, m - slab.lo, :] = (0.3, -0.2)
    inc = s.diffusion_apply(goy, state, slab)
    expected = set()
    for iid in goy.ids:
        it = goy.interaction(iid)
        alias = iid if iid in goy.istar else goy.pairing[iid]
        if alias != "1":
            continue
        n = m - it.h
        if 1 <= n <= N and goy.k_eff(iid, n) != 0.0 and 1 <= n + it.r <= N:
            expected.add(n)
    touched = {n + 1 for n in range(N) if np.any(inc[n] != 0.0)}
    assert touched == expected


def test_diffusion_energy_balance_in_expectation(novikov):
    # E[2 <X, dX_noise> + |dX_noise|^2] cancels the quadratic correction
    N, dt = 10, 1e-3
    state = s.make_state(novikov, N, [0.6, 0.5, 0.4, 0.3])
    corr = float((state.x * s.drift_linear(novikov, state)).sum())
    vals = []
    for k in range(10_000):
        slab = s.sample_slab(novikov, N, dt, (21, 0, k))
        inc = s.diffusion_apply(novikov, state, slab)
        vals.append(2.0 * float((state.x * inc).sum()) + float((inc * inc).sum()))
    vals = np.array(vals)
    resid = vals.mean() + 2.0 * corr * dt
    assert abs(resid) <= 3.0 * vals.std() / math.sqrt(len(vals))


# ----------------------------------------------------------------- stepping


def test_zero_state_fixed_point(novikov):
    state = s.make_state(novikov, 6, np.zeros(6))
    slab = s.sample_slab(novikov, 6, 1e-3, (5, 0, 0))
    for which in ("nonlinear", "linear"):
        out = s.step_em(novikov, state, slab, which)
        assert np.all(out.x == 0.0)
        out = s.step_conservative(novikov, state, slab, which)
        assert np.all(out.x == 0.0)


def test_em_one_step_energy_identity(novikov):
    # interior state: E[energy change] equals the dt^2 drift term exactly
    N, dt = 10, 1e-3
    state = s.make_state(novikov, N, [0.6, 0.5, 0.4, 0.3])
    drift = s.drift_linear(novikov, state)
    predicted = dt * dt * float((drift * drift).sum())
    changes = []
    for k in range(10_000):
        slab = s.sample_slab(novikov, N, dt, (31, 0, k))
        out = s.step_em(novikov, state, slab, "linear")
        changes.append(out.energy() - state.energy())
    changes = np.array(changes)
    se = changes.std() / math.sqrt(len(changes))
    assert abs(changes.mean() - predicted) <= 3.0 * se


def test_conservative_projection_exact(novikov, goy):
    for spec in (novikov, goy):
        state = random_state(spec, 8, 11)
        e0 = state.energy()
        for k in range(200):
            slab = s.sample_slab(spec, 8, 1e-3, (41, 0, k))
            state = s.step_conservative(spec, state, slab, "nonlinear")
            assert abs(state.energy() - e0) <= 1e-12 * e0


def test_conservative_tracks_em_at_small_dt(novikov):
    # per-step energy deviation of the unprojected step shrinks with dt
    state = s.make_state(novikov, 4, [0.7, 0.5, 0.3])
    drifts = {}
    for dt in (1e-3, 5e-4):
        devs = []
        for k in range(2000):
            slab = s.sample_slab(novikov, 4, dt, (51, 0, k))
            em = s.step_em(novikov, state, slab, "linear")
            devs.append(abs(em.energy() - state.energy()))
        drifts[dt] = np.mean(devs)
    # between sqrt(2) (martingale part) and 2 (drift part) per halving
    ratio = drifts[1e-3] / drifts[5e-4]
    assert 1.2 < ratio < 2.5


def test_split_consistent_with_em_small_dt(novikov):
    # the two schemes differ by O(gamma * dt * noise) within one step
    state = s.make_state(novikov, 6, [0.7, 0.5, 0.3])
    dt = 1e-6
    slab = s.sample_slab(novikov, 6, dt, (61, 0, 0))
    a = s.step_em(novikov, state, slab, "linear")
    b = s.step_split(novikov, state, slab, "linear")
    assert np.allclose(a.x, b.x, atol=1e-5)


def test_em_blowup_raises(novikov):
    state = s.make_state(novikov, 14, [1.0])
    with pytest.raises(NumericalBlowupError):
        for k in range(4000):
            slab = s.sample_slab(novikov, 14, 1e-3, (71, 0, k))
            state = s.step_em(novikov, state, slab, "linear")


# ----------------------------------------------------------------- weights


def test_zero_path_unit_weight(novikov):
    w = s.PathWeight()
    state = s.make_state(novikov, 6, np.zeros(6))
    slab = s.sample_slab(novikov, 6, 1e-3, (81, 0, 0))
    w = s.accumulate_weight(w, novikov, state, slab, "QtoP")
    assert w.z == 0.0 and w.qv == 0.0 and w.density() == 1.0


def test_qv_bound_on_conservative_paths(novikov):
    # quadratic variation stays below |I*| * energy * T / sigma^2 pathwise
    N, dt, nsteps = 8, 1e-3, 300
    T = nsteps * dt
    bound = 1 * 1.0 * T / novikov.sigma**2
    for p in range(10):
        w = s.PathWeight()
        state = s.make_state(novikov, N, [1.0])
        for k in range(nsteps):
            slab = s.sample_slab(novikov, N, dt, (90 + p, 0, k))
            w = s.accumulate_weight(w, novikov, state, slab, "QtoP")
            state = s.step_conservative(novikov, state, slab, "linear")
        assert w.qv <= bound + 1e-9
        assert w.qv > 0.0


def test_weight_direction_sign(novikov):
    state = s.make_state(novikov, 6, [1.0, 0.5])
    slab = s.sample_slab(novikov, 6, 1e-3, (95, 0, 0))
    wq = s.accumulate_weight(s.PathWeight(), novikov, state, slab, "QtoP")
    wp = s.accumulate_weight(s.PathWeight(), novikov, state, slab, "PtoQ")
    assert wq.z == pytest.approx(-wp.z)
    assert wq.qv == pytest.approx(wp.qv)


def test_density_martingale_small(novikov):
    es = s.run_ensemble(
        novikov,
        [1.0],
        N=8,
        dt=5e-4,
        T=0.4,
        paths=4000,
        which="linear",
        scheme="split",
        seed=7,
        record_times=[0.4],
        weight_direction="QtoP",
    )
    assert abs(es.weight_mean[0] - 1.0) <= 3.0 * es.weight_se[0]


def test_reweighted_linear_matches_nonlinear(novikov):
    kwargs = dict(N=8, dt=2e-4, T=0.5, paths=4000, record_times=[0.5])
    lin = s.run_ensemble(
        novikov, [1.0], which="linear", scheme="split", seed=3, weight_direction="QtoP", **kwargs
    )
    non = s.run_ensemble(novikov, [1.0], which="nonlinear", scheme="split", seed=12, **kwargs)
    for n in range(3):
        diff = abs(lin.mean_sq[0, n] - non.mean_sq[0, n])
        comb = math.hypot(lin.se_sq[0, n], non.se_sq[0, n])
        assert diff <= 3.0 * comb


# ----------------------------------------------------------------- ensembles


def test_linear_moments_scheme_independent():
    # while the truncation border is inert (negligible escaped mass) the
    # second moments do not depend on the scheme at resolvable stiffness
    spec = s.build_novikov(1.4, 1.0)
    base = dict(N=8, dt=1e-4, T=0.3, paths=3000, which="linear", record_times=[0.3])
    em = s.run_ensemble(spec, [1.0], scheme="em", seed=14, **base)
    cons = s.run_ensemble(spec, [1.0], scheme="conservative", seed=15, **base)
    for n in range(8):
        diff = abs(em.mean_sq[0, n] - cons.mean_sq[0, n])
        comb = math.hypot(em.se_sq[0, n], cons.se_sq[0, n])
        assert diff <= 3.0 * comb + 2e-3


def test_run_ensemble_single_path_matches_manual(novikov):
    N, dt, nsteps = 6, 1e-3, 20
    es = s.run_ensemble(
        novikov, [1.0], N=N, dt=dt, T=nsteps * dt, paths=1, which="linear", scheme="em",
        seed=5, record_times=[nsteps * dt],
    )
    # the one block's stream, drawn step by step into the cells the kernel reads
    table = CoefficientTable(novikov, N)
    rng = slab_rng(5, 0)
    dW = np.zeros((len(novikov.istar), novikov.d, table.window, 1))
    state = s.make_state(novikov, N, [1.0])
    for k in range(nsteps):
        s.fill_slab(rng, dW, table.slab_cells(), math.sqrt(dt))
        slab = NoiseSlab(spec=novikov, dt=dt, lo=table.lo, increments=dW.transpose(3, 0, 2, 1).copy())
        state = s.step_em(novikov, state, slab, "linear")
    assert np.allclose(es.mean_sq[0], (state.x**2).sum(axis=1), atol=1e-14)


def test_run_ensemble_se_scaling(novikov):
    base = dict(N=6, dt=2e-4, T=0.2, which="linear", scheme="split", record_times=[0.2])
    a = s.run_ensemble(novikov, [1.0], paths=1000, seed=1, **base)
    b = s.run_ensemble(novikov, [1.0], paths=4000, seed=1, **base)
    assert a.aborted == 0 and b.aborted == 0
    ratio = a.se_sq[0, 0] / b.se_sq[0, 0]
    assert 1.5 < ratio < 2.7  # doubling paths twice shrinks SE by about 2


def test_run_ensemble_threads_deterministic(novikov, goy):
    # each block owns its step buffers, so threads cannot change a single bit
    cases = [
        (novikov, [1.0], dict(N=6, dt=1e-3, T=0.1, which="linear", scheme="em", record_times=[0.1]), 3),
        (goy, [[1.0, 0.0]], dict(N=6, dt=1e-3, T=0.05, which="nonlinear", scheme="split",
                                 record_times=[0.02, 0.05]), 2),
    ]
    for spec, x0, base, threads in cases:
        a = s.run_ensemble(spec, x0, paths=3000, block_size=1000, seed=9, threads=1, **base)
        b = s.run_ensemble(spec, x0, paths=3000, block_size=1000, seed=9, threads=threads, **base)
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def test_run_ensemble_keys_one_stream_per_block_through_slab_rng(novikov, goy, monkeypatch):
    # the benchmark times and counts the noise by hooking sde.slab_rng and the
    # standard_normal calls of the generators it returns
    cases = [
        (novikov, [1.0], dict(N=6, dt=1e-3, T=0.02, which="linear", scheme="split", weight_direction="QtoP")),
        (goy, [[1.0, 0.0]], dict(N=6, dt=1e-3, T=0.01, which="nonlinear", scheme="em")),
    ]
    keys, drawn = [], [0]

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            out = self.gen.standard_normal(*args, **kwargs)
            drawn[0] += out.size
            return out

    def counting_rng(*args):
        keys.append(args)
        return Counting(slab_rng(*args))

    for spec, x0, base in cases:
        paths, block_size, nsteps = 2500, 1000, int(round(base["T"] / base["dt"]))
        plain = s.run_ensemble(spec, x0, paths=paths, block_size=block_size, seed=13, **base)
        keys.clear()
        drawn[0] = 0
        monkeypatch.setattr(sde_module, "slab_rng", counting_rng)
        hooked = s.run_ensemble(spec, x0, paths=paths, block_size=block_size, seed=13, threads=2, **base)
        monkeypatch.undo()
        assert sorted(keys) == [(13, 0), (13, 1), (13, 2)]
        cells = CoefficientTable(spec, base["N"]).slab_cells("weight_direction" in base)
        assert drawn[0] == paths * nsteps * sum(stop - start for _, _, start, stop in cells)
        for field in dataclasses.fields(plain):
            assert np.array_equal(getattr(plain, field.name), getattr(hooked, field.name)), field.name


def test_run_ensemble_rejects_too_many_shells(novikov):
    with pytest.raises(ValueError, match="window overflow"):
        s.run_ensemble(novikov, [1.0], N=MAX_SHELLS + 1, dt=1e-3, T=1e-3, paths=1)


def test_run_ensemble_all_aborted_raises(novikov):
    with pytest.raises(NumericalBlowupError):
        s.run_ensemble(
            novikov, [1.0], N=14, dt=1e-3, T=1.0, paths=50, which="linear", scheme="em",
            seed=2, record_times=[1.0],
        )


# ----------------------------------------------------------------- kernel oracle


def _kernel_model(name, request):
    if name != "goy_scaled":
        return request.getfixturevalue(name)
    goy = request.getfixturevalue("goy")
    return dataclasses.replace(
        goy,
        interactions=tuple(
            dataclasses.replace(it, B=BilinearMap(1.1 * it.B.entries)) for it in goy.interactions
        ),
    )


def _close(got, expected):
    # relative to the array's scale: an entry may cancel to near zero
    scale = np.abs(expected).max()
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled"])
def test_step_kernel_matches_einsum_oracle(model, request):
    spec = _kernel_model(model, request)
    N, P, dt = 6, 7, 1e-4
    table = CoefficientTable(spec, N)
    assert table.identity_grams == (model != "goy_scaled")
    rng = np.random.default_rng(23)
    X = rng.standard_normal((P, N, spec.d))
    e0 = rng.uniform(0.5, 2.0, P)
    slab = s.sample_slab(spec, N, dt, (29, 0, 0), paths=P)
    dW = slab.increments.transpose(1, 3, 2, 0)
    for scheme in SCHEMES:
        for which in SYSTEMS:
            for energy0 in (e0, None) if scheme == "conservative" else (e0,):
                got = _step_batch(table, X.transpose(2, 1, 0).copy(), dW, dt, which, scheme, energy0)
                expected = oracle.step(table, X, slab.increments, slab.lo, dt, which, scheme, energy0)
                _close(got.transpose(2, 1, 0), expected)
    zinc, qvinc = _weight_increment(table, X.transpose(2, 1, 0).copy(), dW, dt)
    z_ref, qv_ref = oracle.weight_increment(table, X, slab.increments, slab.lo, dt)
    _close(zinc, z_ref)
    _close(qvinc, qv_ref)
    # the single-path adapters run the same kernel with P = 1
    state = s.TruncatedState(N=N, t=0.0, x=X[0])
    one = NoiseSlab(spec=spec, dt=dt, lo=slab.lo, increments=slab.increments[:1])
    _close(s.bilinear_drift(spec, state), oracle.transport(table, X[:1])[0])
    _close(s.drift_linear(spec, state), oracle.correction(table, X[:1])[0])
    _close(s.diffusion_apply(spec, state, one), oracle.diffusion(table, X[:1], one.increments, one.lo)[0])


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled"])
def test_step_reads_no_undrawn_slab_cell(model, request):
    # NaN in every cell outside the drawn runs would reach the result if read
    spec = _kernel_model(model, request)
    N, P, dt = 6, 5, 1e-4
    table = CoefficientTable(spec, N)
    X = np.random.default_rng(31).standard_normal((spec.d, N, P))
    e0 = (X * X).sum(axis=(0, 1))
    for weighted in (False, True):
        cells = table.slab_cells(weighted)
        dW = np.zeros((len(spec.istar), spec.d, table.window, P))
        s.fill_slab(slab_rng(37, 0), dW, cells, math.sqrt(dt))
        poisoned = np.full_like(dW, np.nan)
        for row, c, start, stop in cells:
            poisoned[row, c, start:stop] = dW[row, c, start:stop]
        for scheme in SCHEMES:
            for which in SYSTEMS:
                ref = _step_batch(table, X.copy(), dW, dt, which, scheme, e0)
                got = _step_batch(table, X.copy(), poisoned, dt, which, scheme, e0)
                assert np.isfinite(got).all() and np.array_equal(got, ref), (weighted, scheme, which)
        if weighted:
            for ref, got in zip(_weight_increment(table, X, dW, dt), _weight_increment(table, X, poisoned, dt)):
                assert np.isfinite(got).all() and np.array_equal(got, ref)


# ----------------------------------------------------------------- conjugacy


def test_goy_complex_real_conjugacy_exact_reduced():
    goy = s.build_goy(1.0, -1.0, 0.0, 2.0, 1.0)
    N, dt = 6, 1e-5
    rng = np.random.default_rng(5)
    u = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.3
    state = s.TruncatedState(N=N, t=0.0, x=s.embed_complex(u))
    for k in range(300):
        slab = s.sample_slab(goy, N, dt, (42, 0, k))
        state = s.step_em(goy, state, slab, "nonlinear")
        u = goy_complex_em_step(u, goy, slab)
        diff = np.abs(s.embed_complex(u) - state.x).max()
        assert diff <= 1e-12 * (1.0 + np.abs(state.x).max())


def test_goy_conjugacy_generic_bulk_shells(goy):
    # with all three coefficients active the maps agree from the shell where
    # every interaction is active; the first two shells carry the filtered pair
    N, dt = 6, 1e-5
    rng = np.random.default_rng(8)
    for k in range(50):
        u = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.3
        state = s.TruncatedState(N=N, t=0.0, x=s.embed_complex(u))
        slab = s.sample_slab(goy, N, dt, (9, 0, k))
        s1 = s.step_em(goy, state, slab, "nonlinear")
        u1 = goy_complex_em_step(u, goy, slab)
        diff = np.abs(s.embed_complex(u1) - s1.x)
        assert diff[goy.n0 - 1 :].max() <= 1e-12
