import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_oracle as oracle
from goy_oracle import NoiseSlab, embed_complex, goy_complex_em_step, keyed_slab
from noise_oracle import PerStepStream, fill_stepper, pack
import shellsde as s
from rates_oracle import k_eff, n0
from shellsde.algebra import BilinearMap, CoefficientTable
from shellsde import noise as noise_module
from shellsde import sde as sde_module
from shellsde.noise import MAX_SHELLS, slab_rng
from shellsde.sde import SCHEMES, SYSTEMS, NumericalBlowupError, Stepper, _add_terms, _sub_correction


def random_state(spec, N, seed, sparse=False):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N, spec.d))
    if sparse:
        mask = rng.random(N) < 0.4
        x[mask] = 0.0
    return x


def start(N, x0):
    """(N, 1) state of a scalar model with the leading shells of x0, the rest zero."""
    x = np.zeros((N, 1))
    x[: len(x0), 0] = x0
    return x


def batch(x):
    """(N, d) state of one path as a new (d, N, 1) batch."""
    return np.array(x, dtype=float).T[:, :, None].copy()


def path(X):
    """(N, d) copy of the first path of a (d, N, P) batch."""
    return X[:, :, 0].T.copy()


def energy(x):
    return float((x * x).sum())


def transport(table, x):
    """The step kernel's bilinear transport at the (N, d) state x."""
    X = batch(x)
    out = np.zeros_like(X)
    _add_terms(table.transport_terms, X, X, out, np.empty((table.N, 1)))
    return path(out)


def drift(table, x, which):
    """Per-shell drift of the nonlinear (transport plus correction) or linear (correction) system."""
    X = batch(x)
    out = batch(transport(table, x)) if which == "nonlinear" else np.zeros_like(X)
    _sub_correction(table, X, out, np.empty_like(X))
    return path(out)


def diffusion(stepper, x):
    """Noise increment of one step from the (N, d) state x with the stepper's slab."""
    X = batch(x)
    out = np.zeros_like(X)
    _add_terms(stepper.noise_terms, X, stepper.dW, out, np.empty((stepper.table.N, 1)))
    return path(out)


def one_path(spec, N, dt, scheme="em", which="linear", weighted=False):
    return Stepper(CoefficientTable(spec, N), dt, scheme, which, weighted, 1)


# ----------------------------------------------------------------- drift


def test_zero_state_zero_drift(novikov, goy):
    for spec in (novikov, goy):
        table = CoefficientTable(spec, 8)
        x0 = np.zeros((8, spec.d))
        assert np.all(drift(table, x0, "nonlinear") == 0.0)
        assert np.all(drift(table, x0, "linear") == 0.0)


def test_novikov_drift_hand_value(novikov):
    d = drift(CoefficientTable(novikov, 6), start(6, [1.0, 1.0]), "nonlinear")
    assert d[0, 0] == pytest.approx(-2.0 - 0.5 * 4.0)


def test_bilinear_drift_cancellation(novikov, goy, sabra):
    # summed against the state, the transport term vanishes to roundoff
    for spec in (novikov, goy, sabra):
        N = 20
        table = CoefficientTable(spec, N)
        pi_scale = spec.pi_n(N) / spec.sigma**2
        for seed in range(20):
            x = random_state(spec, N, seed, sparse=True)
            t = transport(table, x)
            lhs = abs(float((x * t).sum()))
            assert lhs <= 1e-10 * energy(x) * pi_scale


def test_drift_linear_single_shell(novikov):
    d = drift(CoefficientTable(novikov, 6), start(6, [0.0, 1.0]), "linear")
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
    table = CoefficientTable(goy, N)
    da = drift(table, a * x + b * y, "linear")
    dx = drift(table, x, "linear")
    dy = drift(table, y, "linear")
    assert np.allclose(da, a * dx + b * dy, atol=1e-8)


def test_drift_agreement_on_gap_states(goy):
    # single populated shell: every bilinear product reads at least one zero
    # (offsets differ per interaction), so nonlinear and linear drift coincide
    x = np.zeros((8, 2))
    x[2] = (0.4, -0.7)
    table = CoefficientTable(goy, 8)
    assert np.allclose(drift(table, x, "nonlinear"), drift(table, x, "linear"))


# ----------------------------------------------------------------- diffusion


def test_zero_slab_zero_increment(goy):
    # a new stepper's slab is zero until it is filled
    x = random_state(goy, 8, 3)
    assert np.all(diffusion(one_path(goy, 8, 1e-3), x) == 0.0)


def test_single_increment_locality(goy):
    # one nonzero channel increment touches exactly the shells that read it
    N = 10
    x = random_state(goy, N, 4)
    st = one_path(goy, N, 1e-3)
    m = 5
    row = 0  # representative channel "1"
    window = np.zeros((len(st.table.star_ids), 2, st.table.window, 1))
    window[row, :, m - st.table.lo, 0] = (0.3, -0.2)
    pack(st, window)
    inc = diffusion(st, x)
    expected = set()
    for iid in goy.ids:
        it = goy.interaction(iid)
        alias = iid if iid in goy.istar else goy.pairing[iid]
        if alias != "1":
            continue
        n = m - it.h
        if 1 <= n <= N and k_eff(goy, iid, n) != 0.0 and 1 <= n + it.r <= N:
            expected.add(n)
    touched = {n + 1 for n in range(N) if np.any(inc[n] != 0.0)}
    assert touched == expected


def test_diffusion_energy_balance_in_expectation(novikov):
    # E[2 <X, dX_noise> + |dX_noise|^2] cancels the quadratic correction
    N, dt = 10, 1e-3
    x = start(N, [0.6, 0.5, 0.4, 0.3])
    st = one_path(novikov, N, dt)
    corr = float((x * drift(st.table, x, "linear")).sum())
    vals = []
    for k in range(10_000):
        keyed_slab(st.table, dt, (21, 0, k)).load(st)
        inc = diffusion(st, x)
        vals.append(2.0 * float((x * inc).sum()) + float((inc * inc).sum()))
    vals = np.array(vals)
    resid = vals.mean() + 2.0 * corr * dt
    assert abs(resid) <= 3.0 * vals.std() / math.sqrt(len(vals))


# ----------------------------------------------------------------- stepping


def test_zero_state_fixed_point(novikov):
    table = CoefficientTable(novikov, 6)
    slab = keyed_slab(table, 1e-3, (5, 0, 0))
    for which in ("nonlinear", "linear"):
        for scheme in ("em", "conservative"):
            st = Stepper(table, 1e-3, scheme, which, False, 1)
            slab.load(st)
            out = st.step(np.zeros((1, 6, 1)), np.zeros(1))
            assert np.all(out == 0.0)


def test_em_one_step_energy_identity(novikov):
    # interior state: E[energy change] equals the dt^2 drift term exactly
    N, dt = 10, 1e-3
    x = start(N, [0.6, 0.5, 0.4, 0.3])
    st = one_path(novikov, N, dt)
    d = drift(st.table, x, "linear")
    predicted = dt * dt * float((d * d).sum())
    e0 = np.array([energy(x)])
    changes = []
    for k in range(10_000):
        keyed_slab(st.table, dt, (31, 0, k)).load(st)
        out = st.step(batch(x), e0)
        changes.append(energy(out) - energy(x))
    changes = np.array(changes)
    se = changes.std() / math.sqrt(len(changes))
    assert abs(changes.mean() - predicted) <= 3.0 * se


def test_conservative_projection_exact(novikov, goy):
    for spec in (novikov, goy):
        st = one_path(spec, 8, 1e-3, "conservative", "nonlinear")
        X = batch(random_state(spec, 8, 11))
        e0 = energy(X)
        for k in range(200):
            keyed_slab(st.table, 1e-3, (41, 0, k)).load(st)
            X = st.step(X, np.array([e0]))
            assert abs(energy(X) - e0) <= 1e-12 * e0


def test_conservative_tracks_em_at_small_dt(novikov):
    # per-step energy deviation of the unprojected step shrinks with dt
    x = start(4, [0.7, 0.5, 0.3])
    e0 = np.array([energy(x)])
    drifts = {}
    for dt in (1e-3, 5e-4):
        st = one_path(novikov, 4, dt)
        devs = []
        for k in range(2000):
            keyed_slab(st.table, dt, (51, 0, k)).load(st)
            em = st.step(batch(x), e0)
            devs.append(abs(energy(em) - energy(x)))
        drifts[dt] = np.mean(devs)
    # between sqrt(2) (martingale part) and 2 (drift part) per halving
    ratio = drifts[1e-3] / drifts[5e-4]
    assert 1.2 < ratio < 2.5


def test_split_consistent_with_em_small_dt(novikov):
    # the two schemes differ by O(gamma * dt * noise) within one step
    x = start(6, [0.7, 0.5, 0.3])
    e0 = np.array([energy(x)])
    dt = 1e-6
    em, split = one_path(novikov, 6, dt, "em"), one_path(novikov, 6, dt, "split")
    slab = keyed_slab(em.table, dt, (61, 0, 0))
    slab.load(em)
    slab.load(split)
    a = em.step(batch(x), e0)
    b = split.step(batch(x), e0)
    assert np.allclose(a, b, atol=1e-5)


def test_em_blowup_raises(novikov):
    # the stepper leaves a blown-up path non-finite; a one-path ensemble reports it
    with pytest.raises(NumericalBlowupError):
        s.run_ensemble(novikov, [1.0], N=14, dt=1e-3, T=4.0, paths=1, which="linear", scheme="em", seed=71)


# ----------------------------------------------------------------- weights


def test_zero_path_unit_weight(novikov):
    st = one_path(novikov, 6, 1e-3, weighted=True)
    keyed_slab(st.table, 1e-3, (81, 0, 0)).load(st)
    z, qv = (float(v[0]) for v in st.ledger(np.zeros((1, 6, 1))))
    assert z == 0.0 and qv == 0.0 and math.exp(z - 0.5 * qv) == 1.0


def test_qv_bound_on_conservative_paths(novikov):
    # quadratic variation stays below |I*| * energy * T / sigma^2 pathwise
    N, dt, nsteps = 8, 1e-3, 300
    T = nsteps * dt
    bound = 1 * 1.0 * T / novikov.sigma**2
    st = one_path(novikov, N, dt, "conservative", weighted=True)
    for p in range(10):
        qv = 0.0
        X = batch(start(N, [1.0]))
        e0 = np.array([energy(X)])
        for k in range(nsteps):
            keyed_slab(st.table, dt, (90 + p, 0, k)).load(st)
            qv += float(st.ledger(X)[1][0])
            X = st.step(X, e0)
        assert qv <= bound + 1e-9
        assert qv > 0.0


def test_weight_direction_sign(novikov):
    # one path, one step: the directions share qv and flip the log integrand z
    run = dict(N=6, dt=1e-3, T=1e-3, paths=1, which="linear", scheme="em", seed=95)
    wq = s.run_ensemble(novikov, [1.0, 0.5], weight_direction="QtoP", **run)
    wp = s.run_ensemble(novikov, [1.0, 0.5], weight_direction="PtoQ", **run)
    zq, zp = (math.log(w.weight_mean[0]) + 0.5 * w.qv_max[0] for w in (wq, wp))
    assert zq == pytest.approx(-zp)
    assert wq.qv_max[0] == pytest.approx(wp.qv_max[0])


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
    st = one_path(novikov, N, dt)
    rng = slab_rng(5, 0)
    X = batch(start(N, [1.0]))
    e0 = np.array([energy(X)])
    for k in range(nsteps):
        fill_stepper(st, rng)
        X = st.step(X, e0)
    assert np.allclose(es.mean_sq[0], (path(X) ** 2).sum(axis=1), atol=1e-14)


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
    # standard_normal calls of the generators it returns; it also wraps
    # sde.CoefficientTable, sde._step_batch and sde._weight_increment, so each
    # must be looked up at call time
    cases = [
        (novikov, [1.0], dict(N=6, dt=1e-3, T=0.02, which="linear", scheme="split", weight_direction="QtoP")),
        (goy, [[1.0, 0.0]], dict(N=6, dt=1e-3, T=0.01, which="nonlinear", scheme="em")),
    ]
    keys, drawn = [], []  # list.append is atomic under threads=2; += on a counter is not

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def standard_normal(self, *args, **kwargs):
            out = self.gen.standard_normal(*args, **kwargs)
            drawn.append(out.size)
            return out

    def counting_rng(*args):
        keys.append(args)
        return Counting(slab_rng(*args))

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for spec, x0, base in cases:
        paths, block_size, nsteps = 2500, 1000, int(round(base["T"] / base["dt"]))
        plain = s.run_ensemble(spec, x0, paths=paths, block_size=block_size, seed=13, **base)
        keys.clear()
        calls.clear()
        drawn.clear()
        monkeypatch.setattr(sde_module, "slab_rng", counting_rng)
        for name in ("CoefficientTable", "_step_batch", "_weight_increment"):
            monkeypatch.setattr(sde_module, name, counting(name, getattr(sde_module, name)))
        hooked = s.run_ensemble(spec, x0, paths=paths, block_size=block_size, seed=13, threads=2, **base)
        monkeypatch.undo()
        assert sorted(keys) == [(13, 0), (13, 1), (13, 2)]
        weighted = "weight_direction" in base
        cells = CoefficientTable(spec, base["N"]).slab_cells(weighted)
        assert sum(drawn) == paths * nsteps * sum(stop - start for _, _, start, stop in cells)
        assert calls.count("CoefficientTable") == 1
        assert calls.count("_step_batch") == len(keys) * nsteps
        assert calls.count("_weight_increment") == (len(keys) * nsteps if weighted else 0)
        for field in dataclasses.fields(plain):
            assert np.array_equal(getattr(plain, field.name), getattr(hooked, field.name)), field.name


def test_run_ensemble_rejects_too_many_shells(novikov):
    with pytest.raises(ValueError, match="window overflow"):
        s.run_ensemble(novikov, [1.0], N=MAX_SHELLS + 1, dt=1e-3, T=1e-3, paths=1)


@pytest.mark.parametrize(
    "bad",
    [
        dict(paths=0),
        dict(paths=-3),
        dict(block_size=0),
        dict(threads=0),
        dict(dt=0.0),
        dict(dt=-1e-3),
        dict(dt=math.nan),
        dict(dt=math.inf),
        dict(T=-0.01),
        dict(T=math.nan),
        dict(T=math.inf),
    ],
)
def test_run_ensemble_rejects_bad_sizes(novikov, bad):
    run = dict(N=4, dt=1e-3, T=0.01, paths=10, block_size=8, threads=1) | bad
    with pytest.raises(ValueError, match=next(iter(bad))):
        s.run_ensemble(novikov, [1.0], **run)


def test_run_ensemble_rejects_a_horizon_between_tiny_steps():
    # 1.55e-12 is 15.5 steps of 1e-13; an absolute test would round it to 16
    with pytest.raises(ValueError, match="multiple of dt"):
        s.run_ensemble(s.build_novikov(2.0, 1.0), [1.0], N=3, dt=1e-13, T=1.55e-12, paths=4)


@given(st.floats(min_value=-15.0, max_value=0.0), st.integers(min_value=0, max_value=10**6))
@settings(derandomize=True, max_examples=200)
def test_grid_steps_judge_times_in_step_units(exponent, k):
    dt = 10.0**exponent
    assert sde_module._grid_steps([k * dt], dt) == [k]
    with pytest.raises(ValueError, match="multiple of dt"):
        sde_module._grid_steps([(k + 0.5) * dt], dt)


@pytest.mark.parametrize("x0", [[[0.5], [0.4]], [[0.5, 0.1, 0.0]], [[0.5, math.nan]], [[math.inf, 0.0]]])
def test_run_ensemble_rejects_bad_start_state(goy, x0):
    # a one-column start must not be spread over both GOY components
    with pytest.raises(ValueError, match="x0"):
        s.run_ensemble(goy, x0, N=4, dt=1e-3, T=0.01, paths=10)


def test_run_ensemble_all_aborted_raises(novikov):
    with pytest.raises(NumericalBlowupError):
        s.run_ensemble(
            novikov, [1.0], N=14, dt=1e-3, T=1.0, paths=50, which="linear", scheme="em",
            seed=2, record_times=[1.0],
        )


def test_run_ensemble_counts_an_overflowing_energy_as_aborted(novikov, monkeypatch):
    # a path whose squares overflow while its state stays finite leaves at the next record time
    base = dict(N=6, dt=1e-3, T=0.02, paths=10, which="linear", scheme="em", seed=3, record_times=[0.005, 0.01, 0.02])
    plain = s.run_ensemble(novikov, [1.0], **base)
    step, calls = sde_module._step_batch, []

    def inflate_first_path_at_step_7(stepper, X, energy0):
        X = step(stepper, X, energy0)
        calls.append(None)
        if len(calls) == 7:
            X[:, :, 0] *= 1e160
            assert np.isfinite(X).all() and not np.isfinite((X * X).sum())
        return X

    monkeypatch.setattr(sde_module, "_step_batch", inflate_first_path_at_step_7)
    hit = s.run_ensemble(novikov, [1.0], **base)
    assert plain.aborted == 0 and hit.aborted == 1
    assert np.array_equal(hit.mean_sq[0], plain.mean_sq[0])
    for field in ("mean_sq", "se_sq", "energy_mean", "energy_se", "ess"):
        assert np.isfinite(getattr(hit, field)).all(), field
    assert list(hit.ess) == [10.0, 9.0, 9.0]


def _energy_to_1e154_at_step_10(step, columns):
    # after step 10, a record time below, the paths ``columns`` get energy 1e154: finite squares, overflowing sums
    calls = []

    def wrapper(stepper, X, energy0):
        X = step(stepper, X, energy0)
        calls.append(None)
        if len(calls) == 10:
            energy = (X * X).sum(axis=(0, 1))
            X[:, :, columns] *= np.sqrt(1e154 / energy[columns])
            big = (X * X).sum(axis=(0, 1))[columns]
            assert np.isfinite(big * big).all() and not np.isfinite((big * big).sum())
        return X

    return wrapper


def test_run_ensemble_counts_energies_whose_sums_overflow_as_aborted(novikov, monkeypatch):
    base = dict(N=6, dt=1e-3, T=0.02, paths=10, which="linear", scheme="em", seed=3, record_times=[0.005, 0.01, 0.02])
    plain = s.run_ensemble(novikov, [1.0], **base)
    monkeypatch.setattr(sde_module, "_step_batch", _energy_to_1e154_at_step_10(sde_module._step_batch, [0, 1, 2]))
    hit = s.run_ensemble(novikov, [1.0], **base)
    assert hit.aborted == 3
    assert np.array_equal(hit.mean_sq[0], plain.mean_sq[0])
    for field in dataclasses.fields(hit):
        assert np.isfinite(getattr(hit, field.name)).all(), field.name
    assert list(hit.ess) == [10.0, 7.0, 7.0]


def test_run_ensemble_raises_when_every_path_of_a_block_reaches_1e154(novikov, monkeypatch):
    monkeypatch.setattr(sde_module, "_step_batch", _energy_to_1e154_at_step_10(sde_module._step_batch, slice(None)))
    with pytest.raises(NumericalBlowupError, match="all 10 paths aborted"):
        s.run_ensemble(novikov, [1.0], N=6, dt=1e-3, T=0.02, paths=10, which="linear", scheme="em", seed=3)


def test_run_ensemble_raises_on_an_overflowing_weight(novikov, monkeypatch):
    # the first path's log weight jumps by 400 at step 5: its weight is finite, its square is not
    increment, calls = sde_module._weight_increment, []

    def jump(stepper, X):
        z, qv = increment(stepper, X)
        calls.append(None)
        if len(calls) == 5:
            z[0] += 400.0
        return z, qv

    monkeypatch.setattr(sde_module, "_weight_increment", jump)
    with pytest.raises(NumericalBlowupError, match="overflowed"):
        s.run_ensemble(
            novikov, [1.0], N=6, dt=1e-3, T=0.01, paths=10, which="linear", scheme="split",
            weight_direction="QtoP", seed=3,
        )


# ----------------------------------------------------------------- noise stream

STREAM_CASES = {
    "novikov-em": (
        "novikov", [1.0], dict(N=6, dt=1e-3, T=0.03, which="linear", scheme="em", record_times=[0.01, 0.03])
    ),
    "novikov-split-QtoP": (
        "novikov", [1.0],
        dict(N=8, dt=1e-3, T=0.03, which="linear", scheme="split", weight_direction="QtoP", record_times=[0.03]),
    ),
    "goy-nonlinear-split": (
        "goy", [[1.0, 0.0]],
        dict(N=6, dt=1e-3, T=0.02, which="nonlinear", scheme="split", record_times=[0.01, 0.02]),
    ),
}


def _largest_run(spec, base, block_size):
    cells = CoefficientTable(spec, base["N"]).slab_cells("weight_direction" in base)
    return block_size * max(stop - start for _, _, start, stop in cells)


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_stream_results_do_not_depend_on_chunks_helper_or_threads(case, request, monkeypatch):
    # every variant draws the same normals in the same order as the per-step reference
    name, x0, base = STREAM_CASES[case]
    spec = request.getfixturevalue(name)
    run = dict(base, paths=300, block_size=100, seed=17)
    with monkeypatch.context() as m:
        m.setattr(sde_module, "SlabStream", PerStepStream)
        ref = s.run_ensemble(spec, x0, **run)
    # the chunk size matters only to the helper; without it (one CPU) each run is drawn straight into the slab
    variants = [("inline", 1 << 16, 1)] + [
        (chunk_name, chunk, 64)
        for chunk_name, chunk in {"one normal": 1, "one run": _largest_run(spec, base, 100), "2**16": 1 << 16}.items()
    ]
    for chunk_name, chunk, cpus in variants:
        for threads in (1, 2):
            with monkeypatch.context() as m:
                m.setattr(noise_module, "CHUNK_NORMALS", chunk)
                m.setattr(sde_module, "_usable_cpus", lambda: cpus)
                got = s.run_ensemble(spec, x0, threads=threads, **run)
            for field in dataclasses.fields(ref):
                assert np.array_equal(getattr(got, field.name), getattr(ref, field.name)), (
                    chunk_name, threads, field.name
                )


@pytest.mark.parametrize(
    "cpus,threads,helper", [(1, 1, False), (2, 1, True), (2, 2, False), (3, 2, False), (4, 2, True), (4, 8, False)]
)
def test_helper_thread_runs_only_with_a_cpu_to_spare(novikov, monkeypatch, cpus, threads, helper):
    # three blocks: min(threads, blocks) workers step, and a helper draws beside each only if each can have a CPU
    seen = set()
    step = sde_module._step_batch

    def spy(*args):
        seen.update(t.name for t in threading.enumerate())
        return step(*args)

    monkeypatch.setattr(sde_module, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(sde_module, "_step_batch", spy)
    monkeypatch.setattr(noise_module, "CHUNK_NORMALS", 1)  # more chunks than buffers: a helper waits for fill
    s.run_ensemble(novikov, [1.0], N=4, dt=1e-3, T=0.005, paths=30, block_size=10, threads=threads)
    assert any(name.startswith("slab-stream") for name in seen) == helper


class _Boom(Exception):
    pass


class _FailingGenerator:
    def standard_normal(self, *args, **kwargs):
        raise _Boom("draw failed")


def _raise_at_step_3(step):
    calls = []

    def wrapper(*args):
        calls.append(None)
        if len(calls) == 3:
            raise _Boom("step failed")
        return step(*args)

    return wrapper


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("failure", [None, "step", "draw"])
def test_no_stream_thread_outlives_run_ensemble(novikov, monkeypatch, failure, threads):
    monkeypatch.setattr(sde_module, "_usable_cpus", lambda: 64)  # a helper per block
    if failure == "step":
        monkeypatch.setattr(sde_module, "_step_batch", _raise_at_step_3(sde_module._step_batch))
    elif failure == "draw":
        monkeypatch.setattr(sde_module, "slab_rng", lambda *key: _FailingGenerator())
    before = threading.active_count()
    run = dict(N=6, dt=1e-3, T=0.02, paths=300, block_size=100, threads=threads)
    if failure is None:
        s.run_ensemble(novikov, [1.0], **run)
    else:
        with pytest.raises(_Boom, match=failure):
            s.run_ensemble(novikov, [1.0], **run)
    assert threading.active_count() == before


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
    slab = keyed_slab(table, dt, (29, 0, 0), paths=P)
    for scheme in SCHEMES:
        for which in SYSTEMS:
            st = Stepper(table, dt, scheme, which, True, P)  # weighted: the ledger below reads this slab
            slab.load(st)
            for energy0 in (e0, None) if scheme == "conservative" else (e0,):
                # None: the oracle projects back to the pre-step energy, which the stepper is given
                target = e0 if energy0 is not None else (X * X).sum(axis=(1, 2))
                got = st.step(X.transpose(2, 1, 0).copy(), target)
                expected = oracle.step(table, X, slab.increments, slab.lo, dt, which, scheme, energy0)
                _close(got.transpose(2, 1, 0), expected)
    zinc, qvinc = st.ledger(X.transpose(2, 1, 0).copy())
    z_ref, qv_ref = oracle.weight_increment(table, X, slab.increments, slab.lo, dt)
    _close(zinc, z_ref)
    _close(qvinc, qv_ref)
    # a one-path stepper runs the same kernel with P = 1
    st = Stepper(table, dt, "em", "linear", False, 1)
    one = NoiseSlab(spec=spec, dt=dt, lo=slab.lo, increments=slab.increments[:1])
    one.load(st)
    _close(transport(table, X[0]), oracle.transport(table, X[:1])[0])
    _close(drift(table, X[0], "linear"), oracle.correction(table, X[:1])[0])
    _close(diffusion(st, X[0]), oracle.diffusion(table, X[:1], one.increments, one.lo)[0])
    got = st.step(batch(X[0]), e0[:1])
    _close(path(got), oracle.step(table, X[:1], one.increments, one.lo, dt, "linear", "em")[0])


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled"])
def test_step_reads_no_undrawn_slab_cell(model, request):
    # NaN in every cell outside the drawn runs would reach the result if read
    spec = _kernel_model(model, request)
    N, P, dt = 6, 5, 1e-4
    table = CoefficientTable(spec, N)
    X = np.random.default_rng(31).standard_normal((spec.d, N, P))
    e0 = (X * X).sum(axis=(0, 1))
    for weighted in (False, True):
        for scheme in SCHEMES:
            for which in SYSTEMS:
                st = Stepper(table, dt, scheme, which, weighted, P)
                drawn = fill_stepper(st, slab_rng(37, 0))
                ref = st.step(X.copy(), e0)
                ref_ledger = st.ledger(X) if weighted else None
                slab = np.full_like(drawn, np.nan)
                for row, c, start, stop in st.cells:
                    slab[row, c, start:stop] = drawn[row, c, start:stop]
                pack(st, slab)
                got = st.step(X.copy(), e0)
                assert np.isfinite(got).all() and np.array_equal(got, ref), (weighted, scheme, which)
                if weighted:
                    for ref, got in zip(ref_ledger, st.ledger(X)):
                        assert np.isfinite(got).all() and np.array_equal(got, ref)


PRESETS = {
    "novikov": lambda: s.build_novikov(2.0, 1.0),
    "goy": lambda: s.build_goy(1.0, -1.5, 0.5, 2.0, 1.0),
    "sabra": lambda: s.build_sabra(1.0, -1.25, 0.25, 2.0, 1.0, 0.125),
}


@given(
    model=st.sampled_from(sorted(PRESETS)),
    N=st.integers(min_value=1, max_value=MAX_SHELLS),
    weighted=st.booleans(),
    scheme=st.sampled_from(SCHEMES),
    which=st.sampled_from(SYSTEMS),
)
@settings(max_examples=40, derandomize=True)
def test_packed_step_matches_einsum_oracle_at_every_N(model, N, weighted, scheme, which):
    # the oracle reads the whole window slab, so a read cell the packing left out would show
    spec, P, dt = PRESETS[model](), 3, 1e-4
    table = CoefficientTable(spec, N)
    X = np.random.default_rng(N).standard_normal((P, N, spec.d))
    e0 = (X * X).sum(axis=(1, 2))
    slab = keyed_slab(table, dt, (43, N, 0), paths=P)
    stepper = Stepper(table, dt, scheme, which, weighted, P)
    slab.load(stepper)
    assert stepper.dW.shape == (sum(stop - start for _, _, start, stop in stepper.cells), P)
    if weighted:
        zinc, qvinc = stepper.ledger(X.transpose(2, 1, 0).copy())
        z_ref, qv_ref = oracle.weight_increment(table, X, slab.increments, slab.lo, dt)
        _close(zinc, z_ref)
        _close(qvinc, qv_ref)
    got = stepper.step(X.transpose(2, 1, 0).copy(), e0)
    _close(got.transpose(2, 1, 0), oracle.step(table, X, slab.increments, slab.lo, dt, which, scheme, e0))


# ----------------------------------------------------------------- conjugacy


def test_goy_complex_real_conjugacy_exact_reduced():
    goy = s.build_goy(1.0, -1.0, 0.0, 2.0, 1.0)
    N, dt = 6, 1e-5
    rng = np.random.default_rng(5)
    u = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.3
    st = one_path(goy, N, dt, "em", "nonlinear")
    X = batch(embed_complex(u))
    e0 = np.array([energy(X)])
    for k in range(300):
        slab = keyed_slab(st.table, dt, (42, 0, k))
        slab.load(st)
        X = st.step(X, e0)
        u = goy_complex_em_step(u, goy, slab)
        x = path(X)
        diff = np.abs(embed_complex(u) - x).max()
        assert diff <= 1e-12 * (1.0 + np.abs(x).max())


def test_goy_conjugacy_generic_bulk_shells(goy):
    # with all three coefficients active the maps agree from the shell where
    # every interaction is active; the first two shells carry the filtered pair
    N, dt = 6, 1e-5
    rng = np.random.default_rng(8)
    st = one_path(goy, N, dt, "em", "nonlinear")
    for k in range(50):
        u = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.3
        X = batch(embed_complex(u))
        slab = keyed_slab(st.table, dt, (9, 0, k))
        slab.load(st)
        s1 = st.step(X, np.array([energy(X)]))
        u1 = goy_complex_em_step(u, goy, slab)
        diff = np.abs(embed_complex(u1) - path(s1))
        assert diff[n0(goy) - 1 :].max() <= 1e-12
