import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import einsum_oracle as oracle
from goy_oracle import NoiseSlab, embed_complex, goy_complex_em_step, keyed_slab
from noise_oracle import PerStepStream, fill_stepper, pack, stepper_layout, window_layout
import shellsde as s
from rates_oracle import k_eff, n0
from shellsde.algebra import BilinearMap, CoefficientTable, Interaction
from shellsde import noise as noise_module
from shellsde import sde as sde_module
from shellsde.noise import MAX_SHELLS, SlabStream, slab_rng
from shellsde.sde import (
    SCHEMES, SYSTEMS, NumericalBlowupError, Stepper, _add_terms, _add_velocity_terms, _bind_terms, _correction_op,
    _shell_apply,
)


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
    """The step kernel's bilinear transport at the (N, d) state x: its fused terms at a zero slab and dt = 1."""
    st = Stepper(table, 1.0, "em", "nonlinear", False, 1)
    st._bind(batch(x))
    st.incr.fill(0.0)
    _add_velocity_terms(st.tiles[0].noise_ops, st.v_scale)
    return path(st.incr)


def drift(table, x, which):
    """Per-shell drift of the nonlinear (transport plus correction) or linear (correction) system."""
    X = batch(x)
    out = batch(transport(table, x)) if which == "nonlinear" else np.zeros_like(X)
    out -= _shell_apply(_correction_op(table), X, np.empty_like(X))
    return path(out)


def diffusion(stepper, x):
    """Noise increment of one step from the (N, d) state x with the stepper's slab."""
    X = batch(x)
    out = np.zeros_like(X)
    _add_terms(_bind_terms(stepper.noise_terms, X, stepper.dW, out, np.empty((stepper.table.N, 1))))
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
    lo, width, _ = window_layout(goy, N, False)
    window = np.zeros((len(goy.star_ids()), 2, width, 1))
    window[row, :, m - lo, 0] = (0.3, -0.2)
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
    z, qv, comp = (float(v[0]) for v in st.ledger(np.zeros((1, 6, 1))))
    assert z == 0.0 and qv == 0.0 and comp == 0.0 and math.exp(z - comp) == 1.0


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
    # one path, one step: the directions share qv and the compensator, and flip the log integrand z
    run = dict(N=6, dt=1e-3, T=1e-3, paths=1, which="linear", scheme="em", seed=95)
    wq = s.run_ensemble(novikov, [1.0, 0.5], weight_direction="QtoP", **run)
    wp = s.run_ensemble(novikov, [1.0, 0.5], weight_direction="PtoQ", **run)
    # the compensator reads the start state alone: sum of log cosh(x sqrt(dt) / sigma) over the ledger's cells
    comp = float(one_path(novikov, 6, 1e-3, weighted=True).ledger(batch(start(6, [1.0, 0.5])))[2][0])
    assert comp == pytest.approx(sum(math.log(math.cosh(x * math.sqrt(1e-3) / novikov.sigma)) for x in (1.0, 0.5)))
    zq, zp = (math.log(w.weight_mean[0]) + comp for w in (wq, wp))
    assert zq == pytest.approx(-zp)
    assert wq.qv_max[0] == pytest.approx(wp.qv_max[0])


def _every_sign(cells: int, dt: float) -> np.ndarray:
    """(cells, 2**cells) slab: path p holds +sqrt(dt) in cell c where bit c of p is set, else -sqrt(dt)."""
    bits = (np.arange(2**cells)[None, :] >> np.arange(cells)[:, None]) & 1
    return np.where(bits == 1, math.sqrt(dt), -math.sqrt(dt))


@pytest.mark.parametrize("model", ["novikov", "sabra"])
@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("direction", ["QtoP", "PtoQ"])
def test_two_point_density_is_an_exact_martingale(model, N, direction, request):
    # one step from one state, over all 2**cells equally likely slabs: E[exp(+-z - compensator)] = 1
    spec, dt = request.getfixturevalue(model), 0.1
    table = CoefficientTable(spec, N)
    cells = table.slab(True)[0]
    st = Stepper(table, dt, "em", "linear", True, 2**cells)
    st.dW[...] = _every_sign(cells, dt)
    z, qv, comp = st.ledger(np.repeat(batch(random_state(spec, N, 5)), 2**cells, axis=2))
    sign = 1.0 if direction == "QtoP" else -1.0
    assert abs(np.exp(sign * z - comp).mean() - 1.0) <= 1e-14
    # the Gaussian law's compensator qv / 2 is off by about x**4 / 12 a cell
    assert abs(np.exp(sign * z - 0.5 * qv).mean() - 1.0) > 1e-5


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra"])
@pytest.mark.parametrize("scheme", ["em", "split"])
def test_two_point_step_has_the_gaussian_second_moments(model, scheme, request):
    # a linear em or split step is affine in the slab, X' = m + sum_c dW_c g_c; over all 2**cells
    # equally likely slabs E[X' X'^T] is then m m^T + dt sum_c g_c g_c^T, as under Gaussian increments
    spec, N, dt = request.getfixturevalue(model), 4, 0.05
    table = CoefficientTable(spec, N)
    cells = table.slab(False)[0]
    x = batch(random_state(spec, N, 7))
    st = Stepper(table, dt, scheme, "linear", False, 2**cells)
    st.dW[...] = _every_sign(cells, dt)
    V = st.step(np.repeat(x, 2**cells, axis=2), np.zeros(2**cells)).reshape(-1, 2**cells)
    # m and g_c from steps at a zero slab and at one unit cell each
    probe = Stepper(table, dt, scheme, "linear", False, cells + 1)
    probe.dW[:, 1:] = np.eye(cells)
    Y = probe.step(np.repeat(x, cells + 1, axis=2), np.zeros(cells + 1)).reshape(-1, cells + 1)
    m, G = Y[:, 0], Y[:, 1:] - Y[:, :1]
    _close(V @ V.T / 2**cells, np.outer(m, m) + dt * G @ G.T)


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
    # the benchmark times the noise by hooking sde.slab_rng; the stream reads
    # ceil(cells * P / 64) raw words a step from the bit generator of what it
    # returns; the benchmark also wraps sde.CoefficientTable, sde._step_batch
    # and sde._weight_increment, so each must be looked up at call time
    cases = [
        (novikov, [1.0], dict(N=6, dt=1e-3, T=0.02, which="linear", scheme="split", weight_direction="QtoP")),
        (goy, [[1.0, 0.0]], dict(N=6, dt=1e-3, T=0.01, which="nonlinear", scheme="em")),
    ]
    keys, drawn = [], []  # list.append is atomic under threads=2; += on a counter is not

    class Counting:
        def __init__(self, gen):
            self.bit_generator = self
            self.raw = gen.bit_generator.random_raw

        def random_raw(self, size):
            drawn.append(size)
            return self.raw(size)

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
        _, _, runs = window_layout(spec, base["N"], weighted)
        cells = sum(stop - start for _, _, start, stop in runs)
        assert sorted(drawn) == sorted(nsteps * [-(-cells * P // 64) for P in (1000, 1000, 500)])
        assert calls.count("CoefficientTable") == 1
        assert calls.count("_step_batch") == len(keys) * nsteps
        assert calls.count("_weight_increment") == (len(keys) * nsteps if weighted else 0)
        for field in dataclasses.fields(plain):
            assert np.array_equal(getattr(plain, field.name), getattr(hooked, field.name)), field.name


def test_run_ensemble_rejects_too_many_shells(novikov):
    with pytest.raises(ValueError, match=f"N = {MAX_SHELLS + 1} exceeds MAX_SHELLS = {MAX_SHELLS}"):
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
    with pytest.raises(NumericalBlowupError, match=r"all 50 paths aborted .*; reduce dt or use scheme='split'$"):
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


@pytest.mark.parametrize("which", SYSTEMS)
def test_conservative_aborts_a_path_whose_energy_overflows(novikov, monkeypatch, which):
    # the projection must not rescale a path of energy inf onto the zero state and keep it alive
    base = dict(
        N=6, dt=1e-3, T=0.02, paths=10, which=which, scheme="conservative", seed=3, record_times=[0.005, 0.01, 0.02]
    )
    plain = s.run_ensemble(novikov, [1.0], **base)
    step, calls = sde_module._step_batch, []

    def inflate_first_path_at_step_7(stepper, X, energy0):
        X = step(stepper, X, energy0)
        calls.append(None)
        if len(calls) == 7:
            X[:, :, 0] *= 1e160
        return X

    monkeypatch.setattr(sde_module, "_step_batch", inflate_first_path_at_step_7)
    hit = s.run_ensemble(novikov, [1.0], **base)
    assert plain.aborted == 0 and hit.aborted == 1
    assert np.array_equal(hit.mean_sq[0], plain.mean_sq[0])
    assert list(hit.ess) == [10.0, 9.0, 9.0]


def _fail_one_entry_at_step(step, value, at):
    # after step ``at``, one entry of the first path becomes ``value``, and the others stay finite
    calls = []

    def wrapper(stepper, X, energy0):
        X = step(stepper, X, energy0)
        calls.append(None)
        if len(calls) == at:
            X[0, 2, 0] = value
        return X

    return wrapper


@pytest.mark.parametrize("weights", [None, "QtoP"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_ensemble_aborts_a_non_finite_path_at_the_next_record_time(novikov, monkeypatch, value, scheme, weights):
    # steps keep a non-finite path non-finite, so the record at step 10 finds the path failed at step 7
    base = dict(
        N=6, dt=1e-3, T=0.02, paths=10, which="linear", scheme=scheme, seed=3,
        record_times=[0.005, 0.01, 0.02], weight_direction=weights,
    )
    plain = s.run_ensemble(novikov, [1.0], **base)
    monkeypatch.setattr(sde_module, "_step_batch", _fail_one_entry_at_step(sde_module._step_batch, value, 7))
    hit = s.run_ensemble(novikov, [1.0], **base)
    assert plain.aborted == 0 and hit.aborted == 1
    assert np.array_equal(hit.mean_sq[0], plain.mean_sq[0])
    for field in dataclasses.fields(hit):
        assert np.isfinite(getattr(hit, field.name)).all(), field.name
    if weights is None:
        assert list(hit.ess) == [10.0, 9.0, 9.0]
    else:  # unequal weights: the effective size of 9 weighted paths is at most 9
        assert hit.ess[0] == plain.ess[0] and (hit.ess[1:] <= 9.0 + 1e-12).all()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_ensemble_aborts_a_path_that_fails_after_the_last_record_time(novikov, monkeypatch, scheme):
    base = dict(N=6, dt=1e-3, T=0.01, paths=10, which="linear", scheme=scheme, seed=3, record_times=[0.005])
    plain = s.run_ensemble(novikov, [1.0], **base)
    monkeypatch.setattr(sde_module, "_step_batch", _fail_one_entry_at_step(sde_module._step_batch, math.nan, 7))
    hit = s.run_ensemble(novikov, [1.0], **base)
    assert plain.aborted == 0 and hit.aborted == 1
    assert np.array_equal(hit.mean_sq, plain.mean_sq) and list(hit.ess) == [10.0]


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


def _jump_the_last_log_weight(monkeypatch, size):
    # the last path's log weight jumps by ``size`` at step 5: by 400 its weight is finite and its square
    # is not, by 800 the weight itself overflows, which must not read as a weight of 0
    increment, calls = sde_module._weight_increment, []

    def jump(stepper, X):
        z, qv, comp = increment(stepper, X)
        calls.append(None)
        if len(calls) == 5:
            z[-1] += size
        return z, qv, comp

    monkeypatch.setattr(sde_module, "_weight_increment", jump)


WEIGHT_OVERFLOWS = {
    400.0: "an ensemble statistic overflowed",
    800.0: r"a live path's Girsanov weight exp\(z - compensator\) overflowed",
}


@pytest.mark.parametrize("paths", [10, 10_000], ids=["one_tile", "two_tiles"])
@pytest.mark.parametrize("size", [400.0, 800.0])
def test_run_ensemble_raises_on_an_overflowing_weight(novikov, monkeypatch, size, paths):
    _jump_the_last_log_weight(monkeypatch, size)
    with pytest.raises(NumericalBlowupError, match=WEIGHT_OVERFLOWS[size]):
        s.run_ensemble(
            novikov, [1.0], N=6, dt=1e-3, T=0.01, paths=paths, block_size=paths, which="linear", scheme="split",
            weight_direction="QtoP", seed=3,
        )


@pytest.mark.parametrize("scheme", ["split", "em"])
@pytest.mark.parametrize("size", [400.0, 800.0])
def test_an_overflowing_weight_names_the_horizon_and_offers_split_only_to_another_scheme(
    novikov, monkeypatch, size, scheme
):
    _jump_the_last_log_weight(monkeypatch, size)
    with pytest.raises(NumericalBlowupError, match=WEIGHT_OVERFLOWS[size]) as info:
        s.run_ensemble(
            novikov, [1.0], N=4, dt=1e-3, T=0.01, paths=10, which="linear", scheme=scheme,
            weight_direction="QtoP", seed=3,
        )
    advice = str(info.value).rsplit("; ", 1)[1]
    assert advice == {
        "split": "shorten the horizon or reduce dt",
        "em": "shorten the horizon, reduce dt or use scheme='split'",
    }[scheme]


@pytest.mark.parametrize("paths", [4, 10_000], ids=["one_tile", "two_tiles"])
def test_run_ensemble_raises_on_an_overflowing_compensator(novikov, paths):
    # at x = 1e5 and dt = 1e-3, x sqrt(dt) / sigma = 3162: cosh overflows, while the state, z and qv stay finite
    run = dict(
        N=6, dt=1e-3, T=2e-3, paths=paths, block_size=paths, which="linear", scheme="split",
        weight_direction="QtoP", seed=3,
    )
    st = one_path(novikov, 6, 1e-3, weighted=True)
    with np.errstate(over="ignore"):
        z, qv, comp = (float(v[0]) for v in st.ledger(batch(start(6, [1e5]))))
    assert math.isfinite(z) and math.isfinite(qv) and comp == math.inf
    with pytest.raises(NumericalBlowupError, match="a Girsanov compensator overflowed"):
        s.run_ensemble(novikov, [1e5], **run)
    # at 1e4 every cosh is finite, and so is every statistic
    es = s.run_ensemble(novikov, [1e4], **run)
    assert all(np.isfinite(getattr(es, f.name)).all() for f in dataclasses.fields(es))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("which", SYSTEMS)
def test_stepper_rebinds_when_its_paths_or_slab_change(goy, scheme, which):
    # one stepper steps two batches in turn, then a slab set to a new array, then that slab written
    # in place; each step and ledger must equal a fresh stepper's, so no view of an old array leaks
    N, P, dt = 6, 4, 1e-4
    table = CoefficientTable(goy, N)
    rng = np.random.default_rng(19)
    slabs = [math.sqrt(dt) * rng.standard_normal((table.slab(True)[0], P)) for _ in range(3)]
    A, B = (rng.standard_normal((goy.d, N, P)) for _ in range(2))
    e0 = rng.uniform(0.5, 2.0, P)

    def fresh(X, slab):
        st = Stepper(table, dt, scheme, which, True, P)
        st.dW[...] = slab
        return st.ledger(X), st.step(X.copy(), e0)

    st = Stepper(table, dt, scheme, which, True, P)

    def same_as_fresh(X, k):
        ledger, stepped = fresh(X, slabs[k])
        for got, ref in zip(st.ledger(X), ledger):
            assert np.array_equal(got, ref), k
        assert st.step(X, e0) is X and np.array_equal(X, stepped), k

    st.dW[...] = slabs[0]
    for X in (A, B, A):  # two batches in turn
        same_as_fresh(X, 0)
    st.dW = slabs[1].copy()  # another slab array, first with the same batch
    for X in (A, B):
        same_as_fresh(X, 1)
    st.dW[...] = slabs[2]  # that array written in place
    for X in (B, A):
        same_as_fresh(X, 2)


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


@pytest.mark.parametrize("case", list(STREAM_CASES))
def test_stream_results_do_not_depend_on_chunks_helper_or_threads(case, request, monkeypatch):
    # at one and two threads the stream draws the same increments in the same order as the bitwise reference
    name, x0, base = STREAM_CASES[case]
    spec = request.getfixturevalue(name)
    run = dict(base, paths=300, block_size=100, seed=17)
    with monkeypatch.context() as m:
        m.setattr(sde_module, "SlabStream", PerStepStream)
        ref = s.run_ensemble(spec, x0, **run)
    for threads in (1, 2):
        got = s.run_ensemble(spec, x0, threads=threads, **run)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(got, field.name), getattr(ref, field.name)), (threads, field.name)


class _Boom(Exception):
    pass


class _FailingGenerator:
    def __init__(self):
        self.bit_generator = self

    def random_raw(self, *args, **kwargs):
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
    # the stream starts no thread; a failing draw or step in a block worker reaches the
    # caller, and the block workers' pool leaves no thread behind
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
    if name == "gapped":
        # at N = 6 the ledger reads noise shells 4..6 of the channel and the terms shell 9 alone,
        # so a weighted slab holds two runs of one (channel row, component)
        B = BilinearMap(np.ones((1, 1, 1)))
        inters = (Interaction("1", -5, 3, 1 / 32, B), Interaction("2", 5, 8, -1.0, B))
        return s.ModelSpec(d=1, lam=2.0, sigma=1.0, interactions=inters, pairing={"1": "2", "2": "1"}, istar={"1"})
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


def _close_ledger(got, expected):
    """(z, qv, compensator) of the ledger against the oracle's.

    The compensator is a log weight, a sum of log cosh per cell; a cosh
    near 1 rounds by an ulp of 1, so it is judged against 1, not against
    its own (tiny) size.
    """
    (z, qv, comp), (z_ref, qv_ref, comp_ref) = got, expected
    _close(z, z_ref)
    _close(qv, qv_ref)
    np.testing.assert_allclose(comp, comp_ref, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled", "gapped"])
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
    _close_ledger(st.ledger(X.transpose(2, 1, 0).copy()), oracle.weight_increment(table, X, slab.increments, slab.lo, dt))
    # a one-path stepper runs the same kernel with P = 1
    st = Stepper(table, dt, "em", "linear", False, 1)
    one = NoiseSlab(spec=spec, dt=dt, lo=slab.lo, increments=slab.increments[:1])
    one.load(st)
    _close(transport(table, X[0]), oracle.transport(table, X[:1])[0])
    _close(drift(table, X[0], "linear"), oracle.correction(table, X[:1])[0])
    _close(diffusion(st, X[0]), oracle.diffusion(table, X[:1], one.increments, one.lo)[0])
    got = st.step(batch(X[0]), e0[:1])
    _close(path(got), oracle.step(table, X[:1], one.increments, one.lo, dt, "linear", "em")[0])


@pytest.mark.parametrize("model", ["sabra", "goy_scaled"])
def test_fused_transport_is_orthogonal_to_the_state(model, request):
    # acceptance 2 on the other two bilinear maps, through the fused kernel at a zero slab and dt = 1
    spec = _kernel_model(model, request)
    N = 20
    table = CoefficientTable(spec, N)
    pi_scale = spec.pi_n(N) / spec.sigma**2
    rng = np.random.default_rng(271828)
    for _ in range(100):
        x = rng.standard_normal((N, spec.d))
        x[rng.random(N) < 0.3] = 0.0
        assert abs(float((x * transport(table, x)).sum())) <= 1e-10 * energy(x) * pi_scale


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_nonlinear_step_leaves_the_slab_as_it_found_it(goy, scheme, weighted):
    # the velocity dW + (dt / sigma) X goes into the stepper's own buffer: a stepper or an oracle
    # that steps the same slab again must read the same increments
    N, P, dt = 6, 4, 1e-3
    rng = np.random.default_rng(31)
    st = Stepper(CoefficientTable(goy, N), dt, scheme, "nonlinear", weighted, P)
    st.dW[...] = math.sqrt(dt) * rng.standard_normal(st.dW.shape)
    before = st.dW.copy()
    X = rng.standard_normal((goy.d, N, P))
    if weighted:
        st.ledger(X)
    st.step(X, rng.uniform(0.5, 2.0, P))
    assert np.array_equal(st.dW, before)


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled", "gapped"])
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
                ref_ledger = [a.copy() for a in st.ledger(X)] if weighted else None
                slab = np.full_like(drawn, np.nan)
                for row, c, start, stop in stepper_layout(st)[2]:
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
    assert stepper.dW.shape == (sum(stop - start for _, _, start, stop in stepper_layout(stepper)[2]), P)
    if weighted:
        _close_ledger(
            stepper.ledger(X.transpose(2, 1, 0).copy()), oracle.weight_increment(table, X, slab.increments, slab.lo, dt)
        )
    got = stepper.step(X.transpose(2, 1, 0).copy(), e0)
    _close(got.transpose(2, 1, 0), oracle.step(table, X, slab.increments, slab.lo, dt, which, scheme, e0))


# ----------------------------------------------------------------- per-shell factors over the paths


def _columns_stepper(table, dt, scheme, which, weighted, P):
    """A stepper of P > 8 paths built under a buffer size that keeps its factors as (rows, 1) columns."""
    with np.errstate():  # the buffer size is restored on exit
        np.setbufsize(16)  # a multiple of 16, as numpy requires
        return Stepper(table, dt, scheme, which, weighted, P)


def _column_factors(st):
    ops = [t.coef for t in st.noise_terms] + [t.coef for b in st.blocks for t in b.terms]
    ops += [op for op in (st.gamma, st.half_fac) if op is not None and op.ndim == 2]
    return {op.shape[1] for op in ops} == {1}


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled"])
def test_full_size_and_column_factors_step_bit_for_bit(model, request):
    # a block of at most half numpy's buffer size stores its per-shell factors at full size;
    # stepped from the same paths and slabs, its paths and ledger increments equal the columns' exactly
    spec = _kernel_model(model, request)
    N, P, dt = 6, 50, 1e-3
    table = CoefficientTable(spec, N)
    rng = np.random.default_rng(47)
    X0 = rng.standard_normal((spec.d, N, P))
    e0 = (X0 * X0).sum(axis=(0, 1))
    for weighted in (False, True):
        for scheme in SCHEMES:
            for which in SYSTEMS:
                full = Stepper(table, dt, scheme, which, weighted, P)
                column = _columns_stepper(table, dt, scheme, which, weighted, P)
                assert _column_factors(column) and not _column_factors(full)
                if model == "goy_scaled":  # the per-shell matrices stay matrices
                    assert (full.half_fac if scheme == "split" else full.gamma).shape == (N, spec.d, spec.d)
                # equal coefficients share one full-size array
                assert len({id(t.coef) for t in full.noise_terms}) == len({t.coef.tobytes() for t in column.noise_terms})
                stream = SlabStream(slab_rng(53, 0), full.dW.shape, dt)
                X, Y = X0.copy(), X0.copy()
                for _ in range(4):
                    full.dW = column.dW = stream.fill()
                    if weighted:
                        for got, ref in zip(full.ledger(X), column.ledger(Y)):
                            assert np.array_equal(got, ref)
                    full.step(X, e0)
                    column.step(Y, e0)
                    assert np.array_equal(X, Y, equal_nan=True), (weighted, scheme, which)


def test_block_forms_switch_at_half_numpys_buffer_size(goy):
    # 4096 paths is half the default 8192: full size up to it, columns past it and at 10^4 paths
    table = CoefficientTable(goy, 10)
    assert np.getbufsize() == 8192
    for P, columns in ((4096, False), (4097, True), (10_000, True)):
        for scheme in ("em", "split"):
            st = Stepper(table, 1e-4, scheme, "nonlinear", True, P)
            assert _column_factors(st) == columns, (P, scheme)


@pytest.mark.parametrize(
    "model,x0,kw",
    [
        ("novikov", [1.0], dict(N=6, which="linear", scheme="em", weight_direction="QtoP")),
        ("goy", [[1.0, 0.0]], dict(N=6, which="nonlinear", scheme="split")),
    ],
)
def test_run_ensemble_is_the_same_on_both_sides_of_the_cutoff(model, x0, kw, request, monkeypatch):
    # one 4097-path block with column factors (the default buffer size) and with full-size ones
    spec = request.getfixturevalue(model)
    built = []

    class Recording(Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(_column_factors(self))

    monkeypatch.setattr(sde_module, "Stepper", Recording)
    args = dict(dt=1e-3, T=0.02, paths=4097, block_size=4097, seed=5, record_times=[0.01, 0.02], **kw)
    columns = s.run_ensemble(spec, x0, **args)
    with np.errstate():
        np.setbufsize(8208)  # the least multiple of 16 past 2 * 4097
        full = s.run_ensemble(spec, x0, **args)
    assert built == [True, False]
    for field in dataclasses.fields(columns):
        assert np.array_equal(getattr(columns, field.name), getattr(full, field.name)), field.name


# ----------------------------------------------------------------- tiles


def _one_tile(monkeypatch):
    # every block steps its paths as one tile, as blocks of at most twice the cutoff do
    monkeypatch.setattr(sde_module, "_tile_paths", lambda paths: [slice(0, paths)])


def _same_stats(a, b):
    for field in dataclasses.fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


@pytest.mark.parametrize("paths", [9000, 10_001, 20_000])
@pytest.mark.parametrize("model,x0", [("novikov", [1.0]), ("goy", [[1.0, 0.0]]), ("goy_scaled", [[1.0, 0.0]])])
def test_tiled_blocks_run_bit_for_bit_as_one_tile(model, x0, paths, request, monkeypatch):
    # 9000 and 20,000 paths split into equal tiles, 10,001 into 5000 and 5001
    spec = _kernel_model(model, request)
    base = dict(N=6, dt=1e-3, T=3e-3, paths=paths, block_size=paths, seed=17, record_times=[2e-3, 3e-3])
    cases = [(scheme, which, weights) for scheme in SCHEMES for which in SYSTEMS for weights in (None, "PtoQ")]
    tiled = [s.run_ensemble(spec, x0, scheme=c[0], which=c[1], weight_direction=c[2], **base) for c in cases]
    _one_tile(monkeypatch)
    for case, got in zip(cases, tiled):
        scheme, which, weights = case
        ref = s.run_ensemble(spec, x0, scheme=scheme, which=which, weight_direction=weights, **base)
        assert got.aborted == 0, case
        _same_stats(got, ref)


def test_a_tiled_block_aborts_the_same_paths_as_one_tile(goy, monkeypatch):
    # em at dt = 0.05 overflows some of these 10^4 GOY paths by the second record time, not all
    base = dict(N=6, dt=0.05, T=0.5, paths=10_000, block_size=10_000, which="nonlinear", scheme="em", seed=3,
                record_times=[0.25, 0.5])
    tiled = s.run_ensemble(goy, [[1.0, 0.0]], **base)
    _one_tile(monkeypatch)
    ref = s.run_ensemble(goy, [[1.0, 0.0]], **base)
    assert 0 < tiled.aborted < base["paths"]
    _same_stats(tiled, ref)


def test_tiled_blocks_on_two_threads_equal_one_thread(novikov):
    base = dict(N=6, dt=1e-3, T=5e-3, paths=20_000, block_size=10_000, which="linear", scheme="split",
                weight_direction="QtoP", seed=23, record_times=[5e-3])
    _same_stats(s.run_ensemble(novikov, [1.0], threads=1, **base), s.run_ensemble(novikov, [1.0], threads=2, **base))


def test_the_tile_rule_and_contiguous_tiles(novikov, monkeypatch):
    # half the default buffer size is 4096: a block is one tile up to twice that, and tiles are wider than it
    assert np.getbufsize() == 8192
    counts = {900: 1, 4096: 1, 8192: 1, 8193: 1, 8194: 2, 10_000: 2, 10_001: 2, 12_291: 3, 20_000: 4}
    for paths, count in counts.items():
        spans = sde_module._tile_paths(paths)
        assert len(spans) == count, paths
        assert [s.start for s in spans] == [0] + [s.stop for s in spans[:-1]] and spans[-1].stop == paths
        widths = {s.stop - s.start for s in spans}
        assert max(widths) - min(widths) <= 1 and (count == 1 or min(widths) > 4096), paths
    seen = []
    step = sde_module._step_batch

    def recording(stepper, X, energy0):
        seen.append(X)
        return step(stepper, X, energy0)

    monkeypatch.setattr(sde_module, "_step_batch", recording)
    for paths in (900, 20_000):
        seen.clear()
        s.run_ensemble(novikov, [1.0], N=6, dt=1e-3, T=2e-3, paths=paths, block_size=paths, scheme="em")
        tiles = [seen[0]] if isinstance(seen[0], np.ndarray) else list(seen[0])
        assert [X.shape for X in tiles] == [(1, 6, w) for w in ([900] if paths == 900 else [5000] * 4)]
        assert all(X.flags.c_contiguous for X in tiles)
        assert all(X is seen[0] for X in seen)  # the same paths every step, so the stepper binds once


def test_a_stepper_steps_tiles_or_one_array_alike(goy):
    # a bare (d, N, P) array is stepped through column views of the stepper's tiles
    N, P, dt = 6, 10_000, 1e-4
    table = CoefficientTable(goy, N)
    rng = np.random.default_rng(61)
    X0 = rng.standard_normal((goy.d, N, P))
    e0 = (X0 * X0).sum(axis=(0, 1))
    for scheme in SCHEMES:
        for which in SYSTEMS:
            st = Stepper(table, dt, scheme, which, True, P)
            assert len(st.tile_paths) == 2
            stream = SlabStream(slab_rng(67, 0), st.dW.shape, dt)
            X = X0.copy()
            tiles = tuple(np.ascontiguousarray(X0[:, :, span]) for span in st.tile_paths)
            for _ in range(3):
                st.dW = stream.fill()
                for got, ref in zip([a.copy() for a in st.ledger(tiles)], st.ledger(X)):
                    assert got.shape == (P,) and np.array_equal(got, ref)
                assert st.step(tiles, e0) is tiles and st.step(X, e0) is X
                assert np.array_equal(np.concatenate(tiles, axis=2), X), (scheme, which)
            with pytest.raises(ValueError, match="tiles"):
                st.step(tiles[:1], e0)


# ----------------------------------------------------------------- alignment


def _starts_on_a_line(a):
    return a.ctypes.data % noise_module.ALIGN == 0


@pytest.mark.parametrize("which", SYSTEMS)
@pytest.mark.parametrize("paths", [1, 900, 4097, 10_000, 10_001, 20_000])
def test_every_array_the_step_loop_writes_starts_on_a_line(goy, monkeypatch, paths, which):
    steps, ledgers = [], []
    step, increment = sde_module._step_batch, sde_module._weight_increment

    def stepping(stepper, X, energy0):
        steps.append((stepper, X))
        return step(stepper, X, energy0)

    def weighing(stepper, X):
        out = increment(stepper, X)
        ledgers.append(out)
        return out

    monkeypatch.setattr(sde_module, "_step_batch", stepping)
    monkeypatch.setattr(sde_module, "_weight_increment", weighing)
    s.run_ensemble(
        goy, [[1.0, 0.0]], N=6, dt=1e-3, T=3e-3, paths=paths, block_size=paths, which=which, scheme="split",
        weight_direction="PtoQ", seed=29,
    )
    assert len(steps) == len(ledgers) == 3
    for stepper, X in steps:
        tiles = [X] if isinstance(X, np.ndarray) else list(X)
        assert len(tiles) == len(stepper.tiles) == len(sde_module._tile_paths(paths))
        scratch = [stepper.incr, stepper.alt, stepper.tmp, stepper.velocity, *stepper.ledger_sums]
        assert stepper.velocity.size > 0 if which == "nonlinear" else stepper.velocity.size == 0
        views = [a for tile in stepper.tiles for a in (tile.incr, tile.alt)]
        for a in tiles + scratch + views + [stepper.dW]:  # dW is the stream's slab
            assert _starts_on_a_line(a), a.shape
    for zinc, qvinc, comp in ledgers:
        assert all(a.shape == (paths,) and _starts_on_a_line(a) for a in (zinc, qvinc, comp))


def _aligned_off_a_line(offset):
    # the helper's arrays, but ``offset`` bytes past a 64-byte boundary
    def off(shape, alloc=np.empty):
        buf = alloc(math.prod(shape) + 16)
        return np.ndarray(shape, buffer=buf, offset=-buf.ctypes.data % 64 + offset)

    return off


@pytest.mark.parametrize("paths", [900, 10_001])
@pytest.mark.parametrize("model,x0", [("novikov", [1.0]), ("goy", [[1.0, 0.0]]), ("goy_scaled", [[1.0, 0.0]])])
def test_run_ensemble_does_not_depend_on_where_its_arrays_start(model, x0, paths, request, monkeypatch):
    spec = _kernel_model(model, request)
    base = dict(N=6, dt=1e-3, T=3e-3, paths=paths, block_size=paths, seed=31, record_times=[2e-3, 3e-3])
    cases = [(scheme, which, weights) for scheme in SCHEMES for which in SYSTEMS for weights in (None, "QtoP")]
    on_a_line = [s.run_ensemble(spec, x0, scheme=c[0], which=c[1], weight_direction=c[2], **base) for c in cases]
    for offset in (8, 16, 32):
        off = _aligned_off_a_line(offset)
        assert off((3, 5)).ctypes.data % 64 == offset
        monkeypatch.setattr(noise_module, "aligned", off)
        monkeypatch.setattr(sde_module, "aligned", off)
        for case, ref in zip(cases, on_a_line):
            scheme, which, weights = case
            got = s.run_ensemble(spec, x0, scheme=scheme, which=which, weight_direction=weights, **base)
            assert got.aborted == 0, (offset, case)
            _same_stats(got, ref)


# ----------------------------------------------------------------- write plan and the ledger's own sums


def _run_order(st):
    """The stepper's terms in the order a step runs them."""
    return [t for b in st.blocks for t in b.terms] if st.nonlinear else st.noise_terms


@pytest.mark.parametrize("N", [2, 3, 6, 10, 64])
@pytest.mark.parametrize("model", ["novikov", "goy", "sabra", "goy_scaled", "gapped"])
def test_the_write_plan_writes_untouched_rows_and_zeroes_the_rest(model, N, request):
    spec = _kernel_model(model, request)
    table = CoefficientTable(spec, N)
    every_row = {(a, n) for a in range(spec.d) for n in range(N)}
    rng = np.random.default_rng(N)
    X0 = rng.standard_normal((spec.d, N, 3))
    for which in SYSTEMS:
        for scheme in SCHEMES:
            st = Stepper(table, 1e-4, scheme, which, False, 3)
            if scheme != "split":  # the increment starts from the correction, and every term adds
                assert not any(st.writes) and st.zero_rows == [], (scheme, which)
                continue
            terms = _run_order(st)
            assert len(st.writes) == len(terms)
            touched, written = set(), set()
            for t, write in zip(terms, st.writes):
                rows = {(t.a, n) for n in range(t.dst.start, t.dst.stop)}
                assert write == (not rows & touched), (which, t)
                written |= rows if write else set()
                touched |= rows
            zeroed = [divmod(r, N) for run in st.zero_rows for r in range(run.start, run.stop)]
            assert not set(zeroed) & written and set(zeroed) | written == every_row and len(set(zeroed)) == len(zeroed)
            assert all(a.stop < b.start for a, b in zip(st.zero_rows, st.zero_rows[1:])), "runs of consecutive rows"
            # against a stepper that zeroes every row and adds every term
            plain = Stepper(table, 1e-4, scheme, which, False, 3)
            plain.writes, plain.zero_rows = [], [slice(0, spec.d * N)]
            plain.dW = st.dW = math.sqrt(1e-4) * rng.standard_normal(st.dW.shape)
            e0 = (X0 * X0).sum(axis=(0, 1))
            assert np.array_equal(st.step(X0.copy(), e0), plain.step(X0.copy(), e0)), which


def _poison_scratch(monkeypatch):
    # NaN in every scratch array of the stepper before each step and ledger call: a call that read a
    # scratch cell it had not written first would pass the NaN on
    step, increment = sde_module._step_batch, sde_module._weight_increment

    def poison(stepper):
        for a in (stepper.incr, stepper.alt, stepper.tmp, stepper.velocity, *(stepper.ledger_sums or ())):
            a.fill(np.nan)

    def stepping(stepper, X, energy0):
        poison(stepper)
        return step(stepper, X, energy0)

    def weighing(stepper, X):
        poison(stepper)
        return increment(stepper, X)

    monkeypatch.setattr(sde_module, "_step_batch", stepping)
    monkeypatch.setattr(sde_module, "_weight_increment", weighing)


@pytest.mark.parametrize("paths", [900, 10_001], ids=["one_tile", "two_tiles"])
@pytest.mark.parametrize(
    "model,x0", [("novikov", [1.0]), ("goy", [[1.0, 0.0]]), ("goy_scaled", [[1.0, 0.0]]), ("gapped", [1.0])]
)
def test_run_ensemble_reads_no_scratch_cell_that_it_did_not_write(model, x0, paths, request, monkeypatch):
    # a split step whose plan left a row unzeroed would read the previous step's increment there
    spec = _kernel_model(model, request)
    base = dict(N=6, dt=1e-3, T=3e-3, paths=paths, block_size=paths, seed=41, record_times=[2e-3, 3e-3])
    cases = [(scheme, which, weights) for scheme in SCHEMES for which in SYSTEMS for weights in (None, "QtoP")]
    clean = [s.run_ensemble(spec, x0, scheme=c[0], which=c[1], weight_direction=c[2], **base) for c in cases]
    _poison_scratch(monkeypatch)
    for case, ref in zip(cases, clean):
        scheme, which, weights = case
        got = s.run_ensemble(spec, x0, scheme=scheme, which=which, weight_direction=weights, **base)
        assert got.aborted == 0, case
        _same_stats(got, ref)


@pytest.mark.parametrize("paths", [5, 10_001], ids=["one_tile", "two_tiles"])
@pytest.mark.parametrize("model,N", [("novikov", 6), ("goy", 6), ("gapped", 3)])
def test_the_ledger_returns_its_own_sums_until_its_next_call(model, N, paths, request):
    # gapped at N = 3 has no ledger cell: its sums must still read 0, 0 and log 1
    spec, dt = _kernel_model(model, request), 1e-3
    table = CoefficientTable(spec, N)
    assert (table.ledger_rows == []) == (model == "gapped")
    rng = np.random.default_rng(73)
    st = Stepper(table, dt, "split", "linear", True, paths)
    for k in range(3):
        X = rng.standard_normal((spec.d, N, paths))
        st.dW = math.sqrt(dt) * rng.standard_normal(st.dW.shape)
        for a in st.ledger_sums:
            a.fill(np.nan)
        first = st.ledger(X)
        again = st.ledger(X)
        assert all(a is b is c for a, b, c in zip(first, again, st.ledger_sums)), k
        fresh = Stepper(table, dt, "split", "linear", True, paths)
        fresh.dW = st.dW.copy()
        for got, ref in zip(first, fresh.ledger(X)):
            assert got.shape == (paths,) and np.isfinite(got).all() and np.array_equal(got, ref), k
        if model == "gapped":
            assert all((a == 0.0).all() for a in first)


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
