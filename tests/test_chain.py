import dataclasses
import math

import numpy as np
import pytest

import chain_oracle as oracle
import shellsde as s
from chain_oracle import chain_rng, explosion_tail_bound
from rates_oracle import embedded_step
from shellsde import chain
from shellsde.chain import ChainCaps
from shellsde.moments import embedded_matrix


def _dead_novikov():
    spec = s.build_novikov(2.0, 1.0)
    return dataclasses.replace(
        spec, interactions=tuple(dataclasses.replace(it, k=0.0) for it in spec.interactions)
    )


def test_embedded_step_novikov_probabilities(novikov):
    rng = chain_rng(1, 0)
    # n = 1 jumps to 2 with certainty
    for _ in range(20):
        assert embedded_step(novikov, 1, rng) == 2
    # bulk rows: up with probability 1/(1 + lambda^-2)
    ups = 0
    trials = 100_000
    for k in range(trials):
        ups += embedded_step(novikov, 5, rng) == 6
    p = ups / trials
    se = math.sqrt(0.8 * 0.2 / trials)
    assert abs(p - 0.8) <= 4 * se


def test_increment_distribution_goy_any_coefficients():
    for (a, c) in [(1.0, 0.5), (2.0, 0.1), (0.3, 0.3)]:
        spec = s.build_goy(a, -(a + c), c, 2.0, 1.0)
        inc = oracle.increment_distribution(spec)
        assert inc.probs.sum() == pytest.approx(1.0)
        assert inc.drift == pytest.approx(0.6, abs=1e-12)


def test_increment_distribution_novikov(novikov):
    inc = oracle.increment_distribution(novikov)
    table = dict(zip(inc.offsets.tolist(), inc.probs.tolist()))
    assert table[1] == pytest.approx(0.8)
    assert table[-1] == pytest.approx(0.2)
    assert inc.drift == pytest.approx(0.6)


def test_increment_reflection_relation(goy, novikov, sabra):
    for spec in (goy, novikov, sabra):
        inc = oracle.increment_distribution(spec)
        table = dict(zip(inc.offsets.tolist(), inc.probs.tolist()))
        for r, q in table.items():
            if r > 0:
                assert table[-r] == pytest.approx(q * spec.lam ** (-2 * r), rel=1e-12)
        assert inc.drift > 0.0


def test_holding_time_mean(novikov):
    caps = ChainCaps(max_jumps=10_000, max_level=30)
    start = np.zeros(30)
    start[2] = 1.0
    holds = []
    for rep in range(3000):
        traj = s.simulate_chain(novikov, start, 50.0, caps, chain_rng(3, rep))
        if len(traj.times) > 1 and traj.states[0] == 3:
            holds.append(traj.times[1] - traj.times[0])
        if len(holds) >= 2000:
            break
    holds = np.array(holds)
    target = 1.0 / novikov.pi_n(3)
    se = holds.std() / math.sqrt(len(holds))
    assert abs(holds.mean() - target) <= 4 * se


def test_sigma_rescaling_is_exact_time_change():
    a = s.build_novikov(2.0, 1.0)
    b = s.build_novikov(2.0, 2.0)
    caps = ChainCaps(max_jumps=100_000, max_level=40)
    start = np.zeros(40)
    start[0] = 1.0
    for rep in range(50):
        ta = s.simulate_chain(a, start, 8.0, caps, chain_rng(11, rep))
        tb = s.simulate_chain(b, start, 2.0, caps, chain_rng(11, rep))
        m = min(len(ta.times), len(tb.times))
        assert np.array_equal(ta.states[:m], tb.states[:m])
        assert np.array_equal(ta.times[:m] / 4.0, tb.times[:m])


def test_survival_basics(novikov):
    start = np.zeros(40)
    start[0] = 1.0
    est = s.survival_curve(
        novikov, start, [0.0, 0.3, 0.6, 1.2], replicates=2000, caps=ChainCaps(100_000, 40), seed=5
    )
    assert est.survival[0] == 1.0
    assert np.all(np.diff(est.survival_monotone) <= 0.0)
    assert np.all(est.occupancy.sum(axis=1) <= est.survival + 1e-12)


def test_survival_matches_forward_mass(novikov):
    times = [0.3, 0.8]
    start = np.zeros(40)
    start[0] = 1.0
    est = s.survival_curve(novikov, start, times, replicates=4000, caps=ChainCaps(100_000, 40), seed=6)
    Q = s.build_qmatrix(novikov, 18)
    sol = s.solve_forward(Q, np.eye(18)[0], times)
    for ti in range(len(times)):
        assert abs(est.survival[ti] - sol.mass[ti]) <= 3.5 * max(est.se[ti], 1e-4)


def test_occupancy_matches_forward_profile(novikov):
    times = [0.4]
    start = np.zeros(40)
    start[0] = 1.0
    est = s.survival_curve(novikov, start, times, replicates=6000, caps=ChainCaps(100_000, 40), seed=8)
    Q = s.build_qmatrix(novikov, 18)
    sol = s.solve_forward(Q, np.eye(18)[0], times)
    for n in range(1, 9):
        diff = abs(est.occupancy[0, n - 1] - sol.u[0, n - 1])
        se = max(est.occupancy_se[0, n - 1], 1.0 / 6000)
        assert diff <= 3.5 * se


def test_cap_doubling_insensitive(novikov):
    start = np.zeros(80)
    start[0] = 1.0
    t = [0.5]
    small = s.survival_curve(novikov, start[:40], t, 3000, ChainCaps(50_000, 40), seed=9)
    big = s.survival_curve(novikov, start, t, 3000, ChainCaps(100_000, 80), seed=9)
    assert abs(small.survival[0] - big.survival[0]) <= small.se[0] + 2.0 / 3000


def test_absorbed_status_for_dead_model():
    dead = _dead_novikov()
    start = np.zeros(10)
    start[0] = 1.0
    traj = s.simulate_chain(dead, start, 5.0, ChainCaps(1000, 10), chain_rng(1, 1))
    assert traj.status == "absorbed"
    assert traj.position_at(4.9) == 1


def test_visit_statistics_match_fundamental_matrix(novikov):
    N = 10
    mean_visits, se, p_visit = oracle.visit_statistics(novikov, N, replicates=4000, seed=13)
    M = np.linalg.inv(np.eye(N) - embedded_matrix(novikov, N))
    for n in range(1, 7):
        assert abs(mean_visits[n - 1] - M[n - 1, n - 1]) <= 3.5 * se[n - 1]
    # shells above the start are on the escape route, so they are hit a.s.;
    # the start itself is only revisited with the return probability
    assert np.all(p_visit[1:6] >= 0.95)
    assert p_visit[0] == pytest.approx(0.25, abs=0.03)
    bulk = mean_visits[2:7]
    assert bulk.max() - bulk.min() <= 0.3 * bulk.mean()


def test_visit_counts_geometric_tail(novikov):
    # P(V > k+1 | V > k) constant in k for the conditioned visit count
    N, shell = 10, 4
    P = embedded_matrix(novikov, N)
    counts = []
    for rep in range(4000):
        rng = chain_rng(21, rep)
        pos, c = 1, 0
        for _ in range(10_000):
            row = P[pos - 1]
            u = rng.random()
            cum = 0.0
            nxt = None
            for m in np.nonzero(row)[0]:
                cum += row[m]
                if u <= cum:
                    nxt = m + 1
                    break
            if nxt is None:
                break
            pos = nxt
            if pos == shell:
                c += 1
        counts.append(c)
    counts = np.array(counts)
    ratios = []
    for k in (1, 2, 3):
        num = (counts > k + 1).sum()
        den = (counts > k).sum()
        ratios.append(num / den)
        se = math.sqrt(ratios[-1] * (1 - ratios[-1]) / den)
        assert abs(ratios[-1] - ratios[0]) <= 4 * (se + 0.02)


def test_explosion_evidence(novikov):
    # jump count to exceed a level grows linearly, time to exceed it is summable
    caps = ChainCaps(200_000, 100)
    start = np.zeros(100)
    start[0] = 1.0
    levels = [10, 20, 40]
    med_jumps, med_times = [], []
    for L in levels:
        js, ts = [], []
        for rep in range(400):
            traj = s.simulate_chain(novikov, start, 50.0, ChainCaps(200_000, L), chain_rng(31, rep))
            if traj.status == "exploded":
                js.append(len(traj.times))
                ts.append(traj.times[-1])
        med_jumps.append(np.median(js))
        med_times.append(np.median(ts))
    # linear jump growth: roughly proportional to the level
    assert 1.5 <= med_jumps[1] / med_jumps[0] <= 3.0
    assert 1.5 <= med_jumps[2] / med_jumps[1] <= 3.0
    # times converge: going from 20 to 40 adds far less than going from 10 to 20
    assert med_times[2] - med_times[1] <= 0.5 * (med_times[1] - med_times[0]) + 0.05
    assert explosion_tail_bound(novikov, 40) <= 1e-20


def test_chain_rng_reproducible(novikov):
    start = np.zeros(20)
    start[0] = 1.0
    a = s.simulate_chain(novikov, start, 1.0, ChainCaps(1000, 20), chain_rng(5, 7))
    b = s.simulate_chain(novikov, start, 1.0, ChainCaps(1000, 20), chain_rng(5, 7))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)


ESTIMATE_ARRAYS = ("survival", "se", "survival_monotone", "occupancy", "occupancy_se")
STATUSES = ("alive", "absorbed", "exploded_level", "exploded_jumpcap")


def _start(levels, weights):
    start = np.zeros(levels)
    for n, w in weights.items():
        start[n - 1] = w
    return start


# (model, start weights by shell, grid, replicates, caps, statuses that must occur)
SURVIVAL_CASES = {
    "novikov": ("novikov", {1: 1.0}, [0.25, 0.5, 1.0], 400, ChainCaps(200_000, 40), ("alive", "exploded_level")),
    "goy_unsorted_grid": ("goy", {1: 0.5, 3: 1.0, 4: 0.25}, [0.6, 0.0, 0.2, 0.6, 0.05], 300, ChainCaps(100_000, 30), ("alive", "exploded_level")),
    "small_caps": ("novikov", {1: 1.0, 2: 1.0}, [0.0, 0.4, 0.1], 400, ChainCaps(25, 12), ("exploded_level", "exploded_jumpcap")),
    "goy_small_caps": ("goy", {2: 1.0}, [1.0, 0.3, 0.3], 300, ChainCaps(40, 20), ("exploded_level", "exploded_jumpcap")),
    "dead": ("dead", {1: 1.0, 3: 1.0}, [5.0, 0.0, 2.5], 50, ChainCaps(1000, 10), ("absorbed",)),
    # a low cap escapes at a slow shell, so grid times follow closely after an escape
    "low_level_cap": ("novikov", {1: 1.0}, list(np.linspace(0.0, 0.5, 26)), 200, ChainCaps(1000, 3), ("exploded_level",)),
}


def _model(name, request):
    return _dead_novikov() if name == "dead" else request.getfixturevalue(name)


def _assert_same_survival(est, ref):
    for name in ESTIMATE_ARRAYS:
        assert np.array_equal(getattr(est, name), ref[name]), name
    assert est.status_counts() == {k: ref[k] for k in (*STATUSES, "jumps")}


@pytest.mark.parametrize("case", sorted(SURVIVAL_CASES))
@pytest.mark.parametrize("seed", [0, 7, 102])
def test_survival_curve_matches_per_replicate_oracle(case, seed, request):
    model, weights, grid, replicates, caps, seen = SURVIVAL_CASES[case]
    spec = _model(model, request)
    start = _start(caps.max_level, weights)
    est = s.survival_curve(spec, start, grid, replicates, caps, seed=seed)
    _assert_same_survival(est, oracle.survival_curve(spec, start, grid, replicates, caps, seed=seed))
    assert sum(getattr(est, k) for k in STATUSES) == replicates
    for status in seen:
        assert getattr(est, status) > 0, status


@pytest.mark.parametrize("batch", [1, 10**6, 7])
def test_lockstep_constants_do_not_change_results(batch, goy, monkeypatch):
    start = _start(12, {1: 1.0, 2: 0.5})
    grid = [0.3, 0.0, 0.1]
    caps = ChainCaps(25, 12)
    survival = s.survival_curve(goy, start, grid, 200, caps, seed=3)
    monkeypatch.setattr(chain, "_BATCH", batch)
    patched = s.survival_curve(goy, start, grid, 200, caps, seed=3)
    for name in ESTIMATE_ARRAYS:
        assert np.array_equal(getattr(patched, name), getattr(survival, name)), name
    assert patched.status_counts() == survival.status_counts()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1])
def test_replicate_streams_are_numpys_streams(seed):
    reps = (0, 1, 511, 512, 9_999)
    streams = chain._ReplicateStreams(seed, range(10_000))
    draws = np.array([streams.random() for _ in range(40)])
    gens = {rep: chain_rng(seed, rep) for rep in reps}
    for rep, gen in gens.items():
        assert np.array_equal(draws[:, rep], gen.random(40)), rep
    # drop every replicate but those checked, then keep drawing
    live = np.zeros(10_000, dtype=bool)
    live[list(reps)] = True
    streams.keep(live)
    streams.keep(np.array([True, False, True, True, True]))  # and then replicate 1
    draws = np.array([streams.random() for _ in range(45)])
    for col, rep in enumerate((0, 511, 512, 9_999)):
        assert np.array_equal(draws[:, col], gens[rep].random(45)), rep
    # a range that does not start at 0 reads the same streams
    tail = chain._ReplicateStreams(seed, range(511, 513))
    assert np.array_equal(np.array([tail.random() for _ in range(40)]).T, [chain_rng(seed, r).random(40) for r in (511, 512)])


def test_replicate_streams_reject_what_chain_rng_cannot_key():
    with pytest.raises(ValueError):
        chain_rng(-1, 0)
    with pytest.raises(ValueError):
        chain._ReplicateStreams(-1, range(3))
    with pytest.raises(ValueError, match="replicate"):
        chain._ReplicateStreams(0, range(2**32 - 1, 2**32 + 1))


def test_lockstep_estimators_build_no_generator(goy, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the lockstep walk built a generator")

    start = _start(20, {1: 1.0, 3: 0.5})
    grid = [0.4, 0.0, 0.1]
    caps = ChainCaps(2000, 20)
    with monkeypatch.context() as patch:
        for name in ("default_rng", "SeedSequence", "Generator", "SFC64", "PCG64"):
            patch.setattr(np.random, name, refuse)
        est = s.survival_curve(goy, start, grid, 300, caps, seed=5)
    _assert_same_survival(est, oracle.survival_curve(goy, start, grid, 300, caps, seed=5))


@pytest.mark.parametrize("replicates", [0, -3])
def test_chain_estimators_reject_empty_ensembles(replicates, novikov):
    with pytest.raises(ValueError, match="replicates"):
        s.survival_curve(novikov, _start(10, {1: 1.0}), [0.5], replicates, ChainCaps(1000, 10))


@pytest.mark.parametrize("max_jumps,max_level", [(0, 10), (-1, 10), (1000, 0), (1000, -2)])
def test_chain_caps_must_be_positive(max_jumps, max_level):
    with pytest.raises(ValueError, match="caps"):
        ChainCaps(max_jumps, max_level)


@pytest.mark.parametrize(
    "start_dist",
    [np.zeros(10), [0.0, -0.5, 1.5], [np.nan, 1.0], [np.inf, 1.0], []],
    ids=["zeros", "negative", "nan", "inf", "empty"],
)
def test_start_distribution_is_validated(start_dist, novikov):
    caps = ChainCaps(1000, 10)
    with pytest.raises(ValueError, match="start distribution"):
        s.survival_curve(novikov, start_dist, [0.5], 10, caps)
    with pytest.raises(ValueError, match="start distribution"):
        s.simulate_chain(novikov, start_dist, 0.5, caps, chain_rng(0, 0))


def test_survival_rejects_negative_grid_times(novikov):
    with pytest.raises(ValueError, match="non-negative"):
        s.survival_curve(novikov, _start(10, {1: 1.0}), [-0.1, 0.5], 10, ChainCaps(1000, 10))


def test_position_at_rejects_negative_times(novikov):
    traj = s.simulate_chain(novikov, _start(20, {1: 1.0}), 0.6, ChainCaps(1000, 20), chain_rng(1, 3))
    assert traj.position_at(0.0) == 1
    with pytest.raises(ValueError, match="non-negative"):
        traj.position_at(-0.5)


def test_rate_table_and_survival_past_max_shells(novikov):
    # the chain's level cap is not a truncation: it may exceed MAX_SHELLS
    table = chain._RateTable(novikov, 80)
    assert table.pi.shape == (80,) and table.targets[79].tolist() == [79, 81]
    est = s.survival_curve(novikov, _start(80, {1: 1.0}), [0.0, 0.5], 20, ChainCaps(10_000, 80))
    assert est.survival[0] == 1.0


def test_grid_time_on_a_jump_counts_the_new_shell(novikov):
    # grid times that equal jump times of replicates 0 and 1 exactly
    caps = ChainCaps(1000, 20)
    start = _start(20, {1: 1.0})
    a = s.simulate_chain(novikov, start, 1.0, caps, chain_rng(4, 0))
    b = s.simulate_chain(novikov, start, 1.0, caps, chain_rng(4, 1))
    grid = [a.times[1], a.times[3], b.times[2], 1.0]
    est = s.survival_curve(novikov, start, grid, 20, caps, seed=4)
    _assert_same_survival(est, oracle.survival_curve(novikov, start, grid, 20, caps, seed=4))
