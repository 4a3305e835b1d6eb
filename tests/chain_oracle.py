"""Per-replicate reference walks of the jump chain, and its bulk increment law.

:func:`chain_rng` builds the generator whose stream replicate ``rep``
reads; ``shellsde.chain._ReplicateStreams`` reproduces it without building
it.  :func:`survival_curve` is the earlier body of
:func:`shellsde.chain.survival_curve`: one Python loop per replicate on its
own ``chain_rng(seed, rep)``, through :func:`shellsde.chain.simulate_chain`.
Its status counts use the benchmark tracer's classification: an exploded
path whose last state is above the level cap passed the level cap, any
other exploded path hit the jump cap.  :func:`visit_statistics` is a Monte
Carlo estimate of the embedded chain's visit counts, checked against the
fundamental matrix that :mod:`shellsde.moments` inverts exactly.
:func:`increment_distribution` is the law of a jump's shell offset once
every interaction is active, and :func:`explosion_tail_bound` bounds the
expected time the chain spends above a level with it.
"""
import math
from dataclasses import dataclass

import numpy as np

from rates_oracle import embedded_matrix
from shellsde.algebra import TINY, jump_rates
from shellsde.chain import ChainTrajectory, _RateTable, simulate_chain

SERIES_TOL = 1e-12  # relative size of the last term summed by explosion_tail_bound


def chain_rng(seed, replicate):
    """The generator of replicate ``replicate`` of a chain estimate under ``seed``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=[seed, 0x6368, replicate])))


def _status(traj: ChainTrajectory, max_level: int) -> str:
    if traj.status != "exploded":
        return traj.status
    return "exploded_level" if traj.states[-1] > max_level else "exploded_jumpcap"


def survival_curve(spec, start_dist, tgrid, replicates, caps, seed=0):
    """Survival and occupancy arrays plus status counts, keyed like the estimator's fields."""
    t = np.asarray(tgrid, dtype=float)
    table = _RateTable(spec, caps.max_level)
    levels = caps.max_level
    alive_counts = np.zeros(len(t))
    occ_counts = np.zeros((len(t), levels))
    status = dict.fromkeys(("alive", "absorbed", "exploded_level", "exploded_jumpcap", "jumps"), 0)
    for rep in range(replicates):
        rng = chain_rng(seed, rep)
        traj = simulate_chain(spec, start_dist, float(t.max()), caps, rng, _table=table)
        status[_status(traj, levels)] += 1
        status["jumps"] += len(traj.times) - 1
        for ti, tv in enumerate(t):
            pos = traj.position_at(tv)
            if pos is not None and pos <= levels:
                alive_counts[ti] += 1
                occ_counts[ti, pos - 1] += 1
    p = alive_counts / replicates
    occ = occ_counts / replicates
    return {
        "survival": p,
        "se": np.sqrt(p * (1.0 - p) / replicates),
        "survival_monotone": np.minimum.accumulate(p),
        "occupancy": occ,
        "occupancy_se": np.sqrt(occ * (1.0 - occ) / replicates),
        **status,
    }


def visit_statistics(spec, N, replicates, seed=0, start_dist=None, max_jumps=100_000):
    """(mean_visits, se, p_visit) of the embedded chain absorbing beyond N."""
    P = embedded_matrix(spec, N)
    cum_rows = []
    targets_rows = []
    for n in range(N):
        idx = np.nonzero(P[n])[0]
        targets_rows.append(idx + 1)
        cum_rows.append(np.cumsum(P[n, idx]))
    start = np.zeros(N)
    if start_dist is None:
        start[0] = 1.0
    else:
        start[: len(start_dist)] = start_dist
    start_cum = np.cumsum(start)
    start_cum = start_cum / start_cum[-1]
    counts = np.zeros((replicates, N), dtype=np.int64)
    for rep in range(replicates):
        rng = chain_rng(seed, rep)
        pos = int(np.searchsorted(start_cum, rng.random(), side="right")) + 1
        for _ in range(max_jumps):
            row = pos - 1
            cum = cum_rows[row]
            if len(cum) == 0:
                break
            u = rng.random()
            if u > cum[-1]:
                break
            pos = int(targets_rows[row][np.searchsorted(cum, u, side="right")])
            counts[rep, pos - 1] += 1
        else:
            raise RuntimeError("embedded chain failed to absorb within the jump budget")
    visited = counts > 0
    nvis = visited.sum(axis=0)
    mean = np.full(N, np.nan)
    se = np.full(N, np.nan)
    for n in range(N):
        if nvis[n] > 0:
            vals = counts[visited[:, n], n].astype(float)
            mean[n] = vals.mean()
            se[n] = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else np.inf
    return mean, se, nvis / replicates


@dataclass(frozen=True, eq=False)
class IncrementDistribution:
    offsets: np.ndarray
    probs: np.ndarray
    drift: float


def increment_distribution(spec):
    """Bulk jump-increment law q_r = sum_{r_i = r} k_i**2 / sum k_j**2.

    Valid from the stabilisation shell upward, where every interaction is
    active.  The pairing forces q_{-r} = q_r * lambda**(-2r), so the drift
    sum(r * q_r) is positive.
    """
    weights = {}
    total = 0.0
    for it in spec.interactions:
        weights[it.r] = weights.get(it.r, 0.0) + it.k**2
        total += it.k**2
    offsets = np.array(sorted(weights))
    probs = np.array([weights[r] for r in offsets]) / (total or 1.0)  # all zero when no interaction is active
    return IncrementDistribution(offsets=offsets, probs=probs, drift=float((offsets * probs).sum()))


def explosion_tail_bound(spec, level):
    """Upper bound on the expected time spent above ``level``.

    Sums E[V_n | V_n > 0] / pi_n beyond the cap using the bulk visit count
    1 / drift of the increment walk; the terms decay like lambda**(-2n), so
    the series is summed to ``SERIES_TOL`` relative accuracy.
    """
    inc = increment_distribution(spec)
    if inc.drift <= 0.0:  # also a model without active interactions: no bound
        return math.inf
    visits = 1.0 / inc.drift
    last = level + 10_001  # the last shell summed
    hi = level
    while True:  # 64 more shells at a time until a term is negligible
        hi = min(hi + 64, last)
        terms = visits / jump_rates(spec, hi).pi[level:]
        total = np.cumsum(terms)
        stop = terms <= SERIES_TOL * np.maximum(total, TINY)
        stop[-1] |= hi == last
        if stop.any():
            return float(total[stop.argmax()])
