"""Continuous-time Markov chain simulation of the second-moment flow.

The chain jumps on the positive integers with the rates of the symmetric
matrix built in :mod:`shellsde.moments`, read from the same table,
:func:`shellsde.algebra.jump_rates`: exponential holding time with rate
pi_n, then a jump drawn from the normalised row, whose targets may lie
past the level cap.  Because the rates grow geometrically the chain runs
away to infinity in finite time; a path is declared exploded once it
exceeds a level cap or a jump-count cap, which is a conservative proxy
that converges as the caps grow.

:func:`simulate_chain` walks one path on a given generator.
:func:`survival_curve` walks many replicates in lockstep instead: the
replicates run in batches of ``_BATCH``, and each step of a batch moves
every live replicate by one jump with numpy masks, then drops the
replicates that finished.  Replicate ``rep`` reads the stream that
``_ReplicateStreams`` defines for it, in the order :func:`simulate_chain`
reads its generator: one start draw and then the draws of each jump.  No
generator is built: ``_ReplicateStreams`` repeats numpy's seeding and
SFC64 steps with array arithmetic over the live replicates, one draw of
each per call, so results do not depend on ``_BATCH``.  Both walks read
their jump rows from one padded table (cumulative probabilities padded
with +inf), so ``searchsorted(cum, u, side="right")`` is
``(cum[row] <= u).sum(-1)``.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import ModelSpec, jump_rates, require_finite_rates, require_identity_grams

__all__ = [
    "ChainCaps",
    "ChainTrajectory",
    "simulate_chain",
    "SurvivalEstimate",
    "survival_curve",
]

_BATCH = 65_536  # replicates walked together; bounds the memory of a batch's arrays


@dataclass(frozen=True)
class ChainCaps:
    max_jumps: int = 100_000
    max_level: int = 60

    def __post_init__(self):
        if self.max_jumps < 1 or self.max_level < 1:
            raise ValueError(
                f"chain caps must be at least 1, got max_jumps={self.max_jumps}, max_level={self.max_level}"
            )


@dataclass(frozen=True, eq=False)
class ChainTrajectory:
    """Jump times t_0 = 0 < t_1 < ... and positions, plus terminal status."""

    times: np.ndarray
    states: np.ndarray
    status: str  # 'alive' | 'exploded' | 'absorbed'

    def position_at(self, t: float) -> Optional[int]:
        """State at time t >= 0, or None when the path is already dead."""
        if t < 0.0:
            raise ValueError("time must be non-negative")
        if self.status == "exploded" and t >= self.times[-1]:
            return None
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return int(self.states[idx])


class _RateTable:
    """Holding rates and padded jump rows up to a level cap.

    Shell n jumps to ``targets[n-1, k]`` with ``k = (cum[n-1] <= u).sum()``.
    Each row holds the targets with a positive rate, in offset order, and
    the normalised running sums of their rates, padded with target 0 and
    +inf.  The last real entry of each row is stored as +inf too, so a
    rounding shortfall of the row total below 1 cannot send a uniform past
    the row.  Rates that are not finite below the level cap are a
    ``ValueError``.
    """

    def __init__(self, spec: ModelSpec, max_level: int):
        require_identity_grams(spec)
        rates = jump_rates(spec, max_level)
        require_finite_rates(rates.pi, f"the chain at level cap {max_level} reads shells 1..{max_level}")
        self.pi = rates.pi
        values = rates.grouped.T
        present = values > 0.0
        count = present.sum(axis=1)
        width = max(1, int(count.max()))
        order = np.argsort(~present, axis=1, kind="stable")[:, :width]
        pad = np.arange(width) >= count[:, None]
        targets = np.arange(1, max_level + 1)[:, None] + rates.offsets
        self.targets = np.where(pad, 0, np.take_along_axis(targets, order, axis=1))
        cum = np.cumsum(np.take_along_axis(values, order, axis=1), axis=1)
        last = np.maximum(count - 1, 0)[:, None]
        with np.errstate(invalid="ignore"):  # a row without targets is 0 / 0
            cum /= np.take_along_axis(cum, last, axis=1)
        cum[np.arange(width) >= last] = np.inf
        self.cum = cum


def _start_cdf(start_dist: Sequence[float]) -> np.ndarray:
    """Normalised cumulative start law; shell n is drawn for u in [cum[n-2], cum[n-1])."""
    start = np.asarray(start_dist, dtype=float)
    if start.ndim != 1 or not np.all(np.isfinite(start)) or np.any(start < 0.0):
        raise ValueError("start distribution must be a 1-d array of finite non-negative weights")
    cum = np.cumsum(start)
    if not (cum.size and 0.0 < cum[-1] < math.inf):
        raise ValueError("start distribution must have a positive finite total")
    return cum / cum[-1]


def _sample_start(cum: np.ndarray, u):
    return np.searchsorted(cum, u, side="right") + 1


# numpy's SeedSequence (a pool of 4 uint32 words) and SFC64 constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
_U16, _U32 = np.uint32(16), np.uint64(32)
_ONE, _U3, _U11, _U24, _U40 = (np.uint64(v) for v in (1, 3, 11, 24, 40))


def _uint32_words(n: int) -> list[int]:
    """``n`` as SeedSequence splits an integer: 32-bit words, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One hash round of SeedSequence on uint32 words; returns them and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & 0xFFFFFFFF
    value = value * np.uint32(const)
    return value ^ (value >> _U16), const


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(6, np.uint32)``, word by word, over broadcast lanes."""
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        word, const = _hash(entropy[i] if i < len(entropy) else np.zeros(1, np.uint32), const, _MULT_A)
        pool.append(word)

    def mix_into(dst: int, value: np.ndarray) -> None:
        nonlocal const
        hashed, const = _hash(value, const, _MULT_A)
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _U16)

    # every pool word into every other, then any entropy past the pool into each
    for src, dst in itertools.permutations(range(_POOL), 2):
        mix_into(dst, pool[src])
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            mix_into(dst, word)
    const = _INIT_B
    out = []
    for i in range(6):
        word, const = _hash(pool[i % _POOL], const, _MULT_B)
        out.append(word)
    return out


class _ReplicateStreams:
    """The uniforms of replicates ``reps`` under ``seed``, drawn in lockstep.

    Replicate ``rep`` reads the stream of
    ``np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=[seed,
    0x6368, rep])))``: each call of :meth:`random` gives every live
    replicate that generator's next ``Generator.random()`` value, bit for
    bit.  The keying is numpy's, done with array arithmetic over the
    replicates: ``SeedSequence`` hashes the entropy into its pool and
    generates three 64-bit words, which seed SFC64 (Doty-Humphrey's "small
    fast chaotic" generator, from PractRand) as ``sfc64_set_seed`` does.
    Each lane's state is three ``uint64`` words; the fourth, the counter,
    is one scalar, since the lanes step together.  Every operand is a
    typed numpy scalar or array, so the dtypes do not depend on numpy's
    casting rules for Python ints.
    """

    def __init__(self, seed: int, reps: range):
        if reps.start < 0 or reps.stop > 2**32:
            raise ValueError("replicate indices must lie in [0, 2**32)")
        entropy = [np.array([w], dtype=np.uint32) for w in (*_uint32_words(seed), 0x6368)]
        entropy.append(np.arange(reps.start, reps.stop, dtype=np.uint32))
        words = [np.broadcast_to(w, (len(reps),)).astype(np.uint64) for w in _seed_words(entropy)]
        # generate_state(3, np.uint64) joins word pairs little-endian; SFC64 takes them as
        # (a, b, c), sets the counter to 1 and discards 12 outputs
        self.a, self.b, self.c = (words[2 * k] | (words[2 * k + 1] << _U32) for k in range(3))
        self.counter = _ONE
        for _ in range(12):
            self._next()

    def _next(self) -> np.ndarray:
        """The next 64-bit output of every live replicate."""
        out = self.a + self.b + self.counter
        self.counter += _ONE
        self.a = self.b ^ (self.b >> _U11)
        self.b = self.c + (self.c << _U3)
        self.c = ((self.c << _U24) | (self.c >> _U40)) + out
        return out

    def random(self) -> np.ndarray:
        """The next uniform in [0, 1) of every live replicate."""
        return (self._next() >> _U11) * 2.0**-53

    def keep(self, live: np.ndarray) -> None:
        """Drop the replicates where ``live`` is False."""
        self.a, self.b, self.c = self.a[live], self.b[live], self.c[live]


def simulate_chain(
    spec: ModelSpec,
    start_dist: Sequence[float],
    horizon: float,
    caps: ChainCaps,
    rng: np.random.Generator,
    _table: Optional[_RateTable] = None,
) -> ChainTrajectory:
    """Simulate one path up to the horizon or a cap.

    ``start_dist[n-1]`` is the probability of starting at shell n (an
    energy profile normalised to one).  Holding times use inverse-CDF
    sampling so trajectories are a pure function of the generator state.
    Cap hits are data, not errors: the path status records them.
    """
    table = _table or _RateTable(spec, caps.max_level)
    pos = int(_sample_start(_start_cdf(start_dist), rng.random()))
    t = 0.0
    times = [0.0]
    states = [pos]
    status = "alive"
    for _ in range(caps.max_jumps):
        if pos > caps.max_level:
            status = "exploded"
            break
        rate = table.pi[pos - 1]
        if rate <= 0.0:
            status = "absorbed"
            break
        t += -math.log(rng.random()) / rate
        if t > horizon:
            break
        pos = int(table.targets[pos - 1, (table.cum[pos - 1] <= rng.random()).sum()])
        times.append(t)
        states.append(pos)
    else:
        status = "exploded"
    return ChainTrajectory(times=np.array(times), states=np.array(states), status=status)


@dataclass(frozen=True, eq=False)
class SurvivalEstimate:
    times: np.ndarray
    survival: np.ndarray
    se: np.ndarray
    survival_monotone: np.ndarray
    occupancy: np.ndarray  # (T, levels) estimated P(position = n, alive)
    occupancy_se: np.ndarray
    replicates: int
    # replicate status at the horizon; the four counts sum to ``replicates``
    alive: int  # still below the level cap
    absorbed: int  # stopped at a shell with no outgoing rate
    exploded_level: int  # passed the level cap
    exploded_jumpcap: int  # made max_jumps jumps without passing the level cap
    jumps: int  # jumps made over all replicates

    def status_counts(self) -> dict[str, int]:
        names = ("alive", "absorbed", "exploded_level", "exploded_jumpcap", "jumps")
        return {name: getattr(self, name) for name in names}


def survival_curve(
    spec: ModelSpec,
    start_dist: Sequence[float],
    tgrid: Sequence[float],
    replicates: int,
    caps: ChainCaps,
    seed: int = 0,
) -> SurvivalEstimate:
    """Monte Carlo survival probability and occupancy histogram.

    ``survival[t]`` estimates the probability that the path is still alive
    (finitely many jumps, below the level cap) at time t, with binomial
    standard errors.  The monotone copy is the running minimum, for
    reporting; survival events are nested so the true curve cannot rise.

    Replicate ``rep`` is the path ``simulate_chain`` draws from that
    replicate's generator (keyed as ``_ReplicateStreams`` states), except
    that holding times use ``np.log`` where it uses ``math.log``.  The two
    can differ in the last bit, which changes a count only when a jump
    lands within one ulp of a grid time.  The replicates' uniforms (the
    start draw, then a holding-time draw and a target draw per jump) come
    from ``_ReplicateStreams``, which gives the values of those generators
    without building them.  ``replicates``
    must be at least 1.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    t = np.asarray(tgrid, dtype=float)
    horizon = float(t.max())
    if t.min() < 0.0:
        raise ValueError("grid times must be non-negative")
    start = _start_cdf(start_dist)
    table = _RateTable(spec, caps.max_level)
    levels = caps.max_level
    grid, slot = np.unique(t, return_inverse=True)
    G = len(grid)
    # a replicate holding at shell n over grid indices [lo, hi) adds +1 at
    # (lo, n) and -1 at (hi, n); a cumulative sum over the grid gives the counts
    changes = np.zeros((G + 1, levels), dtype=np.int64)
    level = absorbed = alive = capped = jumps = 0
    for first in range(0, replicates, _BATCH):
        streams = _ReplicateStreams(seed, range(first, min(first + _BATCH, replicates)))
        pos = _sample_start(start, streams.random())
        clock = np.zeros(len(pos))
        lo = np.zeros(len(pos), dtype=np.int64)  # first grid index not yet recorded
        for _ in range(caps.max_jumps):
            if not len(pos):
                break
            over = pos > levels
            row = np.minimum(pos, levels) - 1
            rate = table.pi[row]
            dead = ~over & (rate <= 0.0)
            hold, target_u = streams.random(), streams.random()
            with np.errstate(divide="ignore"):
                arrive = clock + -np.log(hold) / rate
            cross = ~over & ~dead & (arrive > horizon)
            hi = np.searchsorted(grid, arrive)  # G when crossing or absorbed (arrive = inf)
            hi[over] = lo[over]
            held = hi > lo
            cell = pos[held] - 1
            np.add.at(changes, (lo[held], cell), 1)
            np.subtract.at(changes, (hi[held], cell), 1)
            live = ~(over | dead | cross)
            level += int(over.sum())
            absorbed += int(dead.sum())
            alive += int(cross.sum())
            jumps += int(live.sum())
            row, target_u = row[live], target_u[live]
            streams.keep(live)
            pos = table.targets[row, (table.cum[row] <= target_u[:, None]).sum(-1)]
            clock, lo = arrive[live], hi[live]
        beyond = int((pos > levels).sum())
        level += beyond
        capped += len(pos) - beyond
    occ_counts = np.cumsum(changes, axis=0)[slot]
    alive_counts = occ_counts.sum(axis=1)
    p = alive_counts / replicates
    se = np.sqrt(p * (1.0 - p) / replicates)
    occ = occ_counts / replicates
    occ_se = np.sqrt(occ * (1.0 - occ) / replicates)
    return SurvivalEstimate(
        times=t,
        survival=p,
        se=se,
        survival_monotone=np.minimum.accumulate(p),
        occupancy=occ,
        occupancy_se=occ_se,
        replicates=replicates,
        alive=alive,
        absorbed=absorbed,
        exploded_level=level,
        exploded_jumpcap=capped,
        jumps=jumps,
    )
