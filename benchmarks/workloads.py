"""The four workloads: inputs drawn from the seed, one closed-loop operation, output checks.

Each workload is a closed loop on one thread: ``op(i)`` returns before
``op(i + 1)`` starts.  The inputs of operation i are a pure function of
(workload seed, i), so the traced run can replay the first operations of
the timed run exactly, and its counters repeat bit for bit.  A timed run
cycles through the seed's first ``distinct_ops`` operations until its time
is up, so ``attempted`` and ``failed`` depend on the seed alone, not on how
many operations fit in the time.

Failures are counted per operation unit, never raised:

- ensembles: a path.  It fails if it aborts, or if the ensemble's output
  check fails (then every path of that run counts).
- ``triangulate``: one triangulation.  It fails on a nonzero exit or a pass
  fraction below 0.95.
- ``dissipation_sweep``: one forward solve (preset, lambda, N).  It fails if
  it raises, or if its mass leaves [0, 1], rises in t, or falls with N,
  each beyond 1e-10.

``malformed`` marks output that could not be checked at all (unparsable, of
the wrong shape, or contradicting the program's own flags); it makes the
run's ``correct`` false.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from prepare import ENSEMBLE_SHELLS, setup
from tracing import Hooks, SolveLog

MASS_TOL = 1e-10  # the tolerance `shellsde dissipation` uses for mass_monotone_in_N
CHECK_SIGMAS = 5.0  # statistical checks: a false failure once in ~1.7e6 runs


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    malformed: bool = False
    work: int = 0  # path-steps on the ensembles, forward solves on the sweep
    calls_ms: list = field(default_factory=list)  # latency of each CLI call
    errors: list = field(default_factory=list)

    def verdict(self) -> tuple:
        """What a repeat of the same inputs must reproduce."""
        return self.attempted, self.failed, self.malformed, tuple(self.errors)


def op_seed(seed: int, i: int) -> int:
    """Program seed of operation i: a pure function of (workload seed, i)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _error(exc: BaseException) -> str:
    """Exception summary with numbers masked, so that failures of one kind group together."""
    return f"{type(exc).__name__}: " + re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", str(exc))[:120]


def call_cli(argv: list[str]) -> tuple[object, str, float]:
    """Run ``shellsde.cli.main`` in process; returns (exit code or exception, stdout, seconds)."""
    from shellsde import cli

    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # counted as a failed operation, the loop goes on
        rc = exc
    return rc, buf.getvalue(), perf_counter() - t0


class Workload:
    name = ""
    why = ""
    rate = None  # name of the work-per-second metric, if any
    numeric_share = 1.0  # share of time in large-array numpy work (see speed.py)
    trace_ops = 1  # operations replayed under tracing
    distinct_ops = 1  # distinct inputs per seed; a timed run makes each at least once

    def __init__(self, seed: int):
        self.seed = seed
        self.hooks = Hooks()
        self.specs = setup(self.name)

    def warmup(self) -> None:
        """One untimed operation, so lazy set-up is done before timing."""
        self.op(2**20)

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        self.hooks.restore()


class Ensemble(Workload):
    """One ``run_ensemble`` call of P = 10^4 paths in one block, N = 10, dt = 1e-4."""

    rate = "path_steps_per_s"
    paths = 10_000
    dt = 1e-4
    steps = 0
    which = ""
    weights = None
    x0 = None

    def op(self, i: int) -> Outcome:
        from shellsde import sde

        (spec,) = self.specs.values()
        T = self.steps * self.dt
        out = Outcome(attempted=self.paths, work=self.paths * self.steps)
        try:
            es = sde.run_ensemble(
                spec,
                self.x0,
                N=ENSEMBLE_SHELLS,
                dt=self.dt,
                T=T,
                paths=self.paths,
                which=self.which,
                scheme="split",
                seed=op_seed(self.seed, i),
                record_times=[T],
                weight_direction=self.weights,
                block_size=self.paths,
            )
        except Exception as exc:
            out.failed = self.paths
            out.errors.append(_error(exc))
            return out
        out.failed = es.aborted
        stats = (es.mean_sq, es.se_sq, es.energy_mean, es.energy_se, es.weight_mean, es.weight_se)
        if es.mean_sq.shape != (1, ENSEMBLE_SHELLS) or not all(np.isfinite(a).all() for a in stats):
            out.malformed = True
            return out
        problem = self.check(es)
        if problem:
            out.failed = self.paths
            out.errors.append(problem)
        return out

    def check(self, es) -> str:
        """The ensemble energy E|X_T|^2 equals the initial energy 1 up to the statistical error.

        The transport and the conservative noise preserve energy; only the
        flux through the top shell (negligible at these horizons) and the
        O(dt) splitting bias move it.
        """
        if np.any(es.mean_sq < 0.0):
            return "negative second moment"
        e, se = float(es.energy_mean[0]), float(es.energy_se[0])
        if abs(e - 1.0) > CHECK_SIGMAS * se + 1e-3:
            return f"energy {e:.6f} +- {se:.2e} is not 1"
        return ""


class GirsanovEnsemble(Ensemble):
    name = "girsanov_ensemble"
    why = (
        "acceptance-8 shape (novikov, d=1, linear split with QtoP weights): noise draw, "
        "split kernel and Girsanov ledger share each step; chain and moments are idle"
    )
    steps = 50
    numeric_share = 0.9  # noise, step and ledger spans; the rest is loop bookkeeping
    trace_ops = 6
    distinct_ops = 16
    which = "linear"
    weights = "QtoP"
    x0 = [1.0]

    def check(self, es) -> str:
        """The Girsanov density is a martingale: its mean is 1; reweighted energy is 1."""
        w, se = float(es.weight_mean[0]), float(es.weight_se[0])
        if not se > 0.0 or abs(w - 1.0) > CHECK_SIGMAS * se:
            return f"weight mean {w:.6f} +- {se:.2e} is not 1"
        return super().check(es)


class GoyEnsemble(Ensemble):
    name = "goy_nonlinear_ensemble"
    why = (
        "GOY, d=2, nonlinear split without weights: the generic einsum transport and "
        "diffusion dominate a step on a slab larger than L2; the ledger is idle"
    )
    steps = 6
    numeric_share = 1.0  # the step kernel alone takes over 90%
    trace_ops = 3
    distinct_ops = 8
    which = "nonlinear"
    x0 = [[1.0, 0.0]]


class Triangulate(Workload):
    """``shellsde triangulate`` at its CLI defaults with fewer SDE paths."""

    name = "triangulate"
    why = (
        "the three-route oracle end to end through the CLI CSV writer; the only workload "
        "where the jump chain (survival_curve) does real work, about half of it"
    )
    numeric_share = 0.2  # the chain is interpreter-bound, and so are 900-path SDE steps
    paths = 900  # SDE paths, so the SDE and the chain (default 10^4 replicates) take about half each
    distinct_ops = 3  # a ~9 s call: a median of 3, not a mean of 2, at --seconds 20
    times = 3  # rows per shell in the CSV: default --times 0.25,0.5,1.0
    nmax = 10  # default --nmax

    def warmup(self) -> None:
        call_cli(["triangulate", "--model", "novikov", "--paths", "20", "--replicates", "50"])

    def op(self, i: int) -> Outcome:
        argv = ["triangulate", "--model", "novikov", "--seed", str(op_seed(self.seed, i))]
        rc, text, _ = call_cli(argv + ["--paths", str(self.paths)])
        out = Outcome(attempted=1)
        if isinstance(rc, BaseException) or rc != 0:
            out.failed = 1
            out.errors.append(_error(rc) if isinstance(rc, BaseException) else f"exit code {rc}")
            if rc != 1:
                return out
        lines = text.splitlines()
        try:
            config = json.loads(lines[0].removeprefix("# config: "))
            frac = float(config["pass_fraction"])
            rows = [ln for ln in lines[2:] if ln and not ln.startswith("triangulation:")]
        except (IndexError, KeyError, ValueError) as exc:
            out.malformed = True
            out.errors.append(_error(exc))
            return out
        if len(rows) != self.times * self.nmax:
            out.malformed = True
        if frac < 0.95 and not out.failed:
            out.failed = 1
            out.errors.append(f"pass fraction {frac:.3f} < 0.95")
        return out


class DissipationSweep(Workload):
    """Rounds of in-process ``dissipation`` and ``constants`` calls, novikov then GOY."""

    name = "dissipation_sweep"
    why = (
        "the forward solve and decay constants (moments) at N up to 60 over lambda drawn "
        "from [1.5, 3], which varies the stiffness of Q; SDE and chain are idle"
    )
    rate = "solves_per_s"
    numeric_share = 0.2  # argument parsing, Python loops over shells, small eigensolves
    shells_list = "10,20,30,40,60"
    lam_range = (1.5, 3.0)
    trace_ops = 8
    distinct_ops = 200  # 400 lambda draws, 2000 forward solves

    def __init__(self, seed: int):
        super().__init__(seed)
        from shellsde import moments

        self.solves = SolveLog()
        self.hooks.wrap(moments, "solve_forward", self.solves.wrap)

    def presets(self, i: int) -> list[str]:
        rng = np.random.default_rng(op_seed(self.seed, i))
        lam_nov, lam_goy = (float(lam) for lam in rng.uniform(*self.lam_range, size=2))
        return [
            f"novikov:lambda={lam_nov!r},sigma=1",
            f"goy:a=1,b=-1.5,c=0.5,lambda={lam_goy!r},sigma_tilde=1",
        ]

    def op(self, i: int) -> Outcome:
        out = Outcome(attempted=0)
        for preset in self.presets(i):
            self.dissipation(preset, out)
            self.constants(preset, out)
        out.work = out.attempted
        return out

    def dissipation(self, preset: str, out: Outcome) -> None:
        self.solves.entries.clear()
        rc, text, secs = call_cli(["dissipation", "--model", preset, "--shells-list", self.shells_list, "--paths", "0"])
        out.calls_ms.append(1e3 * secs)
        if isinstance(rc, BaseException) and not any(exc is rc for _, _, exc in self.solves.entries):
            out.errors.append(_error(rc))
        elif isinstance(rc, int) and rc != 0:
            out.errors.append(f"dissipation exit code {rc}")
        if self.hooks.missing:  # no solve log: count from the JSON document alone
            self._count_from_document(rc, text, out)
            return
        prev = None
        monotone = True
        for N, mass, exc in self.solves.entries:
            out.attempted += 1
            if exc is not None:
                out.failed += 1
                out.errors.append(f"{_error(exc)} (N={N})")
                continue
            falls = prev is not None and bool(np.any(mass + MASS_TOL < prev))
            monotone &= not falls
            checks = {
                "falls with N": falls,
                "leaves [0, 1]": mass.min() < -MASS_TOL or mass.max() > 1.0 + MASS_TOL,
                "rises in t": np.any(np.diff(mass) > MASS_TOL),
            }
            problems = [name for name, bad in checks.items() if bad]
            if problems:
                out.failed += 1
                out.errors.append(f"mass {', '.join(problems)} (N={N})")
            prev = mass
        if rc == 0:
            try:
                if json.loads(text)["mass_monotone_in_N"] != monotone:
                    out.malformed = True
            except (KeyError, ValueError):
                out.malformed = True

    def _count_from_document(self, rc, text: str, out: Outcome) -> None:
        n = len(self.shells_list.split(","))
        out.attempted += n
        if rc != 0:
            out.failed += n
            return
        doc = json.loads(text)
        out.failed += sum(not -MASS_TOL <= m <= 1.0 + MASS_TOL for m in doc["mass_final"].values())
        out.failed += not doc["mass_monotone_in_N"]

    def constants(self, preset: str, out: Outcome) -> None:
        rc, text, secs = call_cli(["constants", "--model", preset, "--shells", "30"])
        out.calls_ms.append(1e3 * secs)
        try:
            doc = json.loads(text) if rc == 0 else {}
            ok = all(math.isfinite(doc[k]) and doc[k] > 0.0 for k in ("nu", "mu", "C"))
            ok = ok and doc["sigma_invariance"]["rel_diff"] <= 1e-8
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            out.malformed = True
            out.errors.append(f"constants check failed: {_error(rc) if isinstance(rc, BaseException) else rc}")


WORKLOADS = {w.name: w for w in (GirsanovEnsemble, GoyEnsemble, Triangulate, DissipationSweep)}
