"""Command-line orchestration of the canonical experiments.

Subcommands: validate, simulate, moments, chain, constants, triangulate,
dissipation.  Every output file embeds the configuration it was produced
from, so a run is reproducible from the file alone; no timestamps are
written and rerunning a command with the same arguments yields
byte-identical output.

Exit codes: 0 success, 1 check failure, 2 usage or parse error (also for a
model file that :func:`algebra.validate_model` rejects) and every route's
refusal: bad input raises ``ValueError`` (rates past the float range name
their shell), a numerical failure ``algebra.NumericalBlowupError``.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import algebra, chain, modelio, moments, sde
from .noise import MAX_SHELLS

__all__ = ["main", "main_entry"]


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_csv(path: Optional[str], config: dict, **columns) -> None:
    """The config line, a header of the column names, and one row per cell of the columns broadcast together.

    Each keyword is a column, in order; its array is typically (time x
    shell), with a (T, 1) array for a per-time value and an (S,) array
    for a per-shell one.  Rows run over the cells in C order, and each
    value is written as Python's ``repr`` of its float or int.
    """
    cells = [a.ravel().tolist() for a in np.broadcast_arrays(*columns.values())]
    lines = ["# config: " + json.dumps(config, sort_keys=True), ",".join(columns)]
    lines += [",".join(map(repr, row)) for row in zip(*cells)]
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path: Optional[str], doc: dict) -> None:
    _emit(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(ref: str) -> algebra.ModelSpec:
    """The model of ``ref``; a model file must pass :func:`algebra.validate_model`, as every preset does."""
    spec = modelio.load_model(ref)
    if ref.partition(":")[0] not in modelio.PRESETS:
        failed = algebra.validate_model(spec).failed()
        if failed:
            raise ValueError(f"model {ref!r} fails validation: {', '.join(c.name for c in failed)}")
    return spec


def _check_shell(flag: str, shell: int, *levels: int) -> None:
    """Reject a shell (the value of ``flag``) outside 1..min(levels), the shortest array it indexes."""
    top = min(levels)
    if not 1 <= shell <= top:
        raise ValueError(f"{flag} must be in 1..{top}, got {shell}")


def _list_flag(flag: str, text: str, kind: type) -> list:
    """The comma-separated items of ``text`` (the value of ``flag``) as ``kind``; an empty item is an error."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of {kind.__name__} values, got {text!r}") from None


def _start_vector(spec: algebra.ModelSpec, N: int, shell: int, energy: float) -> np.ndarray:
    x0 = np.zeros((N, spec.d))
    x0[shell - 1, 0] = math.sqrt(energy)
    return x0


def _record_times(horizon: float, fractions: Sequence[float], dt: float, flag: str) -> list[float]:
    """Times k * dt, k the step count nearest each fraction of ``horizon``; two equal counts are an error naming ``flag``."""
    steps = [round(f * horizon / dt) for f in fractions]
    for k0, k1 in zip(steps, steps[1:]):
        if k0 == k1:
            raise ValueError(f"{flag} merges two record points at --dt {dt!r}: both are step {k0}, time {k0 * dt!r}")
    return [k * dt for k in steps]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        spec = modelio.load_model(args.model)
    except modelio.ModelRejectedError as exc:
        # parameters parsed but violate a construction precondition
        _write_json(args.out, {"config": _config_of(args), "report": {"accepted": False, "reason": str(exc)}})
        return 1
    report = algebra.validate_model(spec)
    doc = {"config": _config_of(args), "report": report.as_dict()}
    _write_json(args.out, doc)
    return 0 if report.accepted else 1


def cmd_simulate(args) -> int:
    spec = _load(args.model)
    _check_shell("--shells", args.shells, MAX_SHELLS)
    _check_shell("--start-shell", args.start_shell, args.shells)
    if args.record < 2:
        raise ValueError(f"--record must be at least 2 (t = 0 and the horizon), got {args.record}")
    times = _record_times(args.horizon, [k / (args.record - 1) for k in range(args.record)], args.dt, "--record")
    stats = sde.run_ensemble(
        spec,
        _start_vector(spec, args.shells, args.start_shell, args.energy),
        N=args.shells,
        dt=args.dt,
        T=args.horizon,
        paths=args.paths,
        which=args.system,
        scheme=args.scheme,
        seed=args.seed,
        record_times=times,
        weight_direction=args.weights,
        threads=args.threads,
    )
    _write_csv(
        args.out,
        _config_of(args),
        t=stats.times[:, None],
        n=np.arange(1, args.shells + 1),
        mean_sq=stats.mean_sq,
        se=stats.se_sq,
        energy_mean=stats.energy_mean[:, None],
        ess=stats.ess[:, None],
    )
    if stats.aborted:
        print(f"warning: {stats.aborted} of {stats.paths} paths aborted", file=sys.stderr)
    return 0


def _time_grid(spec: algebra.ModelSpec, N: int, horizon: float, points: int, kind: str) -> np.ndarray:
    """``points`` times from 0 to ``horizon``: evenly spaced, or 0 then a geometric run up from
    min(1/(10 pi_N), horizon/10), or from horizon/10 when nothing leaves shell N (pi_N = 0)."""
    least = 2 if kind == "linear" else 3
    if points < least:
        raise ValueError(f"--points must be at least {least} for a {kind} grid ending at the horizon, got {points}")
    if kind == "linear":
        return np.linspace(0.0, horizon, points)
    pi = spec.pi_n(N)
    tmin = min(1.0 / (10.0 * pi), horizon / 10.0) if pi > 0.0 else horizon / 10.0
    grid = np.geomspace(tmin, horizon, points - 1)
    return np.concatenate([[0.0], grid])


def cmd_moments(args) -> int:
    spec = _load(args.model)
    _check_shell("--shells", args.shells, MAX_SHELLS)
    _check_shell("--start-shell", args.start_shell, args.shells)
    Q = moments.build_qmatrix(spec, args.shells)
    tgrid = _time_grid(spec, args.shells, args.horizon, args.points, args.grid)
    u0 = _start_vector(spec, args.shells, args.start_shell, args.energy)
    u0 = (u0 * u0).sum(axis=1)
    sol = moments.solve_forward(Q, u0, tgrid)
    n = np.arange(1, args.shells + 1)
    _write_csv(args.out, _config_of(args), t=sol.times[:, None], n=n, moment=sol.u, mass=sol.mass[:, None])
    return 0


def cmd_chain(args) -> int:
    spec = _load(args.model)
    caps = chain.ChainCaps(max_jumps=args.max_jumps, max_level=args.max_level)
    _check_shell("--start-shell", args.start_shell, args.max_level)
    tgrid = _time_grid(spec, args.max_level, args.horizon, args.points, "linear")
    start = np.zeros(args.max_level)
    start[args.start_shell - 1] = 1.0
    est = chain.survival_curve(spec, start, tgrid, replicates=args.replicates, caps=caps, seed=args.seed)
    _write_csv(
        args.out,
        {**_config_of(args), "status": est.status_counts()},
        t=est.times[:, None],
        survival=est.survival[:, None],
        survival_se=est.se[:, None],
        n=np.arange(1, args.max_level + 1),
        occupancy=est.occupancy,
        occupancy_se=est.occupancy_se,
    )
    return 0


def _threshold_for(spec: algebra.ModelSpec) -> Optional[float]:
    meta = spec.meta
    if meta.get("preset") in ("goy", "sabra"):
        return moments.smallness_threshold_goy_sabra(
            float(meta["a"]), float(meta["c"]), spec.lam, spec.sigma
        )
    return None


def cmd_constants(args) -> int:
    spec = _load(args.model)
    if args.shells < 1:  # no upper end: the constants are not held to MAX_SHELLS
        raise ValueError(f"--shells must be >= 1, got {args.shells}")
    dc = moments.decay_constants(spec, args.energy, args.shells)
    try:  # the copy's rates overflow a shell earlier than the model's
        dc2 = moments.decay_constants(dataclasses.replace(spec, sigma=2.0 * spec.sigma), args.energy, args.shells)
    except ValueError as exc:
        raise ValueError(f"sigma-invariance check at 2 sigma: {exc}") from None
    rel = abs(dc2.mu - dc.mu) / abs(dc.mu)
    threshold = _threshold_for(spec)
    doc = {
        "config": _config_of(args),
        "nu": dc.nu,
        "Lambda": dc.Lambda,
        "mu": dc.mu,
        "C": dc.C,
        "rho": dc.rho,
        "theta_max": dc.theta_max,
        "threshold": threshold,
        "sigma_invariance": {"mu_at_2sigma": dc2.mu, "rel_diff": rel},
        "converged": dc.converged,
        "tail_rel_change": dc.tail_rel_change,
    }
    if not dc.converged:
        doc["warnings"] = [
            f"occupation times not converged at N={args.shells} (rel change {dc.tail_rel_change:.2e} when N -> N+5)"
        ]
        print("warning: " + doc["warnings"][0], file=sys.stderr)
    _write_json(args.out, doc)
    return 0


def _cell_pass(a: float, se_a: float, b: float, se_b: float, floor: float) -> tuple[float, int]:
    """z-score of one cell of two routes, capped at 1e6, and 1 where it is <= 3 or the difference <= ``floor``."""
    diff = abs(a - b)
    comb = math.hypot(se_a, se_b)
    z = diff / comb if comb > 0 else (0.0 if diff <= floor else math.inf)
    return min(z, 1e6), int(z <= 3.0 or diff <= floor)


def _pair_pass(a, se_a, b, se_b, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_cell_pass` on Python floats, cell by cell, over arrays broadcast to the shape of ``a``."""
    cells = zip(*(x.ravel().tolist() for x in np.broadcast_arrays(a, se_a, b, se_b)))
    z, ok = zip(*(_cell_pass(*cell, floor) for cell in cells))
    return np.reshape(z, a.shape), np.reshape(ok, a.shape)


def sde_resolvable_shells(spec: algebra.ModelSpec, dt: float, nmax: int) -> int:
    """Deepest truncation whose total jump rate is resolvable at step dt.

    Holding times at shell n are of order 1 / pi_n; an explicit step can only
    represent shells with pi_n * dt <= 1.  Deeper shells hold a fraction of
    the second-moment mass that is below Monte Carlo resolution anyway.
    """
    resolved = algebra.jump_rates(spec, nmax).pi[1:] * dt <= 1.0
    return 1 + int(np.cumprod(resolved).sum())


def cmd_triangulate(args) -> int:
    spec = _load(args.model)
    algebra.require_identity_grams(spec)
    caps = chain.ChainCaps(max_jumps=args.max_jumps, max_level=args.max_level)
    if args.replicates < 1:  # before the SDE leg runs
        raise ValueError(f"--replicates must be at least 1, got {args.replicates}")
    times = _list_flag("--times", args.times, float)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError(f"--times must be finite and nonnegative, got {args.times!r}")
    N = args.shells
    _check_shell("--shells", N, MAX_SHELLS)
    if args.sde_shells:
        _check_shell("--sde-shells", args.sde_shells, MAX_SHELLS)
    n_sde = args.sde_shells or sde_resolvable_shells(spec, args.dt, N)
    _check_shell("--start-shell", args.start_shell, n_sde, N, args.max_level)
    _check_shell("--nmax", args.nmax, N, args.max_level)
    x0 = _start_vector(spec, min(n_sde, N), args.start_shell, args.energy)
    x_norm_sq = float((x0 * x0).sum())

    ens = sde.run_ensemble(
        spec,
        x0,
        N=n_sde,
        dt=args.dt,
        T=max(times),
        paths=args.paths,
        which="linear",
        scheme=args.scheme,
        seed=args.seed,
        record_times=times,
        threads=args.threads,
    )
    u0 = np.zeros(N)
    u0[args.start_shell - 1] = args.energy
    Q = moments.build_qmatrix(spec, N)
    sol = moments.solve_forward(Q, u0, times)
    start = np.zeros(args.max_level)
    start[args.start_shell - 1] = 1.0
    surv = chain.survival_curve(spec, start, times, replicates=args.replicates, caps=caps, seed=args.seed + 1)
    floor = x_norm_sq * 4.0 / min(args.paths, args.replicates)  # MC resolution floor
    nmax = args.nmax
    a, sa = (np.pad(m[:, :nmax], ((0, 0), (0, max(0, nmax - n_sde)))) for m in (ens.mean_sq, ens.se_sq))
    b = sol.u[:, :nmax]
    c, sc = (m[:, :nmax] * x_norm_sq for m in (surv.occupancy, surv.occupancy_se))
    z_ab, ok_ab = _pair_pass(a, sa, b, 0.0, floor)
    z_ac, ok_ac = _pair_pass(a, sa, c, sc, floor)
    z_bc, ok_bc = _pair_pass(b, 0.0, c, sc, floor)
    ok = ok_ab & ok_ac & ok_bc
    npass, ncells = int(ok.sum()), ok.size
    frac = npass / ncells
    _write_csv(
        args.out,
        {**_config_of(args), "pass_fraction": frac},
        t=np.array(times)[:, None],
        n=np.arange(1, nmax + 1),
        sde_moment=a,
        sde_se=sa,
        ode_moment=b,
        chain_moment=c,
        chain_se=sc,
        z_sde_ode=z_ab,
        z_sde_chain=z_ac,
        z_ode_chain=z_bc,
        cell_pass=ok,
    )
    print(f"triangulation: {npass}/{ncells} cells agree pairwise within 3 SE ({frac:.1%})")
    if ens.aborted:
        print(f"warning: {ens.aborted} SDE paths aborted", file=sys.stderr)
    return 0 if frac >= 0.95 else 1


def cmd_dissipation(args) -> int:
    if args.paths < 0:
        raise ValueError(f"--paths must be >= 0 (0 disables the reweighted ensemble), got {args.paths}")
    spec = _load(args.model)
    Ns = _list_flag("--shells-list", args.shells_list, int)
    Nmax = max(Ns)
    for N in Ns:
        _check_shell("--shells-list", N, MAX_SHELLS)
    if args.paths > 0:
        _check_shell("--sde-shells", args.sde_shells, MAX_SHELLS)
    _check_shell("--start-shell", args.start_shell, *Ns, *([args.sde_shells] if args.paths > 0 else []))
    Qs = [moments.build_qmatrix(spec, N) for N in Ns]  # refuses rates past the float range before pi_N is read
    tgrid = _time_grid(spec, Nmax, args.horizon, args.points, "geometric")
    curves = {}
    for N, Q in zip(Ns, Qs):
        u0 = np.zeros(N)
        u0[args.start_shell - 1] = args.energy
        curves[N] = moments.solve_forward(Q, u0, tgrid)
    dc = moments.decay_constants(spec, args.energy, Nmax)
    solmax = curves[Nmax]
    rate_bound = spec.sigma**2 / dc.mu
    threshold = _threshold_for(spec)
    warnings = []
    if dc.rho >= 1.0:
        warnings.append(
            f"rho = {dc.rho:.3g} >= 1: the exponential decay statement under the "
            "original measure is outside the proven regime for this initial energy"
        )
    # tail rate over the grid times t >= horizon/3 whose mass is above roundoff; a line needs 2 of them
    mask = (tgrid >= args.horizon / 3.0) & (solmax.mass > moments.MASS_TOL * args.energy)
    fitted_rate = None
    if mask.sum() >= 2:
        fitted_rate = -float(np.polyfit(tgrid[mask], np.log(solmax.mass[mask]), 1)[0])
    else:
        warnings.append(
            f"no tail rate fitted: fewer than 2 grid times t >= horizon/3 have a mass at N={Nmax} "
            "above MASS_TOL times the initial mass"
        )
    mono_ok = True
    Ns_sorted = sorted(Ns)
    for small, big in zip(Ns_sorted, Ns_sorted[1:]):
        if np.any(curves[big].mass + moments.MASS_TOL * args.energy < curves[small].mass):
            mono_ok = False
    reweight = None
    if args.paths > 0:
        rec = _record_times(args.reweight_horizon, [0.25, 0.5, 0.75, 1.0], args.dt, "--reweight-horizon")
        stats = sde.run_ensemble(
            spec,
            _start_vector(spec, args.sde_shells, args.start_shell, args.energy),
            N=args.sde_shells,
            dt=args.dt,
            T=max(rec),
            paths=args.paths,
            which="linear",
            scheme="split",
            seed=args.seed,
            record_times=rec,
            weight_direction="QtoP",
            threads=args.threads,
        )
        reweight = {
            "times": [float(t) for t in stats.times],
            "energy_mean": [float(v) for v in stats.energy_mean],
            "energy_se": [float(v) for v in stats.energy_se],
            "ess": [float(v) for v in stats.ess],
        }
    doc = {
        "config": _config_of(args),
        "constants": dc.as_dict(),
        "fitted_tail_rate": fitted_rate,
        "rate_bound_sigma2_over_mu": rate_bound,
        "rate_ratio": None if fitted_rate is None else fitted_rate / rate_bound,
        "asymptotic_rate": solmax.decay_rate,
        "asymptotic_rate_ratio": solmax.decay_rate / rate_bound,
        "threshold": threshold,
        "mass_monotone_in_N": mono_ok,
        "mass_final": {str(N): float(curves[N].mass[-1]) for N in Ns},
        "warnings": warnings,
    }
    if reweight is not None:
        doc["reweighted_nonlinear"] = reweight
    _write_json(args.out, doc)
    if args.curves_out:
        masses = np.array([curves[N].mass for N in Ns])
        _write_csv(args.curves_out, _config_of(args), N=np.array(Ns)[:, None], t=tgrid, mass=masses)
    for w in warnings:
        print("warning: " + w, file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _positive_float(text: str) -> float:
    """argparse type of every float flag (dt, a horizon, an energy): NaN, +-inf and values <= 0 are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser, seed: bool = False, threads: bool = False):
    """``--model`` and ``--out``, plus ``--seed`` and ``--threads`` where the subcommand reads them."""
    p.add_argument("--model", required=True, help="model file path or preset expression")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if threads:
        p.add_argument("--threads", type=int, default=1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process, since parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="shellsde", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the interaction algebra of a model")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble of the truncated SDE")
    _add_common(p, seed=True, threads=True)
    p.add_argument("--system", choices=sde.SYSTEMS, default="linear")
    p.add_argument("--shells", type=int, default=10)
    p.add_argument("--dt", type=_positive_float, default=1e-4)
    p.add_argument("--horizon", type=_positive_float, default=1.0)
    p.add_argument("--paths", type=int, default=1000)
    # em blows up at the default 10 shells and dt; split is stable at any dt
    p.add_argument("--scheme", choices=sde.SCHEMES, default="split")
    p.add_argument("--record", type=int, default=11, help="number of record times")
    p.add_argument("--weights", choices=["PtoQ", "QtoP"], default=None)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("moments", help="solve the second-moment forward equation")
    _add_common(p)
    p.add_argument("--shells", type=int, default=20)
    p.add_argument("--horizon", type=_positive_float, default=3.0)
    p.add_argument("--grid", choices=["geometric", "linear"], default="geometric")
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("chain", help="simulate the jump chain and survival curve")
    _add_common(p, seed=True)
    p.add_argument("--replicates", type=int, default=2000)
    p.add_argument("--horizon", type=_positive_float, default=2.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--max-level", type=int, default=60)
    p.add_argument("--max-jumps", type=int, default=100_000)
    p.add_argument("--start-shell", type=int, default=1)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("constants", help="exponential-decay constants")
    _add_common(p)
    p.add_argument("--shells", type=int, default=30)
    p.add_argument("--energy", type=_positive_float, default=1.0, help="initial squared norm")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("triangulate", help="compare SDE, forward-ODE and chain moments")
    _add_common(p, seed=True, threads=True)
    p.add_argument("--shells", type=int, default=15)
    p.add_argument("--sde-shells", type=int, default=0, help="SDE truncation (0 = deepest resolvable at dt)")
    p.add_argument("--dt", type=_positive_float, default=1e-4)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--times", default="0.25,0.5,1.0")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--scheme", choices=sde.SCHEMES, default="em")
    p.add_argument("--max-level", type=int, default=40)
    p.add_argument("--max-jumps", type=int, default=200_000)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("dissipation", help="mass-loss evidence and decay-rate bound")
    _add_common(p, seed=True, threads=True)
    p.add_argument("--shells-list", default="10,15,20")
    p.add_argument("--horizon", type=_positive_float, default=3.0)
    p.add_argument("--points", type=int, default=80)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_positive_float, default=1.0)
    p.add_argument("--paths", type=int, default=0, help="reweighted SDE paths (0 disables)")
    p.add_argument("--sde-shells", type=int, default=8)
    p.add_argument("--dt", type=_positive_float, default=1e-4)
    p.add_argument("--reweight-horizon", type=_positive_float, default=0.6)
    p.add_argument("--curves-out", default=None)
    p.set_defaults(func=cmd_dissipation)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, sde.NumericalBlowupError) as exc:  # the one refusal path of every route
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
