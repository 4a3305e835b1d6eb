"""Command-line orchestration of the canonical experiments.

Subcommands: validate, simulate, moments, chain, constants, triangulate,
dissipation.  Every output file embeds the configuration it was produced
from, so a run is reproducible from the file alone; no timestamps are
written and rerunning a command with the same arguments yields
byte-identical output.

Exit codes: 0 success, 1 check failure, 2 usage or parse error (also for a
model file that :func:`algebra.validate_model` rejects).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import algebra, chain, modelio, moments, sde

__all__ = ["main", "main_entry"]


def _config_of(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_csv(path: Optional[str], config: dict, columns: Sequence[str], rows) -> None:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row))
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


def _start_vector(spec: algebra.ModelSpec, N: int, shell: int, energy: float) -> np.ndarray:
    x0 = np.zeros((N, spec.d))
    x0[shell - 1, 0] = math.sqrt(energy)
    return x0


def _record_times(horizon: float, fractions: Sequence[float], dt: float, flag: str) -> list[float]:
    """Times k * dt, k the step count nearest each fraction of ``horizon``; two equal counts are an error naming ``flag``."""
    if not dt > 0.0:
        raise ValueError(f"--dt must be positive, got {dt}")
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
    rows = []
    for ti, t in enumerate(stats.times):
        for n in range(1, args.shells + 1):
            rows.append(
                (
                    float(t),
                    n,
                    float(stats.mean_sq[ti, n - 1]),
                    float(stats.se_sq[ti, n - 1]),
                    float(stats.energy_mean[ti]),
                    float(stats.ess[ti]),
                )
            )
    _write_csv(args.out, _config_of(args), ["t", "n", "mean_sq", "se", "energy_mean", "ess"], rows)
    if stats.aborted:
        print(f"warning: {stats.aborted} of {stats.paths} paths aborted", file=sys.stderr)
    return 0


def _time_grid(spec: algebra.ModelSpec, N: int, horizon: float, points: int, kind: str) -> np.ndarray:
    """``points`` times from 0 to ``horizon``: evenly spaced, or 0 then a geometric run up from ~1/pi_N."""
    least = 2 if kind == "linear" else 3
    if points < least:
        raise ValueError(f"--points must be at least {least} for a {kind} grid ending at the horizon, got {points}")
    if kind == "linear":
        return np.linspace(0.0, horizon, points)
    tmin = min(1.0 / (10.0 * spec.pi_n(N)), horizon / 10.0)
    grid = np.geomspace(tmin, horizon, points - 1)
    return np.concatenate([[0.0], grid])


def cmd_moments(args) -> int:
    spec = _load(args.model)
    _check_shell("--start-shell", args.start_shell, args.shells)
    Q = moments.build_qmatrix(spec, args.shells)
    tgrid = _time_grid(spec, args.shells, args.horizon, args.points, args.grid)
    u0 = _start_vector(spec, args.shells, args.start_shell, args.energy)
    u0 = (u0 * u0).sum(axis=1)
    sol = moments.solve_forward(Q, u0, tgrid)
    rows = []
    for ti, t in enumerate(sol.times):
        for n in range(1, args.shells + 1):
            rows.append((float(t), n, float(sol.u[ti, n - 1]), float(sol.mass[ti])))
    _write_csv(args.out, _config_of(args), ["t", "n", "moment", "mass"], rows)
    return 0


def cmd_chain(args) -> int:
    spec = _load(args.model)
    caps = chain.ChainCaps(max_jumps=args.max_jumps, max_level=args.max_level)
    _check_shell("--start-shell", args.start_shell, args.max_level)
    tgrid = _time_grid(spec, args.max_level, args.horizon, args.points, "linear")
    start = np.zeros(args.max_level)
    start[args.start_shell - 1] = 1.0
    est = chain.survival_curve(spec, start, tgrid, replicates=args.replicates, caps=caps, seed=args.seed)
    rows = []
    for ti, t in enumerate(est.times):
        for n in range(1, args.max_level + 1):
            rows.append(
                (
                    float(t),
                    float(est.survival[ti]),
                    float(est.se[ti]),
                    n,
                    float(est.occupancy[ti, n - 1]),
                    float(est.occupancy_se[ti, n - 1]),
                )
            )
    _write_csv(
        args.out,
        {**_config_of(args), "status": est.status_counts()},
        ["t", "survival", "survival_se", "n", "occupancy", "occupancy_se"],
        rows,
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
    dc = moments.decay_constants(spec, args.energy, args.shells)
    import dataclasses

    spec2 = dataclasses.replace(spec, sigma=2.0 * spec.sigma)
    dc2 = moments.decay_constants(spec2, args.energy, args.shells)
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


def _cell_pass(a: float, se_a: float, b: float, se_b: float, floor: float) -> tuple[float, bool]:
    diff = abs(a - b)
    comb = math.hypot(se_a, se_b)
    z = diff / comb if comb > 0 else (0.0 if diff <= floor else math.inf)
    return z, bool(z <= 3.0 or diff <= floor)


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
    times = [float(s) for s in args.times.split(",")]
    N = args.shells
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
    rows = []
    npass = 0
    ncells = 0
    for ti, t in enumerate(times):
        for n in range(1, args.nmax + 1):
            if n <= n_sde:
                a, sa = float(ens.mean_sq[ti, n - 1]), float(ens.se_sq[ti, n - 1])
            else:
                a, sa = 0.0, 0.0
            b = float(sol.u[ti, n - 1])
            c = float(surv.occupancy[ti, n - 1]) * x_norm_sq
            sc = float(surv.occupancy_se[ti, n - 1]) * x_norm_sq
            z_ab, ok_ab = _cell_pass(a, sa, b, 0.0, floor)
            z_ac, ok_ac = _cell_pass(a, sa, c, sc, floor)
            z_bc, ok_bc = _cell_pass(b, 0.0, c, sc, floor)
            ok = ok_ab and ok_ac and ok_bc
            ncells += 1
            npass += ok
            rows.append(
                (
                    t,
                    n,
                    a,
                    sa,
                    b,
                    c,
                    sc,
                    float(min(z_ab, 1e6)),
                    float(min(z_ac, 1e6)),
                    float(min(z_bc, 1e6)),
                    int(ok),
                )
            )
    frac = npass / ncells
    _write_csv(
        args.out,
        {**_config_of(args), "pass_fraction": frac},
        [
            "t",
            "n",
            "sde_moment",
            "sde_se",
            "ode_moment",
            "chain_moment",
            "chain_se",
            "z_sde_ode",
            "z_sde_chain",
            "z_ode_chain",
            "cell_pass",
        ],
        rows,
    )
    print(f"triangulation: {npass}/{ncells} cells agree pairwise within 3 SE ({frac:.1%})")
    if ens.aborted:
        print(f"warning: {ens.aborted} SDE paths aborted", file=sys.stderr)
    return 0 if frac >= 0.95 else 1


def cmd_dissipation(args) -> int:
    if args.paths < 0:
        raise ValueError(f"--paths must be >= 0 (0 disables the reweighted ensemble), got {args.paths}")
    spec = _load(args.model)
    Ns = [int(s) for s in args.shells_list.split(",")]
    Nmax = max(Ns)
    _check_shell("--start-shell", args.start_shell, *Ns, *([args.sde_shells] if args.paths > 0 else []))
    tgrid = _time_grid(spec, Nmax, args.horizon, args.points, "geometric")
    curves = {}
    for N in Ns:
        Q = moments.build_qmatrix(spec, N)
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
        ctrl = sde.run_ensemble(
            spec,
            _start_vector(spec, args.sde_shells, args.start_shell, args.energy),
            N=args.sde_shells,
            dt=args.dt,
            T=max(rec),
            paths=1,
            which="nonlinear",
            scheme="conservative",
            seed=args.seed + 1,
            record_times=rec,
        )
        reweight["conservative_control_energy"] = [float(v) for v in ctrl.energy_mean]
    doc = {
        "config": _config_of(args),
        "constants": dc.as_dict(),
        "fitted_tail_rate": fitted_rate,
        "rate_bound_sigma2_over_mu": rate_bound,
        "rate_ratio": None if fitted_rate is None else fitted_rate / rate_bound,
        "threshold": threshold,
        "mass_monotone_in_N": mono_ok,
        "mass_final": {str(N): float(curves[N].mass[-1]) for N in Ns},
        "warnings": warnings,
    }
    if reweight is not None:
        doc["reweighted_nonlinear"] = reweight
    _write_json(args.out, doc)
    if args.curves_out:
        rows = []
        for N in Ns:
            for ti, t in enumerate(tgrid):
                rows.append((N, float(t), float(curves[N].mass[ti])))
        _write_csv(args.curves_out, _config_of(args), ["N", "t", "mass"], rows)
    for w in warnings:
        print("warning: " + w, file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
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
    p.add_argument("--dt", type=_finite_float, default=1e-4)
    p.add_argument("--horizon", type=_finite_float, default=1.0)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--scheme", choices=sde.SCHEMES, default="em")
    p.add_argument("--record", type=int, default=11, help="number of record times")
    p.add_argument("--weights", choices=["PtoQ", "QtoP"], default=None)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("moments", help="solve the second-moment forward equation")
    _add_common(p)
    p.add_argument("--shells", type=int, default=20)
    p.add_argument("--horizon", type=_finite_float, default=3.0)
    p.add_argument("--grid", choices=["geometric", "linear"], default="geometric")
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("chain", help="simulate the jump chain and survival curve")
    _add_common(p, seed=True)
    p.add_argument("--replicates", type=int, default=2000)
    p.add_argument("--horizon", type=_finite_float, default=2.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--max-level", type=int, default=60)
    p.add_argument("--max-jumps", type=int, default=100_000)
    p.add_argument("--start-shell", type=int, default=1)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("constants", help="exponential-decay constants")
    _add_common(p)
    p.add_argument("--shells", type=int, default=30)
    p.add_argument("--energy", type=_finite_float, default=1.0, help="initial squared norm")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("triangulate", help="compare SDE, forward-ODE and chain moments")
    _add_common(p, seed=True, threads=True)
    p.add_argument("--shells", type=int, default=15)
    p.add_argument("--sde-shells", type=int, default=0, help="SDE truncation (0 = deepest resolvable at dt)")
    p.add_argument("--dt", type=_finite_float, default=1e-4)
    p.add_argument("--paths", type=int, default=10_000)
    p.add_argument("--replicates", type=int, default=10_000)
    p.add_argument("--times", default="0.25,0.5,1.0")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--scheme", choices=sde.SCHEMES, default="em")
    p.add_argument("--max-level", type=int, default=40)
    p.add_argument("--max-jumps", type=int, default=200_000)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("dissipation", help="mass-loss evidence and decay-rate bound")
    _add_common(p, seed=True, threads=True)
    p.add_argument("--shells-list", default="10,15,20")
    p.add_argument("--horizon", type=_finite_float, default=3.0)
    p.add_argument("--points", type=int, default=80)
    p.add_argument("--start-shell", type=int, default=1)
    p.add_argument("--energy", type=_finite_float, default=1.0)
    p.add_argument("--paths", type=int, default=0, help="reweighted SDE paths (0 disables)")
    p.add_argument("--sde-shells", type=int, default=8)
    p.add_argument("--dt", type=_finite_float, default=1e-4)
    p.add_argument("--reweight-horizon", type=_finite_float, default=0.6)
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
    except (ValueError, sde.NumericalBlowupError) as exc:  # model and usage errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
