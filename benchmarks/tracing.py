"""Spans recorded from outside the package, around calls into each module.

Every span wraps a module-level callable that shellsde's entry points look
up at call time (``sde._step_batch``, ``chain.simulate_chain``, the
``moments.*`` calls made by ``cli``, ...).  The wrappers are installed on
the module attributes and removed again afterwards; ``src/`` is not edited.
A wrapped name that a later refactor removed is reported as missing, and
the run goes on without that span.

Spans are (name, start, end, parent, ok) tuples kept in memory; they are
written out once, when the run ends.  Self time is a span's duration
minus the part of it its child spans cover.  The program is single
threaded here, so children nest and never overlap, and coverage is the
sum of the child durations.
"""
from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

from prepare import import_shellsde


class Hooks:
    """Replaces module attributes by wrappers; ``restore`` puts the originals back."""

    def __init__(self):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


class SolveLog:
    """Keeps the mass curve (or the exception) of every forward solve.

    It records outputs, not times, so the untimed end-to-end run uses it
    too: a ``dissipation`` call that raises part way through still shows
    which of its solves succeeded and which one failed.
    """

    def __init__(self):
        self.entries: list[tuple[int, object, BaseException | None]] = []

    def wrap(self, fn):
        def solve_forward(Q, *args, **kwargs):
            try:
                sol = fn(Q, *args, **kwargs)
            except Exception as exc:
                self.entries.append((getattr(Q, "N", 0), None, exc))
                raise
            self.entries.append((getattr(Q, "N", 0), sol.mass, None))
            return sol

        return solve_forward


class _TimedGenerator:
    """Generator proxy whose ``standard_normal`` call is a span."""

    def __init__(self, gen, draw):
        self._gen = gen
        self._draw = draw

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._gen, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """In-memory span recorder plus the exact counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.computed: Counter = Counter()  # figures derived from array shapes
        self.missing: set[str] = set()  # counters a refactor broke
        self._stack: list[int] = []

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` counts its output."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, ok)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- installation ------------------------------------------------

    def install(self, hooks: Hooks) -> None:
        """Wrap every layer boundary of the package."""
        import_shellsde()
        from shellsde import chain, cli, modelio, moments, sde

        hooks.wrap(modelio, "load_model", lambda fn: self.timed("modelio.load", fn))
        hooks.wrap(sde, "CoefficientTable", lambda fn: self.timed("algebra.table", fn))
        hooks.wrap(chain, "_RateTable", lambda fn: self.timed("chain.ratetable", fn))
        hooks.wrap(sde, "slab_rng", self._keyed_noise)
        hooks.wrap(sde, "_weight_increment", lambda fn: self.timed("sde.ledger", fn))
        hooks.wrap(sde, "_step_batch", lambda fn: self.timed("sde.step", fn))
        hooks.wrap(sde, "run_ensemble", self._ensemble)
        hooks.wrap(
            chain,
            "simulate_chain",
            lambda fn: self.timed("chain.simulate", fn, lambda *a: self._guarded(self._count_chain, *a)),
        )
        hooks.wrap(chain, "survival_curve", lambda fn: self.timed("chain.survival", fn))
        hooks.wrap(moments, "build_qmatrix", lambda fn: self.timed("moments.build_q", fn))
        hooks.wrap(moments, "solve_forward", lambda fn: self.timed("moments.solve", fn))
        hooks.wrap(moments, "decay_constants", lambda fn: self.timed("moments.constants", fn))
        hooks.wrap(cli, "main", lambda fn: self.timed("cli.main", fn))

    def _keyed_noise(self, fn):
        keyed = self.timed("noise.key", fn)
        counts = self.counts

        def count_normals(args, kwargs, out):
            counts["noise.normals"] += out.size

        def standard_normal(gen, *args, **kwargs):
            return gen.standard_normal(*args, **kwargs)

        draw = self.timed("noise.draw", standard_normal, count_normals)

        def slab_rng(*args, **kwargs):
            return _TimedGenerator(keyed(*args, **kwargs), draw)

        return slab_rng

    def _ensemble(self, fn):
        sig = inspect.signature(fn)
        timed = self.timed("sde.run_ensemble", fn)

        def run_ensemble(*args, **kwargs):
            out = timed(*args, **kwargs)
            self._guarded(self._count_ensemble, sig.bind(*args, **kwargs), out)
            return out

        return run_ensemble

    def _guarded(self, count, *args) -> None:
        """Run a counter; a refactor that breaks it drops the figure, not the run."""
        try:
            count(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.missing.add(f"{count.__name__}: {type(exc).__name__}")

    def _count_ensemble(self, bound: inspect.BoundArguments, out) -> None:
        """Paths, aborts, normals drawn and read, and compulsory bytes per step (computed).

        The cells read are those the diffusion kernel and, when weights are
        accumulated, the Girsanov ledger index into the slab, taken from the
        interaction offsets as the kernels do.
        """
        self.counts["sde.aborted"] += int(out.aborted)
        self.counts["sde.paths"] += int(out.paths)
        bound.apply_defaults()
        a = bound.arguments
        spec, N, P = a["spec"], int(a["N"]), int(a["paths"])
        steps = int(round(a["T"] / a["dt"]))
        lo = 1 - spec.h_max_abs
        window = N + spec.h_max_abs - lo + 1
        star = list(spec.star_ids())
        cells = set()
        for it in spec.interactions:
            row = star.index(it.iid if it.iid in spec.istar else spec.pairing[it.iid])
            nlo, nhi = max(1, 1 - it.r), min(N, N - it.r)
            cells.update((row, m) for m in range(nlo + it.h - lo, nhi + it.h - lo + 1))
        if a["weight_direction"] is not None:
            for row, iid in enumerate(star):
                mlo = max(1, 1 + spec.interaction(iid).h)
                cells.update((row, m) for m in range(mlo - lo, N - lo + 1))
        drawn_per_path_step = len(star) * window * spec.d
        read_per_path_step = len(cells) * spec.d
        bytes_per_step = 8 * P * (drawn_per_path_step + 2 * N * spec.d)  # slab + state in + state out
        self.computed["noise.drawn"] += P * steps * drawn_per_path_step
        self.computed["noise.read"] += P * steps * read_per_path_step
        self.computed["sde.bytes"] += steps * bytes_per_step

    def _count_chain(self, args, kwargs, traj) -> None:
        caps = args[3] if len(args) > 3 else kwargs["caps"]
        c = self.counts
        c["chain.jumps"] += len(traj.times) - 1
        if traj.status == "exploded":
            c["chain.exploded_level" if traj.states[-1] > caps.max_level else "chain.exploded_jumpcap"] += 1
        else:
            c[f"chain.{traj.status}"] += 1

    # -- analysis ------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals, self times, counts and ratios from the recorded spans."""
        total = defaultdict(float)
        calls = Counter()
        errors = Counter()
        child = defaultdict(float)
        for name, t0, t1, parent, ok in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            errors[name] += not ok
            if parent >= 0:
                child[parent] += t1 - t0
        own = defaultdict(float)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += (t1 - t0) - child[idx]

        def per_call_ms(name):
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        c = self.counts
        run_s = total["sde.run_ensemble"]
        noise_s = total["noise.key"] + total["noise.draw"]
        steps = calls["sde.step"]
        step_s = own["sde.step"]
        ledger_s = own["sde.ledger"]
        loop_self_s = run_s - noise_s - step_s - ledger_s
        chain_s = total["chain.simulate"]
        return {
            "modelio.load_ms": per_call_ms("modelio.load"),
            "algebra.table_ms": per_call_ms("algebra.table"),
            "algebra.tables": calls["algebra.table"],
            "chain.ratetable_ms": per_call_ms("chain.ratetable"),
            "noise.draw_s": noise_s,
            "noise.key_s": total["noise.key"],
            "noise.normals": c["noise.normals"],
            "noise.ns_per_normal": ratio(noise_s, c["noise.normals"], 1e9),
            "noise.read_frac": ratio(self.computed["noise.read"], self.computed["noise.drawn"]),
            "noise.draw_share": ratio(noise_s, run_s),
            "sde.run_ensemble_s": run_s,
            "sde.steps": steps,
            "sde.step_s": step_s,
            "sde.step_ms": ratio(step_s, steps, 1e3),
            "sde.step_share": ratio(step_s, run_s),
            "sde.bytes_per_step": ratio(self.computed["sde.bytes"], steps),
            "sde.ledger_s": ledger_s,
            "sde.ledger_ms": ratio(ledger_s, steps, 1e3),
            "sde.ledger_share": ratio(ledger_s, run_s),
            "sde.loop_self_s": loop_self_s,
            "sde.loop_self_share": ratio(loop_self_s, run_s),
            "sde.paths": c["sde.paths"],
            "sde.aborted": c["sde.aborted"],
            "chain.replicates": calls["chain.simulate"],
            "chain.simulate_s": chain_s,
            "chain.us_per_replicate": ratio(chain_s, calls["chain.simulate"], 1e6),
            "chain.jumps": c["chain.jumps"],
            "chain.us_per_jump": ratio(chain_s, c["chain.jumps"], 1e6),
            "chain.survival_self_s": own["chain.survival"],
            "chain.alive": c["chain.alive"],
            "chain.absorbed": c["chain.absorbed"],
            "chain.exploded_level": c["chain.exploded_level"],
            "chain.exploded_jumpcap": c["chain.exploded_jumpcap"],
            "moments.build_q_ms": per_call_ms("moments.build_q"),
            "moments.build_q_calls": calls["moments.build_q"],
            "moments.solve_ms": per_call_ms("moments.solve"),
            "moments.solve_calls": calls["moments.solve"],
            "moments.solve_errors": errors["moments.solve"],
            "moments.constants_ms": per_call_ms("moments.constants"),
            "moments.constants_calls": calls["moments.constants"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": own["cli.main"],
            "trace.spans": len(self.spans),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end (seconds), parent index, ok."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, ok in self.spans:
                fh.write(json.dumps([name, t0, t1, parent, ok]) + "\n")
