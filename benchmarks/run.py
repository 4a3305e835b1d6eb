"""Benchmark of shellsde's three routes to the second moments.

Run from the repository root:

    python3 benchmarks/run.py --workload girsanov_ensemble --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays the first operations of the same input sequence with spans around
every module boundary and reports the per-layer metrics.  Every metric is
printed by name with its unit, together with the run environment; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics that BENCHMARK.json
names).  Results and spans are also written under ``.bench_out/``.
See benchmarks/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from prepare import ROOT, SETUPS, SRC

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = 1  # at most nproc; one thread keeps the single-threaded loop steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # set-up children per run; setup_s is their median
MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it

# unit of a metric, from the end of its name; anything else is a count
SUFFIX_UNITS = (
    ("_ms", "ms"),
    ("_s", "s"),
    ("_mb", "MB"),
    ("_per_s", "1/s"),
    ("ns_per_normal", "ns"),
    ("us_per_replicate", "us"),
    ("us_per_jump", "us"),
    ("read_frac", "frac_computed"),
    ("bytes_per_step", "B_computed"),
    ("_frac", "frac"),
    ("_share", "frac"),
    ("_ratio", "ratio"),
)


def unit_of(name: str) -> str:
    matches = [(len(suffix), unit) for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)]
    return max(matches)[1] if matches else "count"


def median_and_tail(samples: list[float]) -> tuple[float, float | None]:
    """Median and the 90th percentile, the latter only with MIN_TAIL samples beyond it."""
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= 10 * MIN_TAIL else None
    return statistics.median(samples), p90


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "shellsde").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_ENV[0]]),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def setup_seconds(name: str) -> float:
    """Set-up time of one fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def closed_loop(wl, ops, seconds: float = 0.0) -> tuple[list[tuple[float, float]], list]:
    """Run ``ops`` one after another, or cycle through the workload's distinct operations.

    Without ``ops`` the loop makes operations 0, 1, ..., ``wl.distinct_ops`` - 1,
    0, 1, ... until ``seconds`` have passed and each distinct operation has run
    once.  Returns the (start, end) time of each operation and the outcomes.
    The last operation always completes.
    """
    intervals, outcomes = [], []
    start = perf_counter()
    for i in ops if ops is not None else itertools.count():
        if ops is None:
            if i >= wl.distinct_ops and perf_counter() - start >= seconds:
                break
            i %= wl.distinct_ops
        t0 = perf_counter()
        outcomes.append(wl.op(i))
        intervals.append((t0, perf_counter()))
    return intervals, outcomes


def first_outcomes(wl, outcomes: list) -> list:
    """Outcomes of the distinct operations; a repeat that disagrees marks its first run malformed."""
    first = outcomes[: wl.distinct_ops]
    for j, o in enumerate(outcomes[wl.distinct_ops :]):
        f = first[j % wl.distinct_ops]
        if o.verdict() != f.verdict() and not f.malformed:
            f.malformed = True
            f.errors.append("a repeat of the same inputs gave another outcome")
    return first


def end_to_end(wl, seconds: float) -> tuple[dict, list]:
    from speed import SpeedTrack

    setups = [setup_seconds(wl.name) for _ in range(SETUP_REPEATS)]
    wl.warmup()
    with SpeedTrack() as track:
        intervals, outcomes = closed_loop(wl, None, seconds)
    raw, scaled = zip(*(track.scaled(t0, t1, wl.numeric_share) for t0, t1 in intervals))
    first = first_outcomes(wl, outcomes)
    attempted = sum(o.attempted for o in first)
    failed = sum(o.failed for o in first)
    m = {
        "wall_s": statistics.median(scaled),
        # Set-up is not speed-scaled: loading shared libraries and byte code
        # tracks neither reference kernel, and scaling made its spread wider.
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_raw_s": statistics.median(raw),
        "speed_ratio": track.speed_ratio(),
        "ops": len(raw),
        "fail_frac": failed / attempted if attempted else 1.0,
    }
    if wl.rate:
        m[wl.rate] = sum(o.work for o in outcomes) / sum(raw)
    calls = [ms for o in outcomes for ms in o.calls_ms]
    if calls:
        p50, p90 = median_and_tail(calls)
        m["calls"] = len(calls)
        m["call_p50_ms"] = p50
        if p90 is not None:
            m["call_p90_ms"] = p90
    return m, first


def per_layer(wl, seed: int) -> tuple[dict, list]:
    """Traced replay of the first operations; raw times, since probes would land inside spans."""
    from prepare import setup
    from tracing import Hooks, Tracer

    wl.warmup()
    ops = range(wl.trace_ops)
    untraced, _ = closed_loop(wl, ops)
    tracer, hooks = Tracer(), Hooks()
    tracer.install(hooks)
    try:
        setup(wl.name)
        traced, outcomes = closed_loop(wl, ops)
    finally:
        hooks.restore()
    m = tracer.layer_metrics()
    missing = hooks.missing + sorted(tracer.missing)
    m["trace.missing"] = len(missing)
    m["trace.wall_s"] = statistics.median(t1 - t0 for t0, t1 in traced)
    m["trace.untraced_wall_s"] = statistics.median(t1 - t0 for t0, t1 in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{wl.name}-seed{seed}.spans.jsonl")
    if missing:
        print("missing spans or counters: " + ", ".join(missing))
    return m, outcomes


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    try:
        metrics, outcomes = per_layer(wl, seed) if trace else end_to_end(wl, seconds)
    finally:
        wl.close()
    errors: dict[str, int] = {}
    for o in outcomes:
        for e in o.errors:
            errors[e] = errors.get(e, 0) + 1
    result = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "trace": int(trace),
        "correct": not any(o.malformed for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
        "errors": dict(sorted(errors.items(), key=lambda kv: -kv[1])[:20]),
        "env": env,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"== {name} (seed {seed}, trace {int(trace)}): {wl.why}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for key, value in metrics.items():
        print(f"   {key:28s} {value:>16.6g} {unit_of(key)}")
    for err, count in result["errors"].items():
        print(f"   failure x{count}: {err}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*SETUPS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop (trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "shellsde" / "__init__.py").is_file():
        print(f"error: no shellsde sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    names = list(SETUPS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names]

    def pick(r):
        return {m: {"value": r["metrics"][m], "unit": unit_of(m)} for m in listed}

    if len(results) == 1:
        metrics = pick(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in pick(r).items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
