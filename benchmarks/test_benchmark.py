"""Self-test of the benchmark (about three minutes; not part of the tier-1 suite).

    python3 -m pytest -q benchmarks/test_benchmark.py

Checks that the exact counters of the traced run repeat bit for bit across
two runs with one seed, that a timed run's failure counts depend on the seed
alone, that the ensemble layer times add up to the
``run_ensemble`` span, that BENCHMARK.json matches what the runner prints,
and that the runner refuses to run without the package sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from prepare import ROOT, SETUPS
from run import OUT_DIR, unit_of

RUN = [sys.executable, str(ROOT / "benchmarks" / "run.py")]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# counters that must repeat exactly; the last two are computed from array shapes
EXACT = (
    "algebra.tables",
    "noise.normals",
    "sde.steps",
    "sde.paths",
    "sde.aborted",
    "chain.replicates",
    "chain.jumps",
    "chain.alive",
    "chain.absorbed",
    "chain.exploded_level",
    "chain.exploded_jumpcap",
    "moments.build_q_calls",
    "moments.solve_calls",
    "moments.solve_errors",
    "moments.constants_calls",
    "cli.calls",
    "trace.spans",
    "noise.read_frac",
    "sde.bytes_per_step",
)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    result = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace1.json").read_text())
    assert result["correct"] and last["attempted"] == result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def twice() -> dict:
    return {w: (traced(w, 3), traced(w, 3)) for w in SETUPS}


@pytest.mark.parametrize("workload", list(SETUPS))
def test_counters_repeat_exactly(twice, workload):
    a, b = twice[workload]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert {k: a["metrics"][k] for k in EXACT} == {k: b["metrics"][k] for k in EXACT}
    assert a["metrics"]["trace.missing"] == 0


@pytest.mark.parametrize("workload", ["girsanov_ensemble", "goy_nonlinear_ensemble"])
def test_ensemble_layers_add_up(twice, workload):
    m = twice[workload][0]["metrics"]
    parts = m["noise.draw_s"] + m["sde.step_s"] + m["sde.ledger_s"] + m["sde.loop_self_s"]
    assert math.isclose(parts, m["sde.run_ensemble_s"], rel_tol=1e-9)
    assert m["sde.steps"] > 0 and m["noise.normals"] > 0


def test_each_ensemble_shows_its_layer_split(twice):
    girsanov = twice["girsanov_ensemble"][0]["metrics"]
    goy = twice["goy_nonlinear_ensemble"][0]["metrics"]
    assert girsanov["sde.ledger_ms"] > 0.0
    assert goy["sde.ledger_ms"] == 0.0
    shares = ("noise.draw_share", "sde.step_share", "sde.ledger_share", "sde.loop_self_share")
    assert max(shares, key=goy.get) == "sde.step_share"


def test_idle_layers_are_zero(twice):
    assert twice["dissipation_sweep"][0]["metrics"]["sde.steps"] == 0
    assert twice["dissipation_sweep"][0]["metrics"]["chain.replicates"] == 0
    assert twice["triangulate"][0]["metrics"]["chain.replicates"] == 10_000
    for w in ("girsanov_ensemble", "goy_nonlinear_ensemble"):
        assert twice[w][0]["metrics"]["moments.solve_calls"] == 0


def test_timed_failure_counts_depend_on_seed_only():
    """Timed runs of different lengths count failures over the same distinct operations."""
    counts = []
    for seconds in ("1", "4"):
        proc = subprocess.run(
            RUN + ["--workload", "dissipation_sweep", "--seed", "5", "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        last = json.loads(proc.stdout.splitlines()[-1])
        assert last["correct"]
        counts.append((last["attempted"], last["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][1] > 0  # the eigh defect of ROADMAP item 4 shows at this commit


def test_declaration_matches_runner():
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [(n, w.why) for n, w in WORKLOADS.items()]
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert m["unit"] == unit_of(m["name"]), m["name"]
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}


def test_refuses_without_sources():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(f, bare / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "girsanov_ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
