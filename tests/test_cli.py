import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_model
from shellsde import moments, sde
from shellsde.algebra import BilinearMap
from shellsde.cli import _record_times, main
from shellsde.modelio import load_model


def read_out(path):
    return path.read_text()


def test_validate_preset_ok(capsys):
    assert main(["validate", "--model", "goy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["accepted"] is True


def test_validate_detects_perturbation(tmp_path, capsys):
    import dataclasses

    spec = load_model("goy")
    bad = dataclasses.replace(
        spec,
        interactions=tuple(
            dataclasses.replace(it, k=it.k + 1e-6) if it.iid == "2" else it
            for it in spec.interactions
        ),
    )
    path = tmp_path / "bad.json"
    save_model(bad, str(path))
    assert main(["validate", "--model", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in doc["report"]["checks"] if not c["passed"]]
    assert failed == ["k_cancellation"]


def test_parse_error_exit_code(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["validate", "--model", str(junk)]) == 2
    assert main(["nonsense"]) == 2


def test_validate_rejected_preset_is_check_failure(capsys):
    # violated sum constraint: the reference parses but the model is refused
    assert main(["validate", "--model", "goy:b=-1.4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["accepted"] is False
    assert "a + b + c" in doc["report"]["reason"]


def test_simulate_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate",
            "--model", "novikov",
            "--system", "linear",
            "--shells", "5",
            "--dt", "1e-3",
            "--horizon", "0.1",
            "--paths", "200",
            "--scheme", "em",
            "--seed", "4",
            "--record", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = read_out(out).strip().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "t,n,mean_sq,se,energy_mean,ess"
    assert len(lines) == 2 + 3 * 5


def test_simulate_rerun_byte_identical(tmp_path):
    args = [
        "simulate", "--model", "novikov", "--shells", "4", "--dt", "1e-3",
        "--horizon", "0.05", "--paths", "100", "--scheme", "em", "--seed", "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_out(a).replace(str(a), "X") == read_out(b).replace(str(b), "X")


def test_moments_csv(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["moments", "--model", "novikov", "--shells", "8", "--horizon", "1.0",
                 "--points", "10", "--out", str(out)]) == 0
    lines = read_out(out).strip().splitlines()
    assert lines[1] == "t,n,moment,mass"
    assert len(lines) == 2 + 10 * 8


def test_moments_rows_run_over_shells_within_each_time(tmp_path):
    # a square grid (5 times, 5 shells): swapped axes would still give 25 rows
    out = tmp_path / "m.csv"
    assert main(["moments", "--model", "novikov", "--shells", "5", "--points", "5", "--out", str(out)]) == 0
    lines = read_out(out).splitlines()
    assert lines[1] == "t,n,moment,mass"
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert [int(row[1]) for row in rows] == [1, 2, 3, 4, 5] * 5
    blocks = [rows[5 * i : 5 * i + 5] for i in range(5)]
    times = [block[0][0] for block in blocks]
    assert times[0] == 0.0 and times[-1] == 3.0 and times == sorted(set(times))
    for block in blocks:
        assert len({row[0] for row in block}) == 1 and len({row[3] for row in block}) == 1
        assert block[0][3] == pytest.approx(sum(row[2] for row in block), rel=1e-14)
    # at t = 0 the moment sits on the start shell
    assert rows[0][2] == pytest.approx(1.0) and max(row[2] for row in rows[1:5]) < 1e-12


def test_chain_csv(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["chain", "--model", "novikov", "--replicates", "300", "--horizon", "0.5",
                 "--points", "3", "--max-level", "30", "--out", str(out)]) == 0
    lines = read_out(out).strip().splitlines()
    assert lines[1] == "t,survival,survival_se,n,occupancy,occupancy_se"
    assert len(lines) == 2 + 3 * 30


def test_chain_header_status_counts(tmp_path):
    args = ["chain", "--model", "novikov", "--replicates", "200", "--horizon", "0.5",
            "--points", "3", "--max-level", "12", "--max-jumps", "25", "--seed", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read_out(a).replace(str(a), "X") == read_out(b).replace(str(b), "X")
    config = json.loads(read_out(a).splitlines()[0].removeprefix("# config: "))
    status = config["status"]
    assert set(status) == {"alive", "absorbed", "exploded_level", "exploded_jumpcap", "jumps"}
    assert sum(v for k, v in status.items() if k != "jumps") == 200
    assert status["exploded_level"] > 0 and status["exploded_jumpcap"] > 0


@pytest.mark.parametrize(
    "argv,top",
    [
        (["chain", "--max-level", "20", "--start-shell", "0"], 20),
        (["chain", "--max-level", "20", "--start-shell", "25"], 20),
        (["simulate", "--shells", "5", "--start-shell", "6"], 5),
        (["simulate", "--shells", "5", "--start-shell", "-1"], 5),
        (["moments", "--shells", "8", "--start-shell", "9"], 8),
        (["triangulate", "--shells", "10", "--sde-shells", "4", "--start-shell", "5"], 4),
        (["triangulate", "--shells", "10", "--max-level", "6", "--start-shell", "7"], 6),
        (["dissipation", "--shells-list", "8,12", "--start-shell", "9"], 8),
        (["dissipation", "--shells-list", "8,12", "--paths", "10", "--sde-shells", "4", "--start-shell", "5"], 4),
    ],
)
def test_start_shell_out_of_range_is_usage_error(argv, top, capsys):
    assert main(argv + ["--model", "novikov"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"1..{top}" in captured.err


@pytest.mark.parametrize(
    "argv,name",
    [
        (["simulate", "--paths", "0"], "paths"),
        (["simulate", "--dt", "0"], "dt"),
        (["simulate", "--dt=-1e-3"], "dt"),
        (["simulate", "--threads", "0"], "threads"),
        (["triangulate", "--paths", "0", "--replicates", "10"], "paths"),
        (["triangulate", "--dt", "0", "--paths", "10", "--replicates", "10"], "dt"),
        (["dissipation", "--paths", "10", "--dt", "0"], "dt"),
        (["dissipation", "--paths", "-1"], "paths"),
        (["chain", "--replicates", "0"], "replicates"),
        (["chain", "--replicates", "-3"], "replicates"),
        (["triangulate", "--replicates", "0", "--paths", "10"], "replicates"),
        (["chain", "--max-jumps", "0"], "max_jumps"),
        (["chain", "--max-level", "0"], "max_level"),
        (["triangulate", "--max-level", "0"], "max_level"),
        # every time grid ends at the horizon, so the dissipation tail fit has a point
        (["chain", "--points", "0"], "--points"),
        (["chain", "--points", "1"], "--points"),
        (["moments", "--points", "1"], "--points"),
        (["moments", "--points", "2"], "--points"),
        (["dissipation", "--points", "1"], "--points"),
        (["dissipation", "--points", "2"], "--points"),
        (["simulate", "--record", "0", "--paths", "10"], "--record"),
        (["simulate", "--record", "1", "--paths", "10"], "--record"),
        # two record points on one step of --dt, or closer than the time grid resolves
        (["dissipation", "--paths", "10", "--reweight-horizon", "1e-4", "--dt", "1e-4", "--sde-shells", "4"],
         "--reweight-horizon"),
        (["simulate", "--horizon", "1e-12", "--dt", "1e-13", "--record", "12"], "--record"),
        # the triangulation table has rows for shells 1..--nmax of the forward solve and the chain
        (["triangulate", "--nmax", "20", "--shells", "15", "--paths", "10", "--replicates", "10"], "--nmax"),
        (["triangulate", "--nmax", "12", "--max-level", "11", "--paths", "10", "--replicates", "10"], "--nmax"),
        (["triangulate", "--nmax", "0", "--paths", "10", "--replicates", "10"], "--nmax"),
        # a truncation level outside 1..MAX_SHELLS names its flag
        (["simulate", "--shells", "0"], "--shells must be in 1..64, got 0"),
        (["simulate", "--shells", "65"], "--shells must be in 1..64, got 65"),
        (["moments", "--shells", "65"], "--shells must be in 1..64, got 65"),
        (["triangulate", "--shells", "65", "--paths", "10", "--replicates", "10"], "--shells must be in 1..64, got 65"),
        (["triangulate", "--sde-shells", "65", "--paths", "10", "--replicates", "10"],
         "--sde-shells must be in 1..64, got 65"),
        (["dissipation", "--shells-list", "0,10"], "--shells-list must be in 1..64, got 0"),
        (["dissipation", "--shells-list", "10,65"], "--shells-list must be in 1..64, got 65"),
        (["dissipation", "--sde-shells", "0", "--paths", "10"], "--sde-shells must be in 1..64, got 0"),
        # the decay constants have no upper truncation level
        (["constants", "--shells", "0"], "--shells must be >= 1, got 0"),
        (["constants", "--shells", "-3"], "--shells must be >= 1, got -3"),
        # a list flag names itself for an empty item, a non-number, and a time that is not finite or is negative
        (["triangulate", "--times", ","], "--times"),
        (["triangulate", "--times", "0.5,x"], "--times"),
        (["triangulate", "--times", "0.5,nan"], "--times"),
        (["triangulate", "--times", "0.5,inf"], "--times"),
        (["triangulate", "--times=-0.5,0.5"], "--times"),
        (["dissipation", "--shells-list", "10,,20"], "--shells-list"),
        (["dissipation", "--shells-list", "10,2.5"], "--shells-list"),
        # refused before the SDE leg runs, at the default --paths
        (["triangulate", "--replicates", "-3"], "--replicates"),
        (["triangulate", "--replicates", "0"], "--replicates must be at least 1, got 0"),
    ],
)
def test_bad_ensemble_size_is_usage_error(argv, name, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("run_ensemble ran before the usage error")

    if name not in ("paths", "threads"):  # the ensemble refuses these itself; every other bad flag comes first
        monkeypatch.setattr(sde, "run_ensemble", must_not_run)
    assert main(argv + ["--model", "novikov"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if name == "dt":  # the parser's type refuses a float flag <= 0, after its usage line
        assert "error: argument --dt: expected a positive number" in captured.err
    else:
        assert captured.err.startswith("error: ") and name in captured.err


# the float flags of each subcommand, after arguments that keep a run short
FLOAT_FLAGS = {
    "simulate": (["--paths", "10", "--horizon", "0.01"], ("--dt", "--horizon", "--energy")),
    "moments": ([], ("--horizon", "--energy")),
    "chain": (["--replicates", "10"], ("--horizon",)),
    "constants": ([], ("--energy",)),
    "triangulate": (["--paths", "10", "--replicates", "10"], ("--dt", "--energy")),
    "dissipation": ([], ("--dt", "--horizon", "--energy", "--reweight-horizon")),
}


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "command,flag", [(command, flag) for command, (_, flags) in FLOAT_FLAGS.items() for flag in flags]
)
def test_non_finite_float_flag_is_usage_error(command, flag, value, capsys):
    # every float flag is a time step, a horizon or an energy, so 0 and below are usage errors too
    argv = [command, "--model", "novikov", *FLOAT_FLAGS[command][0], flag, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "a finite number" if value in ("nan", "inf") else "a positive number"
    assert f"error: argument {flag}: expected {expected}, got '{value}'" in captured.err


# short runs of each route subcommand, after --model
ROUTE_ARGS = {
    "simulate": ["--paths", "10", "--horizon", "0.01"],
    "moments": [],
    "chain": ["--replicates", "10"],
    "constants": [],
    "triangulate": ["--paths", "10", "--replicates", "10"],
    "dissipation": [],
}


@pytest.mark.parametrize("command", ROUTE_ARGS)
def test_route_rejects_model_file_failing_validation(command, tmp_path, capsys):
    path = tmp_path / "silent.json"
    save_model(dataclasses.replace(load_model("novikov"), sigma=0.0), str(path))
    assert main([command, "--model", str(path), *ROUTE_ARGS[command]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "noise_amplitude" in captured.err


@pytest.mark.parametrize("model", ["novikov", "goy", "sabra"])
def test_simulate_runs_at_its_defaults(model, capsys):
    # the default 10 shells at dt = 1e-4: every default but the horizon, which em could not pass either
    assert main(["simulate", "--model", model, "--horizon", "0.01"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[2:]]
    assert len(rows) == 11 * 10 and all(math.isfinite(float(v)) for row in rows for v in row)


def test_simulate_blowup_is_an_error_line(capsys):
    # N = 10 under em at dt = 1e-4 aborts every path
    argv = ["simulate", "--model", "novikov", "--scheme", "em", "--record", "3", "--paths", "200", "--horizon", "0.1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "split" in captured.err


def test_simulate_overflow_is_not_a_row_of_numbers(capsys):
    # em at N = 10, dt = 1e-4: the squared energies overflow before the states do
    code = main(["simulate", "--model", "novikov", "--scheme", "em", "--paths", "10", "--horizon", "0.01"])
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "aborted" in captured.err
    else:
        assert code == 0 and "paths aborted" in captured.err
        rows = [line.split(",") for line in captured.out.splitlines()[2:]]
        assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize(
    "argv,says",
    [
        # eigh's error at 26 rows makes the solution negative beyond roundoff
        (["moments", "--model", "novikov", "--shells", "26"], "forward solution went negative"),
        # k_eff passes the float range at shell 31
        (["simulate", "--model", "novikov:lambda=1e10", "--shells", "40", "--paths", "10", "--horizon", "0.001"],
         "effective coefficients overflow at shell 31"),
        (["chain", "--model", "novikov", "--max-level", "600"], "jump rates overflow at shell 512"),
        (["chain", "--model", "novikov:lambda=1e10"], "jump rates overflow at shell 16"),
        (["moments", "--model", "novikov:lambda=1e5", "--shells", "40"], "jump rates overflow at shell 31"),
        (["dissipation", "--model", "novikov:lambda=1e5", "--shells-list", "10,40"], "jump rates overflow at shell 31"),
    ],
)
def test_route_refusal_is_one_error_line(argv, says, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert says in captured.err


def test_split_scheme_runs_past_an_infinite_exit_rate(capsys):
    # pi_n overflows from shell 31 while k_eff stays finite; split damps those shells to zero
    argv = ["simulate", "--model", "novikov:lambda=1e5", "--shells", "40", "--scheme", "split", "--paths", "10"]
    assert main(argv + ["--horizon", "0.001", "--record", "2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 2 * 40 and all(math.isfinite(float(v)) for row in rows for v in row)


def test_record_points_on_distinct_tiny_steps_are_kept(capsys):
    # steps 0..10 of dt = 1e-13: no two record points share a step
    argv = ["simulate", "--model", "novikov", "--shells", "3", "--paths", "4", "--horizon", "1e-12", "--dt", "1e-13"]
    assert main(argv + ["--record", "11"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len({row.split(",")[0] for row in rows}) == 11


@given(
    st.floats(min_value=-15.0, max_value=0.0),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=2, max_value=60),
)
@settings(derandomize=True, max_examples=200)
def test_record_times_merge_only_on_equal_step_counts(exponent, k, points):
    # points evenly spread over k steps of dt: distinct steps when they are at least a step apart
    dt = 10.0**exponent
    fractions = [j / (points - 1) for j in range(points)]
    if points - 1 > k:  # more points than steps 0..k
        with pytest.raises(ValueError, match="merges two record points"):
            _record_times(k * dt, fractions, dt, "--record")
        return
    steps = sde._grid_steps(_record_times(k * dt, fractions, dt, "--record"), dt)
    assert steps[0] == 0 and steps[-1] == k
    assert all(k0 < k1 for k0, k1 in zip(steps, steps[1:]))
    assert all(abs(step - f * k) <= 0.5 + 1e-9 for step, f in zip(steps, fractions))


def test_triangulate_rejects_non_identity_grams(tmp_path, capsys):
    spec = load_model("goy")
    scaled = dataclasses.replace(
        spec,
        interactions=tuple(dataclasses.replace(it, B=BilinearMap(1.1 * it.B.entries)) for it in spec.interactions),
    )
    path = tmp_path / "goy_scaled.json"
    save_model(scaled, str(path))
    assert main(["triangulate", "--model", str(path), "--paths", "10", "--replicates", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "B B^T" in captured.err


def test_constants_rejects_non_identity_grams(goy_scaled, tmp_path, capsys):
    # the decay constants read the embedded chain, which the identity grams close
    path = tmp_path / "goy_scaled.json"
    save_model(goy_scaled, str(path))
    assert main(["constants", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "B B^T" in captured.err


def test_constants_json(capsys):
    assert main(["constants", "--model", "novikov", "--shells", "25", "--energy", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("nu", "Lambda", "mu", "C", "rho", "theta_max", "threshold", "sigma_invariance"):
        assert key in doc
    assert doc["threshold"] is None  # not a GOY/Sabra construction
    assert doc["sigma_invariance"]["rel_diff"] <= 1e-10
    assert doc["converged"] is True


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_constants_past_the_float_range_are_an_error(capsys):
    # novikov's rates pass the float range at shell 512, which the N + 5 probe of --shells 600 reads
    assert main(["constants", "--model", "novikov", "--shells", "600"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: jump rates overflow at shell 512") and "N = 600" in captured.err
    assert main(["constants", "--model", "novikov", "--shells", "300"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert all(math.isfinite(doc[key]) for key in ("nu", "Lambda", "mu", "C", "rho", "theta_max", "tail_rel_change"))
    assert doc["converged"] is True


def test_constants_name_a_shell_without_exit_rate(tmp_path, capsys):
    # every k = 0 passes validation, but nothing leaves any shell, so no occupation time is finite
    spec = load_model("novikov")
    still = dataclasses.replace(spec, interactions=tuple(dataclasses.replace(it, k=0.0) for it in spec.interactions))
    path = tmp_path / "still.json"
    save_model(still, str(path))
    assert main(["constants", "--model", str(path), "--shells", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: exit rate pi_n = 0 at shell 1") and "N = 5" in captured.err


def test_constants_say_when_the_2_sigma_copy_overflows(capsys):
    # novikov's own rates are finite through shell 511, those of its copy at 2 sigma only through 510
    assert main(["constants", "--model", "novikov", "--shells", "506"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sigma-invariance check at 2 sigma: jump rates overflow at shell 511")
    assert moments.decay_constants(load_model("novikov"), 1.0, 506).converged


def test_constants_threshold_for_goy(capsys):
    assert main(["constants", "--model", "goy", "--shells", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == pytest.approx(2.0539595906443733 * load_model("goy").sigma**2 / 1.0**2, rel=1e-6)


def test_triangulate_small(tmp_path, capsys):
    out = tmp_path / "tri.csv"
    code = main(
        [
            "triangulate", "--model", "novikov", "--shells", "10", "--dt", "5e-4",
            "--paths", "2000", "--replicates", "2000", "--times", "0.2,0.4",
            "--nmax", "4", "--seed", "3", "--max-level", "30", "--out", str(out),
        ]
    )
    assert code == 0
    lines = read_out(out).strip().splitlines()
    assert lines[1].startswith("t,n,sde_moment")
    assert len(lines) == 2 + 2 * 4
    assert "pass_fraction" in lines[0]


def test_dissipation_json(capsys):
    code = main(
        [
            "dissipation", "--model", "novikov", "--shells-list", "8,12",
            "--horizon", "2.0", "--points", "30",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mass_monotone_in_N"] is True
    assert doc["fitted_tail_rate"] >= 0.5 * doc["rate_bound_sigma2_over_mu"]
    assert doc["mass_final"]["12"] < 1.0


def test_dissipation_is_linear_in_the_energy(capsys):
    # the forward equation is linear, so its flags may not depend on the units of energy
    docs = {}
    for energy in (1e-8, 1.0, 1e8):
        argv = ["dissipation", "--model", "novikov", "--shells-list", "10,15,20", "--paths", "0"]
        assert main(argv + ["--energy", repr(energy)]) == 0
        docs[energy] = json.loads(capsys.readouterr().out)
    ref = docs[1.0]
    assert ref["mass_monotone_in_N"] is True
    for energy, doc in docs.items():
        assert doc["mass_monotone_in_N"] is ref["mass_monotone_in_N"]
        assert doc["constants"]["converged"] is ref["constants"]["converged"]
        assert doc["fitted_tail_rate"] == pytest.approx(ref["fitted_tail_rate"], rel=1e-12)
        for N, mass in ref["mass_final"].items():
            assert doc["mass_final"][N] == pytest.approx(energy * mass, rel=1e-12)


def test_dissipation_without_tail_mass_fits_no_rate(capsys):
    # every mass at t >= horizon/3 has underflowed to 0, so no point is left to fit
    code = main(["dissipation", "--model", "novikov", "--horizon", "1000", "--paths", "0"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["fitted_tail_rate"] is None and doc["rate_ratio"] is None
    assert doc["rate_bound_sigma2_over_mu"] > 0.0
    assert [w for w in doc["warnings"] if w.startswith("no tail rate fitted")]
    assert "warning: no tail rate fitted" in captured.err


@pytest.mark.parametrize("model", ["novikov", "goy"])
def test_dissipation_tail_fit_does_not_depend_on_the_energy(model, capsys):
    # the fit reads only masses above roundoff, so it scales out with the energy like every other flag
    docs = {}
    for energy in (1e-8, 1.0, 1e8):
        argv = ["dissipation", "--model", model, "--shells-list", "10,20,30,40,60", "--paths", "0"]
        assert main(argv + ["--energy", repr(energy)]) == 0
        docs[energy] = json.loads(capsys.readouterr().out)
    ref = docs[1.0]
    for doc in docs.values():
        for key in ("fitted_tail_rate", "rate_ratio"):
            assert doc[key] == pytest.approx(ref[key], rel=1e-9)
        fitted = [w for w in doc["warnings"] if w.startswith("no tail rate fitted")]
        assert fitted == [w for w in ref["warnings"] if w.startswith("no tail rate fitted")]


def test_dissipation_fits_no_rate_through_one_point(capsys):
    # at N = 60 the default grid has one time t >= horizon/3, and a line through one point is not determined
    code = main(["dissipation", "--model", "novikov", "--shells-list", "20,40,60", "--paths", "0"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["fitted_tail_rate"] is None and doc["rate_ratio"] is None
    assert [w for w in doc["warnings"] if w.startswith("no tail rate fitted")]
    assert "warning: no tail rate fitted" in captured.err


def test_dissipation_reports_the_asymptotic_rate_at_sixty_shells(capsys):
    # no tail is fitted at N = 60, but the asymptotic rate -lambda_max(Q) needs no fit
    code = main(["dissipation", "--model", "novikov", "--shells-list", "20,40,60", "--paths", "0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fitted_tail_rate"] is None
    assert doc["asymptotic_rate"] > 0.0
    assert doc["asymptotic_rate_ratio"] == doc["asymptotic_rate"] / doc["rate_bound_sigma2_over_mu"]


@pytest.mark.parametrize("model", ["novikov", "goy"])
def test_dissipation_asymptotic_rate_does_not_depend_on_the_energy(model, capsys):
    rates = set()
    for energy in (1e-8, 1.0, 1e8):
        argv = ["dissipation", "--model", model, "--shells-list", "20,40,60", "--paths", "0"]
        assert main(argv + ["--energy", repr(energy)]) == 0
        doc = json.loads(capsys.readouterr().out)
        rates.add((doc["asymptotic_rate"], doc["asymptotic_rate_ratio"]))
    assert len(rates) == 1


def test_dissipation_at_sixty_shells(capsys):
    # decay constants probe N + 5 = 65 shells, past MAX_SHELLS
    code = main(["dissipation", "--model", "novikov", "--shells-list", "20,60", "--paths", "0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["constants"]["N"] == 60


def test_dissipation_warns_outside_regime(capsys):
    # large initial energy pushes the smallness parameter past one
    code = main(
        [
            "dissipation", "--model", "novikov", "--shells-list", "8",
            "--horizon", "1.0", "--points", "20", "--energy", "25.0",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["warnings"]
    assert "rho" in captured.err


def test_dissipation_curves_out_runs_over_the_shells_list_then_the_grid(tmp_path, capsys):
    out = tmp_path / "mass.csv"
    argv = ["dissipation", "--model", "novikov", "--shells-list", "15,10,20", "--points", "12"]
    argv += ["--curves-out", str(out)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    text = read_out(out)
    lines = text.splitlines()
    assert lines[0].startswith("# config: ") and lines[1] == "N,t,mass"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(row[0]) for row in rows] == [N for N in (15, 10, 20) for _ in range(12)]
    times = [float(row[1]) for row in rows[:12]]
    assert times[0] == 0.0 and times[-1] == 3.0 and times == sorted(set(times))
    for i, N in enumerate((15, 10, 20)):
        block = rows[12 * i : 12 * i + 12]
        assert [float(row[1]) for row in block] == times
        assert float(block[0][2]) == pytest.approx(1.0) and float(block[-1][2]) == doc["mass_final"][str(N)]
    assert main(argv) == 0
    assert read_out(out) == text


def _output_digest():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_calls_parse_and_changes_name_their_fields():
    digest = _output_digest()
    from shellsde.cli import build_parser

    for _, call in digest.CALLS:
        build_parser().parse_args(call)
    csv = 'exit: 0\n--- stdout\n# config: {"seed": 1}\nt,n,mass\n0.0,1,1.0\n1.0,1,%r\nsummary\n--- stderr\n'
    assert digest.changes(csv % 0.5, csv % 0.5) == "same"
    assert digest.changes(csv % 0.5, csv % 0.5000000000000001) == "changed: mass 2.22e-16 (1.1e-16 of its largest)"
    # a file a call writes is a table of its own, whose fields carry the file's name
    curves = "--- file mass.csv\n# config: {}\nN,t,mass\n10,0.0,%r\n"
    old, new = csv % 0.5 + curves % 1.0, csv % 0.5 + curves % 0.5
    assert digest.changes(old, new) == "changed: mass.csv.mass 0.5 (0.5 of its largest)"
    assert digest.fields(old)["mass"] == [1.0, 0.5] and digest.fields(old)["mass.csv.N"] == [10.0]
    doc = 'exit: 0\n--- stdout\n{"a": {"b": [1.0, %r]}, "flag": %s}\n--- stderr\n%s'
    old, new = doc % (2.0, "true", ""), doc % (2.5, "false", "warning: x\n")
    assert digest.changes(old, new) == "changed: stderr differs, flag differs, a.b 0.2 (0.2 of its largest)"
