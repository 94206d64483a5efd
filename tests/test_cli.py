import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sddelab
from sddelab.cli import main

DIRAC0 = {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}]}


def test_analyze_packaged_config(capsys):
    assert main(["analyze", "--theta", "-0.5", "--measure", "dirac0.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "LAN"
    assert doc["v_star"] == pytest.approx(-0.5, abs=1e-9)
    assert doc["scaling"] == "T^-1/2"


def test_analyze_missing_measure_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--theta", "-0.5"])
    assert exc.value.code == 2


def test_analyze_unknown_measure_file(capsys):
    assert main(["analyze", "--theta", "-0.5", "--measure", "nope.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_kernel_csv(tmp_path):
    out = tmp_path / "kern.csv"
    code = main(
        ["kernel", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "2.0", "--dt", "0.01", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x0,y"
    t, x0, y = lines[-1].split(",")
    assert float(t) == pytest.approx(2.0)
    assert float(x0) == pytest.approx(np.exp(-1.0), abs=1e-5)
    assert float(y) == pytest.approx(np.exp(-1.0), abs=1e-5)


@pytest.mark.parametrize(
    "T, dt, said",
    [("1", "1e-320", "r/dt = inf"), ("1e12", "0.5", "a grid of 2000000000003 nodes exceeds the cap")],
)
def test_kernel_refuses_a_grid_it_cannot_hold(capsys, T, dt, said):
    # a usage error (exit 2) naming the value, not a traceback
    code = main(["kernel", "--theta", "-0.5", "--measure", "dirac0.json", "--T", T, "--dt", dt])
    assert code == 2
    err = capsys.readouterr().err
    assert said in err and "Traceback" not in err


def test_simulate_then_estimate_roundtrip(tmp_path):
    path_csv = tmp_path / "path.csv"
    args = [
        "simulate", "--theta", "-0.5", "--measure", "dirac0.json",
        "--T", "50.0", "--dt", "0.01", "--x0", "constant:1.0",
        "--seed", "7", "--out", str(path_csv),
    ]
    assert main(args) == 0
    est_json = tmp_path / "est.json"
    assert main(["estimate", "--path", str(path_csv), "--theta", "-0.5", "--out", str(est_json)]) == 0
    doc = json.loads(est_json.read_text())
    assert set(doc) == {"theta_hat", "delta", "info", "T", "scaling"}
    assert doc["T"] == pytest.approx(50.0)
    assert abs(doc["theta_hat"] + 0.5) < 0.5


def test_simulate_overflowing_path_usage_error(tmp_path, capsys):
    # theta dt = 10 per step: the path leaves the float range before T = 50
    out = tmp_path / "path.csv"
    args = ["simulate", "--theta", "100", "--measure", "dirac0.json", "--T", "50", "--dt", "0.1", "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: sample path is not finite at t = ")
    assert not out.exists()


def test_kernel_overflowing_solution_usage_error(tmp_path, capsys):
    # theta dt = 0.5 per step: x0 leaves the float range before T = 20
    out = tmp_path / "k.csv"
    args = ["kernel", "--theta", "50", "--measure", "dirac0.json", "--T", "20", "--dt", "0.01", "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: the fundamental solution is not finite at t = 14.62\n"
    assert not out.exists()


def test_estimate_refuses_non_finite_path(tmp_path, capsys):
    path_csv = tmp_path / "path.csv"
    args = ["simulate", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "1", "--dt", "0.1", "--out", str(path_csv)]
    assert main(args) == 0
    lines = path_csv.read_text().splitlines()
    t, w, x, y = lines[-3].split(",")
    lines[-3] = ",".join([t, w, "inf", y])
    path_csv.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--path", str(path_csv)]) == 2
    assert capsys.readouterr().err == f"error: sample path is not finite at t = {float(t):.6g}\n"


def test_limits_root_search_budget_error_is_readable(capsys):
    # theta = 1e300 asks for a contour of about 8e300 points
    assert main(["limits", "--theta", "1e300", "--measure", "dirac0.json"]) == 2
    err = capsys.readouterr().err
    assert "moment values" in err and len(err) < 200


def test_limits_near_the_lan_boundary(capsys):
    # delta_-1 at theta = -(pi/2 - 1e-3): LAN with v* = -4.5e-4, and J =
    # (1 + sin b)/(2 b cos b) = 637 comes from the axis in well under a second
    b = 1.5697963267948966
    start = time.perf_counter()
    assert main(["limits", "--theta", str(-b), "--measure", "dirac_delay.json", "--n", "3"]) == 0
    assert time.perf_counter() - start < 1.0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "delta,info" and len(rows) == 4
    for row in rows[1:]:
        assert float(row.split(",")[1]) == pytest.approx((1.0 + math.sin(b)) / (2.0 * b * math.cos(b)), rel=1e-9)


def test_limits_stiff_ou_is_silent(capsys):
    # dirac0 at theta = -30: v* = -inf (the root lies below classify's
    # floor), J = 1/60 exactly, and nothing on stderr
    assert main(["limits", "--theta", "-30", "--measure", "dirac0.json", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert all(float(row.split(",")[1]) == 1.0 / 60.0 for row in out.splitlines()[1:])


def test_analyze_contour_beyond_float_range_usage_error(tmp_path, capsys):
    # a density of 1e308 (1 + u) puts the root bound near 2.5e307: the
    # contour's sample count lies above the float range, which is refused
    # by the root search instead of overflowing while formatting its budget
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"r": 1.0, "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1e308, 1e308]}]}))
    assert main(["analyze", "--theta", "-0.5", "--measure", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: root search contour (") and err.endswith("is too long to sample\n")


@pytest.mark.parametrize(
    "measure, message",
    [
        ({"r": 1, "atoms": [{"u": 0, "w": float("nan")}]}, "atom at u = 0.0 has a non-finite weight nan"),
        ({"r": 1, "density": [{"lo": -1, "hi": 0, "coeffs": [1, float("inf")]}]}, "density piece [-1.0, 0.0] needs finite coefficients, got [1.0, inf]"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--theta", "-0.5"],
        ["kernel", "--theta", "-0.5", "--T", "1", "--dt", "0.1"],
        ["simulate", "--theta", "-0.5", "--T", "1", "--dt", "0.1"],
        ["limits", "--theta", "-0.5", "--n", "3"],
    ],
)
def test_non_finite_measure_usage_error(argv, measure, message, tmp_path, capsys):
    # every subcommand refuses the measure by name (exit 2) and writes no rows
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps(measure))
    assert main([*argv, "--measure", str(spec)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_simulate_byte_determinism(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(
            ["simulate", "--theta", "0.2", "--measure", "balanced_atoms.json",
             "--T", "5.0", "--dt", "0.01", "--seed", "123", "--out", str(out)]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_limits_csv(tmp_path):
    out = tmp_path / "limits.csv"
    code = main(
        ["limits", "--theta", "-0.5", "--measure", "dirac0.json", "--n", "50", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,info"
    assert len(lines) == 51


def test_experiment_subcommand(tmp_path):
    cfg = {
        "measure": DIRAC0,
        "theta": -0.5,
        "T": 30.0,
        "dt": 0.02,
        "x0": {"kind": "zero"},
        "n_replicates": 150,
        "seed": 4,
        "n_limit_draws": 200,
        "tests": ["normal_delta"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "result.json").is_file()
    assert (out_dir / "samples.csv").is_file()
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["passed"] is True
    assert doc["tests"][0]["dropped"] == 0
    assert doc["diagnostics"]["nan_theta_hat"] == 0


def test_experiment_repeat_byte_identical(tmp_path):
    cfg = {
        "measure": DIRAC0,
        "theta": -0.5,
        "T": 20.0,
        "dt": 0.02,
        "n_replicates": 120,
        "seed": 8,
        "n_limit_draws": 100,
        "tests": [],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = []
    for sub in ("o1", "o2"):
        out_dir = tmp_path / sub
        assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        blobs.append((out_dir / "samples.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_experiment_missing_config(capsys):
    assert main(["experiment", "--config", "missing.json"]) == 2


def test_experiment_all_replicates_dropped_exit_1(tmp_path):
    # every info is 0 (T < r for a delay atom at -r): the normal_delta row
    # fails with a null statistic and counts the drops
    cfg = {
        "measure": {"r": 1.0, "atoms": [{"u": -1.0, "w": 1.0}]},
        "theta": -1.0,
        "T": 0.5,
        "dt": 0.01,
        "n_replicates": 100,
        "n_limit_draws": 200,
        "tests": ["normal_delta"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["tests"] == [
        {"name": "normal_delta", "statistic": None, "p_value": None, "threshold": 0.001, "passed": False, "dropped": 100}
    ]
    assert doc["diagnostics"]["nan_theta_hat"] == 100


def test_experiment_overflow_is_usage_error(tmp_path, capsys):
    # theta = 100 on delta_0 grows like e^(100 t): the replicates leave the
    # float range, which is refused by name before any file is written
    cfg = {
        "measure": DIRAC0,
        "theta": 100.0,
        "T": 50.0,
        "dt": 0.1,
        "n_replicates": 100,
        "n_limit_draws": 100,
        "tests": ["normal_delta"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: replicate 0 (seed ") and "not finite" in err
    assert not (out_dir / "result.json").exists()


@pytest.mark.parametrize("test", ["ks_delta", "ks_info"])
def test_experiment_two_sample_test_without_limit_draws_usage_error(test, tmp_path, capsys):
    # a two-sample KS test with no limit draws is refused by the config,
    # before any replicate is simulated or any file written
    cfg = {"measure": DIRAC0, "theta": -0.5, "T": 5.0, "dt": 0.1, "n_replicates": 100, "n_limit_draws": 0, "tests": [test]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: two-sample tests {test} need n_limit_draws >= 1\n"
    assert not out_dir.exists()


def test_experiment_missing_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": DIRAC0, "theta": -0.5, "dt": 0.02}))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "'T'" in capsys.readouterr().err


def test_experiment_packaged_config_with_overrides(tmp_path):
    # packaged config name resolution plus flag-over-config precedence
    out_dir = tmp_path / "lan"
    code = main(
        ["experiment", "--config", "lan_ou.json", "--out-dir", str(out_dir), "--n-replicates", "120"]
    )
    assert code == 0
    doc = json.loads((out_dir / "result.json").read_text())
    assert doc["config"]["n_replicates"] == 120
    assert doc["config"]["seed"] == 42
    assert len(doc["replicates"]["delta"]) == 120


def test_experiment_override_validated(tmp_path, capsys):
    # --n-replicates goes through the config's own validation: lan_ou runs
    # KS tests, which need at least 100 replicates
    code = main(
        ["experiment", "--config", "lan_ou.json", "--out-dir", str(tmp_path / "o"), "--n-replicates", "5"]
    )
    assert code == 2
    assert "n_replicates" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--theta", "inf", "--measure", "dirac0.json"],
        ["limits", "--theta", "inf", "--measure", "dirac0.json", "--n", "3"],
        ["analyze", "--theta", "1e308", "--measure", "balanced_atoms.json"],
        ["analyze", "--theta", "nan", "--measure", "dirac0.json"],
        ["kernel", "--theta", "nan", "--measure", "dirac0.json", "--T", "1.0"],
        ["simulate", "--theta", "nan", "--measure", "dirac0.json", "--T", "1.0", "--dt", "0.1"],
        ["estimate", "--path", "PATH", "--theta", "inf"],
        ["estimate", "--path", "PATH", "--scaling", "nan"],
    ],
    ids=["analyze-inf", "limits-inf", "analyze-1e308", "analyze-nan", "kernel-nan", "simulate-nan", "estimate-inf", "estimate-scaling-nan"],
)
def test_non_finite_theta_usage_error(argv, tmp_path, capsys):
    # a theta (or estimate's scaling) that is not finite, or whose root
    # search bound overflows, is a usage error that names it, and no output
    # is written
    if "PATH" in argv:  # estimate reads a simulated path
        path = tmp_path / "p.csv"
        assert main(["simulate", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "1", "--dt", "0.1", "--out", str(path)]) == 0
        argv = [str(path) if v == "PATH" else v for v in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert ("scaling" if "--scaling" in argv else "theta") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--T", "inf"), ("--dt", "nan")])
def test_non_finite_grid_usage_error(flag, value, capsys):
    argv = ["simulate", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "1.0", "--dt", "0.1"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 2
    assert "finite T and dt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kernel", "simulate", "experiment"])
@pytest.mark.parametrize("dt", [0.0, -0.1])
def test_non_positive_dt_usage_error(command, dt, tmp_path, capsys):
    # refused by name before r is divided by it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": DIRAC0, "theta": -0.5, "T": 1.0, "dt": dt, "tests": []}))
    argv = {
        "kernel": ["kernel", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "1.0", "--dt", str(dt)],
        "simulate": ["simulate", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "1.0", "--dt", str(dt)],
        "experiment": ["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid needs a finite T and dt with dt > 0, got T=1.0, dt={dt}\n"
    assert not (tmp_path / "o").exists()


def test_experiment_zero_replicates_usage_error(tmp_path, capsys):
    # without distributional tests nothing else bounds the replicate count
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"measure": DIRAC0, "theta": -0.5, "T": 2.0, "dt": 0.1, "tests": []}))
    code = main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o"), "--n-replicates", "0"])
    assert code == 2
    assert "n_replicates" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_estimate_reproduces_experiment_rows(tmp_path):
    # replicate i of an experiment is the path `simulate --seed
    # derive_seed(seed, i)` writes, and `estimate` gives back its row of
    # samples.csv, bit for bit
    from sddelab.simulate import derive_seed

    out_dir = tmp_path / "exp"
    code = main(["experiment", "--config", "lan_ou.json", "--out-dir", str(out_dir), "--n-replicates", "100"])
    assert code in (0, 1)
    rows = (out_dir / "samples.csv").read_text().splitlines()[1:4]
    for i, row in enumerate(rows):
        _, seed, delta, info, theta_hat = row.split(",")
        assert int(seed) == derive_seed(42, i)
        path_csv, est = tmp_path / f"path{i}.csv", tmp_path / f"est{i}.json"
        argv = ["simulate", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "200", "--dt", "0.01"]
        assert main(argv + ["--seed", seed, "--out", str(path_csv)]) == 0
        assert main(["estimate", "--path", str(path_csv), "--theta", "-0.5", "--out", str(est)]) == 0
        doc = json.loads(est.read_text())
        assert (doc["delta"], doc["info"], doc["theta_hat"]) == (float(delta), float(info), float(theta_hat))


def test_x0_spec_parsing(tmp_path):
    from sddelab.cli import CliError, _parse_x0

    assert _parse_x0("zero").values == (0.0,)
    assert _parse_x0("constant:2.5").values == (2.5,)
    spec = tmp_path / "x0.json"
    spec.write_text(json.dumps({"kind": "sampled", "values": [0.0, 1.0, 0.5]}))
    assert _parse_x0(f"file:{spec}").values == (0.0, 1.0, 0.5)
    with pytest.raises(CliError):
        _parse_x0("nonsense")


@pytest.mark.parametrize("beside", [True, False])
def test_experiment_config_names_measure_file(beside, tmp_path, monkeypatch):
    # a config's string measure is a file relative to the config, else the
    # packaged measure of that name; a file beside the config comes first
    own = {"r": 1.0, "atoms": [{"u": 0.0, "w": -1.0}]}
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    if beside:
        (cfg_dir / "dirac0.json").write_text(json.dumps(own))
    cfg = {"measure": "dirac0.json", "theta": 0.5 if beside else -0.5, "T": 5, "dt": 0.1,
           "n_replicates": 20, "n_limit_draws": 10}
    (cfg_dir / "cfg.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", str(cfg_dir / "cfg.json"), "--out-dir", "out"]) == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["config"]["measure"] == (own if beside else DIRAC0)
    assert doc["regime_report"]["regime"] == "LAN"


def test_experiment_config_missing_measure_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": "nope.json", "theta": -0.5, "T": 5, "dt": 0.1}))
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "measure descriptor 'nope.json' not found" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_x0_file_goes_through_the_loader(capsys):
    # a missing file is named like a missing measure; a packaged measure is
    # no initial path, and its keys are refused
    argv = ["limits", "--theta", "0.5", "--measure", "dirac0.json", "--n", "5", "--x0"]
    assert main(argv + ["file:nope.json"]) == 2
    assert "initial path 'nope.json' not found" in capsys.readouterr().err
    assert main(argv + ["file:dirac0.json"]) == 2
    assert "unknown initial path keys: atoms, r" in capsys.readouterr().err


def test_estimate_empty_cell_at_nonnegative_time_usage_error(tmp_path, capsys):
    path_csv = tmp_path / "p.csv"
    argv = ["simulate", "--theta", "-0.5", "--measure", "dirac0.json", "--T", "1", "--dt", "0.25"]
    assert main(argv + ["--out", str(path_csv)]) == 0
    lines = path_csv.read_text().splitlines(keepends=True)
    t, _, x, y = lines[7].split(",")  # t = 0.5, two rows after t = 0
    lines[7] = f"{t},,{x},{y}"
    path_csv.write_text("".join(lines))
    assert main(["estimate", "--path", str(path_csv)]) == 2
    err = capsys.readouterr().err
    assert "W and Y at t >= 0" in err and "string '' to float64 at row 2, column 2" in err


def test_simulate_bad_x0_exit_code(capsys):
    code = main(
        ["simulate", "--theta", "0.0", "--measure", "dirac0.json",
         "--T", "1.0", "--dt", "0.1", "--x0", "wat"]
    )
    assert code == 2


def test_limits_plamn_with_phase(tmp_path):
    out = tmp_path / "plamn.csv"
    code = main(
        ["limits", "--theta", "-2.0", "--measure", "dirac_delay.json",
         "--n", "20", "--seed", "5", "--d", "0.7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21
    assert all(float(l.split(",")[1]) > 0 for l in lines[1:])


@pytest.mark.parametrize("hint", ["LAMN", "LAQ"])
def test_limits_hint_without_roots_usage_error(hint, capsys):
    # balanced_atoms at theta = 0 has no contributing root for either law
    code = main(["limits", "--theta", "0", "--measure", "balanced_atoms.json", "--regime-hint", hint, "--n", "5"])
    assert code == 2
    assert capsys.readouterr().err == f"error: regime {hint} has no contributing roots\n"


def test_limits_negative_draw_count_usage_error(capsys):
    code = main(["limits", "--theta", "0", "--measure", "dirac0.json", "--n", "-3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n must be >= 0, got -3\n"
    assert captured.out == ""


def test_limits_lamn_hint_stable_root_usage_error(capsys):
    code = main(["limits", "--theta", "-0.5", "--measure", "dirac0.json", "--regime-hint", "LAMN", "--n", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: LAMN needs v* > 0") and "-0.5" in err


def test_limits_plamn_hint_stable_root_usage_error(capsys):
    code = main(["limits", "--theta", "-0.5", "--measure", "dirac0.json", "--regime-hint", "PLAMN", "--n", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: PLAMN needs v* > 0") and "-0.5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("d", ["nan", "inf"])
def test_limits_non_finite_phase_usage_error(d, capsys):
    code = main(["limits", "--theta", "-2", "--measure", "dirac_delay.json", "--d", d, "--n", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the PLAMN phase d must be finite, got {d}\n"
    assert captured.out == ""


def test_limits_phase_on_other_regime_usage_error(capsys):
    # theta = 0.5 on dirac0 is LAMN, which has no phase to set
    code = main(["limits", "--theta", "0.5", "--measure", "dirac0.json", "--d", "1e300", "--n", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: a phase d applies to a PLAMN regime only, got LAMN\n"
    assert captured.out == ""


def test_limits_plamn_without_phase_draws_phase_zero(tmp_path):
    argv = ["limits", "--theta", "-2.0", "--measure", "dirac_delay.json", "--n", "20", "--seed", "5", "--out"]
    assert main(argv + [str(tmp_path / "default.csv")]) == 0
    assert main(argv + [str(tmp_path / "zero.csv"), "--d", "0"]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()


def test_limits_non_finite_initial_path_usage_error(capsys):
    code = main(["limits", "--theta", "0.5", "--measure", "dirac0.json", "--x0", "constant:nan", "--n", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: initial path value must be finite, got nan\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("plamn_d", float("nan"), "plamn_d must be finite, got nan"),
        ("x0", {"kind": "sampled", "values": [0.0, float("nan"), 1.0]}, "initial path values must be finite, got values[1] = nan"),
    ],
)
def test_experiment_non_finite_input_named(key, value, message, tmp_path, capsys):
    # a NaN phase or initial value is refused by the name of its key before
    # anything runs, not blamed on the replicates or the limit draws
    cfg = {
        "measure": {"r": 1.0, "atoms": [{"u": -1.0, "w": 1.0}]},
        "theta": -2.0,
        "T": 5.0,
        "dt": 0.1,
        "n_replicates": 10,
        "n_limit_draws": 10,
        "tests": [],
        key: value,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_experiment_hint_without_roots_usage_error(tmp_path, capsys):
    cfg = {
        "measure": {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}, {"u": -1.0, "w": -1.0}]},
        "theta": 0.0,
        "T": 5.0,
        "dt": 0.1,
        "n_replicates": 10,
        "n_limit_draws": 10,
        "tests": [],
        "regime_hint": "LAMN",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: regime LAMN has no contributing roots\n"
    assert not (tmp_path / "o").exists()


def test_experiment_phase_on_other_regime_usage_error(tmp_path, capsys):
    # theta = 0.5 on a unit mass at 0 is LAMN; its plamn_d is refused, not
    # ignored, before anything runs or is written
    cfg = {
        "measure": {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}]},
        "theta": 0.5,
        "T": 5.0,
        "dt": 0.1,
        "n_replicates": 10,
        "n_limit_draws": 10,
        "tests": [],
        "plamn_d": 0.3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: plamn_d applies to a PLAMN regime only, got LAMN\n"
    assert not (tmp_path / "o").exists()


def test_analyze_scaling_descriptor_lamn(capsys):
    assert main(["analyze", "--theta", "1.0", "--measure", "dirac_delay.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "LAMN"
    assert doc["scaling"].startswith("T^-0*exp(-0.5671432904")


def test_analyze_long_delay_classifies(tmp_path, capsys):
    # delta_{-200} at theta = 1 is delta_{-1} at theta = 200 on another time
    # scale; its first box holds more roots than h has derivatives to polish
    # them together, so the search bisects it, as it does for delta_{-1}
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps({"r": 200, "atoms": [{"u": -200, "w": 1}]}))
    assert main(["analyze", "--theta", "1", "--measure", str(spec)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["regime"] == "LAMN" and err == ""


def test_analyze_forced_lamn_on_stable_root_states_growing_rate(capsys):
    assert main(["analyze", "--theta", "-0.5", "--measure", "dirac0.json", "--regime-hint", "LAMN"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "LAMN"
    assert doc["scaling"] == "T^-0*exp(0.5*T)"
    assert doc["warnings"][-1] == "v* = -0.5 <= 0: the rate exp(-v* T) of the forced scaling T^-0*exp(0.5*T) grows with T"


def test_cli_import_loads_no_scipy_integrate():
    src = os.path.dirname(os.path.dirname(sddelab.__file__))
    code = "import sys, sddelab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_nothing_beyond_numpy_and_scipy_special():
    # the package's own numerics (the sine integral of fisher_limit's tail
    # included) load no module past the standard library that numpy and
    # scipy.special have not loaded already: -X importtime lists each module
    # when it is first imported, after the mark once the package's turn comes
    src = os.path.dirname(os.path.dirname(sddelab.__file__))
    code = "import sys, numpy, scipy.special; print('mark', file=sys.stderr, flush=True); import sddelab.cli"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    later = out.stderr.split("\nmark\n")[1].splitlines()
    names = {line.split("|")[-1].strip() for line in later}
    assert "sddelab.kernels" in names and "sddelab.special" in names
    assert {n for n in names if n.split(".")[0] not in sys.stdlib_module_names and n.split(".")[0] != "sddelab"} == set()


# every subcommand's options: flag -> (dest, type, default, required)
OPTIONS = {
    "analyze": {
        "--theta": ("theta", float, None, True),
        "--measure": ("measure", None, None, True),
        "--out": ("out", None, None, False),
        "--regime-hint": ("regime_hint", None, None, False),
    },
    "kernel": {
        "--theta": ("theta", float, None, True),
        "--measure": ("measure", None, None, True),
        "--out": ("out", None, None, False),
        "--T": ("T", float, None, True),
        "--dt": ("dt", float, 1e-3, False),
    },
    "simulate": {
        "--theta": ("theta", float, None, True),
        "--measure": ("measure", None, None, True),
        "--out": ("out", None, None, False),
        "--T": ("T", float, None, True),
        "--dt": ("dt", float, None, True),
        "--x0": ("x0", None, "zero", False),
        "--seed": ("seed", int, 0, False),
    },
    "estimate": {
        "--out": ("out", None, None, False),
        "--path": ("path", None, None, True),
        "--theta": ("theta", float, 0.0, False),
        "--scaling": ("scaling", float, None, False),
    },
    "limits": {
        "--theta": ("theta", float, None, True),
        "--measure": ("measure", None, None, True),
        "--out": ("out", None, None, False),
        "--n": ("n", int, 1000, False),
        "--seed": ("seed", int, 0, False),
        "--d": ("d", float, None, False),
        "--x0": ("x0", None, "zero", False),
        "--regime-hint": ("regime_hint", None, None, False),
    },
    "experiment": {
        "--config": ("config", None, None, True),
        "--out-dir": ("out_dir", None, "experiment_out", False),
        "--seed": ("seed", int, None, False),
        "--n-replicates": ("n_replicates", int, None, False),
    },
}


def test_subcommand_options_table():
    import argparse

    from sddelab.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for name, parser in sub.choices.items():
        got = {
            a.option_strings[-1]: (a.dest, a.type, a.default, a.required)
            for a in parser._actions
            if a.dest != "help"
        }
        assert got == OPTIONS[name], name


CONFIG = {"measure": "dirac0.json", "theta": -0.5, "T": 5, "dt": 0.1, "n_replicates": 20, "n_limit_draws": 10}


@pytest.mark.parametrize(
    "option, doc, name",
    [
        ("--measure", [1, 2], "measure descriptor"),
        ("--config", [1, 2], "experiment config"),
        ("--x0", [1, 2], "initial path"),
        ("--config", {**CONFIG, "measure": [1, 2]}, "measure descriptor"),
        ("--config", {**CONFIG, "x0": [1, 2]}, "initial path"),
        ("--config", 3, "experiment config"),
        ("--measure", {"r": 1, "atoms": [1]}, "measure descriptor"),
        ("--measure", {"r": 1, "atoms": 5}, "measure descriptor"),
        ("--measure", {"r": 1, "density": [2]}, "measure descriptor"),
        ("--measure", {"r": 1, "density": [{"lo": -1, "hi": 0, "coeffs": 3}]}, "measure descriptor"),
        ("--measure", {"r": 1, "sampled": [1, 2]}, "measure descriptor"),
        ("--config", {**CONFIG, "mean_info_band": 5}, "experiment config"),
        ("--config", {**CONFIG, "tests": 3}, "experiment config"),
        ("--config", {**CONFIG, "theta": None}, "experiment config"),
        ("--config", {**CONFIG, "tests": "ks_delta"}, "experiment config"),
        ("--config", {**CONFIG, "seed": "abc"}, "experiment config"),
    ],
)
def test_wrong_typed_json_usage_error(option, doc, name, tmp_path, capsys):
    # a JSON document of the wrong shape is refused by the parser that reads
    # it, naming the document, and no output is written
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    argv = {
        "--measure": ["analyze", "--theta", "1", "--measure", str(spec)],
        "--config": ["experiment", "--config", str(spec), "--out-dir", str(tmp_path / "out")],
        "--x0": ["limits", "--theta", "0.5", "--measure", "dirac0.json", "--n", "5", "--x0", f"file:{spec}"],
    }[option]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {name} ")
    assert not (tmp_path / "out").exists()


def test_experiment_regime_hint_refused_with_the_config(tmp_path, capsys, monkeypatch):
    # a hint that is no regime name is refused by its field when the config
    # is read, before the root search
    monkeypatch.setattr(sddelab.harness, "classify", lambda *args, **kw: pytest.fail("classified"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**CONFIG, "regime_hint": 5}))
    assert main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: experiment config field 'regime_hint' must be null or one of ('LAN', 'LAQ', 'LAMN', 'PLAMN'), got 5\n"
    )
    assert not (tmp_path / "o").exists()
