"""Acceptance gate: every numbered criterion runs at its stated tolerance
and prints one pass/fail line.  Run with `pytest tests/test_acceptance.py -s`
to see the lines on success."""

import io
import json
import time

import numpy as np
import pytest

import sddelab as L
import sddelab.harness as H
from sddelab.harness import (
    ExperimentConfig,
    ks_two_sample,
    ks_vs_standard_normal,
    run_experiment,
    write_samples_csv,
)
from sddelab.inference import batch_statistics, log_likelihood_ratio, score_and_info
from sddelab.kernels import Grid, fisher_limit, fisher_theta0, residue_expansion_eval, solve_fundamental
from sddelab.measures import SignedMeasure
from sddelab.simulate import InitialPath, derive_seed, simulate, simulate_batch
from sddelab.spectrum import build_root_data, classify, count_zeros, roots_in_strip

D0 = SignedMeasure.point_masses(1.0, (0.0, 1.0))
DM1 = SignedMeasure.point_masses(1.0, (-1.0, 1.0))
BAL = SignedMeasure.point_masses(1.0, (0.0, 1.0), (-1.0, -1.0))
OMEGA = 0.5671432904097838


def packaged(name: str) -> str:
    import importlib.resources

    return importlib.resources.files("sddelab").joinpath("configs", name).read_text()


def shipped_measure(name: str) -> SignedMeasure:
    return SignedMeasure.from_dict(json.loads(packaged(name)))


def sin_measure() -> SignedMeasure:
    return shipped_measure("sin_density.json")


def load_config(name) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(packaged(name)))


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def lan_result():
    return run_experiment(load_config("lan_ou.json"))


def test_criterion_01_spectrum_oracle():
    t0 = time.time()
    roots = roots_in_strip(1.0, DM1, 0.0)
    ok = len(roots) == 1 and roots[0].multiplicity == 1
    ok = ok and abs(roots[0].lam - OMEGA) <= 1e-10

    theta = -np.pi / 2
    strip = roots_in_strip(theta, DM1, -3.0)
    boundary = [z for z in strip if abs(z.lam.real) <= 1e-10]
    ok = ok and sorted(z.lam.imag for z in boundary) == pytest.approx(
        [-np.pi / 2, np.pi / 2], abs=1e-10
    )
    ok = ok and all(z.multiplicity == 1 for z in boundary)
    ok = ok and all(z.lam.real < -1e-10 for z in strip if z not in boundary)
    n, rect = count_zeros(theta, DM1, -3.0, 0.0, -40.0, 40.0)
    inside = sum(
        z.multiplicity
        for z in strip
        if rect[0] <= z.lam.real <= rect[1] and rect[2] <= z.lam.imag <= rect[3]
    )
    elapsed = time.time() - t0
    ok = ok and n == inside and elapsed < 2.0
    report(1, "spectrum oracle", ok, f"count={n}, {elapsed:.2f}s")


def test_criterion_02_fisher_oracle():
    j_half = fisher_limit(-0.5, D0)
    j_one = fisher_limit(-1.0, D0)
    j_bal = fisher_theta0(BAL)
    j_sin = fisher_theta0(sin_measure())
    ok = abs(j_half - 1.0) <= 1e-4 and abs(j_one - 0.5) <= 1e-4
    ok = ok and abs(j_bal - 1.0) <= 1e-12
    ok = ok and abs(j_sin - 3 * np.pi) <= 1e-6
    report(2, "fisher oracle", ok, f"J(-.5)={j_half:.6f} J(-1)={j_one:.6f} J0sin={j_sin:.8f}")


def test_criterion_03_regime_classification():
    dirac0 = shipped_measure("dirac0.json")
    hayes = shipped_measure("hayes_boundary.json")
    tags = {}
    tags["lan"] = classify(-0.5, dirac0)
    tags["lamn"] = classify(0.5, dirac0)
    tags["laq0"] = classify(0.0, dirac0)
    tags["hayes"] = classify(-np.pi / 2, hayes)
    tags["remark"] = classify(0.15, sin_measure())
    ok = tags["lan"].regime == "LAN"
    ok = ok and tags["lamn"].regime == "LAMN" and tags["lamn"].H == []
    ok = ok and tags["laq0"].regime == "LAQ"
    ok = ok and tags["hayes"].regime == "LAQ"
    ok = ok and tags["hayes"].H == pytest.approx([np.pi / 2], abs=1e-9)
    rem = tags["remark"]
    zero_root = min(rem.roots, key=lambda z: abs(z.lam))
    ok = ok and rem.regime == "LAN" and abs(rem.v0) <= 1e-8
    ok = ok and zero_root.m_tilde == float("-inf") and rem.v_star < 0
    report(3, "regime classification", ok, ", ".join(f"{k}={v.regime}" for k, v in tags.items()))


def test_criterion_04_lan_empirical(lan_result):
    res = lan_result
    mean_info = float(np.mean(res.info))
    rows = {t["name"]: t for t in res.tests}
    ok = 0.95 <= mean_info <= 1.05
    ok = ok and rows["normal_delta"]["p_value"] > 0.001
    ok = ok and rows["ergodic"]["passed"]
    report(4, "LAN empirical", ok, f"mean J={mean_info:.4f}, KS p={rows['normal_delta']['p_value']:.3f}")


def test_criterion_05_laq_empirical():
    res = run_experiment(load_config("laq_bm.json"))
    rows = {t["name"]: t for t in res.tests}
    ok = rows["ks_delta"]["p_value"] > 0.001 and rows["ks_info"]["p_value"] > 0.001
    report(
        5,
        "LAQ empirical",
        ok,
        f"p_delta={rows['ks_delta']['p_value']:.3f}, p_info={rows['ks_info']['p_value']:.3f}",
    )


def test_criterion_06_lamn_empirical():
    res = run_experiment(load_config("lamn_ou.json"))
    rows = {t["name"]: t for t in res.tests}
    ok = rows["ks_info"]["p_value"] > 0.001 and rows["normal_delta"]["p_value"] > 0.001
    report(
        6,
        "LAMN empirical",
        ok,
        f"p_info={rows['ks_info']['p_value']:.3f}, p_norm={rows['normal_delta']['p_value']:.3f}",
    )


def test_criterion_07_corollary_identity():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for trial in range(100):
        theta = float(rng.uniform(-1.0, 1.0))
        a = (D0, BAL, DM1)[trial % 3]
        g = Grid.build(1.0, 10.0, 0.02)
        p = simulate(theta, a, InitialPath.constant(1.0), g, seed=int(rng.integers(0, 2**63)))
        r = g.T**-0.5
        pair = score_and_info(p, theta, r)
        for h in (-2.0, -1.0, 0.5, 1.0, 3.0):
            lhs = log_likelihood_ratio(p, theta + r * h, theta)
            rhs = h * pair.delta - 0.5 * h**2 * pair.info
            scale = max(abs(lhs), abs(rhs), 1.0)
            worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-10
    report(7, "corollary identity", ok, f"worst rel dev={worst:.2e}")


def test_criterion_08_mle_consistency():
    g = Grid.build(1.0, 200.0, 0.01)
    seeds = [derive_seed(1234, i) for i in range(500)]
    _, X, Y = simulate_batch(-0.5, D0, InitialPath.zero(), g, seeds)
    _, _, hats = batch_statistics(Y, X, g.n_delay, g.dt, -0.5, g.T**-0.5)
    med_lan = float(np.median(np.abs(hats + 0.5)))

    g2 = Grid.build(1.0, 30.0, 0.005)
    seeds2 = [derive_seed(4321, i) for i in range(500)]
    _, X2, Y2 = simulate_batch(0.5, D0, InitialPath.zero(), g2, seeds2)
    _, _, hats2 = batch_statistics(Y2, X2, g2.n_delay, g2.dt, 0.5, 1.0)
    med_lamn = float(np.median(np.abs(hats2 - 0.5)))
    ok = med_lan <= 0.05 and med_lamn <= 1e-2
    report(8, "MLE consistency", ok, f"LAN med={med_lan:.4f}, LAMN med={med_lamn:.2e}")


def test_criterion_09_residue_agreement():
    worst = {}
    for theta in (1.0, -np.pi / 2):
        bare = roots_in_strip(theta, DM1, -3.0)
        roots = [build_root_data(theta, DM1, z) for z in bare]
        g = Grid.build(1.0, 10.0, 1e-3)
        kern = solve_fundamental(theta, DM1, g)
        t = g.state_times()
        sel = t >= 5.0
        vals = residue_expansion_eval(theta, DM1, roots, t[sel])
        worst[theta] = float(np.max(np.abs(vals - kern.x0_values[g.n_delay :][sel])))
    ok = all(v <= 1e-3 for v in worst.values())
    report(9, "residue agreement", ok, ", ".join(f"{k:g}:{v:.2e}" for k, v in worst.items()))


def test_criterion_10_reproducibility(lan_result, monkeypatch):
    # replicate partitions: a chunk size that does not divide the 1000
    # replicates, and a quarter of the default of 1024 used by lan_result
    # (which holds all 1000 in one chunk)
    blobs = []
    for chunk in (333, 256):
        monkeypatch.setattr(H, "REPLICATE_CHUNK", chunk)
        res = run_experiment(load_config("lan_ou.json"))
        buf = io.StringIO()
        write_samples_csv(res, buf)
        blobs.append(buf.getvalue().encode())
    buf = io.StringIO()
    write_samples_csv(lan_result, buf)
    baseline = buf.getvalue().encode()
    ok = blobs[0] == blobs[1] == baseline
    report(10, "reproducibility", ok, f"{len(blobs[0])} bytes, replicate chunks 1024 vs 333 vs 256")
