import dataclasses
import importlib
import importlib.resources
import io
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

import sddelab.harness as H
from sddelab.harness import (
    ExperimentConfig,
    HarnessError,
    dump_json,
    ks_two_sample,
    ks_vs_standard_normal,
    result_to_dict,
    run_experiment,
    write_result_json,
    write_samples_csv,
)
from sddelab.spectrum import RegimeReport, ScalingLaw

DIRAC0 = {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}]}
DM1 = {"r": 1.0, "atoms": [{"u": -1.0, "w": 1.0}]}
BALANCED = {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}, {"u": -1.0, "w": -1.0}]}


def config(**kw):
    base = {
        "measure": DIRAC0,
        "theta": -0.5,
        "T": 30.0,
        "dt": 0.02,
        "x0": {"kind": "zero"},
        "n_replicates": 200,
        "seed": 99,
        "n_limit_draws": 400,
        "tests": [],
    }
    base.update(kw)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# KS helpers


def test_ks_identical_samples():
    x = np.arange(10.0)
    assert ks_two_sample(x, x) == (0.0, 1.0)


def test_ks_same_law():
    rng = np.random.default_rng(1)
    stat, p = ks_two_sample(rng.standard_normal(1000), rng.standard_normal(1000))
    assert p > 0.01


def test_ks_shifted_law():
    rng = np.random.default_rng(2)
    _, p = ks_two_sample(rng.standard_normal(1000), rng.standard_normal(1000) + 1.0)
    assert p < 1e-6


def test_ks_statistic_matches_scipy():
    # the statistics and the asymptotic p-values, which the package evaluates
    # itself (special.kolmogorov_sf and special.normal_cdf)
    import scipy.special as sp
    import scipy.stats as st

    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(400), rng.standard_normal(300) * 1.3
    stat, p = ks_two_sample(x, y)
    assert stat == pytest.approx(st.ks_2samp(x, y).statistic, abs=1e-14)
    assert p == pytest.approx(sp.kolmogorov(math.sqrt(400 * 300 / 700) * stat), rel=1e-14)
    for z in (x, y, x + 0.2):
        stat, p = ks_vs_standard_normal(z)
        want = st.kstest(z, "norm", method="asymp")
        assert stat == pytest.approx(want.statistic, abs=1e-14)
        assert p == pytest.approx(want.pvalue, rel=1e-12)


def test_ks_rejects_empty():
    with pytest.raises(HarnessError):
        ks_two_sample([], [1.0])


def test_ks_vs_standard_normal_rejects_empty():
    with pytest.raises(HarnessError, match="nonempty"):
        ks_vs_standard_normal([])


# ---------------------------------------------------------------------------
# run_experiment


def test_degenerate_config_noise_drives_information():
    res = run_experiment(config(measure=BALANCED, theta=0.0, T=20.0, n_replicates=64))
    assert res.report.regime == "LAN"
    assert np.all(res.info > 0)


def test_experiment_is_reproducible():
    r1 = run_experiment(config())
    r2 = run_experiment(config())
    np.testing.assert_array_equal(r1.delta, r2.delta)
    np.testing.assert_array_equal(r1.info, r2.info)
    np.testing.assert_array_equal(r1.theta_hat, r2.theta_hat)
    np.testing.assert_array_equal(r1.limit_delta, r2.limit_delta)


def test_experiment_thread_count_invariance(monkeypatch):
    # the replicate partition never changes results: a small chunk, one that
    # does not divide the 600 replicates, and one holding all of them
    outs = []
    for chunk in (128, 250, 1200):
        monkeypatch.setattr(H, "REPLICATE_CHUNK", chunk)
        res = run_experiment(config(n_replicates=600))
        buf = io.StringIO()
        write_samples_csv(res, buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]


def test_experiment_draw_workers_invariance_and_joined(monkeypatch):
    # every replicate owns its Philox stream, so the number of draw threads
    # changes no byte; the threads are joined when each chunk is stepped
    sim = importlib.import_module("sddelab.simulate")
    baseline = threading.active_count()
    outs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(sim, "_draw_workers", lambda: workers)
        res = run_experiment(config(n_replicates=301))
        assert threading.active_count() == baseline
        buf = io.StringIO()
        write_samples_csv(res, buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] == outs[2]


def test_density_experiment_partition_close(monkeypatch):
    # a density's stencil sum is a BLAS product whose rounding depends on the
    # batch shape, so density replicates agree across partitions to rounding
    # only (atom-only measures are bit-identical, see above)
    dens = {**DIRAC0, "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}
    runs = []
    for chunk in (128, 77, 1):
        monkeypatch.setattr(H, "REPLICATE_CHUNK", chunk)
        runs.append(run_experiment(config(measure=dens, T=10.0, n_replicates=300, n_limit_draws=100)))
    for res in runs[1:]:
        for name in ("delta", "info", "theta_hat"):
            x, y = getattr(runs[0], name), getattr(res, name)
            assert np.all(np.abs(y - x) <= 1e-12 * (1.0 + np.abs(x))), name


def test_experiment_memory_does_not_grow_with_steps():
    # replicates are streamed through a window of the delay horizon, so eight
    # times the steps must not raise the peak by half (theta = 0 on balanced
    # atoms keeps the limit information closed-form: the peak is the
    # simulation's)
    peaks = []
    for T in (50.0, 400.0):
        cfg = config(measure=BALANCED, theta=0.0, T=T, dt=0.05, n_replicates=100, n_limit_draws=100)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_experiment_seed_changes_samples():
    r1 = run_experiment(config())
    r2 = run_experiment(config(seed=100))
    assert not np.array_equal(r1.delta, r2.delta)


def test_scaling_stabilizes_and_wrong_scaling_shrinks():
    # LAN: Var(delta) flat in T under T^(-1/2); under T^(-1) it drops ~4x
    res100 = run_experiment(config(T=100.0, n_replicates=1000, seed=5))
    res400 = run_experiment(config(T=400.0, n_replicates=1000, seed=5))
    v100, v400 = float(np.var(res100.delta)), float(np.var(res400.delta))
    assert abs(v400 - v100) / v100 <= 0.10
    wrong100 = v100 / 100.0  # delta under T^-1 scaling instead of T^-1/2
    wrong400 = v400 / 400.0
    assert wrong100 / wrong400 == pytest.approx(4.0, rel=0.15)


def test_ergodic_check_ou_half_information():
    row = run_experiment(config(theta=-1.0, T=200.0, dt=0.01, n_replicates=500, seed=2, tests=["ergodic"])).tests[0]
    assert row["passed"]
    assert row["J"] == pytest.approx(0.5, abs=1e-4)
    assert abs(row["median_mean_Y2"] - 0.5) <= 0.025


def test_ergodic_check_balanced_theta0():
    row = run_experiment(
        config(measure=BALANCED, theta=0.0, T=200.0, dt=0.01, n_replicates=500, seed=3, tests=["ergodic"])
    ).tests[0]
    assert row["passed"]
    assert row["J"] == pytest.approx(1.0, abs=1e-12)


def test_experiment_rows_key_order():
    # each row's keys, in result.json's order, whatever the config order
    keys = {
        "ks_delta": ["name", "statistic", "p_value", "threshold", "passed"],
        "ks_info": ["name", "statistic", "p_value", "threshold", "passed"],
        "normal_delta": ["name", "statistic", "p_value", "threshold", "passed", "dropped"],
        "mean_info": ["name", "statistic", "band", "passed"],
        "ergodic": ["median_mean_Y", "median_mean_Y2", "J", "passed", "name"],
    }
    assert set(keys) == set(H.TESTS)
    order = ["ergodic", "ks_info", "mean_info", "normal_delta", "ks_delta"]
    res = run_experiment(config(n_replicates=100, n_limit_draws=100, tests=order))
    assert [t["name"] for t in res.tests] == order
    assert [list(t) for t in res.tests] == [keys[name] for name in order]


@pytest.mark.parametrize(
    "kw, tests, calls",
    [
        ({"theta": 0.0}, ["ks_delta", "ks_info"], 0),
        ({"theta": -0.5, "regime_hint": "LAQ"}, ["mean_info", "ergodic"], 1),
    ],
)
def test_information_constant_computed_only_when_needed(monkeypatch, kw, tests, calls):
    # J is read only by mean_info and ergodic, once per experiment, and under
    # a hint that forces a non-LAN law it is not one of the limit draws
    seen = []
    real = H.limit_information
    monkeypatch.setattr(H, "limit_information", lambda *a: seen.append(a) or real(*a))
    res = run_experiment(config(n_replicates=100, n_limit_draws=100, tests=tests, **kw))
    assert res.report.regime == "LAQ"
    assert len(seen) == calls


def test_plamn_lattice_distributions_converge():
    # statistics on the lattice T = k * period + d converge in law: compare
    # the k=6 and k=10 batches
    from sddelab.spectrum import classify
    from sddelab.measures import SignedMeasure

    rep = classify(-2.0, SignedMeasure.from_dict(DM1))
    period = rep.period
    results = []
    for k, seed in ((6, 21), (10, 22)):
        T = round((k * period + 1.0) / 0.005) * 0.005
        res = run_experiment(
            config(
                measure=DM1,
                theta=-2.0,
                T=T,
                dt=0.005,
                n_replicates=400,
                seed=seed,
                plamn_d=1.0,
                n_limit_draws=100,
            )
        )
        assert res.report.regime == "PLAMN"
        results.append(res)
    _, p_info = ks_two_sample(results[0].info, results[1].info)
    _, p_delta = ks_two_sample(results[0].delta, results[1].delta)
    assert p_info > 0.001 and p_delta > 0.001


def test_plamn_off_lattice_rejected():
    with pytest.raises(HarnessError):
        run_experiment(
            config(measure=DM1, theta=-2.0, T=20.0, dt=0.005, plamn_d=0.0, n_replicates=100)
        )


def test_unclassified_regime_refused(monkeypatch):
    fake = RegimeReport(
        v0=0.3,
        v_star=0.3,
        m_star=0.0,
        H=[1.0, math.sqrt(2.0)],
        D=None,
        regime="UNCLASSIFIED",
        scaling=ScalingLaw("exp", m_star=0.0, v_star=0.3),
        contributing_roots=[],
    )
    monkeypatch.setattr(H, "classify", lambda *a, **k: fake)
    with pytest.raises(HarnessError, match="UNCLASSIFIED"):
        run_experiment(config())


def test_unknown_test_name_rejected():
    with pytest.raises(HarnessError):
        config(tests=["does_not_exist"])


def test_unknown_config_key_rejected():
    # a typo must not fall back to the default of the intended key
    with pytest.raises(HarnessError, match="n_replicate"):
        config(n_replicate=50)
    # a key that no longer exists fails by name instead of running
    with pytest.raises(HarnessError, match="limit_steps"):
        config(limit_steps=10_000)


def test_config_defaults_and_roundtrip():
    # the dataclass fields are the one definition of every default
    cfg = ExperimentConfig.from_dict({"measure": DIRAC0, "theta": -1, "T": 2, "dt": 0.5})
    assert cfg == ExperimentConfig(measure=DIRAC0, theta=-1.0, T=2.0, dt=0.5)
    assert (cfg.n_replicates, cfg.x0, cfg.tests, cfg.mean_info_band) == (1000, {"kind": "zero"}, (), (0.95, 1.05))
    assert isinstance(cfg.theta, float) and isinstance(cfg.T, float)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert list(cfg.to_dict()) == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_normal_delta_counts_dropped_replicates():
    # Y = 0 on [0, r) for a delay atom at -r: with T < r no replicate carries
    # information, so every one is dropped and the test fails with NaN
    res = run_experiment(
        config(measure=DM1, theta=-1.0, T=0.5, dt=0.01, n_replicates=100, n_limit_draws=200, tests=["normal_delta"])
    )
    row = res.tests[0]
    assert row["dropped"] == 100
    assert math.isnan(row["statistic"]) and math.isnan(row["p_value"])
    assert not row["passed"] and not res.passed
    assert res.diagnostics["nan_theta_hat"] == 100


def test_config_regime_hint_any_case():
    assert config(regime_hint="plamn").regime_hint == "plamn"


def test_distributional_tests_need_replicates():
    with pytest.raises(HarnessError):
        config(tests=["ks_delta"], n_replicates=50)


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_replicates", 0),
        ("n_replicates", -3),
        ("seed", -1),
        ("n_limit_draws", -1),
        ("p_threshold", -1.0),
        ("p_threshold", 0.0),
        ("p_threshold", 1.0),
        ("p_threshold", float("nan")),
        ("mean_info_band", [1.05, 0.95]),
        ("mean_info_band", [0.9, 1.0, 1.1]),
        ("mean_info_band", [0.0, 1.0]),
        ("mean_info_band", [0.9, float("inf")]),
        ("mean_info_band", ["a", "b"]),
        ("ergodic_rel", 0.0),
        ("ergodic_rel", -0.05),
        ("seed", "abc"),
        ("T", "5s"),
        ("theta", None),
        ("tests", "ks_delta"),
        ("regime_hint", 5),
        ("regime_hint", "LANN"),
        ("n_replicates", 200.7),
        ("seed", 3.9),
        ("seed", float("inf")),
        ("seed", True),
        ("n_replicates", True),
        ("theta", True),
        ("dt", False),
        ("plamn_d", True),
        ("plamn_d", "abc"),
        ("mean_info_band", [True, True]),
    ],
)
def test_config_values_refused_by_name(key, value):
    # checked on the object that runs, so an override cannot bypass it
    with pytest.raises(HarnessError, match=key):
        config(**{key: value})
    with pytest.raises(HarnessError, match=key):
        dataclasses.replace(config(), **{key: value})


def test_config_integral_floats_accepted():
    cfg = config(n_replicates=200.0, seed=3.0, n_limit_draws=400.0, plamn_d=1)
    assert (cfg.n_replicates, cfg.seed, cfg.n_limit_draws) == (200, 3, 400)
    assert all(type(v) is int for v in (cfg.n_replicates, cfg.seed, cfg.n_limit_draws))
    assert type(cfg.plamn_d) is float


@pytest.mark.parametrize("name", ["lan_ou.json", "laq_bm.json", "lamn_ou.json"])
def test_single_path_statistics_are_experiment_rows(name):
    # a replicate's statistics are the same bits through simulate +
    # score_and_info / mle as in run_experiment's streamed chunks
    from sddelab.inference import mle, score_and_info
    from sddelab.kernels import Grid
    from sddelab.measures import SignedMeasure
    from sddelab.simulate import InitialPath, derive_seed, simulate

    doc = json.loads(importlib.resources.files("sddelab").joinpath("configs", name).read_text())
    res = run_experiment(ExperimentConfig.from_dict({**doc, "n_replicates": 5, "n_limit_draws": 50, "tests": []}))
    a = SignedMeasure.from_dict(res.config.measure)
    grid = Grid.build(a.r, res.config.T, res.config.dt)
    scaling = res.report.scaling.value(grid.T)
    for i in range(5):
        path = simulate(res.config.theta, a, InitialPath.from_dict(res.config.x0), grid, derive_seed(res.config.seed, i))
        pair = score_and_info(path, res.config.theta, scaling)
        assert (pair.delta, pair.info, mle(path)) == (res.delta[i], res.info[i], res.theta_hat[i])


# ---------------------------------------------------------------------------
# persistence


def test_dump_json_17_digits():
    buf = io.StringIO()
    dump_json({"x": 1.0 / 3.0, "arr": [1.5, 2.0], "none": None, "inf": float("inf")}, buf)
    text = buf.getvalue()
    assert "0.33333333333333331" in text
    assert '"none": null' in text and '"inf": null' in text


def _fmt_per_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    return format(xf, ".17g") if math.isfinite(xf) else "null"


def _dump_json_per_value(obj, fh, indent=0):
    """Reference writer: every element of a number sequence, numpy scalars
    included, through one type-dispatching formatter."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        fh.write("{\n")
        for i, (k, v) in enumerate(obj.items()):
            fh.write(pad + "  " + json.dumps(str(k)) + ": ")
            _dump_json_per_value(v, fh, indent + 2)
            fh.write(",\n" if i < len(obj) - 1 else "\n")
        fh.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            fh.write("[]")
        elif all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            fh.write("[" + ", ".join(_fmt_per_value(v) for v in seq) + "]")
        else:
            fh.write("[\n")
            for i, v in enumerate(seq):
                fh.write(pad + "  ")
                _dump_json_per_value(v, fh, indent + 2)
                fh.write(",\n" if i < len(seq) - 1 else "\n")
            fh.write(pad + "]")
    elif isinstance(obj, str):
        fh.write(json.dumps(obj))
    else:
        fh.write(_fmt_per_value(obj))


def test_dump_json_float_vectors_match_per_value_format():
    res = run_experiment(ExperimentConfig.from_dict(json.loads(
        importlib.resources.files("sddelab").joinpath("configs", "lan_ou.json").read_text()
    )))
    res.delta[:3] = (np.nan, np.inf, -0.0)  # non-finite values and a signed zero
    fast, slow = io.StringIO(), io.StringIO()
    write_result_json(res, fast)
    _dump_json_per_value(result_to_dict(res), slow)
    slow.write("\n")
    assert fast.getvalue() == slow.getvalue()
    mixed = {"f32": np.array([0.1, np.nan], dtype=np.float32), "ints": np.arange(3), "flags": np.array([True, False]),
             "grid": np.eye(2), "list": [1, 2.5, np.float64(3.0), True], "empty": np.array([])}
    fast, slow = io.StringIO(), io.StringIO()
    dump_json(mixed, fast)
    _dump_json_per_value(mixed, slow)
    assert fast.getvalue() == slow.getvalue()


def test_result_files_roundtrip():
    import json

    res = run_experiment(config(tests=["mean_info"], n_replicates=120))
    buf = io.StringIO()
    write_result_json(res, buf)
    doc = json.loads(buf.getvalue())
    assert doc["config"]["seed"] == 99
    assert len(doc["replicates"]["delta"]) == 120
    assert doc["regime_report"]["regime"] == "LAN"
    buf2 = io.StringIO()
    write_samples_csv(res, buf2)
    lines = buf2.getvalue().strip().splitlines()
    assert lines[0] == "replicate,seed,delta,info,theta_hat"
    assert len(lines) == 121
    # the rows as a per-replicate format writes them, seeds as exact ints
    want = [f"{i},{int(res.seeds[i])},{res.delta[i]:.17g},{res.info[i]:.17g},{res.theta_hat[i]:.17g}" for i in range(120)]
    assert lines[1:] == want


def test_lamn_with_initial_path_matches_limit():
    # x0 = 1 shifts the limit variable U; full pipeline against the sampler
    cfg = config(
        theta=0.5,
        T=25.0,
        dt=0.005,
        x0={"kind": "constant", "value": 1.0},
        n_replicates=400,
        seed=23,
        n_limit_draws=1000,
        tests=["ks_info", "normal_delta"],
    )
    res = run_experiment(cfg)
    assert res.report.regime == "LAMN"
    assert all(t["passed"] for t in res.tests)


def test_lamn_delay_atom_with_initial_path():
    # unit-delay atom: the limit's initial-path mixing integral is nonzero
    cfg = config(
        measure=DM1,
        theta=1.0,
        T=30.0,
        dt=0.005,
        x0={"kind": "constant", "value": 1.0},
        n_replicates=400,
        seed=29,
        n_limit_draws=1000,
        tests=["ks_info", "normal_delta"],
    )
    res = run_experiment(cfg)
    assert res.report.regime == "LAMN"
    assert all(t["passed"] for t in res.tests)


def test_lebesgue_density_ergodic_matches_fisher():
    from sddelab.kernels import fisher_limit
    from sddelab.measures import SignedMeasure
    from sddelab.spectrum import classify

    leb = {"r": 1.0, "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0]}]}
    rep = classify(-0.5, SignedMeasure.from_dict(leb))
    assert rep.regime == "LAN"
    cfg = config(measure=leb, theta=-0.5, T=150.0, dt=0.01, n_replicates=300, seed=31, tests=["ergodic"])
    res = run_experiment(cfg)
    row = res.tests[0]
    assert row["passed"]
    assert row["J"] == pytest.approx(
        fisher_limit(-0.5, SignedMeasure.from_dict(leb), report=rep), rel=1e-9
    )


def test_plamn_finite_horizon_matches_limit_law():
    # full pipeline against sample_plamn on the phase lattice (k = 10)
    from sddelab.measures import SignedMeasure
    from sddelab.spectrum import classify

    rep = classify(-2.0, SignedMeasure.from_dict(DM1))
    T = round((10 * rep.period + 1.0) / 0.005) * 0.005
    cfg = config(
        measure=DM1,
        theta=-2.0,
        T=T,
        dt=0.005,
        n_replicates=400,
        seed=37,
        n_limit_draws=1000,
        plamn_d=1.0,
        tests=["ks_info", "ks_delta", "normal_delta"],
    )
    res = run_experiment(cfg)
    assert res.report.regime == "PLAMN"
    assert res.passed


def test_plamn_phase_derived_from_horizon():
    # without an explicit plamn_d the phase is T modulo the period
    from sddelab.measures import SignedMeasure
    from sddelab.spectrum import classify

    rep = classify(-2.0, SignedMeasure.from_dict(DM1))
    res = run_experiment(
        config(measure=DM1, theta=-2.0, T=20.0, dt=0.005, n_replicates=64, n_limit_draws=50)
    )
    want = math.fmod(20.0, rep.period)
    assert res.diagnostics["plamn_d"] == pytest.approx(want, abs=1e-9)


def test_lamn_sampled_initial_path_matches_limit():
    # sampled initial segment exercises the mixing integral with a
    # non-constant path through the whole pipeline
    cfg = config(
        measure=DM1,
        theta=1.0,
        T=30.0,
        dt=0.005,
        x0={"kind": "sampled", "values": [0.5, -0.3, 1.2, 0.8, -0.1, 0.9, 0.4]},
        n_replicates=400,
        seed=41,
        n_limit_draws=1000,
        tests=["ks_info", "normal_delta"],
    )
    res = run_experiment(cfg)
    assert res.report.regime == "LAMN"
    assert res.passed
