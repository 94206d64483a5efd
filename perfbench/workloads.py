"""The benchmark's workloads and the exact oracles that check their outputs.

A workload is a list of operations.  An operation is one experiment (run
through ``sddelab.cli.main`` exactly as the command line runs it) or one
catalog item (classify, dump the report, then the limit information or
limit-law draws).  ``run`` is the timed part; ``check`` reads the outputs
afterwards and returns the problems it found, a SHA-256 fingerprint of the
output, and counts observed in the output files.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib
import importlib.resources
import io
import json
import math
import os
import platform
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.special import lambertw

import sddelab

# by name, because the package attribute sddelab.simulate is the simulate
# function, not the module
cli = importlib.import_module("sddelab.cli")
harness = importlib.import_module("sddelab.harness")
kernels = importlib.import_module("sddelab.kernels")
limit_laws = importlib.import_module("sddelab.limit_laws")
measures = importlib.import_module("sddelab.measures")
simulate = importlib.import_module("sddelab.simulate")
spectrum = importlib.import_module("sddelab.spectrum")


# the generated LAN experiment of mc_density: one atom plus a linear density
DENSITY_MEASURE = {"r": 1.0, "atoms": [{"u": 0.0, "w": 1.0}], "density": [{"lo": -1.0, "hi": 0.0, "coeffs": [1.0, 1.0]}]}

# regime each shipped config must classify to (acceptance runs)
SHIPPED = {"lan_ou": "LAN", "laq_bm": "LAQ", "lamn_ou": "LAMN"}

CATALOG_DRAWS = 2000
FAMILY_R = (1, 2, 4, 8)


@dataclass
class Outcome:
    fingerprint: str
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    verdict: bool | None = None


def _packaged(name: str) -> dict:
    return json.loads(importlib.resources.files("sddelab").joinpath("configs", name).read_text())


class Experiment:
    """One `sddelab experiment` call on a config file written at set-up."""

    def __init__(self, name, config: dict, work_dir: str, seed: int, regime: str, J: float | None, broken: bool):
        self.name = name
        self.config = config
        self.seed = seed
        self.regime = regime
        self.J = J
        self.rows = config["n_replicates"] + (1 if broken else 0)
        self.config_path = os.path.join(work_dir, f"{name}.json")
        self.out_dir = os.path.join(work_dir, f"{name}-out")
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)
        grid = kernels.Grid.build(config["measure"]["r"], config["T"], config["dt"])
        self.sizes = {
            "replicates": config["n_replicates"],
            "n_delay": grid.n_delay,
            "n_steps": grid.n_steps,
            "replicate_steps": config["n_replicates"] * grid.n_steps,
        }

    def run(self) -> int:
        argv = ["experiment", "--config", self.config_path, "--out-dir", self.out_dir, "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, rc: int) -> Outcome:
        with open(os.path.join(self.out_dir, "result.json"), "rb") as fh:
            raw = fh.read()
        with open(os.path.join(self.out_dir, "samples.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        res = json.loads(raw)
        out = Outcome(fingerprint=hashlib.sha256(raw).hexdigest(), verdict=bool(res["passed"]))
        problems = out.problems
        # exit code 0 exactly when every test row passed (1 otherwise)
        if rc != (0 if res["passed"] else 1):
            problems.append(f"exit code {rc} with passed={res['passed']}")
        if res["passed"] != all(t["passed"] for t in res["tests"]):
            problems.append("verdict disagrees with its test rows")
        if [t["name"] for t in res["tests"]] != self.config["tests"]:
            problems.append("test rows do not match the configured tests")
        if len(rows) != self.rows:
            problems.append(f"samples.csv has {len(rows)} rows, expected {self.rows}")
        if res["config"]["seed"] != self.seed:
            problems.append("--seed not applied")
        if res["regime_report"]["regime"] != self.regime:
            problems.append(f"regime {res['regime_report']['regime']}, expected {self.regime}")
        if self.J is not None and not abs(res["diagnostics"]["J_limit"] - self.J) <= 1e-4:
            problems.append(f"J_limit {res['diagnostics']['J_limit']!r}, expected {self.J}")
        reps = res["replicates"]
        if any(v is None for key in ("delta", "info") for v in reps[key]):
            problems.append("non-finite delta or info")
        info = np.array([float(r[3]) for r in rows])
        out.observed = {
            "result_bytes": len(raw),
            "dropped_replicates": int(np.count_nonzero(info <= 0)) if "normal_delta" in self.config["tests"] else 0,
        }
        return out


@dataclass
class CatalogItem:
    """classify + report dump + LAN information or limit-law draws."""

    name: str
    theta: float
    a: object  # SignedMeasure
    regime: str
    oracle: object  # (report, draws) -> problem text or None
    n_draws: int
    rng_seed: list[int]

    def run(self):
        theta, a = self.theta, self.a
        report = spectrum.classify(theta, a)
        buf = io.StringIO()
        harness.dump_json(report.to_dict(), buf)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.rng_seed)))
        x0 = simulate.InitialPath.zero()
        n = self.n_draws
        if report.regime == "LAN":
            draws = harness.limit_information(theta, a, report)
        elif report.regime == "LAQ":
            draws = limit_laws.sample_laq_many(theta, a, report, n, rng)
        elif report.regime == "LAMN":
            draws = limit_laws.sample_lamn_many(theta, a, report, x0, n, rng)
        elif report.regime == "PLAMN":
            draws = limit_laws.sample_plamn_many(theta, a, report, x0, 0.0, n, rng)
        else:
            draws = None
        return report, buf.getvalue(), draws

    def check(self, out) -> Outcome:
        report, text, draws = out
        h = hashlib.sha256(text.encode())
        problems = []
        if report.regime != self.regime:
            problems.append(f"regime {report.regime}, expected {self.regime}")
        if isinstance(draws, float):
            h.update(repr(draws).encode())
            if not (math.isfinite(draws) and draws > 0):
                problems.append(f"J = {draws!r} is not finite and positive")
        elif draws is not None:
            delta, info = draws
            h.update(np.ascontiguousarray(delta).tobytes() + np.ascontiguousarray(info).tobytes())
            if delta.size != self.n_draws or info.size != self.n_draws:
                problems.append(f"{delta.size} draws, expected {self.n_draws}")
            if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(info)) and np.all(info > 0)):
                problems.append("draws not finite with info > 0")
        problem = self.oracle(report, draws) if self.oracle else None
        if problem:
            problems.append(problem)
        return Outcome(fingerprint=h.hexdigest(), problems=problems)


def _expect_J(value: float, tol: float):
    def oracle(report, J):
        if not (isinstance(J, float) and abs(J - value) <= tol):
            return f"J = {J!r}, expected {value!r} within {tol:g}"
        return None

    return oracle


def _expect_rightmost(value: float, scale: float = 1.0):
    """Rightmost root v0 with scale * v0 equal to `value` to 1e-12."""

    def oracle(report, _):
        if not abs(scale * report.v0 - value) <= 1e-12:
            return f"{scale:g} * v0 = {scale * report.v0!r}, expected {value!r}"
        return None

    return oracle


def _expect_H(values):
    def oracle(report, _):
        if len(report.H) != len(values) or any(abs(h - v) > 1e-9 for h, v in zip(report.H, values)):
            return f"H = {report.H!r}, expected {values!r}"
        return None

    return oracle


def _catalog(seed: int, small: bool, broken: bool) -> list[CatalogItem]:
    def m(name):
        return measures.SignedMeasure.from_dict(_packaged(f"{name}.json"))

    w1 = float(lambertw(1.0).real) + (1e-6 if broken else 0.0)
    w0_minus2 = float(lambertw(-2.0).real)
    # expected regimes follow from the roots; see NOTES.md
    spec = [
        ("dirac0@-0.5", -0.5, m("dirac0"), "LAN", _expect_J(1.0, 1e-4)),
        ("dirac0@0.5", 0.5, m("dirac0"), "LAMN", None),
        ("dirac_delay@-1", -1.0, m("dirac_delay"), "LAN", None),
        ("dirac_delay@1", 1.0, m("dirac_delay"), "LAMN", _expect_rightmost(w1)),
        ("hayes_boundary@-pi/2", -math.pi / 2, m("hayes_boundary"), "LAQ", _expect_H([math.pi / 2])),
        ("balanced_atoms@0", 0.0, m("balanced_atoms"), "LAN", _expect_J(1.0, 0.0)),
        ("balanced_atoms@1", 1.0, m("balanced_atoms"), "LAQ", None),
    ]
    if not small:
        spec.append(("sin_density@1", 1.0, m("sin_density"), "PLAMN", None))
    for r in FAMILY_R[:2] if small else FAMILY_R:
        a = measures.SignedMeasure.from_dict({"r": float(r), "atoms": [{"u": -float(r), "w": 1.0}]})
        spec.append((f"delay_family@r={r}", -2.0 / r, a, "PLAMN", _expect_rightmost(w0_minus2, scale=r)))
    n_draws = CATALOG_DRAWS // 10 if small else CATALOG_DRAWS
    return [
        CatalogItem(name, theta, a, regime, oracle, n_draws, [seed, i])
        for i, (name, theta, a, regime, oracle) in enumerate(spec)
    ]


def build(workload: str, seed: int, work_dir: str, small: bool = False, broken: bool = False):
    """Operations of one workload and their input sizes.  `small` shrinks the
    inputs for the self-test; `broken` plants one wrong oracle value."""
    if workload == "analyze_catalog":
        ops = _catalog(seed, small, broken)
        sizes = {"items": len(ops), "limit_draws_per_item": ops[0].n_draws, "family_r": list(FAMILY_R[:2] if small else FAMILY_R)}
        return ops, sizes
    if workload == "mc_shipped":
        configs = {name: _packaged(f"{name}.json") for name in SHIPPED}
        regimes, J = SHIPPED, {"lan_ou": 1.0}
    elif workload == "mc_density":
        configs = {
            "density_lan": {
                "measure": DENSITY_MEASURE,
                "theta": -0.5,
                "T": 200.0,
                "dt": 0.01,
                "n_replicates": 1000,
                "seed": seed,
                "tests": ["normal_delta", "mean_info", "ergodic"],
            }
        }
        regimes, J = {"density_lan": "LAN"}, {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for name, cfg in configs.items():
        if small:
            cfg = {**cfg, "n_replicates": 100}
        ops.append(Experiment(name, cfg, work_dir, seed, regimes[name], J.get(name), broken))
    sizes = {op.name: op.sizes for op in ops}
    return ops, sizes


def _last_level_cache_bytes() -> int | None:
    """L3 (else L2) cache size as glibc's sysconf reports it."""
    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    for name in (194, 191):  # glibc's _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE
        size = libc.sysconf(name)
        if size > 0:
            return size
    return None


def environment(seed: int, sizes: dict) -> dict:
    """What the numbers depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_count = getattr(harness, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sddelab": sddelab.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "replicate_pool_width": thread_count() if thread_count else 1,
        "last_level_cache_bytes": _last_level_cache_bytes(),
        "seed": seed,
        "sizes": sizes,
    }
