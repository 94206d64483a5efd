"""Seeded Monte Carlo experiments: replicate paths, finite-horizon score and
information statistics under the regime-correct scaling, matched limit-law
reference samples, and distributional / moment / ergodic tests.

Replicates are streamed in chunks: `simulate_sums` steps a chunk through a
sliding window of the delay horizon and keeps only the running sums the
statistics need, so memory grows with n_delay * REPLICATE_CHUNK and not with
the number of steps.  Every replicate draws its own counter-based stream
from a splittable seed (on every core, so the number of cores changes no
replicate) and every sum runs in step order, so for atom-only measures
results are bit-identical for any chunk size.  A density's
delay-window sum is formed by BLAS products, one per tile of steps, whose
rounding depends on the batch shape and the tile split, so with a density
they agree across chunk sizes to rounding only.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__
# simulate_batch and batch_statistics are not called here, but stay importable
# from this module: perfbench/spans.py wraps them under the harness's names
from .inference import batch_statistics, statistics_from_sums  # noqa: F401
from .kernels import Grid, fisher_limit
from .limit_laws import LimitLawError, sample_lamn_many, sample_lan_many, sample_laq_many, sample_plamn_many
from .measures import SignedMeasure, json_document
from .simulate import InitialPath, derive_seed, simulate_batch, simulate_sums, write_csv  # noqa: F401
from .special import kolmogorov_sf, normal_cdf
from .spectrum import REGIME_HINTS, RegimeReport, classify

# replicates streamed together, the one memory bound: a chunk holds about
# n_delay + 1 + simulate.BLOCK floats per replicate, and a tile scratch of
# (simulate.TILE + 1) * 3 more, whatever the number of steps (the chunk size
# moves density results by rounding only)
REPLICATE_CHUNK = 1024


class HarnessError(RuntimeError):
    pass


def load_json(spec: str, what: str, base_dir: str | None = None) -> tuple[dict, str | None]:
    """The JSON document in the file `spec` (relative to `base_dir`, if
    given), else in the packaged config of that name, and the directory that
    relative paths in it refer to."""
    path = os.path.join(base_dir or "", spec)
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh), os.path.dirname(path)
    packaged = importlib.resources.files("sddelab").joinpath("configs", spec)
    if packaged.is_file():
        with packaged.open() as fh:
            return json.load(fh), None
    raise HarnessError(f"{what} {spec!r} not found (no such file or packaged config)")


@dataclass
class ExperimentConfig:
    measure: dict
    theta: float
    T: float
    dt: float
    x0: dict = field(default_factory=lambda: {"kind": "zero"})
    n_replicates: int = 1000
    seed: int = 0
    n_limit_draws: int = 2000
    regime_hint: str | None = None
    plamn_d: float | None = None
    tests: tuple[str, ...] = ()
    p_threshold: float = 0.001
    mean_info_band: tuple[float, float] = (0.95, 1.05)
    ergodic_rel: float = 0.05

    def __post_init__(self):
        # a field whose default is None may be None; a boolean is no number,
        # and an integer field takes only integral values
        numbers = {"float": (float, "a number"), "float | None": (float, "a number"), "int": (int, "an integer")}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in numbers and not (value is None and f.default is None):
                kind, what = numbers[f.type]
                try:
                    number = kind(value)
                    ok = not isinstance(value, bool) and (kind is float or number == float(value))
                except (TypeError, ValueError, OverflowError):
                    ok = False
                if not ok:
                    raise HarnessError(f"experiment config field {f.name!r} must be {what}, got {value!r}")
                setattr(self, f.name, number)
        if not isinstance(self.tests, (list, tuple)):
            raise HarnessError(f"experiment config field 'tests' must be a list of test names, got {self.tests!r}")
        self.tests = tuple(self.tests)
        hint = self.regime_hint
        if not (hint is None or isinstance(hint, str) and hint.upper() in REGIME_HINTS):
            raise HarnessError(
                f"experiment config field 'regime_hint' must be null or one of {REGIME_HINTS}, got {hint!r}"
            )
        self.mean_info_band = band = tuple(self.mean_info_band)
        if self.n_replicates < 1:
            raise HarnessError(f"n_replicates must be >= 1, got {self.n_replicates}")
        if self.seed < 0:
            raise HarnessError(f"seed must be >= 0, got {self.seed}")
        if self.n_limit_draws < 0:
            raise HarnessError(f"n_limit_draws must be >= 0, got {self.n_limit_draws}")
        if not 0.0 < self.p_threshold < 1.0:
            raise HarnessError(f"p_threshold must lie in (0, 1), got {self.p_threshold}")
        finite = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in band)
        if not (len(band) == 2 and finite and 0 < band[0] <= band[1]):
            raise HarnessError(f"mean_info_band must be two finite numbers 0 < lo <= hi, got {list(band)}")
        if self.plamn_d is not None and not math.isfinite(self.plamn_d):
            raise HarnessError(f"plamn_d must be finite, got {self.plamn_d}")
        if not self.ergodic_rel > 0.0:
            raise HarnessError(f"ergodic_rel must be > 0, got {self.ergodic_rel}")
        for t in self.tests:
            if t not in TESTS:
                raise HarnessError(f"unknown test {t!r}; known: {tuple(TESTS)}")
        distributional = {"ks_delta", "ks_info", "normal_delta"} & set(self.tests)
        if distributional and self.n_replicates < 100:
            raise HarnessError("distributional tests need n_replicates >= 100")
        two_sample = sorted({"ks_delta", "ks_info"} & set(self.tests))
        if two_sample and self.n_limit_draws < 1:
            raise HarnessError(f"two-sample tests {', '.join(two_sample)} need n_limit_draws >= 1")

    @staticmethod
    def from_dict(d: dict, base_dir: str | None = None) -> "ExperimentConfig":
        with json_document(d, "experiment config", HarnessError):
            known = fields(ExperimentConfig)
            unknown = sorted(set(d) - {f.name for f in known})
            if unknown:
                raise HarnessError(f"unknown config keys: {', '.join(unknown)}")
            for f in known:
                if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
                    raise HarnessError(f"missing config key {f.name!r}")
            measure = d["measure"]
            if isinstance(measure, str):
                measure = load_json(measure, "measure descriptor", base_dir)[0]
            return ExperimentConfig(**{**d, "measure": measure})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    report: RegimeReport
    seeds: np.ndarray
    delta: np.ndarray
    info: np.ndarray
    theta_hat: np.ndarray
    mean_Y: np.ndarray
    mean_Y2: np.ndarray
    scaled_Y_T: np.ndarray
    limit_delta: np.ndarray
    limit_info: np.ndarray
    tests: list[dict]
    diagnostics: dict
    version: str
    passed: bool


# ---------------------------------------------------------------------------
# two-sample and one-sample Kolmogorov-Smirnov


def ks_two_sample(x, y) -> tuple[float, float]:
    """Classical two-sample KS statistic with the asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n1, n2 = x.size, y.size
    if n1 == 0 or n2 == 0:
        raise HarnessError("ks_two_sample needs nonempty samples")
    allv = np.concatenate([x, y])
    cdf1 = np.searchsorted(x, allv, side="right") / n1
    cdf2 = np.searchsorted(y, allv, side="right") / n2
    stat = float(np.max(np.abs(cdf1 - cdf2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return stat, kolmogorov_sf(en * stat)


def ks_vs_standard_normal(x) -> tuple[float, float]:
    """One-sample KS statistic against N(0, 1) with the asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    if n == 0:
        raise HarnessError("ks_vs_standard_normal needs a nonempty sample")
    cdf = normal_cdf(x)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    stat = float(max(np.max(np.abs(cdf - up)), np.max(np.abs(cdf - lo))))
    return stat, kolmogorov_sf(math.sqrt(n) * stat)


# ---------------------------------------------------------------------------
# experiment orchestration


def limit_information(theta: float, a: SignedMeasure, report: RegimeReport) -> float:
    """Deterministic LAN information constant."""
    return fisher_limit(theta, a, report)


def sample_limit(
    theta: float, a: SignedMeasure, report: RegimeReport, x0: InitialPath, n: int,
    rng: np.random.Generator, *, d: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """n draws (delta, info) of the limit law of the classified regime, and
    the LAN information constant the draws used (None for the other laws).
    `d` is the PLAMN phase offset (0 when None); no other law has a phase."""
    if n < 0:
        raise LimitLawError(f"n must be >= 0, got {n}")
    if d is not None and report.regime != "PLAMN":
        raise LimitLawError(f"a phase d applies to a PLAMN regime only, got {report.regime}")
    if report.regime == "LAN":
        J = limit_information(theta, a, report)
        return (*sample_lan_many(J, n, rng), J)
    if report.regime == "LAQ":
        return (*sample_laq_many(theta, a, report, n, rng), None)
    if report.regime == "LAMN":
        return (*sample_lamn_many(theta, a, report, x0, n, rng), None)
    if report.regime == "PLAMN":
        return (*sample_plamn_many(theta, a, report, x0, 0.0 if d is None else d, n, rng), None)
    raise HarnessError(
        "regime UNCLASSIFIED (contributing frequencies share no divisor); "
        "pass an explicit regime hint to force a limit family"
    )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    a = SignedMeasure.from_dict(config.measure)
    grid = Grid.build(a.r, config.T, config.dt)
    x0 = InitialPath.from_dict(config.x0)
    report = classify(config.theta, a, regime_hint=config.regime_hint)
    T = grid.T
    if config.plamn_d is not None and report.regime != "PLAMN":
        raise HarnessError(f"plamn_d applies to a PLAMN regime only, got {report.regime}")

    d_phase = None
    if report.regime == "PLAMN":
        period = report.period
        d_eff = math.fmod(T, period)
        if config.plamn_d is not None:
            want = float(config.plamn_d)
            gap = abs(math.fmod(d_eff - want + 0.5 * period, period) - 0.5 * period)
            if gap > max(grid.dt, 1e-9 * period):
                raise HarnessError(
                    f"T={T:g} is not on the lattice k*period+d for d={want:g} "
                    f"(period {period:g}, T mod period = {d_eff:g})"
                )
            d_phase = want
        else:
            d_phase = d_eff

    # drawn first, so an unclassified regime is refused before simulating;
    # the draws have their own Philox stream, so no replicate changes
    rng_limit = np.random.Generator(np.random.Philox(key=derive_seed(config.seed, 0, stream=1)))
    limit_delta, limit_info, J_const = sample_limit(
        config.theta, a, report, x0, config.n_limit_draws, rng_limit, d=d_phase
    )
    r_val = report.scaling.value(T)
    samples = {**replicate_statistics(config, a, x0, grid, r_val), "limit_delta": limit_delta, "limit_info": limit_info}

    diagnostics: dict = {
        "regime": report.regime,
        "scaling_value_at_T": r_val,
        **{f"median_{k}": float(np.median(samples[k])) for k in ("mean_Y", "mean_Y2", "scaled_Y_T")},
        "nan_theta_hat": int(np.count_nonzero(np.isnan(samples["theta_hat"]))),
    }
    if J_const is not None:
        diagnostics["J_limit"] = J_const
    if d_phase is not None:
        diagnostics["plamn_d"] = d_phase

    # the LAN information constant, computed only if a test asks for it
    J = functools.cache(lambda: J_const if J_const is not None else limit_information(config.theta, a, report))
    tests = [TESTS[name](samples, config, J) for name in config.tests]
    return ExperimentResult(
        config=config,
        report=report,
        **samples,
        tests=tests,
        diagnostics=diagnostics,
        version=__version__,
        passed=all(t["passed"] for t in tests),
    )


def replicate_statistics(
    config: ExperimentConfig, a: SignedMeasure, x0: InitialPath, grid: Grid, r_val: float
) -> dict[str, np.ndarray]:
    """seeds, delta, info, theta_hat, mean_Y, mean_Y2 and scaled_Y_T of every
    replicate, stepped in chunks of REPLICATE_CHUNK with r_val the scaling at
    T.  A replicate whose score or information is not finite is refused."""
    seeds = np.array([derive_seed(config.seed, i) for i in range(config.n_replicates)], dtype=np.uint64)
    with np.errstate(over="ignore", invalid="ignore"):
        chunks = [
            simulate_sums(config.theta, a, x0, grid, seeds[lo : lo + REPLICATE_CHUNK].tolist())
            for lo in range(0, seeds.size, REPLICATE_CHUNK)
        ]
        y_dx, y_y, y, y_end = (np.concatenate([getattr(c, f) for c in chunks]) for f in ("y_dx", "y_y", "y", "y_end"))
        stats = dict(zip(("delta", "info", "theta_hat"), statistics_from_sums(y_dx, y_y, grid.dt, config.theta, r_val)))
        stats.update(mean_Y=y * grid.dt / grid.T, mean_Y2=y_y * grid.dt / grid.T, scaled_Y_T=y_end * r_val)
    bad = np.flatnonzero(~(np.isfinite(stats["delta"]) & np.isfinite(stats["info"])))
    if bad.size:
        raise HarnessError(
            f"replicate {bad[0]} (seed {seeds[bad[0]]}) left the float range: its score or information is not finite"
        )
    return {"seeds": seeds, **stats}


# ---------------------------------------------------------------------------
# experiment tests: name -> row of result.json's "tests".  An entry takes the
# samples under their ExperimentResult names, the config and the memoised LAN
# constant J(); it looks up the KS functions when it runs, not at import.


def _ks_row(name: str, stat_p: tuple[float, float], config: ExperimentConfig) -> dict:
    stat, p = stat_p
    return {
        "name": name,
        "statistic": float(stat),
        "p_value": float(p),
        "threshold": config.p_threshold,
        "passed": bool(p > config.p_threshold),
    }


def _normal_delta(s: dict, config: ExperimentConfig, J) -> dict:
    ok = s["info"] > 0  # a replicate without information has no normalised score
    stat_p = ks_vs_standard_normal(s["delta"][ok] / np.sqrt(s["info"][ok])) if ok.any() else (math.nan, math.nan)
    return {**_ks_row("normal_delta", stat_p, config), "dropped": int(np.count_nonzero(~ok))}


def _mean_info(s: dict, config: ExperimentConfig, J) -> dict:
    m = float(np.mean(s["info"]))
    lo, hi = config.mean_info_band[0] * J(), config.mean_info_band[1] * J()
    return {"name": "mean_info", "statistic": m, "band": [lo, hi], "passed": bool(lo <= m <= hi)}


def _ergodic(s: dict, config: ExperimentConfig, J) -> dict:
    """Medians over replicates of (1/T) int Y dt and (1/T) int Y^2 dt, within
    ergodic_rel of 0 (on the scale sqrt(J)) and of J."""
    med1, med2, j = float(np.median(s["mean_Y"])), float(np.median(s["mean_Y2"])), J()
    ok = abs(med1) <= config.ergodic_rel * math.sqrt(j) and abs(med2 - j) <= config.ergodic_rel * j
    return {"median_mean_Y": med1, "median_mean_Y2": med2, "J": j, "passed": bool(ok), "name": "ergodic"}


TESTS = {
    "ks_delta": lambda s, config, J: _ks_row("ks_delta", ks_two_sample(s["delta"], s["limit_delta"]), config),
    "ks_info": lambda s, config, J: _ks_row("ks_info", ks_two_sample(s["info"], s["limit_info"]), config),
    "normal_delta": _normal_delta,
    "mean_info": _mean_info,
    "ergodic": _ergodic,
}


# ---------------------------------------------------------------------------
# persistence


def _fmt(x) -> str:
    if type(x) is float:  # the common case, a float vector's tolist() element
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if not math.isfinite(xf):
        return "null"
    return format(xf, ".17g")


def dump_json(obj, fh, indent=0) -> None:
    """JSON writer with floats at 17 significant digits (non-finite -> null)."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        fh.write("{\n")
        for i, (k, v) in enumerate(obj.items()):
            fh.write(pad + "  " + json.dumps(str(k)) + ": ")
            dump_json(v, fh, indent + 2)
            fh.write(",\n" if i < len(obj) - 1 else "\n")
        fh.write(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        # a float vector's tolist() holds Python floats, the cheapest to format
        floats = isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim == 1
        seq = obj.tolist() if floats else list(obj)
        if not seq:
            fh.write("[]")
            return
        if floats or all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq):
            fh.write("[" + ", ".join(_fmt(v) for v in seq) + "]")
        else:
            fh.write("[\n")
            for i, v in enumerate(seq):
                fh.write(pad + "  ")
                dump_json(v, fh, indent + 2)
                fh.write(",\n" if i < len(seq) - 1 else "\n")
            fh.write(pad + "]")
    elif isinstance(obj, str):
        fh.write(json.dumps(obj))
    else:
        fh.write(_fmt(obj))


def write_json(obj, fh) -> None:
    """One JSON document by `dump_json`, ended by a newline."""
    dump_json(obj, fh)
    fh.write("\n")


def write_samples_csv(result: ExperimentResult, fh) -> None:
    columns = (range(result.delta.size), result.seeds, result.delta, result.info, result.theta_hat)
    write_csv(fh, "replicate,seed,delta,info,theta_hat", *columns)


def result_to_dict(result: ExperimentResult) -> dict:
    return {
        "version": result.version,
        "passed": result.passed,
        "config": result.config.to_dict(),
        "regime_report": result.report.to_dict(),
        "tests": result.tests,
        "diagnostics": result.diagnostics,
        "replicates": {
            "seed": [int(s) for s in result.seeds],
            "delta": result.delta,
            "info": result.info,
            "theta_hat": result.theta_hat,
            "mean_Y": result.mean_Y,
            "mean_Y2": result.mean_Y2,
            "scaled_Y_T": result.scaled_Y_T,
        },
        "limit_samples": {"delta": result.limit_delta, "info": result.limit_info},
    }


def write_result_json(result: ExperimentResult, fh) -> None:
    write_json(result_to_dict(result), fh)
