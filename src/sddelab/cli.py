"""Command-line entry point: analyze / kernel / simulate / estimate /
limits / experiment subcommands over JSON measure descriptors and
experiment configs.  Exit codes: 0 success, 1 test failure, 2 usage or
config error.  Numbers are serialized with 17 significant digits."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .harness import (
    ExperimentConfig,
    HarnessError,
    dump_json,
    load_json,
    run_experiment,
    sample_limit,
    write_result_json,
    write_samples_csv,
)
from .inference import mle, score_and_info
from .kernels import Grid, KernelError, solve_fundamental, y_kernel
from .limit_laws import LimitLawError
from .measures import MeasureError, SignedMeasure
from .simulate import InitialPath, path_from_csv, path_to_csv, simulate
from .spectrum import SpectrumError, classify

log = logging.getLogger("sddelab")


class CliError(Exception):
    """Usage/config error (exit code 2)."""


def _resolve_measure(spec: str) -> SignedMeasure:
    return SignedMeasure.from_dict(load_json(spec, "measure descriptor")[0])


def _parse_x0(spec: str) -> InitialPath:
    if spec == "zero":
        return InitialPath.zero()
    if spec.startswith("constant:"):
        return InitialPath.constant(float(spec.split(":", 1)[1]))
    if spec.startswith("file:"):
        return InitialPath.from_dict(load_json(spec.split(":", 1)[1], "initial path")[0])
    raise CliError(f"bad --x0 spec {spec!r}; use zero, constant:VALUE, or file:PATH")


def _out_fh(path: str | None):
    if path:
        return open(path, "w")
    import contextlib

    return contextlib.nullcontext(sys.stdout)


def cmd_analyze(args) -> int:
    a = _resolve_measure(args.measure)
    report = classify(args.theta, a, regime_hint=args.regime_hint)
    with _out_fh(args.out) as fh:
        dump_json(report.to_dict(), fh)
        fh.write("\n")
    return 0


def cmd_kernel(args) -> int:
    a = _resolve_measure(args.measure)
    grid = Grid.build(a.r, args.T, args.dt)
    kern = solve_fundamental(args.theta, a, grid)
    y = y_kernel(args.theta, a, kern)
    nd = grid.n_delay
    with _out_fh(args.out) as fh:
        fh.write("t,x0,y\n")
        for i, t in enumerate(grid.times()):
            if i < nd:
                fh.write(f"{t:.17g},{kern.x0_values[i]:.17g},\n")
            else:
                fh.write(f"{t:.17g},{kern.x0_values[i]:.17g},{y[i - nd]:.17g}\n")
    return 0


def cmd_simulate(args) -> int:
    a = _resolve_measure(args.measure)
    grid = Grid.build(a.r, args.T, args.dt)
    path = simulate(args.theta, a, _parse_x0(args.x0), grid, seed=args.seed)
    with _out_fh(args.out) as fh:
        path_to_csv(path, fh)
    return 0


def cmd_estimate(args) -> int:
    with open(args.path) as fh:
        path = path_from_csv(fh)
    theta_hat = mle(path)
    scaling = args.scaling if args.scaling is not None else path.grid.T**-0.5
    pair = score_and_info(path, args.theta, scaling)
    with _out_fh(args.out) as fh:
        dump_json(
            {
                "theta_hat": theta_hat,
                "delta": pair.delta,
                "info": pair.info,
                "T": pair.T,
                "scaling": pair.scaling,
            },
            fh,
        )
        fh.write("\n")
    return 0


def cmd_limits(args) -> int:
    a = _resolve_measure(args.measure)
    report = classify(args.theta, a, regime_hint=args.regime_hint)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    delta, info, _ = sample_limit(args.theta, a, report, _parse_x0(args.x0), args.n, rng, d=args.d)
    with _out_fh(args.out) as fh:
        fh.write("delta,info\n")
        for dv, iv in zip(delta, info):
            fh.write(f"{dv:.17g},{iv:.17g}\n")
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(*load_json(args.config, "experiment config"))
    overrides = {"seed": args.seed, "n_replicates": args.n_replicates}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    result = run_experiment(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        write_result_json(result, fh)
    with open(os.path.join(args.out_dir, "samples.csv"), "w") as fh:
        write_samples_csv(result, fh)
    for t in result.tests:
        log.info("test %s: %s", t["name"], "pass" if t["passed"] else "FAIL")
    print(f"experiment {'passed' if result.passed else 'FAILED'}; results in {args.out_dir}")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sddelab",
        description="Laboratory for likelihood asymptotics of a linear stochastic delay equation",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify the asymptotic regime")
    pa.add_argument("--theta", type=float, required=True)
    pa.add_argument("--measure", required=True)
    pa.add_argument("--regime-hint", default=None)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze)

    pk = sub.add_parser("kernel", help="dump fundamental solution and kernel as CSV")
    pk.add_argument("--theta", type=float, required=True)
    pk.add_argument("--measure", required=True)
    pk.add_argument("--T", type=float, required=True)
    pk.add_argument("--dt", type=float, default=1e-3)
    pk.add_argument("--out", default=None)
    pk.set_defaults(func=cmd_kernel)

    ps = sub.add_parser("simulate", help="simulate one sample path to CSV")
    ps.add_argument("--theta", type=float, required=True)
    ps.add_argument("--measure", required=True)
    ps.add_argument("--T", type=float, required=True)
    ps.add_argument("--dt", type=float, required=True)
    ps.add_argument("--x0", default="zero")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_simulate)

    pe = sub.add_parser("estimate", help="MLE and score statistics from a path CSV")
    pe.add_argument("--path", required=True)
    pe.add_argument("--theta", type=float, default=0.0, help="hypothesized drift for the score")
    pe.add_argument("--scaling", type=float, default=None)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_estimate)

    pl = sub.add_parser("limits", help="draw limit-law (delta, info) samples to CSV")
    pl.add_argument("--theta", type=float, required=True)
    pl.add_argument("--measure", required=True)
    pl.add_argument("--n", type=int, default=1000)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--d", type=float, default=None, help="PLAMN phase offset (default 0; PLAMN only)")
    pl.add_argument("--x0", default="zero")
    pl.add_argument("--regime-hint", default=None)
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_limits)

    px = sub.add_parser("experiment", help="run a Monte Carlo experiment config")
    px.add_argument("--config", required=True)
    px.add_argument("--out-dir", default="experiment_out")
    px.add_argument("--seed", type=int, default=None)
    px.add_argument("--n-replicates", type=int, default=None)
    px.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (
        CliError, MeasureError, KernelError, HarnessError, SpectrumError, LimitLawError, OSError, KeyError, ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
