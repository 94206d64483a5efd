"""sddelab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload mc_shipped --seed 1 --seconds 35 --trace 0

Each pass runs in a fresh worker process (worker.py) started from the
repository's own src/, one at a time, with BLAS pinned to one thread and the
program's replicate pool at its default width.  Passes repeat until the next
one would end after --seconds (at least MIN_PASSES of them).  Wall and set-up
time are medians over the passes, peak RSS is their mean.  Set-up time is
sampled at least MIN_SETUPS times, by set-up-only workers where the passes
are too few.

--trace 1 alternates untraced and traced passes instead and reports the
per-layer metrics of the traced ones (medians) plus the tracing overhead.

Human-readable lines come first.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Everything,
including the environment record and the output fingerprints, is also
written to .perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER_UNITS, dominant_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("mc_shipped", "mc_density", "analyze_catalog")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_PASSES = 2
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # a run never starts a pass it could not finish by then


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SDDE_LAN_THREADS", None)  # the pool keeps its default width
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--t-spawn", repr(t_spawn), *flags]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t_spawn)
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(flags)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def median(values) -> float:
    return float(statistics.median(values))


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over all passes.  An operation fails
    when a check found a problem or its output differs from the first pass's:
    every pass of a run has the same inputs, so outputs must be identical."""
    first = [op["fingerprint"] for op in passes[0]["ops"]]
    attempted = failed = 0
    notes = []
    for k, p in enumerate(passes):
        for i, op in enumerate(p["ops"]):
            attempted += 1
            problems = list(op["problems"])
            if op["fingerprint"] != first[i]:
                problems.append("output differs from pass 1")
            if problems:
                failed += 1
                notes.append(f"pass {k + 1} {op['name']}: {'; '.join(problems)}")
    return attempted, failed, notes


def fmt(v: float) -> str:
    return f"{v:.6g}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced inputs (self-test)")
    p.add_argument("--broken-oracle", action="store_true", help="plant one wrong oracle value (self-test)")
    args = p.parse_args()

    if not (ROOT / "src" / "sddelab" / "__init__.py").is_file():
        print(f"error: no sddelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    flags = [f for f, on in (("--small", args.small), ("--broken-oracle", args.broken_oracle)) if on]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, traced = [], []
    try:
        while True:
            passes.append(run_worker(args.workload, args.seed, deadline, *flags))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, deadline, "--trace", *flags))
            elapsed = time.monotonic() - start
            next_end = elapsed * (len(passes) + 1) / len(passes)
            if next_end > RUN_LIMIT_S or (next_end > args.seconds and (len(passes) >= MIN_PASSES or args.trace)):
                break
        setups = [q["setup_s"] for q in passes + traced]
        while len(setups) < MIN_SETUPS and time.monotonic() + 2 * max(setups) < deadline:
            setups.append(run_worker(args.workload, args.seed, deadline, "--setup-only", *flags)["setup_s"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, notes = count_failures(passes + traced)
    env = passes[0]["env"]
    e2e = {
        "wall_s": median(q["wall_s"] for q in passes),
        "setup_s": median(setups),
        # a mean, because the peak takes discrete levels (one chunk array
        # apart) that a median of a few passes jumps between
        "peak_rss_mb": statistics.fmean(q["peak_rss_mb"] for q in passes),
    }
    extra = {"failed_frac": (failed / attempted, "ratio")}
    steps = sum(s.get("replicate_steps", 0) for s in env["sizes"].values() if isinstance(s, dict))
    if steps:
        extra["replicate_steps_per_s"] = (steps / e2e["wall_s"], "1/s")
    layers = {}
    if args.trace:
        for name in PER_LAYER_UNITS:
            if name != "trace.overhead_frac":
                layers[name] = median(q["layers"][name] for q in traced)
        layers["trace.overhead_frac"] = median(q["wall_s"] for q in traced) / e2e["wall_s"] - 1.0
    verdict_failures = sum(1 for q in passes + traced for op in q["ops"] if op["verdict"] is False)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} untraced + {len(traced)} traced passes, {len(setups)} set-ups")
    print("env " + json.dumps(env))
    for k, q in enumerate(passes + traced):
        kind = "traced" if k >= len(passes) else "pass"
        print(f"{kind} {k + 1}: wall_s {fmt(q['wall_s'])} s, setup_s {fmt(q['setup_s'])} s, peak_rss_mb {fmt(q['peak_rss_mb'])} MB")
    for op in passes[0]["ops"]:
        verdict = "" if op["verdict"] is None else f" verdict={'pass' if op['verdict'] else 'FAIL'}"
        print(f"output {op['name']} sha256={op['fingerprint']}{verdict}")
    for note in notes:
        print(f"FAILED {note}")
    for name, unit in END_TO_END_UNITS.items():
        vals = [q[name] for q in passes] if name != "setup_s" else setups
        stat = "mean" if name == "peak_rss_mb" else "median"
        print(f"{name} = {fmt(e2e[name])} {unit} ({stat} of {len(vals)}, min {fmt(min(vals))}, max {fmt(max(vals))})")
    for name, (value, unit) in extra.items():
        print(f"{name} = {fmt(value)} {unit}")
    print(f"experiment verdicts failed: {verdict_failures} (statistical tests; not counted in failed_frac)")
    if layers:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name} = {fmt(layers[name])} {unit}")
        print(f"dominant layer: {dominant_layer(layers)}")

    metrics = layers if args.trace else e2e
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(
            {
                "result": result,
                "end_to_end": e2e,
                "extra": {k: v for k, (v, _) in extra.items()},
                "per_layer": layers,
                "dominant_layer": dominant_layer(layers) if layers else None,
                "verdict_failures": verdict_failures,
                "setups": setups,
                "passes": passes,
                "traced": traced,
                "failures": notes,
            },
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
