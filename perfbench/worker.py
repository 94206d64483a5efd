"""One pass of one workload in a fresh process; run.py starts it.

Prints one JSON line: set-up time, wall time of the timed section, peak RSS,
and per operation its problems, fingerprint and verdict.  With --trace the
layers are wrapped in spans (see trace.py) and the per-layer metrics and the
span file are added.  With --setup-only it stops after set-up.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() just before this process was started")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--small", action="store_true")
    p.add_argument("--broken-oracle", action="store_true")
    args = p.parse_args()

    if not (SRC / "sddelab" / "__init__.py").is_file():
        print(f"error: no sddelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sddelab

    if Path(sddelab.__file__).resolve().parent != SRC / "sddelab":
        print(f"error: imported sddelab from {sddelab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops, sizes = workloads.build(args.workload, args.seed, work_dir, args.small, args.broken_oracle)
        setup_s = time.monotonic() - args.t_spawn
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        outputs, op_s = [], []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            t_op = time.perf_counter()
            try:
                outputs.append((op.run(), None))
            except Exception:  # an operation that raises counts as failed; the pass goes on
                outputs.append((None, traceback.format_exc()))
            op_s.append(time.perf_counter() - t_op)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        results, observed = [], {}
        for op, (out, err), seconds in zip(ops, outputs, op_s):
            if err is None:
                try:
                    outcome = op.check(out)
                except Exception:  # unreadable output is a failed check
                    err = traceback.format_exc()
            if err is not None:
                print(f"{op.name}: {err}", file=sys.stderr)
                results.append({"name": op.name, "seconds": seconds, "problems": ["raised"], "fingerprint": None, "verdict": None})
                continue
            for k, v in outcome.observed.items():
                observed[k] = observed.get(k, 0) + v
            results.append(
                {
                    "name": op.name,
                    "seconds": seconds,
                    "problems": outcome.problems,
                    "fingerprint": outcome.fingerprint,
                    "verdict": outcome.verdict,
                }
            )
        record = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "ops": results,
            "env": workloads.environment(args.seed, sizes),
        }
        if tracer:
            record["layers"] = layer_metrics(tracer.spans, tracer.overflow_warnings(), observed)
            spans_path = OUT / f"spans-{args.workload}.json"
            tracer.write(spans_path)
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
