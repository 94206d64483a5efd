"""Self-test of the benchmark at reduced input size (about two minutes).

    python3 perfbench/selftest.py

For every workload, untraced and traced, checks that the result line carries
exactly the metrics BENCHMARK.json names for that mode, each with its unit,
that the run is correct, and that the extra lines (failed_frac, and
replicate_steps_per_s on the mc_* workloads) are printed with their units.
Then plants one wrong oracle value per workload and checks that the run
reports failed operations.  Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_shipped", "mc_density", "analyze_catalog")


def run(workload: str, trace: int, *flags: str) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--small", *flags]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace} {flags}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, res = run(workload, trace)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want[trace]:
                raise SystemExit(f"FAIL {workload} trace={trace}: metrics {sorted(got)} != {sorted(want[trace])}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                raise SystemExit(f"FAIL {workload} trace={trace}: {res['failed']} of {res['attempted']} operations failed")
            extra = ["failed_frac = 0 ratio"]
            if workload.startswith("mc_"):
                extra.append("replicate_steps_per_s = ")
            for prefix in extra:
                if not any(line.startswith(prefix) and (not prefix.endswith("= ") or line.endswith(" 1/s")) for line in lines):
                    raise SystemExit(f"FAIL {workload} trace={trace}: no line {prefix!r}")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, {res['attempted']} operations")
        lines, res = run(workload, 0, "--broken-oracle")
        failed_frac = res["failed"] / res["attempted"]
        if not failed_frac > 0 or res["correct"]:
            raise SystemExit(f"FAIL {workload}: a wrong oracle left failed_frac at {failed_frac}")
        print(f"ok {workload} with a wrong oracle: failed_frac {failed_frac:.3g}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
