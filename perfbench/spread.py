"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workloads mitm-free,golden-mix] [--first-seed 1]

Runs run.py once per seed and workload, round-robin: seed 1 on every
workload, then seed 2, and so on, reversing the workload order on every
other seed so that host drift is spread over all workloads alike. For each
workload and end-to-end metric it prints the median of the per-run values
and their quartile spread, (q3 - q1) / median, next to the metric's bound
from BENCHMARK.json, as one JSON object. Every run must be correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    names = args.workloads.split(",")
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in names if i % 2 == 0 else reversed(names):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    report = {}
    for w in names:
        for m in spec["end_to_end"]:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
            report[f"{w}/{m['name']}"] = {
                "median": med, "spread": (q3 - q1) / med, "bound": m["bound"], "runs": len(v),
            }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
