"""commlab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload mitm-free --seed 1 --seconds 25 --trace 0

Run from the repository root. With --trace 0 it runs the workload's commands
as real `commlab` CLI children, one at a time, each pass next to two timed
setup commands (`lu knapp --q 2`) and two reference children, until
--seconds have passed; it checks every report and prints the end-to-end
metrics. With --trace 1 it runs the commands in-process under the
outside-in tracer (tracer.py) and prints the per-layer metrics. Metric
names and units come from BENCHMARK.json. The last line of stdout is the
result object; the line before it gives each sample set's quartiles and
sample count, the unscaled times, and the failure ratio with its base.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)

import child  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2      # setup commands timed next to each pass
BUDGET_S = 170        # a child still running this long after start is killed
TAIL_BEYOND = 10      # samples beyond the reported tail percentile
STARTED = time.perf_counter()

# A stdlib-only reference child, timed next to every pass. Its median time in
# a run says how fast the host runs Python during that run, independent of
# commlab; time metrics are scaled to a host on which it takes REFERENCE_S.
REFERENCE = """
from fractions import Fraction as F
t = {}
x = F(1)
for i in range(1, 4000):
    x = x * F(i, i + 1) + F(1, i)
    if x.denominator > 10 ** 40:
        x = F(x.numerator % 997 + 1, 7)
    t[x] = i
"""
REFERENCE_S = 0.1

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import commlab.cli; "
    "print(time.perf_counter() - t)"
)


def remaining_s():
    return max(0.1, STARTED + BUDGET_S - time.perf_counter())


class Runner:
    """Spawns `commlab` children and keeps the failure count."""

    def __init__(self):
        self.env = child.cli_env(SRC)
        self.attempted = 0
        self.errors = []

    def invoke(self, argv, check, slot):
        r = child.run(
            (sys.executable, "-m", "commlab.cli", *argv), self.env,
            os.path.join(WORKDIR, f"out-{slot}.txt"), os.path.join(WORKDIR, f"err-{slot}.txt"),
            remaining_s(),
        )
        self.attempted += 1
        err = check(r.code, r.stdout)
        if err:
            self.errors.append(f"{' '.join(argv)}: {err}")
        return r

    def reference(self):
        r = child.run((sys.executable, "-c", REFERENCE), self.env,
                      os.path.join(WORKDIR, "out-ref.txt"), os.path.join(WORKDIR, "err-ref.txt"),
                      remaining_s())
        if r.code != 0:
            sys.exit(f"reference child failed with exit {r.code}")
        return r.wall_s


def summary(values):
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it, and
    that percentile; the maximum when there are too few samples."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def measure(workload, seconds):
    """End-to-end metrics. Pass and command times are the fastest of the run,
    the sample least inflated by neighbours on a shared host; setup_s is the
    median of its probes. Time metrics are then scaled by REFERENCE_S over
    the run's median reference time, which takes out most of the host's
    drift between runs. The detail keeps the raw figures, every sample set's
    median and quartiles, and the scale."""
    runner = Runner()
    # Warm-up: byte-compiles the sources and fills the file cache, as an
    # installed package would have; checked and counted, not timed.
    runner.invoke(workloads.SETUP_ARGV, workloads.check_setup, "setup")
    setup, walls, rss, cpu, ref = [], [], [], [], []
    latencies = {cmd.label: [] for cmd in workload.commands}
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        for _ in range(SETUP_PROBES):
            ref.append(runner.reference())
            setup.append(runner.invoke(workloads.SETUP_ARGV, workloads.check_setup, "setup").wall_s)
        results = [runner.invoke(cmd.argv, cmd.check, i) for i, cmd in enumerate(workload.commands)]
        walls.append(sum(r.wall_s for r in results))
        rss.append(max(r.peak_rss_mb for r in results))
        for cmd, r in zip(workload.commands, results):
            latencies[cmd.label].append(r.wall_s)
            cpu.append(r.cpu_s)
    every_cmd = [t for ts in latencies.values() for t in ts]
    tail_s, tail_pct = tail(every_cmd)
    raw = {
        "wall_s": min(walls),
        "setup_s": statistics.median(setup),
        "cmd_p50_s": statistics.median(min(ts) for ts in latencies.values()),
    }
    scale = REFERENCE_S / statistics.median(ref)
    values = {name: t * scale for name, t in raw.items()}
    values["work_per_s"] = workload.work_units / values["wall_s"]
    values["peak_rss_mb"] = statistics.median(rss)
    detail = {
        "raw": dict(raw, work_per_s=workload.work_units / raw["wall_s"]),
        "scale": scale,
        "reference_s": summary(ref),
        "wall_s": summary(walls),
        "peak_rss_mb": summary(rss),
        "setup_s": summary(setup),
        "cmd_s": summary(every_cmd),
        "cmd_cpu_s": summary(cpu),
        "cmd_tail_s": {"value": tail_s, "percentile": tail_pct, "n": len(every_cmd)},
        "work_unit": f"{workload.work_units} {workload.work_unit} per pass",
    }
    return runner.attempted, runner.errors, values, detail


def trace(workload_name, seed, seconds):
    """Per-layer metrics: cli.import_s from fresh interpreters, the rest from
    the traced in-process run in tracer.py."""
    env = child.cli_env(SRC)
    imports = []
    for _ in range(3):
        r = child.run((sys.executable, "-c", IMPORT_PROBE), env,
                      os.path.join(WORKDIR, "out-import.txt"),
                      os.path.join(WORKDIR, "err-import.txt"), remaining_s())
        if r.code != 0:
            sys.exit(f"importing commlab.cli failed with exit {r.code}")
        imports.append(float(r.stdout))
    argv = (sys.executable, os.path.join(HERE, "tracer.py"), "--workload", workload_name,
            "--seed", str(seed), "--seconds", str(seconds), "--workdir", WORKDIR)
    r = child.run(argv, env, os.path.join(WORKDIR, "out-trace.txt"),
                  os.path.join(WORKDIR, "err-trace.txt"), remaining_s())
    if r.code != 0:
        sys.exit(f"traced run failed with exit {r.code}; see {WORKDIR}/err-trace.txt")
    traced = json.loads(r.stdout.splitlines()[-1])
    values = dict(traced["metrics"], **{"cli.import_s": statistics.median(imports)})
    detail = {"traced_passes": traced["passes"], "cli.import_s": summary(imports),
              "spans": traced["spans"]}
    return traced["attempted"], traced["errors"], values, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.GENERATORS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    missing = [p for p in (spec_path, os.path.join(SRC, "commlab", "cli.py"),
                           os.path.join(ROOT, "tests", "golden", "cases.json"))
               if not os.path.isfile(p)]
    if missing:
        sys.exit(f"not a commlab checkout, missing: {', '.join(missing)}")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(ROOT)  # golden cases name files relative to the repository root
    os.makedirs(WORKDIR, exist_ok=True)

    if args.trace:
        attempted, errors, values, detail = trace(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        workload = workloads.GENERATORS[args.workload](args.seed, WORKDIR)
        attempted, errors, values, detail = measure(workload, args.seconds)
        wanted = spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        sys.exit(f"metrics not measured: {', '.join(absent)}")
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    detail["fail_ratio"] = {"failed": len(errors), "attempted": attempted,
                            "value": len(errors) / attempted}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
