"""Run the benchmark once per seed and summarize each end-to-end metric.

    python3 bench/baseline.py [--runs 10] [--write]

For every workload it runs ``bench/run.py`` with seeds 1..N, one run at a
time, and prints the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the
metric's bound in ``BENCHMARK.json``.  With ``--write`` it records these
figures, with the machine, Python version, git revision and ``nproc``,
in ``bench/baseline.json``: the reference that later changes are
compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads


def _git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    summary = {}
    for workload in workloads.WORKLOADS:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(workloads.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong verdicts\n{proc.stderr}", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "values": vals}
            print(f"{workload:10} {name:12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:6.3f}  bound {bounds[name]}", flush=True)
    if args.write:
        record = {
            "machine": f"{_cpu_model()}, {platform.machine()}, {platform.system()}",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_rev": _git_rev(),
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        }
        path = workloads.BENCH_DIR / "baseline.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
