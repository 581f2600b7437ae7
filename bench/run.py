"""homlie's benchmark: time to verdict on four workloads, from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Load shape: a closed loop with one client.  Every pass is one fresh,
single-threaded Python process (``bench/worker.py``), started only after
the previous one has ended, so each pass pays interpreter start, import
and family construction as a CLI user does.

With ``--trace 0`` a run first starts ``SETUP_PROBES`` processes that
only set up, then starts passes while the next one still fits in
``--seconds`` (at least ``MIN_PASSES``), and reports the median of each
end-to-end metric.  With ``--trace 1`` it makes one untraced and one
traced pass and reports the per-layer metrics of the traced one, plus
the tracing overhead.  Every verdict of every pass is checked against
``bench/oracle.json``.  The last line of output is one JSON object.

``--workload all`` runs every workload and prints each metric by name
with its unit, followed by the verdict error ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracing import METRICS as LAYER_METRICS

SETUP_PROBES = 10
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class PassFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, *flags: str) -> tuple[float, dict]:
    """Start one worker process and wait for it; returns the monotonic
    time it was started at and its JSON result.

    The command line has the same length for every seed and checkout,
    because its length shifts the process's memory layout and so its
    peak resident size by up to half a megabyte."""
    worker = os.path.relpath(workloads.BENCH_DIR / "worker.py", workloads.ROOT)
    cmd = [sys.executable, worker, workload, f"{seed:020d}", *flags]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{workload}: pass exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"{workload}: worker exited {proc.returncode}\n{proc.stderr}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one untraced run."""
    setups, walls, rss = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    for _ in range(SETUP_PROBES):
        started, out = _child(workload, seed, "--setup-only")
        setups.append(out["ready"] - started)
    t0 = time.monotonic()
    while True:
        started, out = _child(workload, seed)
        setups.append(out["ready"] - started)
        walls.append(out["wall_s"])
        rss.append(out["rss_mb"])
        attempted += out["attempted"]
        failed += out["failed"]
        problems += out["problems"]
        elapsed = time.monotonic() - t0
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            break
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "values": values,
            "units": dict(END_TO_END)}


def measure_layers(workload: str, seed: int) -> dict:
    """Per-layer metrics of one traced pass, and the tracing overhead
    against an untraced pass of the same inputs."""
    _, plain = _child(workload, seed)
    _, traced = _child(workload, seed, "--trace")
    values = dict(traced["metrics"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = dict(LAYER_METRICS)
    units["trace.overhead_s"] = "s"
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "values": values, "units": units}


def _result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": res["units"][k]} for k, v in res["values"].items()},
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=20240917)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (workloads.ROOT / "src" / "homlie" / "__init__.py").is_file():
        print(f"no homlie sources under {workloads.ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            if args.trace:
                res = measure_layers(args.workload, args.seed)
            else:
                res = measure(args.workload, args.seed, args.seconds)
            for problem in res["problems"]:
                print(f"verdict error: {problem}", file=sys.stderr)
            print(_result_line(res))
            return 0
        for workload in workloads.WORKLOADS:
            runs = [measure(workload, args.seed, args.seconds)]
            if args.trace:
                runs.append(measure_layers(workload, args.seed))
            for res in runs:
                for name, value in res["values"].items():
                    print(f"{workload:10} {name:46} {value:>14.6g} {res['units'][name]}")
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{workload:10} {'verdict_error_ratio':46} {failed / attempted:>14.6g} "
                  f"ratio ({failed} of {attempted} verdicts)")
            for problem in (p for r in runs for p in r["problems"]):
                print(f"{workload:10} verdict error: {problem}")
        return 0
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
