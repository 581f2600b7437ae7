"""One pass of one workload, in a fresh process, as a CLI user pays it.

    python3 bench/worker.py WORKLOAD SEED [--setup-only] [--trace]

Prints one JSON line: ``ready`` (the monotonic clock once imports and
inputs are built), ``done`` (after the last verdict), the verdict counts
and, with ``--trace``, the per-layer metrics.  ``bench/run.py`` starts
these processes one after another and turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(workloads.ROOT / "src"))
    import homlie.cli  # noqa: F401  the import is part of set-up
    import homlie.opcat  # noqa: F401

    inputs = workloads.prepare(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    observed = workloads.run(args.workload, inputs)
    done = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    expected = workloads.load_oracle()[args.workload]
    failed, problems = workloads.count_errors(observed, expected)
    result = {
        "ready": ready, "wall_s": done - start, "rss_mb": rss_mb,
        "attempted": len(expected), "failed": failed, "problems": problems,
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(workloads.OUT_DIR / f"spans-{args.workload}.txt")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
