"""Record the expected verdicts of every workload in ``bench/oracle.json``.

    python3 bench/make_oracle.py

Runs each workload once at its standard size (the catalogue with seed
20240917) and stores what every verdict gave: each clean suite's whole
JSON report, each fault run's exit code, entry count and failing check
ids, and each catalogue row's status and pair count.  It refuses to
record a clean verdict that is red or empty, or a fault run that is not
red, so the oracle never enshrines a wrong answer.
"""

from __future__ import annotations

import json
import sys

import workloads


def _refusals(workload: str, observed: dict) -> list[str]:
    bad = []
    for name, got in observed.items():
        if "raised" in got:
            bad.append(f"{name} raised {got['raised']}")
        elif workload == "catalogue":
            if not got["ok"] or got["pairs"] != workloads.SIZES["catalogue"]:
                bad.append(f"{name}: {got}")
        elif workload == "fault":
            if got["exit"] != 1 or not got["failing"]:
                bad.append(f"{name}: fault not reported red: {got}")
        elif not got["entries"] or any(e["status"] != "pass" for e in got["entries"]):
            bad.append(f"{name}: clean suite is empty or red")
    return bad


def main() -> int:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    oracle = {"sizes": workloads.SIZES}
    refusals = []
    for workload in workloads.WORKLOADS:
        observed = workloads.run(workload, workloads.prepare(workload, 20240917))
        refusals += _refusals(workload, observed)
        oracle[workload] = observed
    if refusals:
        print("\n".join(refusals), file=sys.stderr)
        return 1
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
