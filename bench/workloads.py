"""The four benchmark workloads and the checks on their verdicts.

A workload is prepared once (set-up: building the corpus or the
perturbation arguments) and then run, which makes every verification
call and returns one observation per verdict.  ``count_errors`` compares
those observations with the verdicts recorded in ``oracle.json``.

Only homlie's public entry points are called: ``homlie.cli.run_suite``
and ``homlie.cli.main`` for the suites, ``homlie.opcat.catalogue`` and
``verify_entry`` for the operator catalogue.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
ORACLE_PATH = BENCH_DIR / "oracle.json"

WORKLOADS = ("catalogue", "virasoro", "structure", "fault")

# The size of each workload: pairs per catalogue row, otherwise the window.
SIZES = {"catalogue": 100, "virasoro": 6, "structure": 5, "fault": 5}

STRUCTURE_SUITES = ("witt", "witt-forced", "sl2", "sigma-sigma", "inverse", "diagram")

# (suite, --perturb spec); each must turn its suite red.
FAULTS = (
    ("witt", "witt:1,2"),
    ("witt-forced", "witt-forced:2,-1"),
    ("inverse", "inverse:1,2"),
    ("virasoro", "virasoro:3"),
    ("sl2", "sl2:e,f"),
)

CATALOGUE_DEGREE = 6


def random_plain_poly(rng: random.Random, degree: int):
    """A random rational polynomial in t; the same draws as the corpus
    of ``homlie verify catalogue``, so seed 20240917 reproduces it.  The
    benchmark makes its own inputs so that a change to homlie cannot
    change them."""
    from homlie.opcat import PlainPoly
    from homlie.scalar import Scalar

    out = {}
    for k in range(degree + 1):
        if rng.random() < 0.6:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 5)
            if num:
                out[k] = Scalar.from_fraction(Fraction(num, den))
    if not out:
        out[rng.randint(0, degree)] = Scalar.from_int(rng.randint(1, 5))
    return PlainPoly(out)


def prepare(workload: str, seed: int, size: int | None = None):
    """Build the inputs of one pass.  Only the catalogue depends on the
    seed; the other workloads are fixed by their windows."""
    size = SIZES[workload] if size is None else size
    if workload == "catalogue":
        rng = random.Random(seed)
        corpus = [
            (random_plain_poly(rng, CATALOGUE_DEGREE), random_plain_poly(rng, CATALOGUE_DEGREE))
            for _ in range(size)
        ]
        return {"corpus": corpus}
    if workload == "virasoro":
        return {"suites": ("virasoro",), "window": size}
    if workload == "structure":
        return {"suites": STRUCTURE_SUITES, "window": size}
    if workload == "fault":
        argvs = [
            (spec, ["verify", suite, "--window", str(size), "--perturb", spec])
            for suite, spec in FAULTS
        ]
        return {"argvs": argvs}
    raise ValueError(f"unknown workload {workload!r}")


def _guarded(fn):
    """Run one verdict; an exception becomes an observation, not a crash."""
    try:
        return fn()
    except Exception as exc:  # a raised verdict is counted, then the pass goes on
        return {"raised": f"{type(exc).__name__}: {exc}"}


def _catalogue_row(entry, corpus):
    from homlie.opcat import verify_entry

    rep = verify_entry(entry, corpus=corpus)
    return {"ok": rep.ok, "pairs": len(rep.entries)}


def _fault_run(argv, tmp_dir: Path):
    from homlie.cli import main

    out = tmp_dir / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--json", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    return {
        "exit": code,
        "entries": len(report["entries"]),
        "failing": [e["id"] for e in report["entries"] if e["status"] != "pass"],
    }


def run(workload: str, inputs) -> dict[str, dict]:
    """Make every verification call of one pass; map verdict name to
    what was observed."""
    from homlie.cli import run_suite
    from homlie.opcat import catalogue

    observed: dict[str, dict] = {}
    if workload == "catalogue":
        for entry in catalogue():
            observed[entry.name] = _guarded(lambda: _catalogue_row(entry, inputs["corpus"]))
    elif workload == "fault":
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            for name, argv in inputs["argvs"]:
                observed[name] = _guarded(lambda: _fault_run(argv, Path(tmp)))
    else:
        for suite in inputs["suites"]:
            observed[suite] = _guarded(lambda: run_suite(suite, inputs["window"]).to_dict())
    return observed


def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text(encoding="utf-8"))


def count_errors(observed: dict[str, dict], expected: dict[str, dict]) -> tuple[int, list[str]]:
    """Verdicts that are wrong, vacuous, raised or missing.

    ``expected`` maps each verdict to its record: a suite's whole JSON
    report, a fault run's exit code, entry count and failing check ids,
    or a catalogue row's status and pair count.  Any difference is an
    error, so an empty or shortened report is one too.
    """
    problems = []
    for name, want in expected.items():
        got = observed.get(name)
        if got is None:
            problems.append(f"{name}: no verdict")
        elif "raised" in got:
            problems.append(f"{name}: raised {got['raised']}")
        elif got != want:
            problems.append(f"{name}: expected {_brief(want)}, got {_brief(got)}")
    for name in observed.keys() - expected.keys():
        problems.append(f"{name}: verdict not in the oracle")
    return len(problems), problems


def _brief(record: dict) -> str:
    if "entries" in record and isinstance(record["entries"], list):
        failing = [e["id"] for e in record["entries"] if e["status"] != "pass"]
        return f"{len(record['entries'])} entries, failing {failing}"
    return json.dumps(record, sort_keys=True)
