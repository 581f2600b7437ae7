"""``homlie verify``, ``table``, ``diagram`` and ``catalogue`` reports,
stdout and exit codes, and ``bracket`` stdout and exit codes (it writes
no report), must match their golden copies in ``tests/golden/cli/``
byte for byte.

The runs are ``verify all`` at windows 4 and 5, ``verify virasoro`` at
window 6, the five ``--perturb`` runs of the benchmark's fault workload
at window 5, the ``table`` of every family (window 3, the Virasoro
cocycle at window 4, sl(2) and the cocycle specialized at (2, 3)),
``diagram`` at window 4, ``catalogue`` on 20 pairs, and ``bracket`` in
the dilation context (both README examples, both forced brackets), over
the inversion tau(t) = t^-1 and with a ``--gcd`` that divides nothing,
each in process through ``cli.main``.  Any change in a verdict, a witness, a
structure constant or the canonical form of a scalar shows up here.
After an intended change of output, record them again with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from homlie.cli import FAMILIES, main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# name -> (argv without --json, expected exit code)
RUNS = {
    "verify-all-w4": (["verify", "all", "--window", "4"], 0),
    "verify-all-w5": (["verify", "all", "--window", "5"], 0),
    "verify-virasoro-w6": (["verify", "virasoro", "--window", "6"], 0),
    "perturb-witt": (["verify", "witt", "--window", "5", "--perturb", "witt:1,2"], 1),
    "perturb-witt-forced": (
        ["verify", "witt-forced", "--window", "5", "--perturb", "witt-forced:2,-1"], 1),
    "perturb-inverse": (["verify", "inverse", "--window", "5", "--perturb", "inverse:1,2"], 1),
    "perturb-virasoro": (
        ["verify", "virasoro", "--window", "5", "--perturb", "virasoro:3"], 1),
    "perturb-sl2": (["verify", "sl2", "--window", "5", "--perturb", "sl2:e,f"], 1),
    **{f"table-{family}-w3": (["table", family, "--window", "3"], 0) for family in FAMILIES},
    "table-virasoro-w4": (["table", "virasoro", "--window", "4"], 0),
    "table-sl2-specialized": (["table", "sl2", "--specialize", "2", "3"], 0),
    "table-virasoro-specialized": (
        ["table", "virasoro", "--window", "4", "--specialize", "2", "3"], 0),
    "diagram-w4": (["diagram", "--window", "4"], 0),
    "catalogue-pairs20": (["catalogue", "--pairs", "20"], 0),
    "bracket-dilation-d": (
        ["bracket", "--tau", "p*t", "--sigma", "q*t", "-a", "-t^2", "-b", "-t", "--basis", "d"], 0),
    "bracket-dilation-gcd": (
        ["bracket", "--tau", "p*t", "--sigma", "q*t", "--gcd", "(p-q)*t", "-a", "1", "-b", "-t^2"],
        0),
    **{f"bracket-{kind}": (
        ["bracket", "--tau", "p*t", "--sigma", "q*t", "-a", "-t^2", "-b", "-t",
         "--kind", kind, "--basis", "d"], 0) for kind in ("forced-sigma", "forced-tau")},
    "bracket-inversion-d": (
        ["bracket", "--tau", "t^-1", "--sigma", "q*t", "-a", "-t^2", "-b", "-t", "--basis", "d"],
        0),
    # the error text goes to stderr, which is not compared
    "bracket-bad-gcd": (
        ["bracket", "--tau", "p*t", "--sigma", "q*t", "--gcd", "t+1", "-a", "1", "-b", "-t^2"], 2),
}


def _run(argv: list[str]) -> tuple[int, str, str | None]:
    """Exit code, stdout and the JSON report of one CLI run; the report
    is None for ``bracket``, which takes no --json."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if argv[0] == "bracket":
            return main(argv), out.getvalue(), None
        path = Path(tmp) / "report.json"
        code = main(argv + ["--json", str(path)])
        return code, out.getvalue(), path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_matches_golden(name):
    argv, want_code = RUNS[name]
    code, stdout, report = _run(argv)
    assert code == want_code
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    if report is not None:
        assert report == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (argv, want_code) in RUNS.items():
        code, stdout, report = _run(argv)
        if code != want_code:
            sys.exit(f"{name}: exit {code}, expected {want_code}")
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        if report is not None:
            (GOLDEN / f"{name}.json").write_text(report, encoding="utf-8")
