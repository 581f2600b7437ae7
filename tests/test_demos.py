"""Each demo's stdout must match its golden copy in ``tests/golden/``.

The demos print rendered scalars, brackets and verdicts, so any change in
the canonical form or in a verdict shows up here.  After an intended
change of output, record a demo again with

    PYTHONPATH=src python demos/NAME.py > tests/golden/NAME.stdout
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_copy():
    assert DEMOS
    golden = {p.stem for p in (ROOT / "tests" / "golden").glob("*.stdout")}
    assert golden == {p.stem for p in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    run = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.stdout").read_text()
