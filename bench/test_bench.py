"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

from __future__ import annotations

import copy
import sys
import tempfile

import pytest

import workloads
from tracing import METRICS, Tracer, self_times

sys.path.insert(0, str(workloads.ROOT / "src"))


@pytest.fixture(scope="module")
def oracle():
    return workloads.load_oracle()


def test_clean_report_in_fault_check_is_an_error(oracle):
    expected = oracle["fault"]
    observed = copy.deepcopy(expected)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as tmp:
        clean = workloads._fault_run(["verify", "witt", "--window", "5"], workloads.Path(tmp))
    assert clean["exit"] == 0 and not clean["failing"]
    observed["witt:1,2"] = clean
    failed, problems = workloads.count_errors(observed, expected)
    assert failed == 1 and problems[0].startswith("witt:1,2:")
    assert workloads.count_errors(expected, expected) == (0, [])


def test_empty_report_is_an_error(oracle):
    expected = oracle["structure"]
    observed = copy.deepcopy(expected)
    observed["witt"]["entries"] = []
    assert workloads.count_errors(observed, expected)[0] == 1
    rows = copy.deepcopy(oracle["catalogue"])
    rows["shift"] = {"ok": True, "pairs": 0}
    assert workloads.count_errors(rows, oracle["catalogue"])[0] == 1


def test_raised_and_missing_verdicts_are_errors(oracle):
    expected = oracle["virasoro"]
    assert workloads.count_errors({"virasoro": {"raised": "ValueError: x"}}, expected)[0] == 1
    assert workloads.count_errors({}, expected)[0] == 1


def test_self_time_of_a_synthetic_span_tree():
    # a [0, 100] holds b [10, 40] and d [50, 90]; b holds c [15, 25]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [30, 20, 10, 40]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_at_window_2_completes(workload, oracle):
    observed = workloads.run(workload, workloads.prepare(workload, 1, size=2))
    assert observed.keys() == oracle[workload].keys()
    assert not any("raised" in got for got in observed.values())


def test_traced_smoke_run_reports_every_layer_metric():
    from homlie import bracket, laurent

    original = laurent.apply_endo
    tracer = Tracer()
    tracer.install()
    try:
        assert bracket.apply_endo is laurent.apply_endo is not original
        workloads.run("structure", workloads.prepare("structure", 1, size=2))
    finally:
        tracer.uninstall()
    assert bracket.apply_endo is laurent.apply_endo is original
    metrics = tracer.metrics()
    assert list(metrics) == [name for name, _ in METRICS]
    assert metrics["bracket.bracket_general.calls"] > 0
    assert metrics["laurent.apply_endo.calls"] > 0
    assert metrics["algebra.bracket_gen.hits"] > 0
