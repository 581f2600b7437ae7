from homlie.report import Report


def test_empty_report_is_not_ok():
    assert not Report(suite="x").ok


class TestAbsorb:
    def test_passing_sub_report(self):
        sub = Report(suite="sub")
        sub.check("a", "anchor", True)
        rep = Report(suite="top")
        assert rep.absorb("sub-check", "sub-anchor", sub)
        (entry,) = rep.entries
        assert (entry.id, entry.anchor, entry.status, entry.witness) == (
            "sub-check", "sub-anchor", "pass", None)

    def test_copies_first_failing_witness(self):
        sub = Report(suite="sub")
        sub.check("a", "anchor", True)
        sub.check("b", "anchor", False, witness="first")
        sub.check("c", "anchor", False, witness="second")
        rep = Report(suite="top")
        assert not rep.absorb("sub-check", "sub-anchor", sub)
        assert rep.entries[0].status == "fail"
        assert rep.entries[0].witness == "first"

    def test_empty_sub_report_fails(self):
        rep = Report(suite="top")
        assert not rep.absorb("sub-check", "sub-anchor", Report(suite="sub"))
        assert rep.entries[0].witness == "sub: no checks"


class TestEmptyReport:
    def test_summary_says_no_checks(self):
        assert Report(suite="x").summary() == "x: 0/0 checks passed (no checks)"

    def test_witness_of_empty_report(self):
        assert Report(suite="x").witness() == "x: no checks"
        assert Report(suite="x").witness(labelled=True) == "x: no checks"

    def test_labelled_witness(self):
        rep = Report(suite="x")
        rep.check("a", "anchor", False, witness="lhs != rhs")
        assert rep.witness() == "lhs != rhs"
        assert rep.witness(labelled=True) == "a: lhs != rhs"
        assert rep.summary() == "x: 0/1 checks passed (1 failed)"
