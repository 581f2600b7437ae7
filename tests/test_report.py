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
