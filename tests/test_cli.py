import json

import pytest

from homlie.cli import main, run_suite
from homlie.errors import BadSize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBracket:
    def test_general(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--tau", "p*t", "--sigma", "q*t",
            "-a", "-t^2", "-b", "-t", "--basis", "d",
        )
        assert code == 0
        assert "d-basis: (p^-2*q)*d_3" in out
        assert "delta: 1" in out

    def test_equal_arguments_vanish(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--tau", "p*t", "--sigma", "q*t", "-a", "-t", "-b", "-t",
        )
        assert code == 0
        assert "coefficient: 0" in out

    def test_forced_kind(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--tau", "p*t", "--sigma", "q*t",
            "-a", "-t^2", "-b", "-t", "--kind", "forced-sigma", "--basis", "d",
        )
        assert code == 0
        assert "d_3" in out

    def test_gcd_override(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--tau", "p*t", "--sigma", "q*t",
            "--gcd", "(p - q)*t", "-a", "1", "-b", "-t^2",
        )
        assert code == 0
        assert "delta: p^-1*q" in out

    def test_inversion_context(self, capsys):
        code, out, _ = run(
            capsys, "bracket", "--tau", "t^-1", "--sigma", "q*t", "-a", "-t^2", "-b", "-1",
        )
        assert code == 0
        assert "delta: -1" in out

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(
            capsys, "bracket", "--tau", "p*t", "--sigma", "q*t", "-a", "t +", "-b", "t",
        )
        assert code == 2
        assert "syntax error" in err


class TestVerify:
    def test_single_suite(self, capsys, tmp_path):
        path = tmp_path / "witt.json"
        code, out, _ = run(capsys, "verify", "witt", "--window", "2", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["suite"] == "witt"
        assert all(e["status"] == "pass" for e in payload["entries"])

    def test_all_suites_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "all.json"
        code, out, _ = run(capsys, "verify", "all", "--window", "2", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert {p["suite"] for p in payload} == {
            "witt", "witt-forced", "sl2", "sigma-sigma", "inverse",
            "virasoro", "diagram", "catalogue",
        }

    def test_json_is_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "verify", "sl2", "--window", "2", "--json", str(a))
        run(capsys, "verify", "sl2", "--window", "2", "--json", str(b))
        assert a.read_text() == b.read_text()

    def test_window_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMLIE_WINDOW", "1")
        code, out, _ = run(capsys, "verify", "witt")
        assert code == 0
        # window 1 means 9 structure pairs plus the two jacobi entries
        assert "11/11" in out

    @pytest.mark.parametrize(
        "spec,suite",
        [
            ("witt:1,2", "witt"),
            ("witt-forced:2,-1", "witt-forced"),
            ("sl2:h,e", "sl2"),
            ("sigma-sigma:1,0", "sigma-sigma"),
            ("inverse:2,0", "inverse"),
            ("virasoro:3", "virasoro"),
        ],
    )
    def test_fault_injection_flips_exit(self, capsys, tmp_path, spec, suite):
        path = tmp_path / "fault.json"
        code, out, _ = run(
            capsys, "verify", suite, "--window", "3", "--perturb", spec, "--json", str(path),
        )
        assert code == 1
        assert "witness" in out
        payload = json.loads(path.read_text())
        assert any(e["status"] == "fail" for e in payload["entries"])


class TestTable:
    def test_witt_specialized_to_classical(self, capsys):
        code, out, _ = run(capsys, "table", "witt", "--window", "2", "--specialize", "1", "1")
        assert code == 0
        assert "[d_2, d_1] = (1) d_3" in out
        assert "[d_1, d_2] = (-1) d_3" in out

    def test_sl2_symbolic(self, capsys):
        code, out, _ = run(capsys, "table", "sl2")
        assert code == 0
        assert "[h, e] = (2*p^-1) e" in out

    def test_q_witt_at_q_two(self, capsys):
        code, out, _ = run(capsys, "table", "witt", "--window", "1", "--specialize", "1", "2")
        assert code == 0
        assert "[d_1, d_0] = (1) d_1" in out

    def test_virasoro_table_json(self, capsys, tmp_path):
        path = tmp_path / "vir.json"
        code, out, _ = run(capsys, "table", "virasoro", "--window", "2", "--json", str(path))
        assert code == 0
        rows = json.loads(path.read_text())
        assert [r["n"] for r in rows] == [-2, -1, 0, 1, 2]
        assert rows[0]["coefficient"] != "0"
        assert rows[2]["coefficient"] == "0"

    def test_pole_reported(self, capsys):
        code, _, err = run(capsys, "table", "witt", "--window", "1", "--specialize", "0", "1")
        assert code == 2
        assert "PoleAtPoint" in err


class TestOtherCommands:
    def test_diagram(self, capsys, tmp_path):
        path = tmp_path / "diagram.json"
        code, out, _ = run(capsys, "diagram", "--window", "2", "--json", str(path))
        assert code == 0
        edges = json.loads(path.read_text())
        assert len(edges) == 12
        assert all(e["status"] == "pass" for e in edges)

    def test_catalogue(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        code, out, _ = run(capsys, "catalogue", "--pairs", "10", "--json", str(path))
        assert code == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 8

    def test_specialize(self, capsys):
        code, out, _ = run(capsys, "specialize", "(p+q)/(2*p^2)", "1", "1")
        assert code == 0
        assert out.strip() == "1"

    def test_specialize_pole(self, capsys):
        code, _, err = run(capsys, "specialize", "1/(p-q)", "1", "1")
        assert code == 2
        assert "PoleAtPoint" in err


class TestBadSizes:
    def test_negative_window(self, capsys):
        code, out, err = run(capsys, "verify", "witt", "--window", "-1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "--window" in err

    def test_negative_pairs(self, capsys):
        code, out, err = run(capsys, "catalogue", "--pairs", "-5")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "--pairs" in err

    @pytest.mark.parametrize("suite", ["witt", "virasoro", "catalogue"])
    @pytest.mark.parametrize("window", [0, -1])
    def test_library_window(self, suite, window):
        with pytest.raises(BadSize):
            run_suite(suite, window)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("no-such-suite", 3)

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_window_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HOMLIE_WINDOW", value)
        code, out, err = run(capsys, "verify", "sl2")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "HOMLIE_WINDOW" in err
