import json
import sys

import pytest

from homlie import cli
from homlie.cli import main, run_suite
from homlie.errors import BadSize
from homlie.report import Report


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

    @pytest.mark.parametrize("family, window", [("sl2", "3"), ("witt-r", "2")])
    def test_pole_in_a_later_pair_prints_no_partial_table(self, capsys, tmp_path,
                                                           family, window):
        # the first rows specialize at p = 0 and a later one has a pole there
        path = tmp_path / "table.json"
        code, out, err = run(capsys, "table", family, "--window", window,
                             "--specialize", "0", "1", "--json", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: PoleAtPoint")
        assert not path.exists()

    def test_virasoro_at_root_of_unity_reported(self, capsys, tmp_path):
        # q/p = -1: 1 + (q/p)^n vanishes for odd n, where the cocycle has a pole
        path = tmp_path / "vir.json"
        code, _, err = run(capsys, "table", "virasoro", "--window", "4",
                           "--specialize", "1", "-1", "--json", str(path))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: PoleAtSpecialization")
        assert not path.exists()


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

    @pytest.mark.parametrize("point", ["1/0", "one half"])
    def test_specialize_bad_point_names_no_python_object(self, capsys, point):
        code, out, err = run(capsys, "specialize", "p", point, "1")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("syntax error: ")
        assert "Fraction" not in err and "(" not in err


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


class TestUsageErrors:
    """A command line argparse refuses takes ``main``'s one error path:
    exit 2, nothing on stdout, one ``error:`` line and no usage text."""

    @pytest.mark.parametrize("argv", [
        ("verify", "witt", "--window", "abc"),
        ("verify", "nosuch"),
        (),
        ("table", "witt", "--window"),
        ("verify", "witt", "--bogus"),
        ("catalogue", "--pairs", "x"),
    ], ids=["bad-int", "bad-choice", "empty", "missing-value", "unknown-flag", "bad-pairs"])
    def test_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: UsageError: ")

    @pytest.mark.parametrize("argv, message", [
        (("verify", "witt", "--window", "abc"), "argument --window: expected an integer, got abc"),
        (("catalogue", "--pairs", ""), "argument --pairs: expected an integer, got nothing"),
        (("verify", "nosuch"), "argument suite: invalid choice: nosuch (choose from witt, "
         "witt-forced, sl2, sigma-sigma, inverse, virasoro, diagram, catalogue, all)"),
    ], ids=["bad-int", "empty-int", "bad-choice"])
    def test_input_shown_as_typed(self, capsys, argv, message):
        # argparse's own text would quote the value as a Python repr
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: UsageError: {message}\n")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: homlie verify")

    def test_window_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMLIE_WINDOW", "abc")
        code, out, err = run(capsys, "verify", "sl2")
        assert code == 2
        assert out == ""
        assert err == (f"error: BadSize: HOMLIE_WINDOW must be an integer from 1 to "
                       f"{cli.MAX_SIZE}, got abc\n")


class TestSizeBound:
    """A window or pair count above ``cli.MAX_SIZE`` exits 2 before any
    sweep starts.  Huge values only ever meet the refusal: every sweep the
    CLI can start is replaced by one that fails the test."""

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("a sweep started")

        monkeypatch.setattr(cli, "_SUITES", dict.fromkeys(cli._SUITES, sweep))
        monkeypatch.setattr(cli, "FAMILIES", dict.fromkeys(cli.FAMILIES, sweep))
        for name in ("virasoro_cocycle", "diagram_report", "verify_catalogue"):
            monkeypatch.setattr(cli, name, sweep)

    @pytest.mark.parametrize("argv", [
        ("verify", "witt", "--window", "99999999999"),
        ("verify", "all", "--window", str(cli.MAX_SIZE + 1)),
        ("verify", "witt", "--window", "99999999999", "--perturb", "witt:1,2"),
        ("table", "witt", "--window", "99999999999"),
        ("table", "virasoro", "--window", "99999999999"),
        ("diagram", "--window", "99999999999"),
        ("catalogue", "--pairs", "99999999999"),
    ])
    def test_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: BadSize")

    def test_window_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMLIE_WINDOW", "99999999999")
        code, out, err = run(capsys, "verify", "sl2")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "HOMLIE_WINDOW" in err

    @pytest.mark.parametrize("digits", [4000, 5000])
    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("argv", [
        ("verify", "witt", "--window"),
        ("table", "witt", "--window"),
        ("catalogue", "--pairs"),
    ])
    def test_a_long_digit_string_is_out_of_range(self, capsys, argv, sign, digits):
        # 5000 digits are past Python's integer-string limit, 4000 are not;
        # both are refused alike, and the echo is cut short
        code, out, err = run(capsys, *argv, sign + "9" * digits)
        assert (code, out) == (2, "")
        assert err == (f"error: BadSize: {argv[-1]} must be an integer from 1 to "
                       f"{cli.MAX_SIZE}, got {(sign + '9' * 20)[:20]}...\n")

    @pytest.mark.parametrize("digits", [4000, 5000])
    def test_a_long_window_env_is_out_of_range(self, capsys, monkeypatch, digits):
        monkeypatch.setenv("HOMLIE_WINDOW", "9" * digits)
        code, out, err = run(capsys, "verify", "sl2")
        assert (code, out) == (2, "")
        assert err.startswith("error: BadSize: HOMLIE_WINDOW must be") and len(err) < 100

    @pytest.mark.parametrize("suite", ["witt", "diagram", "catalogue"])
    def test_library_window(self, suite):
        with pytest.raises(BadSize):
            run_suite(suite, cli.MAX_SIZE + 1)

    def test_the_bound_itself_is_accepted(self):
        assert cli._positive("--window", cli.MAX_SIZE) == cli.MAX_SIZE


class TestEmptyReport:
    def test_empty_suite_report_fails_with_a_witness(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "witt", lambda window, perturb: Report(suite="witt"))
        code, out, _ = run(capsys, "verify", "witt", "--window", "1")
        assert code == 1
        assert out.splitlines() == [
            "[FAIL] witt: 0/0 checks passed (no checks)",
            "       witness: witt: no checks",
        ]


class TestUnwritableJson:
    @pytest.mark.parametrize("argv", [
        ("verify", "sigma-sigma", "--window", "1"),
        ("table", "witt", "--window", "1"),
    ])
    def test_missing_directory_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, *argv, "--json", str(path))
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: FileNotFoundError")
        assert not path.exists()


class TestPerturbation:
    """A fault-injection request either reaches a check or is refused."""

    @pytest.mark.parametrize("argv", [
        ("verify", "witt", "--window", "1", "--perturb", "witt:x,y"),
        ("verify", "witt", "--window", "1", "--perturb", "garbage"),
        ("verify", "sl2", "--window", "1", "--perturb", "sl2:zz,e"),
        ("verify", "witt", "--window", "2", "--perturb", "witt:50,50"),
        ("verify", "virasoro", "--window", "3", "--perturb", "virasoro:40"),
        ("verify", "witt", "--window", "2", "--perturb", "witt:--1,2"),
        ("verify", "witt", "--window", "2", "--perturb", "witt:\u00b2,2"),
    ], ids=["non-integer-key", "no-suite", "unknown-key", "outside-window", "virasoro-outside",
            "double-minus-key", "superscript-key"])
    def test_unreachable_fault_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "[ok ]" not in out
        assert len(err.splitlines()) == 1 and err.startswith("error: BadPerturbation")

    @pytest.mark.parametrize("suite,spec", [
        ("witt", "witt:1,2"),
        ("witt-forced", "witt-forced:2,-1"),
        ("inverse", "inverse:1,2"),
        ("virasoro", "virasoro:3"),
        ("sl2", "sl2:e,f"),
    ])
    def test_fault_workload_specs_fail(self, capsys, suite, spec):
        # the specs and window of the benchmark's fault workload
        code, out, _ = run(capsys, "verify", suite, "--window", "5", "--perturb", spec)
        assert code == 1
        assert out.startswith("[FAIL]")

    @pytest.mark.parametrize("suite", ["inverse", "sigma-sigma", "sl2", "virasoro", "witt",
                                       "witt-forced"])
    def test_every_accepted_fault_is_seen(self, suite):
        """Every key of the reach at window 1, where the Jacobi window is
        its floor of 2; at window 5, where it is window - 2, the keys at
        the ends of the reach."""
        for window in (1, 5):
            reach = cli._REACH[suite](window)
            keys = list(reach)
            if window > 1 and isinstance(reach, range):
                keys = [reach[0], reach[-1]]
            specs = ([f"{suite}:{k}" for k in keys] if suite == "virasoro"
                     else [f"{suite}:{a},{b}" for a in keys for b in keys])
            for spec in specs:
                perturb = cli._parse_perturbation(spec, [suite], window)
                assert not run_suite(suite, window, perturb).ok, (window, spec)


class TestHugeNumbers:
    """Values and literals past Python's integer-string limit are bad
    sizes: exit 2 with one line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("specialize", "p^10000", "1000", "1"),
        ("specialize", "7" * (sys.get_int_max_str_digits() + 1), "1", "1"),
        ("bracket", "--tau", "p*t", "--sigma", "q*t",
         "-a", "7" * (sys.get_int_max_str_digits() + 1) + "*t", "-b", "1"),
        ("bracket", "--tau", "p*t", "--sigma", "q*t",
         "-a", "(" + "7" * sys.get_int_max_str_digits() + ")^2*t^2", "-b", "1"),
    ], ids=["value", "literal-specialize", "literal-bracket", "value-bracket"])
    def test_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: BadSize")

    def test_literal_at_the_limit_is_accepted(self, capsys):
        digits = "7" * sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "specialize", digits, "1", "1")
        assert code == 0 and out.strip() == digits
