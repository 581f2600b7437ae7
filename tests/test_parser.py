import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from homlie.cli import main
from homlie.errors import BadSize, DivisionByZero, ExprSyntaxError, NotAUnit
from homlie.laurent import LaurentPoly
from homlie.parser import parse_laurent, parse_rational, parse_scalar
from homlie.scalar import ONE, P, Q, ParamPoly, Scalar

t = LaurentPoly.t


class TestScalarGrammar:
    def test_sl2_coefficient(self):
        assert parse_scalar("(p+q)/(2*p^2)") == (P + Q) / (Scalar.from_int(2) * P ** 2)

    def test_zero(self):
        assert parse_scalar("0").is_zero()

    def test_precedence(self):
        assert parse_scalar("1 + 2*3") == Scalar.from_int(7)
        assert parse_scalar("-2^2") == Scalar.from_int(-4)
        assert parse_scalar("2*p^2") == Scalar.from_int(2) * P ** 2
        assert parse_scalar("p/q/p") == ONE / Q

    def test_negative_exponent(self):
        assert parse_scalar("p^-1") == ONE / P
        assert parse_scalar("(p+q)^-1") == ONE / (P + Q)

    def test_t_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("p + t")

    def test_position_in_error(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_scalar("p + ")
        assert err.value.position == 4

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            parse_scalar("1/(p - p)")


class TestLaurentGrammar:
    def test_literal(self):
        got = parse_laurent("-t^2 + t^-1")
        assert got == -t(2) + t(-1)

    def test_coefficients(self):
        got = parse_laurent("-(p+q)*t^2 + t^-1")
        assert got == t(2).scale(-(P + Q)) + t(-1)

    def test_scalar_division_inside(self):
        got = parse_laurent("(q/p^2) * -t^3")
        assert got == t(3).scale(-(Q / P ** 2))

    def test_unit_division(self):
        assert parse_laurent("t/t^2") == t(-1)

    def test_exact_division(self):
        assert parse_laurent("(t^2 - 1)/(t - 1)") == t(1) + LaurentPoly.one()

    def test_inexact_division_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_laurent("(t^2 + 1)/(t + 1)")


def random_scalar(rng) -> Scalar:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if c:
            terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = c
    num = ParamPoly(terms) if terms else ParamPoly.one()
    den_terms = {}
    for _ in range(rng.randint(0, 2)):
        c = Fraction(rng.randint(-6, 6), 1)
        if c:
            den_terms[(rng.randint(0, 2), rng.randint(0, 2))] = c
    den = ParamPoly(den_terms) if den_terms else ParamPoly.one()
    return Scalar(num, den)


class TestRoundTrip:
    def test_scalars(self):
        rng = random.Random(12)
        for _ in range(60):
            s = random_scalar(rng)
            assert parse_scalar(str(s)) == s

    def test_laurent(self):
        rng = random.Random(13)
        for _ in range(40):
            f = LaurentPoly({rng.randint(-4, 4): random_scalar(rng) for _ in range(rng.randint(1, 3))})
            assert parse_laurent(str(f)) == f

    def test_print_parse_canonicalizes(self):
        # printing after parsing is stable
        text = "((p^2 - q^2))/((p - q))"
        once = str(parse_scalar(text))
        assert str(parse_scalar(once)) == once


class TestRational:
    def test_values(self):
        assert parse_rational("3") == Fraction(3)
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("2.5") == Fraction(5, 2)
        assert parse_rational("1e3") == Fraction(1000)

    @pytest.mark.parametrize("text", ["1e9999999", "1e-9999999"])
    def test_huge_decimal_exponent_is_bad_size(self, text):
        # refused before Fraction builds a ten-million-digit integer
        with pytest.raises(BadSize):
            parse_rational(text)

    def test_bad_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_rational("one half")


class TestSpecializeErrors:
    """Each error the parser raises reaches the CLI as one stderr line."""

    @pytest.mark.parametrize("expr, line", [
        ("p$q", "syntax error: at position 1: unexpected character '$'"),
        ("(p+q", "syntax error: at position 4: expected )"),
        ("p q", "syntax error: at position 2: expected end of input"),
        ("1/0", "error: DivisionByZero: division by zero in expression"),
        ("p/(q-q)", "error: DivisionByZero: division by zero in expression"),
    ], ids=["character", "token", "end-of-input", "zero", "zero-polynomial"])
    def test_exit_two_with_one_line(self, capsys, expr, line):
        code = main(["specialize", expr, "1", "2"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err == line + "\n"


class TestOneRing:
    """Both entry points compute in the Laurent ring, so a zero base to a
    negative power is one error for both."""

    @pytest.mark.parametrize("text", ["0^-1", "(p-p)^-2"])
    def test_zero_to_a_negative_power(self, text):
        for parse in (parse_scalar, parse_laurent):
            with pytest.raises(NotAUnit):
                parse(text)


NON_DECIMAL_DIGITS = [chr(c) for c in range(sys.maxunicode + 1)
                      if chr(c).isdigit() and not chr(c).isdecimal()]


class TestTokens:
    """Digits are decimal digits; every other character is refused at its
    position, and nesting past the recursion limit is one BadSize line."""

    def test_non_decimal_digits_are_syntax_errors(self, capsys):
        assert "²" in NON_DECIMAL_DIGITS
        for c in NON_DECIMAL_DIGITS:
            code = main(["specialize", "2" + c, "1", "1"])
            out = capsys.readouterr()
            assert (code, out.out) == (2, "")
            assert out.err == f"syntax error: at position 1: unexpected character {c!r}\n"

    def test_non_decimal_exponent_in_bracket(self, capsys):
        code = main(["bracket", "--tau", "p*t", "--sigma", "q*t^²", "-a", "t", "-b", "t"])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == "syntax error: at position 4: unexpected character '²'\n"

    def test_decimal_digits_of_other_scripts(self):
        assert parse_scalar("١٢ + p") == P + 12

    @pytest.mark.parametrize("text", ["(" * 10000 + "p" + ")" * 10000, "0+" + "-" * 3000 + "p"],
                             ids=["parentheses", "unary-minus"])
    @pytest.mark.parametrize("argv", [["specialize", "{}", "1", "1"],
                                      ["bracket", "--tau", "p*t", "--sigma", "q*t", "-a", "{}",
                                       "-b", "t"]], ids=["specialize", "bracket"])
    def test_deep_nesting_is_bad_size(self, capsys, text, argv):
        start = time.monotonic()
        code = main([text if a == "{}" else a for a in argv])
        elapsed = time.monotonic() - start
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: BadSize")
        assert elapsed < 2

    def test_100_nested_parentheses_parse(self):
        assert parse_scalar("(" * 100 + "p" + ")" * 100) == P
        assert parse_laurent("(" * 100 + "t" + ")" * 100) == t()


class TestExponentBound:
    def test_bound_is_inclusive(self):
        assert parse_scalar("p^10000") == P ** 10000
        assert parse_laurent("t^-10000") == t(-10000)

    @pytest.mark.parametrize("text", ["p^10001", "q^-20000", "t^100000000", "p^" + "9" * 5000])
    def test_larger_exponent_is_bad_size(self, text):
        with pytest.raises(BadSize):
            parse_laurent(text)

    def test_cli_exits_two(self, capsys):
        code = main(["specialize", "p^100000000", "2", "1"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert len(out.err.splitlines()) == 1 and out.err.startswith("error: BadSize")


class TestPowerBudget:
    """A power is refused before it is expanded when the expansion would
    exceed ``POWER_BUDGET``; each command below used to run for minutes."""

    @pytest.mark.parametrize("argv", [
        ["specialize", "((1+p)^100)^100", "1", "1"],
        ["specialize", "(1+p+q)^10000", "1", "1"],
        ["specialize", "(1+p)^3000", "1", "1"],
        ["bracket", "--tau", "p*t", "--sigma", "q*t", "-a", "(1+t)^3000", "-b", "t"],
    ], ids=["nested", "trinomial", "binomial", "laurent"])
    def test_cli_exits_two_quickly(self, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        start = time.monotonic()
        run = subprocess.run([sys.executable, "-m", "homlie", *argv], env=env,
                             capture_output=True, text=True, timeout=10)
        elapsed = time.monotonic() - start
        assert run.returncode == 2
        assert run.stdout == ""
        assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: BadSize")
        assert elapsed < 2

    @pytest.mark.parametrize("text", ["(2^10000)^10000", "(p+q)^400", "(1+t)^400"])
    def test_over_budget_is_bad_size(self, text):
        with pytest.raises(BadSize):
            parse_laurent(text)

    def test_within_budget_expands(self):
        assert parse_scalar("(1+p)^99") == (ONE + P) ** 99
        assert parse_scalar("(p-q)^-20") == ONE / (P - Q) ** 20
        assert parse_laurent("(1+t)^30") == (LaurentPoly.one() + t()) ** 30
        assert parse_scalar("0^10000").is_zero()
