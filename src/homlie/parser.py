"""Recursive-descent parser for scalar and Laurent expressions.

Grammar (precedence ^ > unary - > * / > + -):

    expr    :=  term (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' int)?          exponents are integer literals,
                                          at most MAX_EXPONENT in magnitude
    atom    :=  int | 'p' | 'q' | 't' | '(' expr ')'
                                          int: at most sys.get_int_max_str_digits() digits

A power base^n is refused with BadSize before it is expanded when, for
the numerator or the denominator of the base, n times the estimated
terms of its n-th power, prod(span * n + 1) over p, q and t, or n times
the bits of its largest integer coefficient exceeds POWER_BUDGET = 10^5.

Every expression is computed in the Laurent ring Q(p,q)[t, t^-1], where
'/' requires an exactly dividing divisor (in practice a scalar or a
unit); ``parse_scalar`` refuses the letter t and returns the t^0
coefficient.  Digits are decimal digits (``str.isdecimal``).  Parentheses
and unary minus signs nest as deep as Python's recursion limit allows,
at its default of 1000 about 190 parentheses or 980 minus signs; deeper
input is BadSize.  Errors carry the offending position.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import BadSize, DivisionByZero, ExprSyntaxError, NotDivisible
from .laurent import LaurentPoly, exact_div
from .scalar import P, Q, Scalar

MAX_EXPONENT = 10 ** 4
POWER_BUDGET = 10 ** 5

# \d is exactly str.isdecimal, the digits int() reads, and \s exactly str.isspace
_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[pqt])|(?P<op>[-+*/^()])|(?P<bad>\S))")
_LETTERS = {"p": LaurentPoly.from_scalar(P), "q": LaurentPoly.from_scalar(Q), "t": LaurentPoly.t()}


class _Tokens:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, pos)
        for m in _TOKEN.finditer(text):
            kind, value, i = m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)
            if kind == "bad":
                raise ExprSyntaxError(i, "digit, variable or operator",
                                      f"at position {i}: unexpected character {value!r}")
            self.tokens.append((value if kind == "op" else kind, value, i))
        self.tokens.append(("end", "", len(text)))
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(tok[2], kind)
        return self.next()


class _Parser:
    """Evaluates directly into the Laurent ring; ``allow_t`` only decides
    whether t is a letter."""

    def __init__(self, text: str, allow_t: bool):
        self.toks = _Tokens(text)
        self.allow_t = allow_t

    def parse(self) -> LaurentPoly:
        try:
            value = self.expr()
        except RecursionError:
            raise BadSize("the expression nests deeper than the parser can recurse") from None
        tok = self.toks.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(tok[2], "end of input")
        return value

    def expr(self):
        value = self.term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.toks.peek()[0] in ("*", "/"):
            op, _, pos = self.toks.next()
            rhs = self.unary()
            value = value * rhs if op == "*" else _divide(value, rhs, pos)
        return value

    def unary(self):
        if self.toks.peek()[0] == "-":
            self.toks.next()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            sign = 1
            if self.toks.peek()[0] == "-":
                self.toks.next()
                sign = -1
            tok = self.toks.expect("int")
            # compare digits first: int() refuses literals past 4300 digits
            if len(tok[1].lstrip("0")) > len(str(MAX_EXPONENT)) or int(tok[1]) > MAX_EXPONENT:
                raise BadSize(f"the exponent at position {tok[2]} exceeds {MAX_EXPONENT}")
            n = int(tok[1])
            _check_power(base, n, tok[2])
            return base ** (sign * n)
        return base

    def atom(self):
        kind, value, pos = self.toks.next()
        if kind == "int":
            limit = sys.get_int_max_str_digits()
            if limit and len(value) > limit:
                raise BadSize(f"the integer at position {pos} has more than {limit} digits")
            return LaurentPoly.from_int(int(value))
        if kind == "var":
            if value == "t" and not self.allow_t:
                raise ExprSyntaxError(pos, "a scalar expression (t not allowed)")
            return _LETTERS[value]
        if kind == "(":
            inner = self.expr()
            self.toks.expect(")")
            return inner
        raise ExprSyntaxError(pos, "integer, variable or parenthesis")


def _divide(a: LaurentPoly, b: LaurentPoly, pos: int) -> LaurentPoly:
    if b.is_zero():
        raise DivisionByZero("division by zero in expression")
    if b.is_unit():
        return a * b.unit_inverse()
    try:
        return exact_div(a, b)
    except NotDivisible:
        raise ExprSyntaxError(pos, "an exactly dividing divisor",
                              f"at position {pos}: inexact division") from None


def _check_power(base: LaurentPoly, n: int, pos: int) -> None:
    """BadSize if base^n is beyond POWER_BUDGET (see the module docstring)."""
    for poly in (base.num, base.den.terms):
        terms = 1
        for exps in zip(*poly):
            terms *= (max(exps) - min(exps)) * n + 1
        bits = max((abs(c).bit_length() for c in poly.values()), default=0)
        if max(terms, bits) * n > POWER_BUDGET:
            raise BadSize(f"the power at position {pos} exceeds the budget of {POWER_BUDGET}")


def parse_scalar(text: str) -> Scalar:
    """A scalar is the t^0 coefficient of a Laurent expression without t."""
    return _Parser(text, allow_t=False).parse().coeff(0)


def parse_laurent(text: str) -> LaurentPoly:
    return _Parser(text, allow_t=True).parse()


def parse_rational(text: str) -> Fraction:
    """Rational literals for specialization points: '3', '-1/2', '2.5',
    '1e3'.  BadSize, before any value is built, when the literal or its
    decimal exponent exceeds sys.get_int_max_str_digits()."""
    text = text.strip()
    limit = sys.get_int_max_str_digits()
    exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
    if limit and (len(text) > limit or exponent.isdecimal() and int(exponent) > limit):
        raise BadSize(f"the rational {text[:20]} has more than {limit} digits")
    try:
        return Fraction(text)
    except ValueError:
        raise ExprSyntaxError(0, "a rational number like 2 or -1/2") from None
    except ZeroDivisionError:
        raise ExprSyntaxError(0, "a rational number with a nonzero denominator") from None
