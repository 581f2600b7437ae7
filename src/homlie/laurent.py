"""The commutative algebra A = Q(p,q)[t, t^-1].

Provides exact ring arithmetic, exact division, a canonical gcd up to
unit, and the monomial endomorphisms t -> c*t^k that cover every algebra
endomorphism of the Laurent ring (t must map to a unit, and the units are
exactly the nonzero monomials).

The gcd is computed over the integral layer Q[p^+-1, q^+-1][t^+-1]: the
scalar content of the inputs (a gcd of bivariate parameter polynomials)
is kept, not discarded, so that e.g. the common factor p - q of the set
{(p^n - q^n) t^n} survives.  Euclid over the fraction field Q(p,q) alone
would normalize that content away.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import DivisionByZero, NotDivisible, NotInvertible, NotAUnit
from .scalar import (
    ParamPoly,
    Scalar,
    Sparse,
    _field_euclid,
    _normalize_param,
    param_gcd,
    param_lcm,
)


class LaurentPoly(Sparse):
    """Sparse Laurent polynomial in t with Scalar coefficients."""

    __slots__ = ()
    # the one storage slot under its Laurent name
    coeffs = Sparse.terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: Scalar.one()})

    @classmethod
    def t(cls, power: int = 1) -> "LaurentPoly":
        return cls({power: Scalar.one()})

    @classmethod
    def monomial(cls, c: Scalar, k: int) -> "LaurentPoly":
        return cls({k: c})

    @classmethod
    def from_scalar(cls, c: Scalar) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({0: Scalar.from_int(n)})

    # -- structure ----------------------------------------------------------

    def is_unit(self) -> bool:
        """Units of A are exactly the single-term polynomials c*t^k."""
        return len(self.coeffs) == 1

    def is_scalar(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def degree(self) -> int:
        if self.is_zero():
            raise ValueError("degree of zero")
        return max(self.coeffs)

    def valuation(self) -> int:
        if self.is_zero():
            raise ValueError("valuation of zero")
        return min(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        """Scalars, ints and Fractions act as constant polynomials."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_fraction(other)
        return self.from_scalar(other) if isinstance(other, Scalar) else NotImplemented

    __radd__ = Sparse.__add__

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Scalar] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                v = c1 * c2
                s = out.get(k)
                s = v if s is None else s + v
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return self._new(out)

    __rmul__ = __mul__

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by t^d."""
        return self._new({k + d: c for k, c in self.coeffs.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if len(self.coeffs) == 1:
            ((k, c),) = self.coeffs.items()
            return self.monomial(c ** n, k * n)
        if n < 0:
            raise NotAUnit("negative power of a non-unit")
        r = self.one()
        for _ in range(n):
            r = r * self
        return r

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotAUnit(f"{self} is not a unit of the Laurent ring")
        ((k, c),) = self.coeffs.items()
        return self.monomial(c.inverse(), -k)

    def __str__(self) -> str:
        return render_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The cofactor c with b*c = a, of the type of ``a``, or NotDivisible.

    Shifts both arguments to ordinary polynomials and performs long
    division over the coefficient field Q(p,q); the t-shift difference is
    restored afterwards (units t^k divide everything).
    """
    if b.is_zero():
        raise DivisionByZero("exact division by zero")
    if a.is_zero():
        return a.zero()
    offset = a.valuation() - b.valuation()
    ra = a.shift(-a.valuation())
    rb = b.shift(-b.valuation())
    deg_b = rb.degree()
    lead_b = rb.coeff(deg_b)
    out: dict[int, Scalar] = {}
    rem = ra
    while not rem.is_zero() and rem.degree() >= deg_b:
        k = rem.degree() - deg_b
        c = rem.coeff(rem.degree()) / lead_b
        out[k + offset] = c
        rem = rem - rb.shift(k).scale(c)
    if not rem.is_zero():
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return a._new(out)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except NotDivisible:
        return False


# -- monomial endomorphisms --------------------------------------------------


class Endo:
    """The algebra endomorphism of A determined by t -> c * t^k."""

    __slots__ = ("c", "k", "_pows")

    def __init__(self, c: Scalar, k: int):
        if c.is_zero():
            raise ValueError("endomorphism must send t to a unit")
        self.c = c
        self.k = k
        self._pows: dict[int, Scalar] = {0: Scalar.one(), 1: c}

    def coefficient_power(self, n: int) -> Scalar:
        got = self._pows.get(n)
        if got is None:
            got = self.c ** n
            self._pows[n] = got
        return got

    @staticmethod
    def identity() -> "Endo":
        return Endo(Scalar.one(), 1)

    @staticmethod
    def dilation(c: Scalar) -> "Endo":
        return Endo(c, 1)

    @staticmethod
    def inversion() -> "Endo":
        return Endo(Scalar.one(), -1)

    def __call__(self, f: LaurentPoly) -> LaurentPoly:
        return apply_endo(self, f)

    def __eq__(self, other) -> bool:
        return isinstance(other, Endo) and self.k == other.k and self.c == other.c

    __hash__ = None

    def __str__(self) -> str:
        t_part = "t" if self.k == 1 else f"t^{self.k}"
        if self.c.is_one():
            return f"t -> {t_part}"
        return f"t -> ({self.c})*{t_part}"

    def __repr__(self) -> str:
        return f"Endo({self})"


def apply_endo(e: Endo, f: LaurentPoly) -> LaurentPoly:
    """Substitute t -> c*t^k, i.e. t^n -> c^n t^(k n)."""
    out: dict[int, Scalar] = {}
    for n, a in f.coeffs.items():
        k = e.k * n
        v = a * e.coefficient_power(n)
        s = out.get(k)
        s = v if s is None else s + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    r = LaurentPoly()
    r.coeffs = out
    return r


def compose_endo(e1: Endo, e2: Endo) -> Endo:
    """(e1 . e2)(t) = e1(c2 t^k2) = c2 * c1^k2 * t^(k1 k2)."""
    return Endo(e2.c * (e1.c ** e2.k), e1.k * e2.k)


def invert_endo(e: Endo) -> Endo:
    if e.k not in (1, -1):
        raise NotInvertible(f"t -> c*t^{e.k} has no inverse")
    return Endo(e.c ** (-e.k), e.k)


# -- gcd up to unit -----------------------------------------------------------
#
# The parameter-polynomial gcd (scalar content layer) lives in .scalar;
# here the t-direction is handled by Euclid over the field Q(p,q).


def _content(coeffs: Iterable[ParamPoly]) -> ParamPoly:
    """The gcd of a nonempty family of parameter polynomials."""
    cont = ParamPoly.zero()
    for c in coeffs:
        cont = c if cont.is_zero() else param_gcd(cont, c)
    return cont


def _primitive(poly: dict[int, ParamPoly]) -> dict[int, ParamPoly]:
    cont = _content(poly.values())
    return {k: c.exact_div(cont) for k, c in poly.items()}


def gcd_up_to_unit(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd of a nonempty family, determined up to Q* t^Z p^Z q^Z.

    The result splits as (scalar content) * (primitive t-part): the
    content is the bivariate gcd of all coefficient polynomials, the
    t-part comes from Euclid over Q(p,q) followed by content stripping.
    Normalization: lowest t-exponent 0, coefficients with joint content 1,
    and the leading t-coefficient's leading graded-lex coefficient +1.
    """
    items = [f for f in polys if not f.is_zero()]
    if not items:
        raise ValueError("gcd of an empty or all-zero family")

    # one common multiple for every non-monomial coefficient denominator
    dens = [c.den for f in items for c in f.coeffs.values() if len(c.den.terms) > 1]
    common = ParamPoly.one()
    for d in dens:
        common = param_lcm(common, d)

    integral: list[dict[int, ParamPoly]] = []
    for f in items:
        shifted = f.shift(-f.valuation())
        entry = {k: c.num * common.exact_div(c.den) for k, c in shifted.coeffs.items()}
        integral.append(entry)

    content = _normalize_param(_content(c for entry in integral for c in entry.values()))

    prim = _primitive(integral[0])
    for entry in integral[1:]:
        if len(prim) == 1 and 0 in prim:
            break
        prim = _primitive(_field_euclid(prim, _primitive(entry)))

    # sign/scale normalization of the primitive part
    lead = prim[max(prim)]
    lead_sign = 1 if lead.leading()[1] > 0 else -1
    result = LaurentPoly()
    for k, c in prim.items():
        coeff = Scalar(content * c.scale(lead_sign))
        if not coeff.is_zero():
            result.coeffs[k] = coeff
    return result


def render_laurent(f: LaurentPoly) -> str:
    from .scalar import render_scalar, _atomic

    if f.is_zero():
        return "0"
    parts = []
    for k in sorted(f.coeffs, reverse=True):
        c = f.coeffs[k]
        t_part = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        neg = False
        body = render_scalar(c)
        if body.startswith("-") and "+" not in body and " - " not in body:
            neg = True
            body = body[1:]
        simple = c.den == ParamPoly.one() and (_atomic(c.num) or _atomic((-c).num))
        if t_part:
            if body == "1":
                body = t_part
            else:
                if not simple or "/" in body:
                    body = f"({body})"
                body = f"{body}*{t_part}"
        elif " " in body and parts:
            body = f"({body})"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
