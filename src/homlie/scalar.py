"""Exact arithmetic in Q(p,q), the field of rational functions in the two
deformation parameters p and q.

A ``ParamPoly`` is a Laurent polynomial in p and q over the rationals,
stored as a sparse map from exponent pairs (i, j) to int coefficients; a
``Fraction`` is stored only for a coefficient that is not an integer.  It
has one exact division, ``ParamPoly.exact_div``, which also serves as the
acceptance test of the heuristic gcd.  A ``Scalar`` is a quotient of two
such polynomials.

Equality of scalars is decided by cross-multiplication of the stored
numerators and denominators, never by polynomial gcd, so it does not
depend on how far a quotient is reduced.  The canonical form of a
quotient num/den is written once, ``_normal``: for any number of keys
(the coefficients of a Laurent polynomial or of a generator combination
in ``laurent.Linear``) over one common denominator, a ``Scalar`` being
the one-key case.  Monomial factors p^i q^j of the denominator are moved
into the numerator, the parameter gcd of the denominator with every
coefficient is divided out, both parts carry int coefficients with joint
content 1, the denominator's leading coefficient (graded-lex order on
(i, j)) is positive, and a denominator equal to 1 is the shared object
``_ONE``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Callable

from .errors import DivisionByZero, PoleAtPoint

Exps = tuple[int, int]
Coeff = int | Fraction


def _grlex_key(e: Exps):
    i, j = e
    return (i + j, i, j)


class ParamPoly:
    """Sparse Laurent polynomial in p and q over the rationals.

    Coefficients are ints; a ``Fraction`` is stored only for a coefficient
    that is not an integer.  Invariant: no stored coefficient is zero; the
    zero polynomial is the empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exps, Coeff] | None = None):
        self.terms: dict[Exps, Coeff] = (
            {e: c for e, c in terms.items() if c} if terms else {}
        )

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly()

    @staticmethod
    def const(c) -> "ParamPoly":
        return ParamPoly({(0, 0): c})

    @staticmethod
    def one() -> "ParamPoly":
        return ParamPoly.const(1)

    @staticmethod
    def monomial(c, i: int, j: int) -> "ParamPoly":
        return ParamPoly({(i, j): c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    __hash__ = None  # mutable-style container; never used as a dict key

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _poly(out)

    def __neg__(self) -> "ParamPoly":
        return _poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        out: dict[Exps, Coeff] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _poly(out)

    def scale(self, c) -> "ParamPoly":
        if not c:
            return ParamPoly()
        return _poly({e: co * c for e, co in self.terms.items()})

    def shift(self, di: int, dj: int) -> "ParamPoly":
        """Multiply by the monomial p^di q^dj."""
        return _poly({(i + di, j + dj): c for (i, j), c in self.terms.items()})

    def __pow__(self, n: int) -> "ParamPoly":
        if len(self.terms) == 1:
            ((i, j), c), = self.terms.items()
            c = c ** n if n >= 0 else _coeff_div(1, c ** -n)
            return ParamPoly.monomial(c, i * n, j * n)
        if n < 0:
            raise ValueError("negative power of a non-monomial")
        return _power(self, n, _ONE)

    def min_exponents(self) -> Exps:
        if self.is_zero():
            return (0, 0)
        return (min(i for i, _ in self.terms), min(j for _, j in self.terms))

    def leading(self) -> tuple[Exps, Coeff]:
        """Leading term under graded-lex order on (i, j)."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def degree_in(self, var: int) -> int:
        """Top exponent of p (var=0) or q (var=1); -1 for the zero poly."""
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def exact_div(self, divisor: "ParamPoly") -> "ParamPoly":
        """The quotient by a nonzero polynomial, or ValueError if the
        division leaves a remainder.

        Long division in lex order on (i, j).  An exact quotient has each
        exponent between the differences of the minima and of the maxima
        of the two operands, so the division stops at the first quotient
        term outside that box.  The remainder is updated in place.
        """
        d = divisor.terms
        if not d:
            raise DivisionByZero("division of parameter polynomial by zero")
        if not self.terms:
            return ParamPoly()
        fi, fj = zip(*self.terms)
        di, dj = zip(*d)
        lo_i, hi_i = min(fi) - min(di), max(fi) - max(di)
        lo_j, hi_j = min(fj) - min(dj), max(fj) - max(dj)
        lead = max(d)
        lead_c = d[lead]
        tail = [(e, c) for e, c in d.items() if e != lead]
        rem = dict(self.terms)
        out: dict[Exps, Coeff] = {}
        while rem:
            e = max(rem)
            qi, qj = e[0] - lead[0], e[1] - lead[1]
            if not (lo_i <= qi <= hi_i and lo_j <= qj <= hi_j):
                raise ValueError("not exactly divisible")
            c = out[(qi, qj)] = _coeff_div(rem.pop(e), lead_c)
            for (i, j), co in tail:
                k = (i + qi, j + qj)
                v = rem.get(k, 0) - c * co
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return _poly(out)

    def evaluate(self, p0: Fraction, q0: Fraction) -> Coeff:
        try:
            return sum(c * p0 ** i * q0 ** j for (i, j), c in self.terms.items())
        except ZeroDivisionError:
            raise PoleAtPoint(f"negative power of zero at (p,q)=({p0},{q0})")

    def __str__(self) -> str:
        return render_param_poly(self)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _poly(terms: dict[Exps, Coeff]) -> ParamPoly:
    """A ParamPoly around a map that already holds no zero coefficient."""
    r = object.__new__(ParamPoly)
    r.terms = terms
    return r


# the denominator of every quotient whose denominator is 1
_ONE = ParamPoly.one()


def _power(x, n: int, one):
    """x ** n for n >= 0, and ``one`` for n = 0, by square-and-multiply
    without the product by one and the last, unused squaring: the one
    power loop of ``ParamPoly``, ``Scalar`` and ``LaurentPoly``."""
    if n == 0:
        return one
    r = None
    while True:
        if n & 1:
            r = x if r is None else r * x
        n >>= 1
        if not n:
            return r
        x = x * x


def _coeff_div(a: Coeff, b: Coeff) -> Coeff:
    """a / b, an int whenever both are ints and b divides a."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return Fraction(a, b)


def _var_str(name: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return name
    return f"{name}^{e}"


def render_param_poly(poly: ParamPoly) -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for (i, j), c in sorted(poly.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True):
        factors = [f for f in (_var_str("p", i), _var_str("q", j)) if f]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# -- gcd of parameter polynomials -------------------------------------------
#
# Quotients of scalars are reduced by this gcd on construction; equality
# never depends on it, because scalars are compared by cross-multiplying.
#
# After ``_normalize_param`` both inputs are polynomials in Z[p, q] with
# content 1 and no monomial factor.  ``param_gcd`` first tries GCDHEU
# (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): evaluate p at an
# integer xi >= 2 min(|f|, |g|) + 2, where |.| is the largest coefficient
# magnitude, take the gcd of the images in Z[q] the same way (evaluate q,
# then ``math.gcd``), and rebuild a candidate from the symmetric xi-adic
# digits of that gcd.  Its primitive part is accepted only if it divides
# both inputs.  For a primitive candidate and primitive inputs, division
# over Q and over Z agree (Gauss's lemma), so ``ParamPoly.exact_div`` is the
# acceptance test, and the theorem behind GCDHEU says that an accepted
# candidate is the gcd.  Otherwise xi grows and the evaluation is tried
# again, a bounded number of times.  When every try fails, the gcd comes
# from the classical content/primitive-part recursion: p is the main
# variable, the coefficients are polynomials in q, and the primitive part
# comes from a fraction-free primitive remainder sequence, whose contents
# are gcds in Z[q] from the same sequence one variable down.  That route
# builds no Scalar and calls no heuristic code, so it is an independent
# oracle for ``param_gcd``.  Both routes give the same canonical associate.


def _cleared(*polys: ParamPoly) -> list[dict[Exps, int]]:
    """The coefficient maps of the polynomials times the lcm of all their
    coefficient denominators: int coefficients throughout."""
    lcm = _int_lcm(*(c.denominator for f in polys for c in f.terms.values()))
    return [{e: c.numerator * (lcm // c.denominator) for e, c in f.terms.items()}
            for f in polys]


def _normalize_param(f: ParamPoly) -> ParamPoly:
    """Canonical associate: min exponents 0, integer content 1, positive
    leading graded-lex coefficient."""
    if f.is_zero():
        return f
    i0, j0 = f.min_exponents()
    ints, = _cleared(f.shift(-i0, -j0))
    content = _int_gcd(*ints.values())
    if f.leading()[1] < 0:
        content = -content
    return _poly({e: c // content for e, c in ints.items()})


# a polynomial in one variable over ParamPoly coefficients: {exponent: coefficient}
UniPoly = dict[int, ParamPoly]


def _int_content(coeffs: UniPoly) -> ParamPoly:
    return ParamPoly.const(_int_gcd(*(c.terms[(0, 0)] for c in coeffs.values())))


def _univar_gcd_q(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Gcd of two nonzero polynomials in q alone (p-degree zero) with int
    coefficients."""
    coeffs = [{j: ParamPoly.const(c) for (_, j), c in f.terms.items()} for f in (a, b)]
    g = _primitive_prs(*coeffs, _int_content)
    return _normalize_param(ParamPoly({(0, j): c.terms[(0, 0)] for j, c in g.items()}))


def _p_coefficients(f: ParamPoly) -> UniPoly:
    """Group terms by the exponent of p; values are polynomials in q."""
    out: UniPoly = {}
    for (i, j), c in f.terms.items():
        out.setdefault(i, ParamPoly())
        out[i] = out[i] + ParamPoly.monomial(c, 0, j)
    return out


def _q_content(coeffs: UniPoly) -> ParamPoly:
    return reduce(_univar_gcd_q, coeffs.values())


def _pseudo_divide(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, ParamPoly]:
    """Division of a by a nonzero b, polynomials in one variable over
    Z[p^+-1, q^+-1] given as {exponent: coefficient}: (quotient,
    remainder, m) with m*a = quotient*b + remainder and the remainder of
    lower degree than b.

    A step whose leading coefficient the divisor's does not divide
    exactly (with int coefficients) first multiplies the remainder and
    the quotient so far by the divisor's leading coefficient, so ``m`` is
    a power of it, every coefficient stays integral, and m = 1 when each
    step divides."""
    deg = max(b)
    lead = b[deg]
    tail = [(k, c) for k, c in b.items() if k != deg]
    rem = dict(a)
    out: UniPoly = {}
    mult = _ONE
    while rem and max(rem) >= deg:
        top = max(rem)
        c = rem.pop(top)
        try:
            q = c.exact_div(lead)
        except ValueError:
            q = None
        if q is None or any(type(v) is not int for v in q.terms.values()):
            rem = {k: v * lead for k, v in rem.items()}
            out = {k: v * lead for k, v in out.items()}
            mult = mult * lead
            q = c
        out[top - deg] = q
        for k, co in tail:
            k += top - deg
            v = rem.get(k, ParamPoly()) - q * co
            if v.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = v
    return out, rem, mult


def _primitive_prs(a: UniPoly, b: UniPoly,
                   content: Callable[[UniPoly], ParamPoly]) -> UniPoly:
    """Gcd of two nonzero polynomials in one variable over a ring of
    ParamPoly coefficients, given as {exponent: coefficient}: the
    fraction-free primitive remainder sequence.  ``content`` returns a
    gcd in that ring of the coefficients of a nonzero polynomial; both
    inputs and every remainder of ``_pseudo_divide`` are divided by it,
    so the last nonzero remainder, which is returned, is primitive."""

    def primitive(f: UniPoly) -> UniPoly:
        c = content(f)
        return {k: v.exact_div(c) for k, v in f.items()}

    a, b = primitive(a), primitive(b)
    while b:
        rem = _pseudo_divide(a, b)[1]
        a, b = b, primitive(rem) if rem else {}
    return a


def _euclid_in_p(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Gcd of two polynomials that are primitive in p over Z[q], as a
    canonical ParamPoly."""
    result = ParamPoly.zero()
    for i, c in _primitive_prs(_p_coefficients(a), _p_coefficients(b), _q_content).items():
        result = result + c.shift(i, 0)
    return _normalize_param(result)


def _gcd_euclid(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    """Gcd by content/primitive-part recursion: the fallback of
    ``param_gcd`` and the oracle its tests compare with; it builds no
    Scalar and calls no heuristic code."""
    f, g = _normalize_param(f), _normalize_param(g)
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.degree_in(0) == 0 and g.degree_in(0) == 0:
        return _univar_gcd_q(f, g)
    cf, cg = _q_content(_p_coefficients(f)), _q_content(_p_coefficients(g))
    prim = _euclid_in_p(f.exact_div(cf), g.exact_div(cg))
    return _normalize_param(_univar_gcd_q(cf, cg) * prim)


# Integer polynomials for the heuristic: {(i, j): int}, exponents >= 0.
IntPoly = dict[Exps, int]

_HEU_TRIES = 6
# give up on an evaluation point whose images would exceed this many bits
_HEU_MAX_BITS = 20000


def _evaluate_int(f: IntPoly, var: int, xi: int) -> IntPoly:
    """Substitute xi for p (var=0) or q (var=1); the image keeps its
    terms under exponent 0 of the substituted variable."""
    out: IntPoly = {}
    for (i, j), c in f.items():
        if var == 0:
            e, k = (0, j), i
        else:
            e, k = (0, 0), j
        out[e] = out.get(e, 0) + c * xi ** k
    return {e: c for e, c in out.items() if c}


def _genpoly(gamma: IntPoly, var: int, xi: int) -> IntPoly:
    """Inverse of ``_evaluate_int``: expand each coefficient of gamma in
    symmetric base-xi digits, digit k becoming the coefficient of the
    k-th power of the variable."""
    out: IntPoly = {}
    half = xi // 2
    k = 0
    while gamma:
        rest: IntPoly = {}
        for (i, j), c in gamma.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(k, j) if var == 0 else (0, k)] = d
            if c != d:
                rest[(i, j)] = (c - d) // xi
        gamma = rest
        k += 1
    return out


def _divides(d: IntPoly, f: IntPoly) -> bool:
    """Whether d divides f; for primitive d and f, over Z as over Q."""
    try:
        _poly(f).exact_div(_poly(d))
    except ValueError:
        return False
    return True


def _gcd_heuristic(f: IntPoly, g: IntPoly, var: int = 0) -> IntPoly | None:
    """GCDHEU in Z[p, q] for nonzero f and g whose variables before
    ``var`` have been evaluated away.  Returns the gcd, integer content
    included, up to sign, or None when the heuristic gives up."""
    cf, cg = _int_gcd(*f.values()), _int_gcd(*g.values())
    content = _int_gcd(cf, cg)
    while var < 2 and not any(e[var] for e in f) and not any(e[var] for e in g):
        var += 1
    if var == 2 or f.keys() == {(0, 0)} or g.keys() == {(0, 0)}:
        return {(0, 0): content}
    f = {e: c // cf for e, c in f.items()}
    g = {e: c // cg for e, c in g.items()}
    top = max(e[var] for e in (*f, *g))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * top > _HEU_MAX_BITS:
            return None
        fx, gx = _evaluate_int(f, var, xi), _evaluate_int(g, var, xi)
        gamma = _gcd_heuristic(fx, gx, var + 1) if fx and gx else None
        if gamma is not None:
            cand = _genpoly(gamma, var, xi)
            cc = _int_gcd(*cand.values())
            cand = {e: c // cc for e, c in cand.items()}
            if cand == {(0, 0): 1} or _divides(cand, f) and _divides(cand, g):
                return {e: c * content for e, c in cand.items()}
        xi = xi * 73794 // 27011
    return None


def param_gcd(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    """Gcd in Q[p^+-1, q^+-1], canonically normalized: min exponents 0,
    integer content 1, positive leading graded-lex coefficient."""
    f, g = _normalize_param(f), _normalize_param(g)
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    gcd = _gcd_heuristic(f.terms, g.terms)
    if gcd is None:
        return _gcd_euclid(f, g)
    if gcd[max(gcd, key=_grlex_key)] < 0:
        gcd = {e: -c for e, c in gcd.items()}
    return ParamPoly(gcd)


def param_lcm(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    return _normalize_param((f * g).exact_div(param_gcd(f, g)))


# -- the canonical form of a quotient ----------------------------------------
#
# {(key, i, j): nonzero int} for the terms c p^i q^j key of a numerator: the
# key is a t-exponent in a Laurent polynomial, a basis key in a generator
# combination, and 0 in a Scalar.
Num = dict[tuple, int]


def _split(num: Num) -> dict:
    """The coefficient of each key of a numerator, as a ParamPoly."""
    out: dict = {}
    for (k, i, j), c in num.items():
        out.setdefault(k, {})[(i, j)] = c
    return {k: _poly(terms) for k, terms in out.items()}


def _join(coeffs: dict) -> Num:
    return {(k, i, j): c for k, f in coeffs.items() for (i, j), c in f.terms.items()}


def _int_den(den: ParamPoly) -> int | None:
    """The value of a constant denominator, None for a non-constant one."""
    return den.terms.get((0, 0)) if len(den.terms) == 1 else None


def _normal(num: Num, den: ParamPoly) -> tuple[Num, ParamPoly]:
    """The canonical form of num/den, for int coefficients and a nonzero
    denominator: the denominator's monomial factor moved into the
    numerator, the parameter gcd of the denominator with every key's
    coefficient divided out, joint integer content 1, a positive leading
    graded-lex coefficient in the denominator, and ``_ONE`` for a
    denominator equal to 1.  No gcd is called for a coefficient that the
    gcd so far divides, nor for a single-term coefficient (which leaves
    no common factor).  The quotient of that trial division is kept, and
    divided again only if a later gcd shrinks the common factor."""
    d = _int_den(den)
    if not num or d == 1:
        return num, _ONE
    if d is None:
        i0, j0 = den.min_exponents()
        if i0 or j0:
            den = den.shift(-i0, -j0)
            num = {(k, i - i0, j - j0): c for (k, i, j), c in num.items()}
    if not den.is_constant():
        common = _normalize_param(den)
        coeffs = _split(num)
        quotients: dict = {}  # key -> its coefficient divided by common
        for k, c in coeffs.items():
            if len(c.terms) == 1:
                break
            try:
                quotients[k] = c.exact_div(common)
            except ValueError:
                common = param_gcd(common, c)
                quotients.clear()
                if len(common.terms) == 1:
                    break
        else:
            den = den.exact_div(common)
            num = _join({k: quotients[k] if k in quotients else c.exact_div(common)
                         for k, c in coeffs.items()})
    content = _int_gcd(*num.values(), *den.terms.values())
    if den.leading()[1] < 0:
        content = -content
    if content != 1:
        num = {e: c // content for e, c in num.items()}
        den = _poly({e: c // content for e, c in den.terms.items()})
    return num, (_ONE if _int_den(den) == 1 else den)


class Scalar:
    """Element of the field Q(p,q), stored as ``num / den`` in the
    canonical form of ``_normal`` (one key); both parts have int
    coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None or _int_den(den) == 1:
            # fast path: integral numerators over denominator 1 are already
            # in canonical form, and they dominate the inner loops
            if all(type(c) is int for c in num.terms.values()):
                self.num, self.den = num, _ONE
                return
            den = _ONE
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        ints, den_ints = _cleared(num, den)
        joined, self.den = _normal({(0, i, j): c for (i, j), c in ints.items()}, _poly(den_ints))
        self.num = _poly({(i, j): c for (_, i, j), c in joined.items()})

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar(ParamPoly.zero())

    @staticmethod
    def one() -> "Scalar":
        return Scalar(ParamPoly.one())

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return Scalar(ParamPoly.const(n))

    @staticmethod
    def from_fraction(x) -> "Scalar":
        return Scalar(ParamPoly.const(x))

    @staticmethod
    def p(power: int = 1) -> "Scalar":
        return Scalar(ParamPoly.monomial(1, power, 0))

    @staticmethod
    def q(power: int = 1) -> "Scalar":
        return Scalar(ParamPoly.monomial(1, 0, power))

    @staticmethod
    def monomial(c, i: int, j: int) -> "Scalar":
        return Scalar(ParamPoly.monomial(c, i, j))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self == Scalar.one()

    # -- field arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_fraction(x)
        return NotImplemented

    def __add__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        # negation keeps the canonical form, so no normalization is needed
        neg = object.__new__(Scalar)
        neg.num, neg.den = -self.num, self.den
        return neg

    def __sub__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if type(other) is int:
            return self._times_int(other)
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def _times_int(self, k: int) -> "Scalar":
        """k times self without a polynomial product: the numerator's
        coefficients times k / g and the denominator's divided by g, for
        g = gcd(k, content of the denominator), which keeps the joint
        content 1 and so the canonical form."""
        if not k:
            return Scalar.zero()
        out = object.__new__(Scalar)
        g = _int_gcd(k, *self.den.terms.values())
        out.num = _poly({e: c * (k // g) for e, c in self.num.terms.items()})
        out.den = self.den
        if g != 1:
            den = _poly({e: c // g for e, c in self.den.terms.items()})
            out.den = _ONE if _int_den(den) == 1 else den
        return out

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar._coerce(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if self.den is _ONE and len(self.num.terms) == 1:
            # a monomial c p^i q^j: the power is one term, normalized once
            return Scalar(self.num ** n)
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, ONE)

    def __eq__(self, other) -> bool:
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is semantic; representations are not unique

    # -- substitution and evaluation --------------------------------------

    def specialize(self, p0, q0) -> Fraction:
        """Exact rational value at (p0, q0); PoleAtPoint if den vanishes."""
        p0, q0 = Fraction(p0), Fraction(q0)
        dv = self.den.evaluate(p0, q0)
        if dv == 0:
            raise PoleAtPoint(f"denominator vanishes at ({p0}, {q0})")
        nv = self.num.evaluate(p0, q0)
        return nv / dv

    def subst(self, p_image: "Scalar", q_image: "Scalar") -> "Scalar":
        """Apply the field endomorphism p -> a/alpha, q -> b/beta given by
        two Scalar images, fraction-free.

        Let [i_lo, i_hi] be the range of the p-exponents of num and den
        widened to hold 0, and [j_lo, j_hi] that of the q-exponents.  Both
        parts are multiplied by a^-i_lo alpha^i_hi b^-j_lo beta^j_hi, so a
        term c p^i q^j becomes the polynomial
        c a^(i-i_lo) alpha^(i_hi-i) b^(j-j_lo) beta^(j_hi-j).  Each power
        is computed once per exponent, the terms are summed in one int
        map per part, and the quotient is normalized once.
        DivisionByZero when a zero image carries a negative exponent;
        PoleAtPoint when the image of the denominator vanishes."""
        exps = [*self.num.terms, *self.den.terms]
        p_factors = _image_factors(p_image, {i for i, _ in exps})
        q_factors = _image_factors(q_image, {j for _, j in exps})

        def image(poly: ParamPoly) -> ParamPoly:
            out: dict[Exps, int] = {}
            for (i, j), c in poly.terms.items():
                q_terms = q_factors[j].terms.items()
                for (i1, j1), c1 in p_factors[i].terms.items():
                    for (i2, j2), c2 in q_terms:
                        e = (i1 + i2, j1 + j2)
                        out[e] = out.get(e, 0) + c * c1 * c2
            return _poly({e: c for e, c in out.items() if c})

        dv = image(self.den)
        if dv.is_zero():
            raise PoleAtPoint("denominator vanishes under substitution")
        return Scalar(image(self.num), dv)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _image_factors(image: Scalar, exps: set[int]) -> dict[int, ParamPoly]:
    """For an image x/y of one parameter and the set of its exponents in
    a quotient, with lo and hi their range widened to hold 0: the
    polynomial x^(e-lo) y^(hi-e) for each exponent e, the factor that
    stands for (x/y)^e once the quotient is multiplied by x^-lo y^hi.
    No power of y is taken when y is 1."""
    lo, hi = min(0, *exps), max(0, *exps)
    if lo < 0 and image.is_zero():
        raise DivisionByZero("inverse of zero scalar")
    x, y = image.num, image.den
    if y is _ONE:
        return {e: x ** (e - lo) for e in exps}
    return {e: x ** (e - lo) * y ** (hi - e) for e in exps}


def _atomic(poly: ParamPoly) -> bool:
    """A bare literal in the expression grammar: n, p^i or q^j alone."""
    if len(poly.terms) != 1:
        return False
    ((i, j), c), = poly.terms.items()
    if c < 0:
        return False
    if i == 0 and j == 0:
        return c.denominator == 1
    return c == 1 and (i == 0 or j == 0)


def render_scalar(s: Scalar) -> str:
    if s.den is _ONE:
        return render_param_poly(s.num)
    num = render_param_poly(s.num)
    den = render_param_poly(s.den)
    if len(s.num.terms) > 1:
        num = f"({num})"
    if len(s.den.terms) > 1 or not _atomic(s.den):
        den = f"({den})"
    return f"{num}/{den}"


# -- deformation numbers ---------------------------------------------------

P = Scalar.p()
Q = Scalar.q()
ZERO = Scalar.zero()
ONE = Scalar.one()


def pq_number_of(a: Scalar, b: Scalar, n: int) -> Scalar:
    """The (a,b)-deformed integer [n] = (a^n - b^n)/(a - b), and its limit
    n a^(n-1) when a = b; [-n] = -(ab)^(-n) [n] follows."""
    if a == b:
        return n * a ** (n - 1)
    return (a ** n - b ** n) / (a - b)


@cache
def pq_number(n: int) -> Scalar:
    """[n] = (p^n - q^n)/(p - q), as a Laurent polynomial in p and q;
    computed once per n, and the Scalar is shared."""
    return pq_number_of(P, Q, n)


def pq_number_equal(n: int) -> Scalar:
    """The q = p degeneration n * p^(n-1)."""
    return pq_number_of(P, P, n)


def q_number(n: int) -> Scalar:
    """{n} = (1 - r^n)/(1 - r) in the single parameter r = q/p."""
    return pq_number_of(ONE, Q / P, n)
