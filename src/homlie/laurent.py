"""The commutative algebra A = Q(p,q)[t, t^-1].

Provides exact ring arithmetic, exact division, a canonical gcd up to
unit, and the monomial endomorphisms t -> c*t^k that cover every algebra
endomorphism of the Laurent ring (t must map to a unit, and the units are
exactly the nonzero monomials).  Exact division and the remainder
sequence of the gcd share one pseudo-division in t,
``scalar._pseudo_divide``.

Every Q(p,q)-linear combination of the package stands on one core,
``Linear``: one integer numerator over (key, p, q) and one common
``ParamPoly`` denominator, with sums, scaling, equality and the linear
extension ``linear_map``.  Every result is normalized once, by
``scalar._normal``, the one canonical form of num/den, of which a
``Scalar`` is the one-key case.  A ``LaurentPoly`` is the ``Linear``
keyed by the exponents of t, with the ring product on top;
``algebra.Combo`` is the one keyed by basis elements.  A ``Scalar``
enters and leaves the core with its parts as they are (``monomial``,
``scale``, ``coeff``, ``coeffs``), so the rendering does not depend on
how a value was computed.

The gcd is computed over the integral layer Q[p^+-1, q^+-1][t^+-1]: the
scalar content of the inputs (a gcd of bivariate parameter polynomials)
is kept, not discarded, so that e.g. the common factor p - q of the set
{(p^n - q^n) t^n} survives.  Euclid over the fraction field Q(p,q) alone
would normalize that content away.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable

from .errors import DivisionByZero, NotDivisible, NotInvertible, NotAUnit
from .scalar import (
    _ONE,
    Num,
    ParamPoly,
    Scalar,
    _atomic,
    _join,
    _normal,
    _normalize_param,
    _poly,
    _power,
    _primitive_prs,
    _pseudo_divide,
    _split,
    param_gcd,
    param_lcm,
    render_scalar,
)


def _mul(a: Num, b: Num) -> Num:
    if len(b) == 1:
        ((k2, i2, j2), c2), = b.items()
        return {(k + k2, i + i2, j + j2): c * c2 for (k, i, j), c in a.items()}
    out: Num = {}
    get = out.get
    for (k1, i1, j1), c1 in a.items():
        for (k2, i2, j2), c2 in b.items():
            e = (k1 + k2, i1 + i2, j1 + j2)
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _scale(num: Num, f: ParamPoly) -> Num:
    """num times a parameter polynomial; every key keeps its basis entry."""
    if len(f.terms) == 1:
        ((i2, j2), c2), = f.terms.items()
        return {(k, i + i2, j + j2): c * c2 for (k, i, j), c in num.items()}
    out: Num = {}
    get = out.get
    for (k, i1, j1), c1 in num.items():
        for (i2, j2), c2 in f.terms.items():
            e = (k, i1 + i2, j1 + j2)
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add(a: Num, b: Num) -> Num:
    out = dict(a)
    get = out.get
    for e, c in b.items():
        v = get(e, 0) + c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


def _den_mul(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    return a if b is _ONE else b if a is _ONE else a * b


def _sum(an: Num, ad: ParamPoly, bn: Num, bd: ParamPoly) -> tuple[Num, ParamPoly]:
    """an/ad + bn/bd over a common denominator, not yet normalized."""
    if ad is bd or ad == bd:
        return _add(an, bn), ad
    return _add(_scale(an, bd), _scale(bn, ad)), ad * bd


def _linear(num: Num, den: ParamPoly, image: Callable) -> tuple[Num, ParamPoly]:
    """The Q(p,q)-linear map key -> image(key) applied to num/den, not yet
    normalized.  Images with denominator 1 accumulate in place on ints;
    the others are added through ``_sum``."""
    out: Num = {}
    get = out.get
    images: dict = {}
    rational: dict = {}
    for (key, i, j), c in num.items():
        g = images.get(key)
        if g is None:
            g = images[key] = image(key)
        if g.den is not _ONE:
            rational.setdefault(key, {})[(i, j)] = c
            continue
        for (k, i2, j2), c2 in g.num.items():
            e = (k, i + i2, j + j2)
            out[e] = get(e, 0) + c * c2
    out = {e: c for e, c in out.items() if c}
    acc = _ONE
    for key, terms in rational.items():
        g = images[key]
        out, acc = _sum(out, acc, _scale(g.num, _poly(terms)), g.den)
    return out, _den_mul(acc, den)


def bilinear_sum(pairs: Iterable, image: Callable, cls: type) -> "Linear":
    """The sum over (x, y) in ``pairs`` of the Q(p,q)-bilinear map (a, b) ->
    image(a, b) on pairs of keys applied to x and y, as a ``cls``: products
    keyed by pairs of keys, summed in place while the denominator repeats
    (through ``_sum`` where it does not), one ``_linear``, one normalization."""
    out, den = {}, _ONE
    for x, y in pairs:
        d = _den_mul(x.den, y.den)
        prod = out if not out or d is den or d == den else {}
        get = prod.get
        for (k1, i1, j1), c1 in x.num.items():
            for (k2, i2, j2), c2 in y.num.items():
                e = ((k1, k2), i1 + i2, j1 + j2)
                prod[e] = get(e, 0) + c1 * c2
        if prod is out:
            den = d
        else:
            out, den = _sum(out, den, {e: c for e, c in prod.items() if c}, d)
    out = {e: c for e, c in out.items() if c}
    return cls._make(*_linear(out, den, lambda ab: image(*ab)))


class Linear:
    """A finite Q(p,q)-linear combination of basis keys, stored as
    ``num / den``.

    ``num`` maps (key, i, j) to the nonzero int coefficient of p^i q^j in
    the key's coefficient; ``den`` is one ParamPoly shared by all keys.
    Both are in the canonical form of ``scalar._normal`` (so ``den`` is
    ``_ONE`` whenever it is 1); zero has an empty numerator.  Every
    result keeps the receiver's type.
    """

    __slots__ = ("num", "den")
    _nonnegative = False

    def __init__(self, coeffs: dict | None = None):
        """From {key: Scalar}: one sum over the nonzero coefficients,
        normalized once."""
        num, den = {}, _ONE
        for k, c in (coeffs or {}).items():
            if not c.is_zero():
                num, den = _sum(num, den, {(k, i, j): a for (i, j), a in c.num.terms.items()},
                                c.den)
        made = self._make(num, den)
        self.num, self.den = made.num, made.den

    @classmethod
    def _make(cls, num: Num, den: ParamPoly = _ONE) -> "Linear":
        """The one gate of every result: normalization, then ``_new``."""
        if den is not _ONE:
            num, den = _normal(num, den)
        return cls._new(num, den)

    @classmethod
    def _new(cls, num: Num, den: ParamPoly) -> "Linear":
        """A result around num/den already in canonical form; refuses the
        negative exponents of a ``PlainPoly``."""
        if cls._nonnegative and num and min(num)[0] < 0:
            raise ValueError("plain polynomials have nonnegative exponents")
        r = object.__new__(cls)
        r.num, r.den = num, den
        return r

    @classmethod
    def zero(cls) -> "Linear":
        return cls._new({}, _ONE)

    @classmethod
    def monomial(cls, c: Scalar, key) -> "Linear":
        """c * key, with the parts of c as they are: a Scalar is the one-key
        case of the canonical form."""
        return cls._new({(key, i, j): a for (i, j), a in c.num.terms.items()}, c.den)

    # -- coefficients as Scalars -------------------------------------------

    @property
    def coeffs(self) -> dict:
        return {k: Scalar(c, self.den) for k, c in _split(self.num).items()}

    def coeff(self, key) -> Scalar:
        terms = {(i, j): c for (m, i, j), c in self.num.items() if m == key}
        return Scalar(_poly(terms), self.den)

    def map_scalars(self, fn: Callable[[Scalar], Scalar]) -> "Linear":
        return type(self)({k: fn(c) for k, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.num

    # -- linear arithmetic -------------------------------------------------

    def _coerce(self, other) -> "Linear":
        return other if isinstance(other, type(self)) else NotImplemented

    def __add__(self, other) -> "Linear":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(*_sum(self.num, self.den, other.num, other.den))

    __radd__ = __add__

    def __neg__(self) -> "Linear":
        return self._new({e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Linear":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        neg = {e: -c for e, c in other.num.items()}
        return self._make(*_sum(self.num, self.den, neg, other.den))

    def scale(self, c: Scalar) -> "Linear":
        return self._make(_scale(self.num, c.num), _den_mul(self.den, c.den))

    def linear_map(self, image: Callable, cls: type) -> "Linear":
        """The Q(p,q)-linear map key -> image(key) applied to self, as a
        ``cls``; one normalization per call."""
        return cls._make(*_linear(self.num, self.den, image))

    def bilinear_map(self, other: "Linear", image: Callable, cls: type) -> "Linear":
        """The one-pair ``bilinear_sum``: (a, b) -> image(a, b) on pairs of
        keys applied to self and other, as a ``cls``."""
        return bilinear_sum(((self, other),), image, cls)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
        return _scale(self.num, other.den) == _scale(other.num, self.den)

    __hash__ = None


class LaurentPoly(Linear):
    """Laurent polynomial in t over Q(p,q): a ``Linear`` whose keys are
    the exponents of t, so ``num`` maps (k, i, j) of t^k p^i q^j to ints."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._new({(0, 0, 0): 1}, _ONE)

    @classmethod
    def t(cls, power: int = 1) -> "LaurentPoly":
        return cls._new({(power, 0, 0): 1}, _ONE)

    @classmethod
    def from_scalar(cls, c: Scalar) -> "LaurentPoly":
        return cls.monomial(c, 0)

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls._new({(0, 0, 0): n} if n else {}, _ONE)

    # -- structure ----------------------------------------------------------

    def is_unit(self) -> bool:
        """Units of A are exactly the single-term polynomials c*t^k."""
        return len({e[0] for e in self.num}) == 1

    def is_scalar(self) -> bool:
        return all(e[0] == 0 for e in self.num)

    def valuation(self) -> int:
        if self.is_zero():
            raise ValueError("valuation of zero")
        return min(e[0] for e in self.num)

    # -- ring arithmetic -----------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly":
        """Scalars, ints and Fractions act as constant polynomials."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, int):
            return self.from_int(other)
        if isinstance(other, Fraction):
            other = Scalar.from_fraction(other)
        return self.from_scalar(other) if isinstance(other, Scalar) else NotImplemented

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._make(_mul(self.num, other.num), _den_mul(self.den, other.den))

    __rmul__ = __mul__

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by t^d."""
        return self._make({(k + d, i, j): c for (k, i, j), c in self.num.items()}, self.den)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.unit_inverse() ** -n
        if self.is_unit():
            ((k, c),) = _split(self.num).items()
            return self._make(_join({k * n: c ** n}), self.den ** n)
        return _power(self, n, self.one())

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotAUnit(f"{self} is not a unit of the Laurent ring")
        ((k, c),) = _split(self.num).items()
        return self._make(_join({-k: self.den}), c)

    def __str__(self) -> str:
        return render_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The cofactor c with b*c = a, of the type of ``a``, or NotDivisible.

    Divides the numerator of ``a`` times the denominator of ``b`` by the
    numerator of ``b``, both shifted to valuation 0, with
    ``scalar._pseudo_divide``, the division of the gcd's remainder
    sequence; the t-shift difference is restored afterwards (units t^k
    divide everything).  The quotient is taken over the field Q(p,q): the
    pseudo-division multiplier becomes a parameter denominator, and only
    a remainder in t raises.
    """
    if b.is_zero():
        raise DivisionByZero("exact division by zero")
    if a.is_zero():
        return a.zero()
    num = a.num if b.den is _ONE else _scale(a.num, b.den)
    top, bot = _split(num), _split(b.num)
    va, vb = min(top), min(bot)
    quotient, rem, mult = _pseudo_divide(
        {k - va: c for k, c in top.items()}, {k - vb: c for k, c in bot.items()}
    )
    if rem:
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    den = a.den if mult is _ONE else a.den * mult
    return a._make(_join({k + va - vb: c for k, c in quotient.items()}), den)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except NotDivisible:
        return False


def exponent_map(f: LaurentPoly, u: LaurentPoly, cls=LaurentPoly) -> LaurentPoly | None:
    """f(t) -> f(u) as a map of exponents, for u = c*p^a*q^b*t^k with an
    int c and k != 0; None for any other u, or when f would need a
    negative power of c != 1."""
    if u.den is not _ONE or len(u.num) != 1:
        return None
    ((k0, a, b), c0), = u.num.items()
    if not k0 or c0 != 1 and f.num and min(f.num)[0] < 0:
        return None
    return cls._make({(k * k0, i + a * k, j + b * k): c if c0 == 1 else c * c0 ** k
                      for (k, i, j), c in f.num.items()}, f.den)


# -- monomial endomorphisms --------------------------------------------------


class Endo:
    """The algebra endomorphism of A determined by t -> c * t^k."""

    __slots__ = ("c", "k", "_pows")

    def __init__(self, c: Scalar, k: int):
        if c.is_zero():
            raise ValueError("endomorphism must send t to a unit")
        self.c = c
        self.k = k
        self._pows: dict[int, LaurentPoly] = {1: LaurentPoly.monomial(c, k)}

    def power(self, n: int) -> LaurentPoly:
        """The image c^n t^(k n) of t^n, cached."""
        got = self._pows.get(n)
        if got is None:
            got = self._pows[n] = self._pows[1] ** n
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
    got = exponent_map(f, e.power(1))
    return f.linear_map(e.power, LaurentPoly) if got is None else got


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
# here the t-direction is handled by the primitive remainder sequence
# over Q[p^+-1, q^+-1], with ``param_gcd`` for the contents.


def gcd_up_to_unit(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    """Canonical gcd of a nonempty family, determined up to Q* t^Z p^Z q^Z.

    The result splits as (scalar content) * (primitive t-part): the
    content is the bivariate gcd of all coefficient polynomials, the
    t-part is the last remainder of a primitive remainder sequence.
    Normalization: lowest t-exponent 0 and the leading t-coefficient's
    leading graded-lex coefficient positive.
    """
    items = [f for f in polys if not f.is_zero()]
    if not items:
        raise ValueError("gcd of an empty or all-zero family")

    # one common multiple of the non-constant denominators
    common = ParamPoly.one()
    for f in items:
        if not f.den.is_constant():
            common = param_lcm(common, f.den)

    integral: list[dict[int, ParamPoly]] = []
    for f in items:
        factor, v = common.exact_div(f.den), f.valuation()
        integral.append({k - v: c * factor for k, c in _split(f.num).items()})

    content = _normalize_param(reduce(param_gcd, (c for e in integral for c in e.values())))

    def content_of(poly: dict[int, ParamPoly]) -> ParamPoly:
        return reduce(param_gcd, poly.values())

    first = content_of(integral[0])
    prim = {k: c.exact_div(first) for k, c in integral[0].items()}
    for entry in integral[1:]:
        if len(prim) == 1 and 0 in prim:
            break
        prim = _primitive_prs(prim, entry, content_of)

    # sign normalization of the primitive part
    lead_sign = 1 if prim[max(prim)].leading()[1] > 0 else -1
    return LaurentPoly({k: Scalar(content * c.scale(lead_sign)) for k, c in prim.items()})


def render_laurent(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    coeffs = f.coeffs
    parts = []
    for k in sorted(coeffs, reverse=True):
        c = coeffs[k]
        t_part = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        neg = False
        body = render_scalar(c)
        if body.startswith("-") and "+" not in body and " - " not in body:
            neg = True
            body = body[1:]
        simple = c.den is _ONE and (_atomic(c.num) or _atomic((-c).num))
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
