"""Exact arithmetic in Q(p,q), the field of rational functions in the two
deformation parameters p and q.

A ``ParamPoly`` is a Laurent polynomial in p and q over the rationals,
stored as a sparse map from exponent pairs (i, j) to ``Fraction``
coefficients.  A ``Scalar`` is a quotient of two such polynomials.

Equality of scalars is decided by cross-multiplication of the stored
numerators and denominators, never by polynomial gcd, so it is exact even
though quotients are not reduced to lowest terms.  The canonical form is
best-effort: monomial factors p^i q^j are moved into the numerator, both
parts carry integer coefficients with joint content 1, and the
denominator's leading coefficient (graded-lex order on (i, j)) is
positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import DivisionByZero, PoleAtPoint

Exps = tuple[int, int]


def _grlex_key(e: Exps):
    i, j = e
    return (i + j, i, j)


class ParamPoly:
    """Sparse Laurent polynomial in p and q with Fraction coefficients.

    Invariant: no stored coefficient is zero; the zero polynomial is the
    empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exps, Fraction] | None = None):
        self.terms: dict[Exps, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[e] = Fraction(c)

    @staticmethod
    def zero() -> "ParamPoly":
        return ParamPoly()

    @staticmethod
    def const(c) -> "ParamPoly":
        c = Fraction(c)
        return ParamPoly({(0, 0): c}) if c else ParamPoly()

    @staticmethod
    def one() -> "ParamPoly":
        return ParamPoly.const(1)

    @staticmethod
    def monomial(c, i: int, j: int) -> "ParamPoly":
        c = Fraction(c)
        return ParamPoly({(i, j): c}) if c else ParamPoly()

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0, 0)]

    def __eq__(self, other) -> bool:
        return isinstance(other, ParamPoly) and self.terms == other.terms

    __hash__ = None  # mutable-style container; never used as a dict key

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = ParamPoly()
        r.terms = out
        return r

    def __neg__(self) -> "ParamPoly":
        r = ParamPoly()
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        out: dict[Exps, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = ParamPoly()
        r.terms = out
        return r

    def scale(self, c) -> "ParamPoly":
        c = Fraction(c)
        if not c:
            return ParamPoly()
        r = ParamPoly()
        r.terms = {e: co * c for e, co in self.terms.items()}
        return r

    def shift(self, di: int, dj: int) -> "ParamPoly":
        """Multiply by the monomial p^di q^dj."""
        r = ParamPoly()
        r.terms = {(i + di, j + dj): c for (i, j), c in self.terms.items()}
        return r

    def __pow__(self, n: int) -> "ParamPoly":
        if len(self.terms) == 1:
            ((i, j), c), = self.terms.items()
            return ParamPoly.monomial(c ** n, i * n, j * n)
        if n < 0:
            raise ValueError("negative power of a non-monomial")
        r = ParamPoly.one()
        for _ in range(n):
            r = r * self
        return r

    def min_exponents(self) -> Exps:
        if self.is_zero():
            return (0, 0)
        return (min(i for i, _ in self.terms), min(j for _, j in self.terms))

    def leading(self) -> tuple[Exps, Fraction]:
        """Leading term under graded-lex order on (i, j)."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def degree_in(self, var: int) -> int:
        """Top exponent of p (var=0) or q (var=1); -1 for the zero poly."""
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def exact_div(self, divisor: "ParamPoly") -> "ParamPoly":
        """Exact division by a nonzero polynomial (graded-lex reduction).

        Raises ValueError if the division leaves a remainder.  Used only
        where exactness is guaranteed (content and primitive parts).
        """
        if divisor.is_zero():
            raise DivisionByZero("division of parameter polynomial by zero")
        if self.is_zero():
            return ParamPoly.zero()
        rem = self
        (di, dj), dc = divisor.leading()
        # exact quotient exponents are bounded below componentwise
        si, sj = self.min_exponents()
        vi, vj = divisor.min_exponents()
        lo_i, lo_j = si - vi, sj - vj
        out: dict[Exps, Fraction] = {}
        while not rem.is_zero():
            (ri, rj), rc = rem.leading()
            e = (ri - di, rj - dj)
            if e[0] < lo_i or e[1] < lo_j:
                raise ValueError("not exactly divisible")
            c = rc / dc
            out[e] = out.get(e, Fraction(0)) + c
            rem = rem - divisor.shift(*e).scale(c)
            if not rem.is_zero() and _grlex_key(rem.leading()[0]) >= _grlex_key((ri, rj)):
                raise ValueError("division did not reduce")
        r = ParamPoly()
        r.terms = {e: c for e, c in out.items() if c}
        if (r * divisor).terms != self.terms:
            raise ValueError("not exactly divisible")
        return r

    def evaluate(self, p0: Fraction, q0: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            try:
                vp = p0 ** i if i >= 0 else Fraction(1) / (p0 ** (-i))
                vq = q0 ** j if j >= 0 else Fraction(1) / (q0 ** (-j))
            except ZeroDivisionError:
                raise PoleAtPoint(f"negative power of zero at (p,q)=({p0},{q0})")
            total += c * vp * vq
        return total

    def __str__(self) -> str:
        return render_param_poly(self)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


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
# both inputs exactly over Z; the theorem behind GCDHEU says that such a
# candidate is the gcd.  Otherwise xi grows and the evaluation is tried
# again, a bounded number of times.  When every try fails, the gcd comes
# from the classical content/primitive-part recursion: p is the main
# variable, the coefficients are polynomials in q, and the primitive part
# comes from monic Euclid over the field Q(q).  Both routes give the same
# canonical associate.


def _normalize_param(f: ParamPoly) -> ParamPoly:
    """Canonical associate: min exponents 0, integer content 1, positive
    leading graded-lex coefficient."""
    if f.is_zero():
        return f
    i0, j0 = f.min_exponents()
    f = f.shift(-i0, -j0)
    lcm = 1
    for c in f.terms.values():
        lcm = lcm * c.denominator // _int_gcd(lcm, c.denominator)
    f = f.scale(lcm)
    content = 0
    for c in f.terms.values():
        content = _int_gcd(content, int(c))
    if f.leading()[1] < 0:
        content = -content
    return f.scale(Fraction(1, content))


def _q_only_degree(f: ParamPoly) -> int:
    return f.degree_in(1)


def _univar_mod_q(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    db = _q_only_degree(b)
    lead_b = b.terms[(0, db)]
    rem = a
    while not rem.is_zero() and _q_only_degree(rem) >= db:
        dr = _q_only_degree(rem)
        c = rem.terms[(0, dr)] / lead_b
        rem = rem - b.shift(0, dr - db).scale(c)
    return rem


def _univar_gcd_q(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Euclidean gcd of two polynomials in q alone (p-degree zero)."""
    a, b = _normalize_param(a), _normalize_param(b)
    while not b.is_zero():
        a, b = b, _univar_mod_q(a, b)
    return _normalize_param(a)


def _p_coefficients(f: ParamPoly) -> dict[int, ParamPoly]:
    """Group terms by the exponent of p; values are polynomials in q."""
    out: dict[int, ParamPoly] = {}
    for (i, j), c in f.terms.items():
        out.setdefault(i, ParamPoly())
        out[i] = out[i] + ParamPoly.monomial(c, 0, j)
    return out


def _content_wrt_p(f: ParamPoly) -> ParamPoly:
    cont = ParamPoly.zero()
    for coeff in _p_coefficients(f).values():
        cont = coeff if cont.is_zero() else _univar_gcd_q(cont, coeff)
    return cont


def _euclid_in_p(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Monic Euclid in p over the field Q(q), coefficients carried as
    Scalars; the result is returned as a primitive ParamPoly."""
    fa = {i: Scalar(c) for i, c in _p_coefficients(a).items()}
    fb = {i: Scalar(c) for i, c in _p_coefficients(b).items()}

    def degree(poly: dict[int, "Scalar"]) -> int:
        return max(poly) if poly else -1

    def mod(x: dict[int, "Scalar"], y: dict[int, "Scalar"]) -> dict[int, "Scalar"]:
        dy = degree(y)
        ly = y[dy]
        rem = dict(x)
        while rem and degree(rem) >= dy:
            dr = degree(rem)
            c = rem[dr] / ly
            for i, co in y.items():
                k = i + dr - dy
                v = rem.get(k, Scalar.zero()) - c * co
                if v.is_zero():
                    rem.pop(k, None)
                else:
                    rem[k] = v
            rem.pop(dr, None)
        return rem

    while fb:
        fa, fb = fb, mod(fa, fb)
    result = ParamPoly.zero()
    common = ParamPoly.one()
    for c in fa.values():
        common = common * c.den
    for i, c in fa.items():
        result = result + (c.num * common.exact_div(c.den)).shift(i, 0)
    return _normalize_param(result.exact_div(_content_wrt_p(result)))


def _gcd_euclid(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    """Gcd by content/primitive-part Euclid: the fallback of
    ``param_gcd`` and the oracle its tests compare with."""
    f, g = _normalize_param(f), _normalize_param(g)
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.degree_in(0) == 0 and g.degree_in(0) == 0:
        return _univar_gcd_q(f, g)
    cf, cg = _content_wrt_p(f), _content_wrt_p(g)
    cont = _univar_gcd_q(cf, cg)
    pf, pg = f.exact_div(cf), g.exact_div(cg)
    prim = _euclid_in_p(pf, pg)
    return _normalize_param(cont * prim)


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


def _z_divides(d: IntPoly, f: IntPoly) -> bool:
    """True when d divides f in Z[p, q]: long division in lex order,
    stopped at the first quotient term outside Z[p, q] or outside the
    quotient's degree bounds."""
    lead = max(d)
    lead_c = d[lead]
    tail = [(e, c) for e, c in d.items() if e != lead]
    top_p = max(i for i, _ in f) - lead[0]
    top_q = max(j for _, j in f) - max(j for _, j in d)
    if top_p < 0 or top_q < 0:
        return False
    rem = dict(f)
    while rem:
        e = max(rem)
        qi, qj = e[0] - lead[0], e[1] - lead[1]
        if not (0 <= qi <= top_p and 0 <= qj <= top_q):
            return False
        c, r = divmod(rem.pop(e), lead_c)
        if r:
            return False
        for (i, j), co in tail:
            k = (i + qi, j + qj)
            v = rem.get(k, 0) - c * co
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
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
            if cand == {(0, 0): 1} or _z_divides(cand, f) and _z_divides(cand, g):
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
    gcd = _gcd_heuristic(
        {e: c.numerator for e, c in f.terms.items()},
        {e: c.numerator for e, c in g.terms.items()},
    )
    if gcd is None:
        return _gcd_euclid(f, g)
    if gcd[max(gcd, key=_grlex_key)] < 0:
        gcd = {e: -c for e, c in gcd.items()}
    return ParamPoly(gcd)


def param_lcm(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    return _normalize_param((f * g).exact_div(param_gcd(f, g)))


def _joint_integer_normal(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    """Scale num and den so both have integer coefficients with joint
    content 1 and the denominator's leading coefficient is positive."""
    denom_lcm = 1
    for c in list(num.terms.values()) + list(den.terms.values()):
        denom_lcm = denom_lcm * c.denominator // _int_gcd(denom_lcm, c.denominator)
    num = num.scale(denom_lcm)
    den = den.scale(denom_lcm)
    content = 0
    for c in list(num.terms.values()) + list(den.terms.values()):
        content = _int_gcd(content, int(c))
    if den.leading()[1] < 0:
        content = -content
    return num.scale(Fraction(1, content)), den.scale(Fraction(1, content))


class Scalar:
    """Element of the field Q(p,q), stored as ``num / den``."""

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        den_is_one = den is None or (
            len(den.terms) == 1 and den.terms.get((0, 0)) == 1
        )
        if den_is_one:
            # fast path: integral numerators over denominator 1 are already
            # in canonical form, and they dominate the inner loops
            if all(c.denominator == 1 for c in num.terms.values()):
                self.num, self.den = num, ParamPoly.one()
                return
            den = ParamPoly.one()
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero():
            self.num, self.den = ParamPoly.zero(), ParamPoly.one()
            return
        # move the denominator's monomial factor into the numerator
        i0, j0 = den.min_exponents()
        if (i0, j0) != (0, 0):
            den = den.shift(-i0, -j0)
            num = num.shift(-i0, -j0)
        # reduce by the polynomial gcd when the denominator is non-constant;
        # equality never depends on this, but it bounds coefficient growth
        if not den.is_constant() and len(num.terms) > 1:
            common = param_gcd(num, den)
            if len(common.terms) > 1:
                num = num.exact_div(common)
                den = den.exact_div(common)
        self.num, self.den = _joint_integer_normal(num, den)

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
        return Scalar(ParamPoly.const(Fraction(x)))

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

    def is_rational(self) -> bool:
        """True when the value is a constant (no p, q dependence).

        Exact because num and den never share a non-constant monomial
        factor after normalization; a constant value forces num to be a
        constant multiple of den, which cross-multiplication detects.
        """
        if self.is_zero():
            return True
        lead_e, lead_c = self.den.leading()
        cand = Scalar.from_fraction(
            self.num.terms.get(lead_e, Fraction(0)) / lead_c
        )
        return self == cand

    def as_fraction(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        lead_e, lead_c = self.den.leading()
        cand = self.num.terms.get(lead_e, Fraction(0)) / lead_c
        if self != Scalar.from_fraction(cand):
            raise ValueError(f"{self} is not a rational constant")
        return cand

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
        return Scalar(-self.num, self.den)

    def __sub__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

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
        if n < 0:
            return self.inverse() ** (-n)
        r = Scalar.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

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
        """Apply the field endomorphism p -> p_image, q -> q_image."""
        def image(poly: ParamPoly) -> Scalar:
            total = Scalar.zero()
            for (i, j), c in poly.terms.items():
                total = total + Scalar.from_fraction(c) * (p_image ** i) * (q_image ** j)
            return total

        nv = image(self.num)
        dv = image(self.den)
        if dv.is_zero():
            raise PoleAtPoint("denominator vanishes under substitution")
        return nv / dv

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self})"


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
    if s.den == ParamPoly.one():
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
    """The (a,b)-deformed integer: sum_{k=0}^{n-1} a^(n-1-k) b^k for n >= 0,
    extended to negative n by [-n] = -(ab)^(-n) [n]."""
    if n == 0:
        return Scalar.zero()
    if n < 0:
        return -((a * b) ** n) * pq_number_of(a, b, -n)
    total = Scalar.zero()
    for k in range(n):
        total = total + (a ** (n - 1 - k)) * (b ** k)
    return total


def pq_number(n: int) -> Scalar:
    """[n] = (p^n - q^n)/(p - q), as a Laurent polynomial in p and q."""
    return pq_number_of(P, Q, n)


def pq_number_equal(n: int) -> Scalar:
    """The q = p degeneration n * p^(n-1)."""
    if n == 0:
        return Scalar.zero()
    return Scalar.monomial(n, n - 1, 0)


def q_number(n: int) -> Scalar:
    """{n} = (1 - r^n)/(1 - r) in the single parameter r = q/p."""
    return pq_number_of(ONE, Q / P, n)
