"""The canonical form of a quotient num/den, ``scalar._normal``, against a
test-local reference route, and the invariants that let a ``Scalar`` enter
and leave the linear core with its parts as they are.

The reference is the normalization a ``Scalar`` used to carry on its own:
the denominator's monomial factor moved into the numerator, one
``param_gcd`` of numerator and denominator divided out, rational content
cleared jointly and the denominator's leading coefficient made positive.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from homlie import laurent, scalar
from homlie.algebra import Combo
from homlie.laurent import LaurentPoly
from homlie.scalar import ONE, P, Q, ParamPoly, Scalar, param_gcd


def reference_normal(num: ParamPoly, den: ParamPoly) -> tuple[dict, dict]:
    """(numerator terms, denominator terms) of num/den by the reference
    route; den is nonzero."""
    if num.is_zero():
        return {}, {(0, 0): 1}
    i0, j0 = den.min_exponents()
    num, den = num.shift(-i0, -j0), den.shift(-i0, -j0)
    if not den.is_constant() and len(num.terms) > 1:
        common = param_gcd(num, den)
        if len(common.terms) > 1:
            num, den = num.exact_div(common), den.exact_div(common)
    scale = lcm(*(Fraction(c).denominator for f in (num, den) for c in f.terms.values()))
    ints = [{e: int(c * scale) for e, c in f.terms.items()} for f in (num, den)]
    content = gcd(*ints[0].values(), *ints[1].values())
    if den.leading()[1] < 0:
        content = -content
    return tuple({e: c // content for e, c in t.items()} for t in ints)


coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
exponents = st.integers(min_value=-2, max_value=2)
polys = st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=3).map(ParamPoly)
# common factors of numerator and denominator, monomial factors among them
FACTORS = [ONE, P - Q, P + Q, (P - Q) * (P + Q), (P - Q) ** 2, P ** 2 * Q,
           -(P - Q) / Q, Scalar.from_fraction(Fraction(-3, 2)) * (P + Q)]
factors = st.sampled_from(FACTORS).map(lambda s: s.num)


@given(polys, polys, factors, factors)
@settings(max_examples=200, deadline=None)
def test_shared_form_matches_reference(num, den, common, extra):
    den = den * extra
    if den.is_zero():
        den = extra
    num, den = num * common, den * common
    s = Scalar(num, den)
    want_num, want_den = reference_normal(num, den)
    assert s.num.terms == want_num
    assert s.den.terms == want_den
    assert all(type(c) is int for f in (s.num, s.den) for c in f.terms.values())


scalars = st.tuples(polys, polys).map(
    lambda nd: Scalar(nd[0], nd[1]) if not nd[1].is_zero() else Scalar(nd[0]))


def holds_sentinel(den: ParamPoly) -> bool:
    """A denominator equal to 1 is the shared object."""
    return den != ParamPoly.one() or den is laurent._ONE


@given(scalars, scalars)
@settings(max_examples=80, deadline=None)
def test_denominator_one_is_the_shared_sentinel(a, b):
    results = [a, b, a + b, a - b, a * b, -a, a ** 2]
    if not b.is_zero():
        results.append(a / b)
    assert all(holds_sentinel(s.den) for s in results)
    f = LaurentPoly({0: a, 1: b})
    g = LaurentPoly({-1: b, 1: a * b})
    combos = [Combo({"e": a, "f": b}), Combo.basis("h", a)]
    linears = [f, g, f + g, f * g, f.scale(b), *combos, combos[0] - combos[1]]
    assert all(holds_sentinel(x.den) for x in linears)
    assert all(holds_sentinel(c.den) for x in linears for c in x.coeffs.values())


def test_examples_hold_the_sentinel():
    for s in (ONE, Scalar.zero(), P / P, (P ** 2 - Q ** 2) / (P - Q),
              Scalar(ParamPoly.const(2), ParamPoly.const(2)),
              Scalar(ParamPoly.monomial(Fraction(1, 2), 1, 0), ParamPoly.const(Fraction(1, 2)))):
        assert s.den is laurent._ONE
    assert LaurentPoly.t(3).den is laurent._ONE
    assert ((P - Q) / (P + Q)).den is not laurent._ONE


@given(scalars)
@settings(max_examples=80, deadline=None)
def test_scalar_passes_through_the_linear_core(s):
    c = LaurentPoly.from_scalar(s).coeff(0)
    assert c.num.terms == s.num.terms
    assert c.den.terms == s.den.terms
    assert (c.den is laurent._ONE) == (s.den is laurent._ONE)


def test_negation_keeps_the_form_without_a_gcd(monkeypatch):
    s = (P ** 2 + Q) / (P - Q)
    calls = []
    real = scalar.param_gcd
    monkeypatch.setattr(scalar, "param_gcd", lambda f, g: calls.append(1) or real(f, g))
    neg = -s
    assert calls == []
    want = Scalar(-s.num, s.den)
    assert (neg.num, neg.den) == (want.num, want.den)
    assert (-Scalar.zero()).den is laurent._ONE


@given(scalars)
@settings(max_examples=80, deadline=None)
def test_negation_matches_the_normalized_route(s):
    want = Scalar(-s.num, s.den)
    assert ((-s).num.terms, (-s).den.terms) == (want.num.terms, want.den.terms)


@given(st.lists(st.tuples(polys, st.booleans()), min_size=1, max_size=4), factors, factors,
       st.tuples(exponents, exponents))
@settings(max_examples=120, deadline=None)
def test_keyed_form_divides_the_common_gcd_of_all_keys(parts, common, extra, shift):
    """Several keys over one denominator, common * extra times a monomial:
    a key whose coefficient has the factor extra is divided by the whole
    denominator, and a later key without it shrinks the common factor to
    common.  The result is still num/den over the gcd of every
    coefficient and the denominator (its monomial factor moved first)."""
    den = (common * extra).shift(*shift)
    coeffs = {k: f * common * (extra if whole else ParamPoly.one())
              for k, (f, whole) in enumerate(parts)}
    coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
    ints = scalar._cleared(*coeffs.values(), den)
    num = {(k, i, j): c for k, f in zip(coeffs, ints) for (i, j), c in f.items()}
    got_num, got_den = scalar._normal(num, ParamPoly(ints[-1]))
    # reference: shift, one gcd over everything, divide, clear content
    i0, j0 = ParamPoly(ints[-1]).min_exponents()
    ref_den = ParamPoly(ints[-1]).shift(-i0, -j0)
    ref = {k: ParamPoly(f).shift(-i0, -j0) for k, f in zip(coeffs, ints)}
    g = ref_den
    for c in ref.values():
        g = param_gcd(g, c)
    if len(g.terms) > 1:
        ref_den = ref_den.exact_div(g)
        ref = {k: c.exact_div(g) for k, c in ref.items()}
    content = gcd(*(c for f in ref.values() for c in f.terms.values()), *ref_den.terms.values())
    if ref_den.leading()[1] < 0:
        content = -content
    want_num = {(k, i, j): c // content for k, f in ref.items() for (i, j), c in f.terms.items()}
    assert got_num == want_num
    assert got_den.terms == {e: c // content for e, c in ref_den.terms.items()}


@given(scalars, st.one_of(st.just(0), st.integers(-60, -1), st.integers(1, 60)))
@settings(max_examples=150, deadline=None)
def test_int_times_scalar_matches_the_scalar_product(s, k):
    """k * s scales the numerator and shares gcd(k, content of the
    denominator) with it, in the canonical form of the full product."""
    want = Scalar.from_int(k) * s
    for got in (k * s, s * k):
        assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)
        assert (got.den is laurent._ONE) == (want.den is laurent._ONE)
        assert str(got) == str(want)


def test_int_times_scalar_takes_no_polynomial_product(monkeypatch):
    s = (P ** 2 + Q) / (6 * P - 4 * Q)
    calls = []
    real = ParamPoly.__mul__
    monkeypatch.setattr(ParamPoly, "__mul__", lambda f, g: calls.append(1) or real(f, g))
    got = [k * s for k in (0, -3, 4, 2)]
    assert calls == []
    monkeypatch.undo()
    assert [(x.num.terms, x.den.terms) for x in got] == [
        ((Scalar.from_int(k) * s).num.terms, (Scalar.from_int(k) * s).den.terms)
        for k in (0, -3, 4, 2)]
    assert got[0].den is laurent._ONE and got[0].is_zero()
